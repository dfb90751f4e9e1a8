"""Vectorised fault-propagation kernel (numpy, all faults at once).

The packed simulator (:class:`repro.faultsim.simulator.FaultSimulator`)
propagates one fault at a time through an event-driven Python loop; its
per-gate cost is a dict lookup and a bigint op, and ``BENCH_engine.json``
shows that loop — not sharding — is the engine's bottleneck.  This module
trades the event-driven cone walk for breadth: every live fault becomes a
*lane*, every live net's value across all lanes and all pattern words of
the batch lives in one row of a 2-D ``uint64`` array, and each level of
the levelised netlist is evaluated for all lanes with a handful of numpy
ufunc calls.

Layout (``W`` = 64-bit words per batch, ``C`` = fault lanes per chunk,
``R`` = state rows)::

    state : uint64[R, C*W]                      # row = a slot, lanes-major
    state.reshape(R, C, W)[slot[net], lane, :]  # one fault's words

Rows are recycled.  :class:`CompiledVecNetlist` gives each net a row only
from the level that defines it (primary inputs: level 0) through its last
reader, or through its own level for a primary output or an unread net;
a later level reuses the freed row.  synth20k needs 3 720 rows where a
row per net would be 21 240.

Lanes are sorted by *injection level* — the level after which a fault's
value first differs: a stem fault's net level, a branch fault's gate
level.  A chunk of lanes starts at the lowest injection level ``s`` among
them.  The rows live at ``s`` are filled from golden words (the
*boundary fill*), and only levels ``s+1`` onwards are evaluated: below
``s`` every lane of the chunk is fault-free.  Per level, gates are
grouped at compile time by ``(base type, fanin)`` into row-index arrays
of at most :data:`VEC_GROUP_WIDTH` gates, so evaluation is ``gather ->
in-place AND/OR/XOR over pins -> optional XOR with the batch mask ->
scatter`` and the gather temporaries never outgrow that cap.  A chunk holds
at most ``VEC_ROW_WORDS // W`` lanes, so its buffer is a fixed number of
8 KB rows whatever the fault list.  After the gates of a level:

* **stem faults** finalised at the level overwrite their net's lane row
  with the forced constant, so every downstream reader sees it;
* **branch faults** (one gate input pin) of the level's gates patch only
  that gate's output lane row, recomputed from golden input words with
  the pin forced — everything else in the lane still reads the healthy
  stem;
* **detection** XORs each primary output the level defines against its
  golden words and ORs the result into the lane's detection words, in
  slices of at most :data:`VEC_GROUP_WIDTH` outputs.

The first set bit of a lane's detection words is its first-detecting
pattern.  The surviving-fault bookkeeping then replays the packed
simulator's merge semantics verbatim, in the original lane order, which
is what keeps the two kernels **bit-identical** — same detection tables,
same first-detection indices, same survivor order — so checkpoints,
chaos, guard and both executors compose unchanged (see
``docs/ENGINE.md``).  An engine round is worked through one batch at a
time while at least :data:`VEC_MIN_LANES` lanes are live; the rest of
the round runs in one pass of the inherited packed propagator.

The kernel is an *execution strategy*, not a result parameter: it is
excluded from :func:`repro.exec.config.canonical_fields`, journals resume
across kernels, and :func:`resolve_kernel` silently falls back to the
packed simulator (recording a reason) for netlists it does not support —
missing numpy, fan-in beyond :data:`MAX_VEC_FANIN`, floating nets.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.errors import SimulationError
from repro.exec.config import KERNEL_CHOICES
from repro.faultsim.faults import Fault
from repro.faultsim.simulator import FaultSimulator, PackedTables
from repro.netlist.gates import GateType, evaluate_gate
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Netlist

try:  # numpy is an optional extra; everything degrades to packed without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _numpy_missing tests
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
else:
    np = _np

#: Environment override for the kernel choice, same ambient idiom as
#: ``$REPRO_ENGINE_EXECUTOR`` — one of ``packed`` / ``vec`` / ``auto``.
KERNEL_ENV_VAR = "REPRO_ENGINE_KERNEL"

#: Auto-selection cost heuristic: vectorisation pays once the per-batch
#: work (every fault times every gate) dwarfs the numpy call overhead.
#: In a sweep at 2^14 patterns over every kernel the benchmark workloads
#: run (``docs/ENGINE.md``), each kernel from 424 960 up ran 3.5-10x
#: faster on vec; below 19 536 packed/vec straddled 1 (0.48-1.9) in runs
#: of at most 27 ms, and no kernel fell in between.
VEC_AUTO_THRESHOLD = 100_000

#: Per-batch crossover: once fewer lanes than this are live, the rest of
#: the round runs on the inherited packed propagator, because a numpy pass
#: costs about the same per gate group whatever the lane count while
#: packed pays per fault.  A sweep of random collapsed faults on one
#: 256-pattern batch (see ``docs/ENGINE.md``) put the crossover between 5
#: and 6 lanes on c3a2m (5 lanes: vec 1.30 ms, packed 1.11 ms; 6 lanes:
#: 1.35 vs 1.63 ms) and between 3 and 4 on synth20k (3 lanes: 9.9 vs
#: 8.0 ms; 4 lanes: 11.1 vs 12.0 ms).
VEC_MIN_LANES = 5

#: Widest gate the vectorised per-pin reduction compiles.  Beyond this the
#: gather-per-pin cost grows linearly while the event-driven simulator
#: still touches only the fault cone, so wider gates fall back to packed.
MAX_VEC_FANIN = 16

#: Widest gather, in rows: compilation splits every gate group, and every
#: level's primary-output detection, into pieces of at most this many
#: rows, so the two gather temporaries stop growing with the widest
#: level (c4a4m's KA kernels had 128-gate groups, synth20k 3 600).  In
#: the first-batch sweep in ``docs/ENGINE.md`` time did not follow the
#: cap from 16 to 128; at 32 synth20k's buffer is 29.6 MiB, against
#: 64 MiB uncapped.
VEC_GROUP_WIDTH = 32

#: Words per state row: a chunk takes at most ``VEC_ROW_WORDS // W``
#: lanes (at least one), so its buffer is ``(R + 2 * widest)`` rows of
#: at most 8 KB up to 65 536 patterns per batch (c4a4m KA kernel5's
#: first batch: 1.7 MiB, against 33 MiB in one chunk).  The narrowest
#: row at the bottom of the first-batch sweep in ``docs/ENGINE.md``:
#: 18.3 ms there against 30.2 ms for one chunk and 34.5 ms at 256 words.
VEC_ROW_WORDS = 1024

#: Per-call buffer ceiling in bytes: fault lanes are also chunked so the
#: state rows plus the two gather temporaries,
#: ``(rows + 2 * widest) * C * W * 8``, stay under it.  With
#: :data:`VEC_ROW_WORDS` it binds only above about 8 000 live rows.
VEC_MEMORY_BUDGET = 64 * 1024 * 1024


# -------------------------------------------------------------- support gate


def vec_support_reason(netlist: Netlist) -> Optional[str]:
    """Why the vec kernel cannot run this netlist, or ``None`` if it can.

    The reasons mirror the fallback table in ``docs/ENGINE.md``: the
    caller records the reason and runs the packed simulator instead, so
    an unsupported construct is never an error.
    """
    if np is None:
        return "numpy is not installed (pip install repro-bist[vec])"
    driven = set(netlist.primary_inputs)
    for gate in netlist.gates:
        driven.add(gate.output)
    for gate in netlist.gates:
        if len(gate.inputs) > MAX_VEC_FANIN:
            return (
                f"gate {gate.name or gate.gtype.value} has fan-in "
                f"{len(gate.inputs)} > {MAX_VEC_FANIN}"
            )
        for net in gate.inputs:
            if net not in driven:
                return (
                    f"gate {gate.name or gate.gtype.value} reads floating "
                    f"net {netlist.net_name(net)}"
                )
    for net in netlist.primary_outputs:
        if net not in driven:
            return f"primary output {netlist.net_name(net)} is floating"
    return None


def resolve_kernel(
    requested: Optional[str],
    netlist: Netlist,
    n_faults: int,
    support: Callable[[Netlist], Optional[str]] = vec_support_reason,
) -> Tuple[str, Optional[str]]:
    """Pick the evaluation kernel for one run.

    Resolution order mirrors the executor's: explicit config value, then
    ``$REPRO_ENGINE_KERNEL``, then ``auto``.  ``auto`` picks vec when the
    netlist is supported and the run is large enough for vectorisation to
    pay (:data:`VEC_AUTO_THRESHOLD`); an explicit ``vec`` on an
    unsupported netlist falls back to packed rather than failing.
    ``support`` gives :func:`vec_support_reason` (the engine passes the
    verdict its netlist artifacts keep).

    Returns ``(kernel, fallback_reason)`` where ``kernel`` is ``"packed"``
    or ``"vec"`` and ``fallback_reason`` is non-None only when a vec
    request (explicit or auto-eligible) was downgraded.
    """
    import os

    name = requested
    if not name:
        name = os.environ.get(KERNEL_ENV_VAR, "").strip() or "auto"
    if name not in KERNEL_CHOICES:
        raise SimulationError(
            f"unknown engine kernel {name!r} "
            f"(expected one of: {', '.join(KERNEL_CHOICES)})"
        )
    if name == "packed":
        return "packed", None
    reason = support(netlist)
    if name == "vec":
        if reason is not None:
            return "packed", reason
        return "vec", None
    # auto: only vectorise when the batch work amortises the numpy overhead
    if n_faults * len(netlist.gates) < VEC_AUTO_THRESHOLD:
        return "packed", None
    if reason is not None:
        return "packed", reason
    return "vec", None


# ------------------------------------------------------------------- compile


class _GateGroup:
    """Gates of one level sharing a base type and fan-in, as row arrays.

    ``op`` reduces the pins (``None`` for BUF and the constants), and
    ``out_idx`` / ``in_idx`` are state rows, not net ids.
    """

    __slots__ = ("base", "inverting", "op", "out_idx", "in_idx")

    def __init__(self, base: GateType, inverting: bool,
                 out_idx: "np.ndarray", in_idx: List["np.ndarray"]):
        self.base = base
        self.inverting = inverting
        reducers: Dict[GateType, Callable[..., Any]] = {
            GateType.AND: np.bitwise_and,
            GateType.OR: np.bitwise_or,
            GateType.XOR: np.bitwise_xor,
        }
        self.op = reducers.get(base)
        self.out_idx = out_idx
        self.in_idx = in_idx


class CompiledVecNetlist:
    """A netlist lowered to per-level gate groups over recycled state rows.

    Compiled once per netlist structure in a process (see
    :mod:`repro.engine.artifacts`); every :meth:`VecFaultSimulator.
    simulate_batch` call reuses it, and only reads it but for the memo
    of :meth:`boundary`, whose entries are the same whoever fills them.
    ``net_level`` is the level after which each net's value is final
    (primary inputs and undriven nets are level 0), where stem-fault
    overrides apply; ``gate_level`` places branch-fault output patches.
    ``slot`` maps each net to its state row; ``n_rows`` rows hold every
    net that is live at once.  ``order`` is a topological gate order
    (the simulator's ``Evaluator.order``); it is computed when not
    given.
    """

    def __init__(self, netlist: Netlist,
                 order: Optional[Sequence[int]] = None):
        reason = vec_support_reason(netlist)
        if reason is not None:
            raise SimulationError(f"netlist not vectorisable: {reason}")
        self.n_nets = n_nets = netlist.n_nets
        gates = netlist.gates
        if order is None:
            order = levelize(netlist)
        # One pass in topological order: each net's defining level,
        # ``last``, the highest level of a gate reading it, and the gates
        # grouped per level by (base, inverting, fanin) as net ids.
        self.net_level = net_level = [0] * n_nets
        self.gate_level = gate_level = [0] * len(gates)
        last = [-1] * n_nets
        kinds = {gtype: (gtype.base, gtype.is_inverting) for gtype in GateType}
        grouped: Dict[Tuple[int, GateType, bool, int],
                      Tuple[List[int], List[List[int]]]] = {}
        for index in order:
            gate = gates[index]
            inputs = gate.inputs
            level = 1 + max([net_level[net] for net in inputs], default=0)
            gate_level[index] = level
            net_level[gate.output] = level
            for net in inputs:
                if last[net] < level:
                    last[net] = level
            base, inverting = kinds[gate.gtype]
            key = (level, base, inverting, len(inputs))
            group = grouped.get(key)
            if group is None:
                group = grouped[key] = ([], [[] for _ in inputs])
            group[0].append(gate.output)
            for pins, net in zip(group[1], inputs):
                pins.append(net)
        self.depth = depth = max(gate_level, default=0)
        end = [max(own, read) for own, read in zip(net_level, last)]

        # Rows: a net takes a free row at its defining level and returns
        # it after its last level, so no two nets live at once share one.
        born: List[List[int]] = [[] for _ in range(depth + 1)]
        dies: List[List[int]] = [[] for _ in range(depth + 1)]
        for net in range(n_nets):
            born[net_level[net]].append(net)
            dies[end[net]].append(net)
        slot = [0] * n_nets
        free: List[int] = []
        n_rows = 0
        for level in range(depth + 1):
            for net in born[level]:
                if free:
                    slot[net] = free.pop()
                else:
                    slot[net] = n_rows
                    n_rows += 1
            for net in dies[level]:
                free.append(slot[net])
        self.n_rows = n_rows
        self.slot = rows = np.asarray(slot, dtype=np.intp)
        self._def = np.asarray(net_level, dtype=np.intp)
        self._end = np.asarray(end, dtype=np.intp)
        self._boundary: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}

        # A level's gates never write a row another gate of the level
        # reads, so a group may be cut into sub-groups of at most ``cap``.
        cap = VEC_GROUP_WIDTH
        self.level_groups: List[List[_GateGroup]] = [[] for _ in range(depth)]
        per_level = [0] * (depth + 1)
        for (level, base, inverting, _fanin), (outs, pins) in sorted(
            grouped.items(),
            key=lambda item: (item[0][0], item[0][1].value, *item[0][2:]),
        ):
            per_level[level] += len(outs)
            for lo in range(0, len(outs), cap):
                self.level_groups[level - 1].append(_GateGroup(
                    base, inverting, rows[outs[lo:lo + cap]],
                    [rows[p[lo:lo + cap]] for p in pins]))
        #: gates evaluated by a chunk that starts at level ``s``
        self.gates_after = [0] * (depth + 1)
        for level in range(depth - 1, -1, -1):
            self.gates_after[level] = (
                self.gates_after[level + 1] + per_level[level + 1])

        # Primary outputs, detected at their defining level in slices of
        # at most ``cap``: ``po_at[level]`` lists ``(rows, nets)`` pairs.
        po_by_level: Dict[int, List[int]] = {}
        for net in dict.fromkeys(netlist.primary_outputs):
            po_by_level.setdefault(net_level[net], []).append(net)
        self.po_at: Dict[int, List[Tuple["np.ndarray", "np.ndarray"]]] = {}
        for level, nets in po_by_level.items():
            sliced = [np.asarray(nets[lo:lo + cap], dtype=np.intp)
                      for lo in range(0, len(nets), cap)]
            self.po_at[level] = [(self.slot[part], part) for part in sliced]
        #: rows of the widest gather: a gate group or an output slice
        self.widest = max(
            [len(group.out_idx) for groups in self.level_groups
             for group in groups]
            + [len(part) for parts in self.po_at.values()
               for _rows, part in parts],
            default=0,
        )

    def injection_level(self, fault: Fault) -> int:
        """The level after which ``fault``'s lane first differs."""
        if fault.is_stem:
            return self.net_level[fault.net]
        return self.gate_level[fault.gate_index]

    def boundary(self, level: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(nets, rows)`` live at ``level``: a chunk starting there
        fills exactly these from golden words."""
        cached = self._boundary.get(level)
        if cached is None:
            nets = np.flatnonzero((self._def <= level) & (self._end >= level))
            cached = self._boundary[level] = (nets, self.slot[nets])
        return cached


def _words(values: Sequence[int], n_words: int) -> "np.ndarray":
    """Packed bigints -> ``uint64[len(values), n_words]``, little-endian."""
    size = n_words * 8
    blob = b"".join([value.to_bytes(size, "little") for value in values])
    return np.frombuffer(blob, dtype="<u8").astype(
        np.uint64, copy=False).reshape(len(values), n_words)


def _first_bits(det: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Per lane: (detected?, index of lowest set bit) of ``det[C, W]``."""
    nonzero = det != 0
    detected = nonzero.any(axis=1)
    word_idx = np.argmax(nonzero, axis=1)
    word = det[np.arange(det.shape[0]), word_idx]
    lsb = word & (~word + np.uint64(1))
    if hasattr(np, "bitwise_count"):
        # popcount(lsb - 1) is the trailing-zero count when lsb != 0; the
        # lsb == 0 lanes are masked out by ``detected`` anyway.
        trailing = np.where(
            lsb != 0, np.bitwise_count(lsb - np.uint64(1)), np.uint64(0)
        )
    else:  # pragma: no cover - numpy < 2.0
        # lsb is a power of two, so float64 log2 is exact.
        safe = np.where(lsb != 0, lsb, np.uint64(1))
        trailing = np.log2(safe.astype(np.float64)).astype(np.uint64)
    first = word_idx.astype(np.uint64) * np.uint64(64) + trailing
    return detected, first


class _BatchGolden:
    """One slice's golden values, for the nets the chunks read.

    The slice is the ``mask`` patterns from bit ``offset`` of the
    round's golden words ``good``.  Only the rows live at the chunks'
    start levels and the primary outputs are cut out and converted to
    words; :meth:`value` cuts out the inputs of a branch fault's gate.
    """

    def __init__(self, compiled: CompiledVecNetlist, good: Dict[int, int],
                 offset: int, mask: int, n_words: int,
                 starts: Sequence[int]):
        self.good = good
        self.offset = offset
        self.mask = mask
        self.n_words = n_words
        self.mask_words = _words([mask], n_words)[0]
        nets = np.unique(np.concatenate(
            [compiled.boundary(level)[0] for level in starts]
            + [po_nets for parts in compiled.po_at.values()
               for _rows, po_nets in parts]))
        self.words = _words(
            [(good.get(net, 0) >> offset) & mask for net in nets.tolist()],
            n_words)
        self.row_of = np.zeros(compiled.n_nets, dtype=np.intp)
        self.row_of[nets] = np.arange(len(nets))
        #: per level, the golden words of each of its output slices
        self.po_words = {
            level: [self.of(po_nets) for _rows, po_nets in parts]
            for level, parts in compiled.po_at.items()
            if level >= starts[0]
        }

    def of(self, nets: "np.ndarray") -> "np.ndarray":
        """Golden words of converted ``nets``, ``uint64[len(nets), W]``."""
        return self.words[self.row_of[nets]]

    def value(self, net: int) -> int:
        """The slice of ``net``'s golden word, as a packed int."""
        return (self.good[net] >> self.offset) & self.mask


# ----------------------------------------------------------------- simulator


class VecFaultSimulator(FaultSimulator):
    """Drop-in :class:`FaultSimulator` with a vectorised ``simulate_batch``.

    Construction compiles the netlist (:class:`CompiledVecNetlist`)
    unless ``compiled`` brings a program of a netlist with this
    structure; the rest of the surface — ``run``, ``detects``,
    ``evaluator`` — is inherited unchanged, so every engine code path
    that builds or receives a simulator works identically with either
    kernel.  ``events_propagated`` counts the gate × lane evaluations
    actually performed: each chunk's lanes times the gates above the
    chunk's start level.  Patterns run while fewer than
    :data:`VEC_MIN_LANES` faults are live count the packed propagator's
    events.  Honest work accounting, not part of the bit-identity
    contract.
    """

    def __init__(self, netlist: Netlist, batch_width: int = 256,
                 tables: Optional[PackedTables] = None,
                 compiled: Optional[CompiledVecNetlist] = None):
        super().__init__(netlist, batch_width, tables)
        if compiled is None:
            compiled = CompiledVecNetlist(netlist, self.evaluator.order)
        self.compiled = compiled

    # The packed simulate_batch signature, replayed exactly.
    def simulate_batch(
        self,
        live: Sequence[Fault],
        good: Dict[int, int],
        mask: int,
        pattern_base: int,
        detections: Dict[Fault, int],
        drop_detected: bool = True,
    ) -> List[Fault]:
        """One engine round (or one batch) against the live faults.

        A mask wider than ``batch_width`` is worked through one
        ``batch_width`` slice at a time while at least
        :data:`VEC_MIN_LANES` faults are live, so lanes detected early
        are not carried across the whole round; the rest of the round
        then runs in one packed pass.  A slice cuts out of ``good`` only
        the nets its chunks read.
        """
        width = mask.bit_length()
        offset = 0
        while live and len(live) >= VEC_MIN_LANES and offset < width:
            step = min(self.batch_width, width - offset)
            live = self._simulate_slice(live, good, offset, (1 << step) - 1,
                                        pattern_base + offset, detections,
                                        drop_detected)
            offset += step
        if live and offset < width:
            rest = good if offset == 0 else {
                net: value >> offset for net, value in good.items()}
            live = super().simulate_batch(
                live, rest, mask >> offset, pattern_base + offset,
                detections, drop_detected)
        return list(live)

    def _simulate_slice(
        self,
        live: Sequence[Fault],
        good: Dict[int, int],
        offset: int,
        mask: int,
        pattern_base: int,
        detections: Dict[Fault, int],
        drop_detected: bool,
    ) -> List[Fault]:
        """Every live fault a lane, over the ``mask`` patterns from bit
        ``offset`` of ``good``."""
        compiled = self.compiled
        n_lanes = len(live)
        lane_level = [compiled.injection_level(fault) for fault in live]
        order = sorted(range(n_lanes), key=lane_level.__getitem__)
        n_words = max(1, (mask.bit_length() + 63) // 64)
        row_words = compiled.n_rows + 2 * compiled.widest
        chunk = max(1, min(n_lanes, VEC_ROW_WORDS // n_words,
                           VEC_MEMORY_BUDGET // (row_words * n_words * 8)))
        firsts = range(0, n_lanes, chunk)
        golden = _BatchGolden(compiled, good, offset, mask, n_words,
                              sorted({lane_level[order[i]] for i in firsts}))
        buffer = np.empty(row_words * chunk * n_words, dtype=np.uint64)

        detected = np.zeros(n_lanes, dtype=bool)
        first = np.zeros(n_lanes, dtype=np.uint64)
        for begin in firsts:
            lanes = order[begin:begin + chunk]
            detected[lanes], first[lanes] = self._simulate_chunk(
                [live[lane] for lane in lanes], lane_level[lanes[0]],
                golden, buffer,
            )

        survivors: List[Fault] = []
        for fault, hit, index in zip(live, detected.tolist(), first.tolist()):
            if hit and fault not in detections:
                detections[fault] = pattern_base + index
            if not hit or not drop_detected:
                survivors.append(fault)
        return survivors

    def _simulate_chunk(
        self,
        chunk: List[Fault],
        start: int,
        golden: _BatchGolden,
        buffer: "np.ndarray",
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """``chunk``'s faults from level ``start`` to the outputs at once."""
        compiled = self.compiled
        n_lanes = len(chunk)
        n_words = golden.n_words
        width = n_lanes * n_words
        n_rows, widest = compiled.n_rows, compiled.widest
        state = buffer[:n_rows * width].reshape(n_rows, width)
        view = state.reshape(n_rows, n_lanes, n_words)
        acc_space = buffer[n_rows * width:(n_rows + widest) * width]
        pin_space = buffer[(n_rows + widest) * width:
                           (n_rows + 2 * widest) * width]
        mask = golden.mask
        mask_words = golden.mask_words
        mask_row = np.tile(mask_words, n_lanes)

        # Boundary fill: every row live at the start level, golden in
        # every lane; the injections below then fork the lanes.  A lane's
        # words are copied as one opaque item, not W separate ones.
        live_nets, live_rows = compiled.boundary(start)
        lane_item = np.dtype(f"V{8 * n_words}")
        state.view(lane_item)[live_rows] = golden.of(live_nets).view(lane_item)

        # Injection schedule: stem overrides keyed by the level at which
        # the net finalises, branch patches by the faulty gate's level.
        # Branch patches are single-gate bigint evaluations (same primitive
        # the packed kernel injects with), word-converted in bulk below.
        stem_at: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        branch_at: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        gates = self.netlist.gates
        for lane, fault in enumerate(chunk):
            if fault.is_stem:
                level = compiled.net_level[fault.net]
                nets, lns, stuck = stem_at.setdefault(level, ([], [], []))
                nets.append(fault.net)
                lns.append(lane)
                stuck.append(fault.stuck_at)
            else:
                gate = gates[fault.gate_index]
                forced = mask if fault.stuck_at else 0
                inputs = [
                    forced if pin == fault.pin else golden.value(net)
                    for pin, net in enumerate(gate.inputs)
                ]
                patched = evaluate_gate(gate.gtype, inputs, mask)
                level = compiled.gate_level[fault.gate_index]
                outs, lns, values = branch_at.setdefault(level, ([], [], []))
                outs.append(gate.output)
                lns.append(lane)
                values.append(patched)

        det = np.zeros((n_lanes, n_words), dtype=np.uint64)

        def finish_level(level: int) -> None:
            sched = stem_at.get(level)
            if sched is not None:
                stem_nets, lns, stuck = sched
                view[compiled.slot[stem_nets], lns] = np.where(
                    np.asarray(stuck, dtype=np.uint64)[:, None] != 0,
                    mask_words, np.uint64(0),
                )
            sched = branch_at.get(level)
            if sched is not None:
                outs, lns, values = sched
                view[compiled.slot[outs], lns] = _words(values, n_words)
            outputs = compiled.po_at.get(level)
            if outputs is not None:
                for (po_rows, _nets), expected in zip(
                        outputs, golden.po_words[level]):
                    diff = acc_space[:len(po_rows) * width].reshape(
                        len(po_rows), width)
                    state.take(po_rows, axis=0, out=diff, mode="clip")
                    diff = diff.reshape(len(po_rows), n_lanes, n_words)
                    np.bitwise_xor(diff, expected[:, None, :], out=diff)
                    np.bitwise_or(det, np.bitwise_or.reduce(diff, axis=0),
                                  out=det)

        finish_level(start)
        for level in range(start + 1, compiled.depth + 1):
            for group in compiled.level_groups[level - 1]:
                if group.base in (GateType.CONST0, GateType.CONST1):
                    state[group.out_idx] = (
                        mask_row if group.base is GateType.CONST1 else 0
                    )
                    if group.inverting:  # pragma: no cover - no such type
                        state[group.out_idx] ^= mask_row
                    continue
                size = len(group.out_idx) * width
                acc = acc_space[:size].reshape(-1, width)
                # Rows are always in range; the default mode="raise"
                # would gather into a copy of ``out`` first.
                state.take(group.in_idx[0], axis=0, out=acc, mode="clip")
                if group.op is not None:  # BUF: acc is already the input
                    pin_rows = pin_space[:size].reshape(-1, width)
                    for pin in group.in_idx[1:]:
                        state.take(pin, axis=0, out=pin_rows, mode="clip")
                        group.op(acc, pin_rows, out=acc)
                if group.inverting:
                    np.bitwise_xor(acc, mask_row, out=acc)
                state[group.out_idx] = acc
            finish_level(level)
        self.events_propagated += n_lanes * compiled.gates_after[start]
        return _first_bits(det)

"""Bit-parallel stuck-at fault simulator with fault dropping.

The engine is the classic levelized event-driven single-fault propagator, run
over *packed* batches (W patterns per pass, W configurable).  For each live
fault it injects the stuck value, propagates only through gates actually
reached by events (in topological order, so each gate is evaluated at most
once per fault per batch), and compares primary outputs.  Faults are dropped
at first detection and the pattern index of that first detection is recorded,
which is what the paper's "number of patterns to achieve X% fault coverage"
rows are computed from.

Runs are orchestrated by :mod:`repro.engine`, which this module routes
through: :meth:`FaultSimulator.run` with ``config.execution.jobs`` set
fans the fault list out over worker processes; the default runs one shard
in-process, bit-identical to any shard count.  :class:`FaultSimResult`
now lives in :mod:`repro.results`; the import here is kept as a
compatibility shim.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import PatternSource
from repro.netlist.evaluate import Evaluator
from repro.netlist.gates import GATE_EVAL
from repro.netlist.netlist import Netlist
from repro.results import FaultSimResult  # noqa: F401  (compatibility shim)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.config import RunConfig


class FaultSimulator:
    """Fault simulator bound to one netlist.

    Parameters
    ----------
    netlist:
        The combinational circuit under test.
    batch_width:
        Patterns per stimulus batch (default 256).  The engine joins
        ``chunk_batches`` batches into one round and :meth:`simulate_batch`
        takes any mask width, so one packed pass covers a whole round.
    """

    def __init__(self, netlist: Netlist, batch_width: int = 256):
        if batch_width < 1:
            raise SimulationError("batch width must be positive")
        self.netlist = netlist
        self.batch_width = batch_width
        self.evaluator = Evaluator(netlist)
        self._fanout: Dict[int, List[int]] = netlist.fanout_map()
        # Topological position of every gate, for event ordering.
        self._pos: Dict[int, int] = {g: i for i, g in enumerate(self.evaluator.order)}
        self._po_set = list(netlist.primary_outputs)
        #: Packed evaluation function per gate index.
        self._gate_eval = [GATE_EVAL[gate.gtype] for gate in netlist.gates]
        #: Gate evaluations performed by fault propagation so far — the
        #: engine's per-shard instrumentation reads deltas of this counter.
        self.events_propagated = 0

    # ------------------------------------------------------------- injection

    def _simulate_fault(self, fault: Fault, good: Dict[int, int], mask: int) -> int:
        """Return the packed detection mask of one fault for one batch."""
        gates = self.netlist.gates
        gate_eval = self._gate_eval
        delta: Dict[int, int] = {}
        heap: List[Tuple[int, int]] = []
        scheduled = set()

        def schedule_fanout(net: int) -> None:
            for gate_index in self._fanout.get(net, ()):  # downstream readers
                if gate_index not in scheduled:
                    scheduled.add(gate_index)
                    heapq.heappush(heap, (self._pos[gate_index], gate_index))

        forced = 0 if fault.stuck_at == 0 else mask
        if fault.is_stem:
            if forced == good.get(fault.net, 0):
                return 0  # never excited in this batch
            delta[fault.net] = forced
            schedule_fanout(fault.net)
            faulty_gate = None
        else:
            faulty_gate = fault.gate_index
            gate = gates[faulty_gate]
            inputs = [
                forced if pin == fault.pin else good[n]
                for pin, n in enumerate(gate.inputs)
            ]
            value = gate_eval[faulty_gate](inputs, mask)
            self.events_propagated += 1
            if value == good[gate.output]:
                return 0
            delta[gate.output] = value
            schedule_fanout(gate.output)

        while heap:
            _, gate_index = heapq.heappop(heap)
            if gate_index == faulty_gate:
                continue  # its output was computed at injection time
            gate = gates[gate_index]
            inputs = [delta.get(n, good[n]) for n in gate.inputs]
            value = gate_eval[gate_index](inputs, mask)
            self.events_propagated += 1
            old = delta.get(gate.output, good[gate.output])
            if value != old:
                if value == good[gate.output]:
                    delta.pop(gate.output, None)
                else:
                    delta[gate.output] = value
                schedule_fanout(gate.output)

        detect = 0
        for po in self._po_set:
            if po in delta:
                detect |= delta[po] ^ good[po]
        return detect

    # ------------------------------------------------------------------ runs

    def simulate_batch(
        self,
        live: Sequence[Fault],
        good: Dict[int, int],
        mask: int,
        pattern_base: int,
        detections: Dict[Fault, int],
        drop_detected: bool = True,
    ) -> List[Fault]:
        """Simulate one packed pass of patterns (a batch, or a whole engine
        round: ``mask`` may have any width) against the live faults.

        Records first detections (absolute pattern indices, offset by
        ``pattern_base``) into ``detections`` and returns the surviving
        fault list.  This is the primitive every engine shard round drives;
        keeping it in one place is what makes ``jobs=N`` bit-identical to
        ``jobs=1``.
        """
        survivors: List[Fault] = []
        for fault in live:
            detect = self._simulate_fault(fault, good, mask)
            if detect and fault not in detections:
                first_bit = (detect & -detect).bit_length() - 1
                detections[fault] = pattern_base + first_bit
            if not detect or not drop_detected:
                survivors.append(fault)
        return survivors

    def run(
        self,
        source: PatternSource,
        max_patterns: Optional[int] = None,
        faults: Optional[Sequence[Fault]] = None,
        *,
        config: Optional["RunConfig"] = None,
        cache: Optional["object"] = None,
    ) -> FaultSimResult:
        """Simulate up to ``max_patterns`` patterns against the fault list.

        ``faults`` defaults to the equivalence-collapsed universe.
        ``max_patterns`` (historically required) overrides
        ``config.max_patterns`` when given; with a full ``config`` it can
        simply be omitted.

        ``config`` is a :class:`repro.exec.RunConfig` — execution backend
        and shard count, retry/timeout policy, checkpointing, budget,
        cancellation and chaos all live there (the batch width is pinned
        to this simulator's own).  The evaluation kernel resolves as for
        any run — ``config.execution.kernel``, then
        ``$REPRO_ENGINE_KERNEL``, then ``auto`` — so this simulator only
        evaluates the golden batches.  Results are bit-identical across
        kernels, backends and shard counts (see
        :func:`repro.engine.simulate`).
        ``cache`` optionally supplies a :class:`repro.engine.GoldenCache`
        so fault-free batch evaluations are shared across shards and
        repeated runs.
        """
        from repro import telemetry
        from repro.engine import simulate
        from repro.exec.config import RunConfig

        if config is None:
            config = RunConfig()
        if max_patterns is not None:
            config = config.replace(max_patterns=max_patterns)
        # The simulator owns its packed-batch geometry; a mismatched width
        # in the config would silently fork the golden-cache key space.
        if config.execution.batch_width != self.batch_width:
            config = config.with_execution(batch_width=self.batch_width)

        with telemetry.span(
            "faultsim.run",
            circuit=self.netlist.name,
            max_patterns=config.max_patterns,
            jobs=config.execution.effective_jobs,
        ):
            return simulate(
                self.netlist,
                faults,
                source,
                config=config,
                cache=cache,
                simulator=self,
            )

    def detects(self, fault: Fault, pattern: Sequence[int]) -> bool:
        """Check whether one explicit pattern detects one fault.

        Reference-quality path used by tests and by ATPG verification.
        """
        mask = 1
        inputs = {
            net: (pattern[i] & 1)
            for i, net in enumerate(self.netlist.primary_inputs)
        }
        good = self.evaluator.run(inputs, mask)
        return bool(self._simulate_fault(fault, good, mask))

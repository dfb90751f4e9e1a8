"""Flat gate-level netlist container.

A :class:`Netlist` is a directed acyclic network of gates over named nets.
It is the substrate on which fault simulation runs.  RTL circuits are lowered
to a netlist by flattening each combinational block into gates; registers of a
*balanced* circuit are flattened into wires (see ``repro.faultsim`` — this
preserves per-pattern behaviour exactly, which is the substance of the paper's
1-step functional testability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import NetlistError
from repro.netlist.gates import GateType, validate_fanin


@dataclass
class Gate:
    """A single gate instance.

    Attributes
    ----------
    gtype:
        Primitive gate type.
    inputs:
        Ordered list of input net ids.
    output:
        The single output net id.
    name:
        Optional instance name (used in reports and .bench export).
    """

    gtype: GateType
    inputs: Tuple[int, ...]
    output: int
    name: str = ""


class Netlist:
    """A flat combinational netlist.

    Nets are integer ids handed out by :meth:`add_net`; each optionally has a
    human-readable name.  Gates are appended with :meth:`add_gate`.  The
    netlist is single-driver: a net may be the output of at most one gate.

    :attr:`blocks` maps the name of each RTL block lowered into the netlist
    to the indices of its gates (see :func:`repro.rtl.lower.lower_nets`).
    It is a grouping for :mod:`repro.atpg.certify`, not structure, so
    :meth:`fingerprint` leaves it out.
    """

    def __init__(self, name: str = "netlist"):
        self.name = name
        self._net_names: List[Optional[str]] = []
        self._name_to_net: Dict[str, int] = {}
        self.gates: List[Gate] = []
        self.primary_inputs: List[int] = []
        self.primary_outputs: List[int] = []
        self._driver: Dict[int, int] = {}  # net id -> gate index
        self.blocks: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------ nets

    @property
    def n_nets(self) -> int:
        """Number of nets in the netlist."""
        return len(self._net_names)

    def add_net(self, name: Optional[str] = None) -> int:
        """Create a new net and return its id.

        Named nets must be unique; anonymous nets get no name.
        """
        if name is not None:
            if name in self._name_to_net:
                raise NetlistError(f"duplicate net name {name!r}")
        net = len(self._net_names)
        self._net_names.append(name)
        if name is not None:
            self._name_to_net[name] = net
        return net

    def add_nets(self, count: int, prefix: Optional[str] = None) -> List[int]:
        """Create ``count`` nets, optionally named ``prefix0..prefixN-1``."""
        if prefix is None:
            return [self.add_net() for _ in range(count)]
        return [self.add_net(f"{prefix}{i}") for i in range(count)]

    def net_name(self, net: int) -> str:
        """Human-readable name of a net (``nN`` for anonymous nets)."""
        name = self._net_names[net]
        return name if name is not None else f"n{net}"

    def find_net(self, name: str) -> int:
        """Return the id of the named net, raising if absent."""
        try:
            return self._name_to_net[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    # ----------------------------------------------------------------- gates

    def add_gate(
        self,
        gtype: GateType,
        inputs: Sequence[int],
        output: Optional[int] = None,
        name: str = "",
    ) -> int:
        """Add a gate; returns its output net id.

        ``output`` may name an existing (undriven) net; if omitted a fresh
        anonymous net is created.
        """
        validate_fanin(gtype, len(inputs))
        for net in inputs:
            if not 0 <= net < self.n_nets:
                raise NetlistError(f"gate input references unknown net {net}")
        if output is None:
            output = self.add_net()
        elif not 0 <= output < self.n_nets:
            raise NetlistError(f"gate output references unknown net {output}")
        if output in self._driver:
            raise NetlistError(f"net {self.net_name(output)} already driven")
        if output in self.primary_inputs:
            raise NetlistError(f"primary input {self.net_name(output)} cannot be driven")
        gate_index = len(self.gates)
        self.gates.append(Gate(gtype, tuple(inputs), output, name))
        self._driver[output] = gate_index
        return output

    def driver_of(self, net: int) -> Optional[int]:
        """Index of the gate driving ``net``, or None for PIs/floating nets."""
        return self._driver.get(net)

    # ------------------------------------------------------------------- I/O

    def mark_input(self, net: int) -> None:
        """Declare a net to be a primary input."""
        if net in self._driver:
            raise NetlistError(f"net {self.net_name(net)} is gate-driven, not an input")
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)

    def mark_output(self, net: int) -> None:
        """Declare a net to be a primary output."""
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)

    def new_input(self, name: Optional[str] = None) -> int:
        """Create a net and mark it as a primary input."""
        net = self.add_net(name)
        self.mark_input(net)
        return net

    def new_inputs(self, count: int, prefix: str) -> List[int]:
        """Create ``count`` named primary inputs."""
        return [self.new_input(f"{prefix}{i}") for i in range(count)]

    # ------------------------------------------------------------- structure

    def fanout_map(self) -> Dict[int, List[int]]:
        """Map each net id to the indices of gates reading it."""
        fanout: Dict[int, List[int]] = {}
        for index, gate in enumerate(self.gates):
            for net in gate.inputs:
                fanout.setdefault(net, []).append(index)
        return fanout

    def fanout_count(self, net: int) -> int:
        """Number of gate input pins reading ``net`` (PO counts do not add)."""
        count = 0
        for gate in self.gates:
            for input_net in gate.inputs:
                if input_net == net:
                    count += 1
        return count

    def transitive_fanout_gates(self, net: int) -> List[int]:
        """Gate indices in the transitive fanout of ``net``, in level order.

        Used by the fault simulator to restrict resimulation to the cone a
        fault can influence.  The returned list respects gate topological
        order (gates are appended in dependency order is *not* assumed —
        callers should levelize first; here we use a worklist over the
        fanout map).
        """
        fanout = self.fanout_map()
        affected: Set[int] = set()
        frontier = list(fanout.get(net, ()))
        while frontier:
            gate_index = frontier.pop()
            if gate_index in affected:
                continue
            affected.add(gate_index)
            out = self.gates[gate_index].output
            frontier.extend(fanout.get(out, ()))
        return sorted(affected)

    def support_of(self, nets: Iterable[int]) -> Set[int]:
        """The set of primary-input nets in the transitive fanin of ``nets``."""
        pis = set(self.primary_inputs)
        seen: Set[int] = set()
        support: Set[int] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in pis:
                support.add(net)
                continue
            driver = self._driver.get(net)
            if driver is not None:
                stack.extend(self.gates[driver].inputs)
        return support

    def fanin_nets(self, nets: Iterable[int]) -> Set[int]:
        """``nets`` and every net in their transitive fanin."""
        cone: Set[int] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in cone:
                continue
            cone.add(net)
            driver = self._driver.get(net)
            if driver is not None:
                stack.extend(self.gates[driver].inputs)
        return cone

    def prune_to_outputs(self) -> "Netlist":
        """Return a copy keeping only logic in the fanin cone of the POs.

        The paper's multipliers feed only their 8 least-significant outputs
        forward; pruning removes the upper-half logic that can never be
        observed.
        """
        needed_nets = self.fanin_nets(self.primary_outputs)
        pruned = Netlist(self.name)
        remap: Dict[int, int] = {}
        for net in range(self.n_nets):
            if net in needed_nets or net in self.primary_inputs:
                remap[net] = pruned.add_net(self._net_names[net])
        for net in self.primary_inputs:
            pruned.mark_input(remap[net])
        kept: Dict[int, int] = {}  # gate index -> index in the copy
        for index, gate in enumerate(self.gates):
            if gate.output in needed_nets:
                kept[index] = len(pruned.gates)
                pruned.add_gate(
                    gate.gtype,
                    [remap[i] for i in gate.inputs],
                    remap[gate.output],
                    gate.name,
                )
        for net in self.primary_outputs:
            pruned.mark_output(remap[net])
        for name, gates in self.blocks.items():
            survivors = [kept[g] for g in gates if g in kept]
            if survivors:
                pruned.blocks[name] = survivors
        return pruned

    def validate(self) -> None:
        """Check structural sanity: POs reachable, no combinational cycles.

        Raises :class:`NetlistError` on the first violation found.
        """
        # every gate input must be driven or be a PI
        driven = set(self._driver) | set(self.primary_inputs)
        for gate in self.gates:
            for net in gate.inputs:
                if net not in driven:
                    raise NetlistError(
                        f"gate {gate.name or gate.gtype.value} reads floating net "
                        f"{self.net_name(net)}"
                    )
        for net in self.primary_outputs:
            if net not in driven:
                raise NetlistError(f"primary output {self.net_name(net)} is floating")
        # cycle check is performed by levelization
        from repro.netlist.levelize import levelize

        levelize(self)

    def fingerprint(self) -> str:
        """Stable digest of the netlist structure (gates, nets, I/O).

        Two netlists with equal fingerprints are structurally identical —
        same net ids, names, gates and port lists — so packed evaluation
        results computed for one are valid for the other.  Used as the
        golden-run cache key by :mod:`repro.engine`.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(repr(self._net_names).encode())
        digest.update(repr(self.primary_inputs).encode())
        digest.update(repr(self.primary_outputs).encode())
        for gate in self.gates:
            digest.update(
                f"{gate.gtype.value}:{gate.inputs}:{gate.output}".encode()
            )
        return digest.hexdigest()

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def counts_by_type(self) -> Dict[GateType, int]:
        """Histogram of gate types, for Table-1 style reporting."""
        counts: Dict[GateType, int] = {}
        for gate in self.gates:
            counts[gate.gtype] = counts.get(gate.gtype, 0) + 1
        return counts

    def stats(self) -> "NetlistStats":
        """Summary statistics used by the experiment harness."""
        from repro.netlist.levelize import levelize

        order = levelize(self)
        depth = 0
        level: Dict[int, int] = {net: 0 for net in self.primary_inputs}
        for gate_index in order:
            gate = self.gates[gate_index]
            lvl = 1 + max((level.get(n, 0) for n in gate.inputs), default=0)
            level[gate.output] = lvl
            depth = max(depth, lvl)
        return NetlistStats(
            name=self.name,
            n_gates=len(self.gates),
            n_nets=self.n_nets,
            n_inputs=len(self.primary_inputs),
            n_outputs=len(self.primary_outputs),
            logic_depth=depth,
        )


@dataclass(frozen=True)
class NetlistStats:
    """Headline numbers describing a netlist."""

    name: str
    n_gates: int
    n_nets: int
    n_inputs: int
    n_outputs: int
    logic_depth: int

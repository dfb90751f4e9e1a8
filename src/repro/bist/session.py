"""Full BIST session simulation: TPG drives, circuit runs, MISRs compress.

This is the system the paper's hardware would actually execute: the
kernel's input registers are reconfigured as the SC_TPG/MC_TPG pattern
generator, the circuit operates for N cycles, and every SA register folds
its input words into a signature.  A fault is *detected by the session* iff
at least one SA signature differs from the fault-free (golden) signature —
the practical notion behind Table 2's fault-coverage rows, including MISR
aliasing, which this module also measures empirically.

Every result of a session comes from one kind of sweep: the fault-free
machine 0 runs beside up to
:data:`~repro.bist.gatesim.MACHINES_PER_PASS` faulty machines, each MISR
folds all machines' SA inputs with one packed step per cycle
(:meth:`repro.bilbo.misr.MISR.fold`), and a machine whose SA inputs differ
from machine 0's on some cycle is marked observed before compression.  So
the golden signatures always belong to the session's current MISRs, and
:meth:`BISTSession.aliasing_study` simulates each fault once.
:meth:`BISTSession.pattern_coverage` routes the session's stimulus through
:func:`repro.engine.simulate` for per-pattern (aliasing-free) coverage,
optionally sharded over worker processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.bilbo.misr import MISR
from repro.bist.gatesim import MachineFault, SequentialGateSimulator, fault_passes
from repro.core.kernels import Kernel
from repro.errors import SimulationError
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.guard import STOP_PATTERNS, RunGuard
from repro.results import SessionResult
from repro.rtl.circuit import RTLCircuit
from repro.tpg.design import TPGDesign
from repro.tpg.mc_tpg import mc_tpg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.config import RunConfig
    from repro.guard.budget import Budget
    from repro.guard.cancel import CancelToken


class BISTSession:
    """One kernel's self-test session.

    Parameters
    ----------
    circuit:
        The full RTL circuit (blocks need gate expanders).
    kernel:
        The kernel under test (its TPG registers are driven by the TPG,
        its SA registers compress their input nets).
    tpg:
        The pattern generator; defaults to MC_TPG on the kernel's spec.
    seed:
        TPG seed (non-zero).
    check:
        When True (the default) the kernel structure and the TPG design
        are linted before anything is simulated, raising a structured
        :class:`~repro.errors.LintError` on violations (cyclic kernel,
        unbalanced paths, non-primitive polynomial, ...).  ``check=False``
        skips the pre-flight; session results are identical either way.
    """

    def __init__(
        self,
        circuit: RTLCircuit,
        kernel: Kernel,
        tpg: Optional[TPGDesign] = None,
        seed: int = 1,
        check: bool = True,
    ):
        self.circuit = circuit
        self.kernel = kernel
        self.spec = kernel.to_kernel_spec()
        self.tpg = tpg if tpg is not None else mc_tpg(self.spec)
        if check:
            from repro.lint.runner import preflight_session

            preflight_session(kernel, self.tpg)
        self.seed = seed
        self.simulator = SequentialGateSimulator(circuit)
        for name in kernel.sa_registers:
            if name not in circuit.registers:
                raise SimulationError(f"unknown SA register {name}")
        self._sa_input_bits = {
            name: self.simulator.register_in_bits[name]
            for name in kernel.sa_registers
        }
        # Decouple each MISR from the TPG: with the default table polynomial
        # the error streams of TPG-register faults (linear images of the
        # m-sequence) cancel systematically in the signature over
        # near-period windows — measured 0.426 aliasing versus 0.082 with
        # the reciprocal polynomial (results/bist_misr_aliasing.txt, from
        # benchmarks/test_bist_session.py).
        from repro.tpg.polynomials import (
            alternate_primitive_polynomial,
            primitive_polynomial,
        )

        self._misrs = {
            name: MISR(
                width,
                alternate_primitive_polynomial(width, primitive_polynomial(width)),
            )
            for name, width in kernel.sa_registers.items()
        }

    def recommended_cycles(self) -> int:
        """A session length avoiding period-aligned signature cancellation.

        Compressing over an integer number of TPG periods makes the error
        streams of faults linearly coupled to the m-sequence sum to zero in
        the MISR (measured: ~20-26% aliasing at 1.0x/2.0x the period versus
        ~0-2% at 0.5x/1.5x on the 4-bit MAC kernel).  The functionally
        exhaustive 2^M-1+d window is exactly one period plus the flush, so
        the session re-applies half a period more to break the alignment.
        """
        period = (1 << self.tpg.lfsr_stages) - 1
        return self.tpg.test_time() + period // 2

    # --------------------------------------------------------------- faults

    def fault_universe(self) -> List[Fault]:
        """Collapsed stuck-at faults of the expanded gate netlist."""
        representatives, _ = collapse_faults(self.simulator.netlist)
        return representatives

    def kernel_fault_universe(self) -> List[Fault]:
        """Faults the session can possibly test: those on nets both driven
        (transitively) by the TPG registers and observed (transitively) by
        an SA register, traversing *through* the kernel's internal
        registers.  Faults outside this cone — raw PI nets held constant
        during test, logic feeding only dead register bits — are another
        kernel's or test mode's responsibility."""
        observable = self._fanin_nets(
            [net for bits in self._sa_input_bits.values() for net in bits]
        )
        controllable = self._fanout_nets(
            [
                net
                for name in self.kernel.tpg_registers
                for net in self.simulator.register_out_bits[name]
            ]
        )
        cone = observable & controllable
        return [f for f in self.fault_universe() if f.net in cone]

    def _register_hops(self):
        """(output bit -> input bit, input bit -> output bit) maps for
        internal registers (TPG registers are overridden every cycle, so
        nothing propagates through them)."""
        out_to_in: Dict[int, int] = {}
        in_to_out: Dict[int, int] = {}
        for name, out_bits in self.simulator.register_out_bits.items():
            if name in self.kernel.tpg_registers:
                continue
            in_bits = self.simulator.register_in_bits[name]
            for o, i in zip(out_bits, in_bits):
                out_to_in[o] = i
                in_to_out[i] = o
        return out_to_in, in_to_out

    def _fanin_nets(self, nets) -> set:
        netlist = self.simulator.netlist
        out_to_in, _ = self._register_hops()
        seen: set = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            driver = netlist.driver_of(net)
            if driver is not None:
                stack.extend(netlist.gates[driver].inputs)
            elif net in out_to_in:
                stack.append(out_to_in[net])
        return seen

    def _fanout_nets(self, nets) -> set:
        netlist = self.simulator.netlist
        _, in_to_out = self._register_hops()
        fanout = netlist.fanout_map()
        seen: set = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            for gate_index in fanout.get(net, ()):
                stack.append(netlist.gates[gate_index].output)
            if net in in_to_out:
                stack.append(in_to_out[net])
        return seen

    # -------------------------------------------------------------- running

    def _pi_defaults(self) -> Dict[str, int]:
        return {
            self.circuit.nets[n].name: 0 for n in self.circuit.primary_inputs
        }

    def golden_signatures(self, cycles: int) -> Dict[str, int]:
        """Fault-free MISR signatures for a session of ``cycles`` cycles
        (one sweep of machine 0 alone)."""
        return self._sweep(cycles, ())[0]

    def run(
        self,
        cycles: int,
        faults: Sequence[Fault] = (),
        *,
        budget: Optional["Budget"] = None,
        cancel: Optional["CancelToken"] = None,
        config: Optional["RunConfig"] = None,
    ) -> SessionResult:
        """Run the session against a fault list.

        Every sweep simulates the fault-free machine 0 beside up to
        :data:`~repro.bist.gatesim.MACHINES_PER_PASS` faulty machines, so
        the golden signatures come from the same sweeps as the faults'.

        ``budget`` / ``cancel`` (see :mod:`repro.guard`) bound the run
        cooperatively between sweeps: a tripped deadline or cancellation
        stops before the next sweep and returns a ``partial=True`` result
        covering the faults simulated so far, with a structured
        ``stop_reason``.  The first sweep always runs, so a partial result
        still has its golden signatures.  A ``max_patterns`` budget caps
        the session's cycle count up front.  A :class:`repro.exec.RunConfig`
        supplies both when the explicit arguments are absent, so one
        config object governs a whole flow (the session itself is a
        sequential gate-level loop — the executor and retry policy in the
        config apply to :meth:`pattern_coverage`, not here).
        """
        from repro import telemetry

        if config is not None:
            budget = budget if budget is not None else config.budget
            cancel = cancel if cancel is not None else config.cancel
        with telemetry.span(
            "session.run",
            kernel=self.kernel.name, cycles=cycles, n_faults=len(faults),
        ):
            capped = False
            if budget is not None and budget.max_patterns is not None:
                capped = budget.max_patterns < cycles
                cycles = min(cycles, budget.max_patterns)
            golden, fault_signatures, _, stop_reason = self._sweep(
                cycles, faults, RunGuard.create(budget, cancel))
        if stop_reason is None and capped:
            # The pattern budget clipped the session length: every fault
            # was processed, but over fewer cycles than requested.
            stop_reason = STOP_PATTERNS
        result = SessionResult(
            cycles,
            golden,
            fault_signatures,
            partial=stop_reason is not None,
            stop_reason=stop_reason,
        )
        for fault, signatures in fault_signatures.items():
            if signatures != golden:
                result.detected.append(fault)
            else:
                result.undetected.append(fault)
        return result

    def _sweep(
        self,
        cycles: int,
        faults: Sequence[Fault],
        guard: Optional[RunGuard] = None,
    ) -> Tuple[Dict[str, int], Dict[Fault, Dict[str, int]], List[Fault], Optional[str]]:
        """Simulate the session once per pass of
        :func:`~repro.bist.gatesim.fault_passes`, checking ``guard``
        between passes.

        Returns (golden signatures, each simulated fault's signatures, the
        faults whose SA inputs differ from the golden machine's on some
        cycle, stop reason or None).
        """
        streams = self.tpg.register_streams(cycles, seed=self.seed)
        golden: Dict[str, int] = {}
        fault_signatures: Dict[Fault, Dict[str, int]] = {}
        observed: List[Fault] = []
        for n, (chunk, machine_faults) in enumerate(fault_passes(faults)):
            if n and guard is not None:
                stop_reason = guard.should_stop(0, 0)
                if stop_reason is not None:
                    return golden, fault_signatures, observed, stop_reason
            stages, differs = self._pass(cycles, streams, machine_faults)
            golden = {name: MISR.unpack(stages[name], 0) for name in stages}
            for machine, fault in enumerate(chunk, 1):
                fault_signatures[fault] = {
                    name: MISR.unpack(stages[name], machine) for name in stages
                }
                if (differs >> machine) & 1:
                    observed.append(fault)
        return golden, fault_signatures, observed, None

    def _pass(
        self,
        cycles: int,
        streams: Dict[str, List[int]],
        machine_faults: Sequence[MachineFault],
    ) -> Tuple[Dict[str, List[int]], int]:
        """One simulator run: the fault-free machine 0 beside one machine
        per entry of ``machine_faults`` (bound to machines 1, 2, ...).

        Returns each MISR's packed stages after the last cycle (see
        :meth:`MISR.fold`) and the mask of machines whose SA inputs differ
        from machine 0's on some cycle.
        """
        pi_defaults = self._pi_defaults()
        tpg_registers = set(self.kernel.tpg_registers)
        machines = len(machine_faults) + 1
        everyone = (1 << machines) - 1
        stages = {name: [0] * misr.width for name, misr in self._misrs.items()}
        differs = 0

        def observe(t: int, values: Dict[int, int]) -> None:
            nonlocal differs
            for name, bits in self._sa_input_bits.items():
                inputs = [values[net] for net in bits]
                stages[name] = self._misrs[name].fold(stages[name], inputs)
                for word in inputs:
                    # Bit m is set where machine m's bit differs from machine 0's.
                    differs |= (word ^ everyone) if word & 1 else word

        self.simulator.run(
            cycles,
            lambda t: pi_defaults,
            machines=machines,
            faults=machine_faults,
            forced_registers=lambda t: {
                name: streams[name][t] for name in tpg_registers
            },
            observe=observe,
        )
        return stages, differs

    def pattern_coverage(
        self,
        max_patterns: Optional[int] = None,
        faults: Optional[Sequence[Fault]] = None,
        *,
        config: Optional["RunConfig"] = None,
    ):
        """Per-pattern kernel fault coverage under the session's stimulus.

        Lowers the kernel to a combinational netlist, replays the TPG
        register streams as explicit patterns and routes the run through
        :func:`repro.engine.simulate` — measuring what the patterns detect
        *before* MISR compression (so the gap to :meth:`run`'s coverage is
        exactly the aliasing loss).  ``faults`` defaults to the lowered
        netlist's collapsed universe (its net ids, not the sequential
        simulator's).

        ``config`` (a :class:`repro.exec.RunConfig`) carries the execution
        backend, shard count, retry policy, checkpointing, budget and
        cancellation; the stimulus *length* stays this method's own
        ``max_patterns`` argument (default :meth:`recommended_cycles`) —
        the session decides how many cycles it generates, the config only
        bounds and shapes their simulation.
        """
        from repro import telemetry
        from repro.core.flow import lower_kernel_to_netlist
        from repro.engine import simulate
        from repro.exec.config import RunConfig

        if config is None:
            config = RunConfig()
        n = max_patterns if max_patterns is not None else self.recommended_cycles()
        config = config.replace(max_patterns=n)
        from repro.faultsim.patterns import SequencePatternSource

        with telemetry.span(
            "session.pattern_coverage",
            kernel=self.kernel.name,
            max_patterns=n,
            jobs=config.execution.effective_jobs,
        ):
            netlist = lower_kernel_to_netlist(self.circuit, self.kernel)
            streams = self.tpg.register_streams(n, seed=self.seed)
            names = sorted(self.kernel.tpg_registers)
            widths = [self.circuit.registers[name].width for name in names]
            patterns = []
            for t in range(n):
                bits: List[int] = []
                for name, width in zip(names, widths):
                    word = streams[name][t]
                    bits.extend(
                        (word >> position) & 1 for position in range(width)
                    )
                patterns.append(tuple(bits))
            source = SequencePatternSource(patterns)
            return simulate(netlist, faults, source, config=config)

    def aliasing_study(
        self, cycles: int, faults: Sequence[Fault]
    ) -> Tuple[int, int]:
        """(faults detected per-cycle but aliased in the signature, total
        per-cycle detected) — the empirical MISR aliasing rate."""
        golden, fault_signatures, observed, _ = self._sweep(cycles, faults)
        aliased = [f for f in observed if fault_signatures[f] == golden]
        return len(aliased), len(observed)

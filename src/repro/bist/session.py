"""Full BIST session simulation: TPG drives, circuit runs, MISRs compress.

This is the system the paper's hardware would actually execute: the
kernel's input registers are reconfigured as the SC_TPG/MC_TPG pattern
generator, the circuit operates for N cycles, and every SA register folds
its input words into a signature.  A fault is *detected by the session* iff
at least one SA signature differs from the fault-free (golden) signature —
the practical notion behind Table 2's fault-coverage rows, including MISR
aliasing, which this module also measures empirically.

The fault-free (golden) signatures are memoized through the engine's
:class:`~repro.engine.cache.GoldenCache`, so repeated sessions on the same
kernel/TPG/seed skip the golden machine entirely; and
:meth:`BISTSession.pattern_coverage` routes the session's stimulus through
:func:`repro.engine.simulate` for per-pattern (aliasing-free) coverage,
optionally sharded over worker processes.  :class:`SessionResult` now
lives in :mod:`repro.results`; the import here is a compatibility shim.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.bilbo.misr import MISR
from repro.bist.gatesim import MachineFault, SequentialGateSimulator
from repro.core.kernels import Kernel
from repro.engine.cache import GoldenCache
from repro.errors import SimulationError
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.results import SessionResult  # noqa: F401  (compatibility shim)
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
    cache:
        Golden-run cache for fault-free signatures; defaults to a private
        per-session cache so repeated :meth:`run` calls with the same
        cycle count reuse the golden machine.  Pass a shared
        :class:`~repro.engine.cache.GoldenCache` to pool across sessions.
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
        cache: Optional[GoldenCache] = None,
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
        self.cache = cache if cache is not None else GoldenCache()
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
        # near-period windows — measured 0.426 aliasing versus 0.180 with
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

    def _golden_key(self, cycles: int, streams: Dict[str, List[int]]) -> Tuple:
        """Content key for the cached golden signatures.

        Hashes the actual TPG stream (not the TPG object) so any generator
        producing the same stimulus shares the entry, and differing ones
        can never collide.
        """
        stream_digest = hashlib.sha256(
            repr(sorted((name, tuple(s)) for name, s in streams.items())).encode()
        ).hexdigest()
        return (
            "session-golden",
            self.simulator.netlist.fingerprint(),
            tuple(sorted(self.kernel.sa_registers)),
            cycles,
            stream_digest,
        )

    def golden_signatures(self, cycles: int) -> Dict[str, int]:
        """Fault-free MISR signatures for a session of ``cycles`` cycles.

        Memoized in the session's golden-run cache: the fault-free machine
        is simulated once per (kernel, stimulus, length), however many
        times :meth:`run` or :meth:`aliasing_study` need it.
        """
        streams = self.tpg.register_streams(cycles, seed=self.seed)
        return self._golden_signatures(cycles, streams)

    def _golden_signatures(
        self, cycles: int, streams: Dict[str, List[int]]
    ) -> Dict[str, int]:
        key = self._golden_key(cycles, streams)
        cached = self.cache.get(key)
        if cached is not None:
            return dict(cached)
        from repro import telemetry

        with telemetry.span(
            "session.golden_signatures",
            kernel=self.kernel.name, cycles=cycles,
        ):
            return self._compute_golden_signatures(cycles, streams, key)

    def _compute_golden_signatures(
        self, cycles: int, streams: Dict[str, List[int]], key: Tuple
    ) -> Dict[str, int]:
        pi_defaults = self._pi_defaults()
        tpg_registers = set(self.kernel.tpg_registers)
        misr_states = {name: 0 for name in self._misrs}

        def observe(t: int, values: Dict[int, int]) -> None:
            for name, bits in self._sa_input_bits.items():
                word = self.simulator.machine_word(values, bits, 0)
                misr_states[name] = self._misrs[name]._lfsr.step(misr_states[name]) ^ word

        self.simulator.run(
            cycles,
            lambda t: pi_defaults,
            machines=1,
            forced_registers=lambda t: {
                name: streams[name][t] for name in tpg_registers
            },
            observe=observe,
        )
        golden = dict(misr_states)
        self.cache.put(key, dict(golden))
        return golden

    def run(
        self,
        cycles: int,
        faults: Sequence[Fault] = (),
        machines_per_pass: int = 64,
        budget: Optional["Budget"] = None,
        cancel: Optional["CancelToken"] = None,
        config: Optional["RunConfig"] = None,
    ) -> SessionResult:
        """Run the session against a fault list.

        The golden machine comes from the cached :meth:`golden_signatures`
        run, so every pass packs ``machines_per_pass`` *faulty* machines.

        ``budget`` / ``cancel`` (see :mod:`repro.guard`) bound the run
        cooperatively at machine-pass boundaries: a tripped deadline or
        cancellation stops after the current pass and returns a
        ``partial=True`` result covering the faults simulated so far, with
        a structured ``stop_reason``.  A ``max_patterns`` budget caps the
        session's cycle count up front.  A :class:`repro.exec.RunConfig`
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
            return self._run(cycles, faults, machines_per_pass, budget, cancel)

    def _run(
        self,
        cycles: int,
        faults: Sequence[Fault],
        machines_per_pass: int,
        budget: Optional["Budget"] = None,
        cancel: Optional["CancelToken"] = None,
    ) -> SessionResult:
        from repro.guard import STOP_PATTERNS, RunGuard

        guard = RunGuard.create(budget, cancel)
        capped = False
        if budget is not None and budget.max_patterns is not None:
            capped = budget.max_patterns < cycles
            cycles = min(cycles, budget.max_patterns)
        streams = self.tpg.register_streams(cycles, seed=self.seed)
        pi_defaults = self._pi_defaults()
        tpg_registers = set(self.kernel.tpg_registers)

        def drive(t: int) -> Dict[str, int]:
            return pi_defaults

        def forced(t: int) -> Dict[str, int]:
            return {name: streams[name][t] for name in tpg_registers}

        golden = self._golden_signatures(cycles, streams)
        fault_signatures: Dict[Fault, Dict[str, int]] = {}
        pending = list(faults)
        stop_reason: Optional[str] = None
        while pending:
            if guard is not None:
                # Deadline / cancellation are checked between machine
                # passes; the pattern budget was applied to ``cycles``
                # up front, so it never fires here.
                stop_reason = guard.should_stop(0, 0)
                if stop_reason is not None:
                    break
            chunk = pending[:machines_per_pass]
            pending = pending[machines_per_pass:]
            machine_faults = [
                MachineFault(i, fault.net, fault.stuck_at)
                for i, fault in enumerate(chunk)
            ]
            machines = len(chunk)
            misr_states: Dict[str, List[int]] = {
                name: [0] * machines for name in self._misrs
            }

            def observe(t: int, values: Dict[int, int]) -> None:
                for name, bits in self._sa_input_bits.items():
                    misr = self._misrs[name]
                    states = misr_states[name]
                    for machine in range(machines):
                        word = self.simulator.machine_word(values, bits, machine)
                        states[machine] = misr._lfsr.step(states[machine]) ^ word

            self.simulator.run(
                cycles,
                drive,
                machines=machines,
                faults=machine_faults,
                forced_registers=forced,
                observe=observe,
            )
            for i, fault in enumerate(chunk):
                fault_signatures[fault] = {
                    name: misr_states[name][i] for name in self._misrs
                }

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

    def pattern_coverage(
        self,
        max_patterns: Optional[int] = None,
        faults: Optional[Sequence[Fault]] = None,
        *,
        config: Optional["RunConfig"] = None,
        cache: Optional[GoldenCache] = None,
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
            return simulate(
                netlist,
                faults,
                source,
                config=config,
                cache=cache if cache is not None else self.cache,
            )

    def aliasing_study(
        self, cycles: int, faults: Sequence[Fault]
    ) -> Tuple[int, int]:
        """(faults detected per-cycle but aliased in the signature, total
        per-cycle detected) — the empirical MISR aliasing rate."""
        streams = self.tpg.register_streams(cycles, seed=self.seed)
        pi_defaults = self._pi_defaults()
        tpg_registers = set(self.kernel.tpg_registers)

        per_cycle_detected: Dict[Fault, bool] = {f: False for f in faults}
        session = self.run(cycles, faults)

        # Re-run observing raw SA inputs for direct comparison.
        chunk = list(faults)
        machine_faults = [
            MachineFault(i + 1, fault.net, fault.stuck_at)
            for i, fault in enumerate(chunk)
        ]
        machines = len(chunk) + 1

        def observe(t: int, values: Dict[int, int]) -> None:
            for name, bits in self._sa_input_bits.items():
                golden_word = self.simulator.machine_word(values, bits, 0)
                for i, fault in enumerate(chunk):
                    if per_cycle_detected[fault]:
                        continue
                    word = self.simulator.machine_word(values, bits, i + 1)
                    if word != golden_word:
                        per_cycle_detected[fault] = True

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
        observable = [f for f, hit in per_cycle_detected.items() if hit]
        signature_detected = set(session.detected)
        aliased = [f for f in observable if f not in signature_detected]
        return len(aliased), len(observable)

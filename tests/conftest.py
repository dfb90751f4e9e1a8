"""Shared test fixtures and strategies."""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from repro import telemetry
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

try:  # pragma: no cover - hypothesis is in the [test] extra, but optional
    from hypothesis import HealthCheck, settings

    # CI pins a profile (plus --hypothesis-seed) for deterministic runs;
    # the nightly profile searches much harder with a fresh seed.
    settings.register_profile(
        "ci", max_examples=40, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "nightly", max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", max_examples=30, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass


def make_random_netlist(
    n_inputs: int, n_gates: int, seed: int, n_outputs: int = 2
) -> Netlist:
    """A random DAG netlist (deterministic for a given seed)."""
    rng = random.Random(seed)
    netlist = Netlist(f"random{seed}")
    available: List[int] = netlist.new_inputs(n_inputs, prefix="i")
    binary = [
        GateType.AND, GateType.NAND, GateType.OR,
        GateType.NOR, GateType.XOR, GateType.XNOR,
    ]
    for index in range(n_gates):
        gtype = rng.choice(binary + [GateType.NOT])
        if gtype is GateType.NOT:
            inputs = [rng.choice(available)]
        else:
            inputs = rng.sample(available, k=min(2, len(available)))
            if len(inputs) == 1:
                inputs = inputs * 2
        out = netlist.add_gate(gtype, inputs, name=f"g{index}")
        available.append(out)
    for net in available[-n_outputs:]:
        netlist.mark_output(net)
    netlist.validate()
    return netlist


def tiny_and_or() -> Netlist:
    """y = (a AND b) OR c — the workhorse 2-gate example."""
    netlist = Netlist("tiny")
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    c = netlist.new_input("c")
    t = netlist.add_net("t")
    netlist.add_gate(GateType.AND, [a, b], t, name="t")
    y = netlist.add_net("y")
    netlist.add_gate(GateType.OR, [t, c], y, name="y")
    netlist.mark_output(y)
    return netlist


@pytest.fixture
def tiny():
    return tiny_and_or()


@pytest.fixture
def tele():
    """The global telemetry instance, enabled and wiped, restored after."""
    instance = telemetry.get_telemetry()
    was_enabled = instance.enabled
    instance.reset()
    instance.enable()
    yield instance
    instance.reset()
    if not was_enabled:
        instance.disable()


@pytest.fixture
def pool_watch(monkeypatch):
    """Every unit a process pool receives, as (round, shard, attempt), and
    the number of pool restarts."""
    from repro.exec.process import ProcessExecutor

    seen = {"units": [], "restarts": 0}
    submit_round = ProcessExecutor.submit_round
    restart = ProcessExecutor.restart

    def recording_submit(self, unit):
        seen["units"].append((unit.round_index, unit.shard_id, unit.attempt))
        return submit_round(self, unit)

    def recording_restart(self):
        seen["restarts"] += 1
        restart(self)

    monkeypatch.setattr(ProcessExecutor, "submit_round", recording_submit)
    monkeypatch.setattr(ProcessExecutor, "restart", recording_restart)
    return seen

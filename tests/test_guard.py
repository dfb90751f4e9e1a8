"""Unit tests for :mod:`repro.guard` — budgets, tokens, signals, watchdog.

Engine-level integration (partial results, resume bit-identity, the
memory-adaptation ladder) lives in ``tests/test_engine_guard.py``; the
real-subprocess signal contract in ``tests/test_guard_signals.py``.  This
file covers the building blocks in isolation.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.engine.chaos import FaultInjector
from repro.errors import SimulationError
from repro.guard import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_MEMORY,
    STOP_PATTERNS,
    STOP_REASONS,
    STOP_SIGINT,
    STOP_SIGTERM,
    Budget,
    CancelToken,
    MemoryWatchdog,
    RunGuard,
    exit_code,
    guard_summary,
    parse_memory_size,
    rss_bytes,
    signal_scope,
    total_rss,
)

# ----------------------------------------------------------------- budgets


def test_parse_memory_size_suffixes():
    assert parse_memory_size("1048576") == 1 << 20
    assert parse_memory_size("512k") == 512 * 1024
    assert parse_memory_size("512KB") == 512 * 1024
    assert parse_memory_size(" 2GiB ") == 2 * 1024 ** 3
    assert parse_memory_size("1.5m") == int(1.5 * 1024 ** 2)
    assert parse_memory_size(4096) == 4096


@pytest.mark.parametrize("bad", ["", "12q", "one gig", "1.2.3m", "m"])
def test_parse_memory_size_rejects_garbage(bad):
    with pytest.raises(SimulationError):
        parse_memory_size(bad)


def test_budget_validation():
    with pytest.raises(SimulationError):
        Budget(deadline=-1)
    with pytest.raises(SimulationError):
        Budget(max_patterns=-1)
    with pytest.raises(SimulationError):
        Budget(max_rss=-2)
    assert Budget(max_rss="64M").max_rss == 64 * 1024 ** 2


def test_budget_arm_is_idempotent_and_deadline_expires():
    budget = Budget(deadline=3600)
    assert not budget.expired()  # un-armed: never expired
    budget.arm()
    first = budget._expires_at
    budget.arm()
    assert budget._expires_at == first  # first arm wins
    assert not budget.expired()

    instant = Budget(deadline=0).arm()
    assert instant.expired()


def test_budget_bounded_and_from_cli():
    assert Budget.from_cli(None, None, None) is None
    budget = Budget.from_cli(1.5, "1g", 256)
    assert budget is not None
    assert budget.deadline == 1.5
    assert budget.max_rss == 1024 ** 3
    assert budget.max_patterns == 256
    assert set(budget.to_json()) == {"deadline", "max_patterns", "max_rss"}


# ------------------------------------------------------------------ tokens


def test_cancel_token_first_trip_wins():
    token = CancelToken()
    assert not token.cancelled
    token.trip(STOP_SIGTERM, signum=signal.SIGTERM)
    token.trip(STOP_SIGINT, signum=signal.SIGINT)  # ignored
    assert token.cancelled
    assert token.reason == STOP_SIGTERM
    assert token.signum == signal.SIGTERM


def test_exit_code_mapping():
    assert exit_code(None) == 0
    assert exit_code(CancelToken()) == 0
    sigterm = CancelToken()
    sigterm.trip(STOP_SIGTERM, signum=signal.SIGTERM)
    assert exit_code(sigterm) == 143
    sigint = CancelToken()
    sigint.trip(STOP_SIGINT, signum=signal.SIGINT)
    assert exit_code(sigint) == 130
    plain = CancelToken()
    plain.trip()
    assert plain.reason == STOP_CANCELLED
    assert exit_code(plain) == 130


def test_signal_scope_trips_token_and_restores_handler():
    before = signal.getsignal(signal.SIGTERM)
    token = CancelToken()
    with signal_scope(token):
        assert signal.getsignal(signal.SIGTERM) != before
        os.kill(os.getpid(), signal.SIGTERM)
        assert token.cancelled
        assert token.reason == STOP_SIGTERM
        assert token.signum == signal.SIGTERM
    assert signal.getsignal(signal.SIGTERM) == before
    assert exit_code(token) == 143


def test_signal_scope_sigint_does_not_raise_keyboardinterrupt():
    token = CancelToken()
    with signal_scope(token):
        os.kill(os.getpid(), signal.SIGINT)  # would normally raise
        assert token.cancelled
    assert token.reason == STOP_SIGINT
    assert exit_code(token) == 130


# ------------------------------------------------------------------ memory


def test_rss_bytes_reads_this_process():
    rss = rss_bytes()
    assert rss is not None and rss > 0
    assert rss_bytes(os.getpid()) is not None
    assert rss_bytes(2 ** 30) is None  # no such pid: drops out of the sum
    total = total_rss([os.getpid(), 2 ** 30])
    assert total is not None and total >= rss


def test_memory_watchdog_thresholds():
    rss = rss_bytes()
    assert rss is not None
    roomy = MemoryWatchdog(max_rss=rss * 100)
    assert roomy.sample(0) == (False, False)

    tight = MemoryWatchdog(max_rss=1)
    assert tight.sample(0) == (True, True)

    # Soft threshold: pressure without the hard limit.
    soft = MemoryWatchdog(max_rss=int(rss / 0.9))
    pressure, hard = soft.sample(0)
    assert pressure and not hard


def test_memory_watchdog_chaos_forces_pressure_without_limit():
    chaos = FaultInjector.parse("oom:2:times=2")
    dog = MemoryWatchdog(max_rss=None, chaos=chaos)
    assert dog.sample(1) == (False, False)
    assert dog.sample(2) == (True, False)   # never "hard": adapt, don't stop
    assert dog.sample(3) == (True, False)
    assert dog.sample(4) == (False, False)


# ------------------------------------------------------------------- guard


def test_runguard_create_returns_none_when_unguarded():
    assert RunGuard.create(None, None) is None
    assert RunGuard.create(None, None, FaultInjector.parse("crash:0")) is None
    assert RunGuard.create(Budget(max_patterns=8), None) is not None
    assert RunGuard.create(None, CancelToken()) is not None
    assert RunGuard.create(None, None, FaultInjector.parse("sigterm:0")) is not None
    assert RunGuard.create(None, None, FaultInjector.parse("oom:0")) is not None


def test_runguard_stop_order_cancel_before_deadline():
    token = CancelToken()
    token.trip(STOP_SIGTERM)
    guard = RunGuard(Budget(deadline=0), token)
    assert guard.should_stop(0, 16) == STOP_SIGTERM  # cancel outranks deadline
    assert guard.stop_reason == STOP_SIGTERM
    # First stop reason is latched even if a later check would differ.
    assert guard.should_stop(0, 16) == STOP_SIGTERM


def test_runguard_deadline_and_pattern_cap():
    assert RunGuard(Budget(deadline=0)).should_stop(0, 16) == STOP_DEADLINE

    guard = RunGuard(Budget(max_patterns=64))
    assert guard.should_stop(0, 32) is None
    assert guard.should_stop(32, 32) is None     # lands exactly on the cap
    assert guard.should_stop(64, 32) == STOP_PATTERNS
    over = RunGuard(Budget(max_patterns=64))
    assert over.should_stop(48, 32) == STOP_PATTERNS  # would overshoot


def test_runguard_memory_ladder():
    guard = RunGuard(Budget(max_rss=1))
    assert guard.memory_action(0, (), already_serial=False) == "serial"
    assert guard.memory_action(1, (), already_serial=True) == "stop"
    assert guard.stop_reason == STOP_MEMORY


def test_runguard_chaos_sigterm_trips_after_target_round():
    guard = RunGuard(chaos=FaultInjector.parse("sigterm:1"))
    guard.after_round(0)
    assert guard.should_stop(16, 16) is None
    guard.after_round(1)
    assert guard.should_stop(32, 16) == STOP_SIGTERM
    assert guard.cancel is not None and guard.cancel.cancelled


# ------------------------------------------------------------------- chaos


def test_chaos_parent_modes_never_fire_in_workers():
    for spec in ("sigterm:1", "oom:0:times=3", "abort:2"):
        injector = FaultInjector.parse(spec)
        assert not injector.fires(0, 0, 0)
        assert not injector.fires(injector.shard, 0, 0)
    assert FaultInjector.parse("sigterm:1").cancels_after(1)
    assert not FaultInjector.parse("sigterm:1").cancels_after(0)
    oom = FaultInjector.parse("oom:1:times=2")
    assert [oom.oom_pressure(r) for r in range(4)] == [False, True, True, False]
    assert "sigterm" in FaultInjector.parse("sigterm:3").describe()
    assert "oom" in FaultInjector.parse("oom:0").describe()


# ----------------------------------------------------------------- summary


def test_guard_summary_shapes():
    clean = guard_summary()
    assert clean == {
        "budget": None, "cancelled": False, "partial": False,
        "stop_reason": None, "exit_code": 0,
    }
    token = CancelToken()
    token.trip(STOP_SIGTERM, signum=signal.SIGTERM)
    cut = guard_summary(Budget(deadline=5), token)
    assert cut["cancelled"] and cut["partial"]
    assert cut["stop_reason"] == STOP_SIGTERM
    assert cut["exit_code"] == 143
    assert cut["budget"]["deadline"] == 5
    deadline = guard_summary(Budget(deadline=0), None,
                             stop_reason=STOP_DEADLINE)
    assert deadline["partial"] and deadline["exit_code"] == 0


def test_stop_reasons_are_distinct():
    assert len(set(STOP_REASONS)) == len(STOP_REASONS) == 6


# --------------------------------------------------------------------- CLI


def test_cli_keyboardinterrupt_exits_130_without_traceback(monkeypatch, capsys):
    import repro.cli as cli

    def boom(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_analyze", boom)
    # set_defaults captured the original function; rebuild the parser with
    # the patched one by going through main() and the patched module attr.
    monkeypatch.setattr(
        cli, "build_parser", _patched_parser_factory(cli, boom)
    )
    code = cli.main(["analyze", "whatever.json"])
    assert code == 130
    err = capsys.readouterr().err
    assert err.strip() == "interrupted"


def _patched_parser_factory(cli, func):
    original = cli.build_parser

    def build():
        parser = original()
        # Rebind every subcommand to the interrupting stub.
        return _rebind(parser, func)

    def _rebind(parser, target):
        import argparse

        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    sub.set_defaults(func=target)
        return parser

    return build


def test_cli_keyboardinterrupt_mentions_checkpoint(monkeypatch, capsys):
    import repro.cli as cli

    def boom(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_parser", _patched_parser_factory(cli, boom))
    code = cli.main([
        "selftest", "whatever.json", "--checkpoint-dir", "/tmp/ck",
    ])
    assert code == 130
    err = capsys.readouterr().err
    assert err.strip() == "interrupted, checkpoint saved to /tmp/ck"

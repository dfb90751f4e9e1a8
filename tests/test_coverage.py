"""Coverage curve utilities."""

from repro.exec import RunConfig
from repro.faultsim.coverage import (
    coverage_at,
    coverage_curve,
    patterns_to_targets,
    sample_curve,
)
from repro.faultsim.patterns import ExhaustivePatternSource
from repro.faultsim.simulator import FaultSimulator

from tests.conftest import tiny_and_or


def _result():
    netlist = tiny_and_or()
    simulator = FaultSimulator(netlist, batch_width=8)
    return simulator.run(
        ExhaustivePatternSource(3), max_patterns=8,
        config=RunConfig(stop_when_complete=False),
    )


def test_curve_monotone_and_complete():
    result = _result()
    curve = coverage_curve(result)
    assert curve[-1].coverage == 1.0
    for earlier, later in zip(curve, curve[1:]):
        assert later.patterns >= earlier.patterns
        assert later.coverage >= earlier.coverage


def test_coverage_at_checkpoints():
    result = _result()
    assert coverage_at(result, 0) == 0.0
    assert coverage_at(result, 8) == 1.0
    mid = coverage_at(result, 2)
    assert 0.0 <= mid <= 1.0


def test_sample_curve_matches_coverage_at():
    result = _result()
    points = sample_curve(result, [0, 1, 4, 8])
    for point in points:
        assert point.coverage == coverage_at(result, point.patterns)


def test_patterns_to_targets():
    result = _result()
    rows = patterns_to_targets(result, [0.5, 1.0])
    assert rows[0][0] == 0.5
    assert rows[0][1] is not None and rows[0][1] <= rows[1][1]
    assert rows[1][1] == result.patterns_for_coverage(1.0)


def test_empty_denominator_curve():
    result = _result()
    result.undetectable.extend(result.faults)
    curve = coverage_curve(result, of_detectable=True)
    assert curve == [type(curve[0])(0, 1.0)] or curve[0].coverage == 1.0

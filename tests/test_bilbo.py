"""BILBO register modes, MISR signatures, cost models."""

import pytest

from repro.bilbo.cost import (
    AreaReport,
    BILBO_CELL_AREA,
    DFF_AREA,
    bilbo_area,
    register_conversion_cost,
    tpg_extra_area_fraction,
)
from repro.bilbo.misr import MISR, signature_pair
from repro.bilbo.register import BILBOMode, BILBORegister
from repro.tpg.lfsr import Type1LFSR


# ------------------------------------------------------------ BILBO register

def test_normal_mode_loads_parallel():
    register = BILBORegister("R", 4)
    register.set_mode(BILBOMode.NORMAL)
    register.clock(parallel_in=0b1010)
    assert register.output() == 0b1010


def test_reset_mode():
    register = BILBORegister("R", 4)
    register.seed(0xF)
    register.set_mode(BILBOMode.RESET)
    register.clock()
    assert register.output() == 0


def test_scan_mode_shifts():
    register = BILBORegister("R", 4)
    register.set_mode(BILBOMode.SCAN)
    for bit in (1, 0, 1, 1):
        register.clock(scan_in=bit)
    # First bit scanned in has shifted furthest (to the MSB end).
    assert register.output() == 0b1011


def test_tpg_mode_is_maximal_lfsr():
    register = BILBORegister("R", 5)
    sequence = register.tpg_sequence(31, seed=1)
    assert len(set(sequence)) == 31
    assert 0 not in sequence
    lfsr = Type1LFSR(5, register.polynomial)
    assert sequence == lfsr.sequence(seed=1, count=31)


def test_sa_mode_is_misr():
    register = BILBORegister("R", 4)
    register.seed(0)
    register.set_mode(BILBOMode.SA)
    stream = [3, 7, 1, 15, 8]
    for word in stream:
        register.clock(parallel_in=word)
    misr = MISR(4, register.polynomial)
    assert register.output() == misr.signature(stream)


def test_bilbo_cannot_be_tpg_and_sa_simultaneously():
    """The BIBS motivation: in SA mode the output is the signature, not a
    pattern sequence."""
    register = BILBORegister("R", 4)
    register.seed(1)
    register.set_mode(BILBOMode.SA)
    outputs = [register.clock(parallel_in=w) for w in (5, 5, 5)]
    lfsr_states = Type1LFSR(4, register.polynomial).sequence(seed=1, count=3)
    assert outputs != lfsr_states


def test_cbilbo_generates_while_compressing():
    """A CBILBO exposes a TPG sequence while its SA half compresses."""
    register = BILBORegister("R", 4, is_cbilbo=True)
    register.seed(1)
    register.set_mode(BILBOMode.SA)
    outputs = []
    for word in (5, 9, 2):
        register.clock(parallel_in=word)
        outputs.append(register.output())
    lfsr = Type1LFSR(4, register.polynomial)
    assert outputs == lfsr.sequence(seed=1, count=4)[1:]


def test_invalid_width():
    with pytest.raises(Exception):
        BILBORegister("R", 0)


# -------------------------------------------------------------------- MISR

def test_misr_distinguishes_differing_streams():
    misr = MISR(8)
    good = [1, 2, 3, 4, 5]
    bad = [1, 2, 3, 4, 6]
    assert misr.distinguishes(good, bad)
    assert not misr.distinguishes(good, list(good))
    g, b = signature_pair(8, good, bad)
    assert g != b


@pytest.mark.parametrize("width", [1, 3, 8])
def test_misr_fold_steps_every_machine_like_signature(width):
    """The packed fold runs ``signature`` on every machine at once: bit
    ``m`` of each stage and input word belongs to machine ``m``."""
    import random

    rng = random.Random(width)
    misr = MISR(width)
    streams = [[rng.getrandbits(width) for _ in range(30)] for _ in range(5)]
    stages = [0] * width
    for words in zip(*streams):
        inputs = [
            sum(((word >> i) & 1) << machine for machine, word in enumerate(words))
            for i in range(width)
        ]
        stages = misr.fold(stages, inputs)
    assert [MISR.unpack(stages, machine) for machine in range(5)] == [
        misr.signature(stream) for stream in streams
    ]


def test_misr_aliasing_probability():
    assert MISR(16).aliasing_probability() == 2.0**-16


def test_misr_empirical_aliasing_is_rare():
    """Random error streams almost never alias into the good signature."""
    import random

    rng = random.Random(5)
    misr = MISR(10)
    good = [rng.getrandbits(10) for _ in range(50)]
    reference = misr.signature(good)
    aliases = 0
    trials = 300
    for _ in range(trials):
        bad = list(good)
        position = rng.randrange(len(bad))
        bad[position] ^= 1 << rng.randrange(10)
        if misr.signature(bad) == reference:
            aliases += 1
    assert aliases <= 2  # expectation ~ trials * 2^-10 = 0.3


# -------------------------------------------------------------------- cost

def test_area_calibration_reproduces_paper_figure():
    """Example 2: 2 extra D-FFs ~ 7.2% of a 12-bit BILBO register."""
    assert tpg_extra_area_fraction(2, 12) == pytest.approx(0.072, abs=1e-9)


def test_area_report():
    report = AreaReport(n_bilbo_registers=2, n_bilbo_flipflops=16, n_extra_dffs=2)
    assert report.bilbo_area == pytest.approx(16 * BILBO_CELL_AREA)
    assert report.total_area == pytest.approx(16 * BILBO_CELL_AREA + 2)
    assert report.overhead_vs_plain_registers() > 1.0  # BILBO cell > 2x DFF


def test_conversion_cost_monotone():
    widths = {"A": 8, "B": 4}
    assert register_conversion_cost(widths, ["A"]) > register_conversion_cost(
        widths, ["B"]
    )
    assert register_conversion_cost(widths, []) == 0


def test_bilbo_area_sum():
    assert bilbo_area([8, 4]) == pytest.approx(12 * BILBO_CELL_AREA)

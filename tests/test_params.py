from fractions import Fraction

import pytest

from reference_data import INTERLEAVED_ROWS
from toriclat.distance import distance_report
from toriclat.lattice import TorusLattice
from toriclat.params import (CodeParams, ComparisonRow, bmd_params, compare,
                             format_ratio, interleaved_params, kitaev_params,
                             toric_code_params)


def _nkdt(p):
    return (p.n, p.k, p.d, p.t)


def test_toric_params():
    assert _nkdt(toric_code_params(TorusLattice(5))) == (10, 2, 3, 1)
    assert _nkdt(toric_code_params(TorusLattice(7))) == (14, 2, 3, 1)
    assert _nkdt(toric_code_params(TorusLattice(11))) == (22, 2, 4, 1)


def test_interleaved_params():
    assert _nkdt(interleaved_params(TorusLattice(5))) == (50, 10, None, 5)
    assert _nkdt(interleaved_params(TorusLattice(13))) == (338, 26, None, 13)
    assert _nkdt(interleaved_params(TorusLattice(17))) == (578, 34, None, 17)


def test_kitaev_params():
    assert _nkdt(kitaev_params(5)) == (50, 2, 5, 2)
    assert _nkdt(kitaev_params(7)) == (98, 2, 7, 3)
    assert kitaev_params(5).rate == Fraction(1, 25)
    with pytest.raises(ValueError):
        kitaev_params(4)


def test_bmd_params():
    assert _nkdt(bmd_params(1)) == (10, 2, 3, 1)
    assert _nkdt(bmd_params(5)) == (122, 2, 11, 5)
    assert bmd_params(7).n == 226
    with pytest.raises(ValueError):
        bmd_params(0)


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams("toric", 10, 2, 5, 1)  # t inconsistent with d
    with pytest.raises(ValueError):
        CodeParams("toric", 2, 2, None, 1)  # n must exceed k


def test_rate_gain_examples():
    p5 = interleaved_params(TorusLattice(5))
    assert p5.rate == Fraction(1, 5)
    assert p5.gain == Fraction(6, 5)
    p7 = interleaved_params(TorusLattice(7))
    assert format_ratio(p7.gain) == "1.14286"
    pk = kitaev_params(5)
    assert pk.gain == Fraction(3, 25)
    assert float(pk.gain) == 0.12


def test_interleaved_table_rows_reproduce_to_five_decimals():
    for q, (n, k, t, gain_text) in INTERLEAVED_ROWS.items():
        params = interleaved_params(TorusLattice(q))
        assert (params.n, params.k, params.t) == (n, k, t)
        assert params.gain == Fraction(q + 1, q)
        assert format_ratio(params.gain, 5) == gain_text


def test_dominance_over_both_baselines_up_to_1001():
    for q in range(5, 1002, 2):
        row = compare(q)
        for baseline in (row.kitaev, row.bmd):
            assert row.interleaved.rate > baseline.rate
            assert row.interleaved.gain > baseline.gain
        assert row.dominates


def test_gain_is_strictly_decreasing_with_limit_one():
    prev = None
    for q in range(5, 402, 2):
        gain = interleaved_params(TorusLattice(q)).gain
        assert gain - 1 == Fraction(1, q)
        if prev is not None:
            assert gain < prev
        prev = gain


def test_toric_distance_agrees_with_brute_force():
    for q in range(5, 42, 2):
        lat = TorusLattice(q)
        assert toric_code_params(lat).d == distance_report(lat).distance


def test_gain_db_is_log_of_gain():
    params = interleaved_params(TorusLattice(5))
    assert abs(params.gain_db - 0.7918124604762482) < 1e-12


# Hand-built codes for the dominance test: the interleaved stand-in has
# rate 1/5 and gain 1.  WEAK loses to it on both; RATE_WINNER has the
# higher rate (1/2) but the lower gain (1/2); GAIN_WINNER has the higher
# gain (2) but the lower rate (1/50).  RATE_TIE equals its rate with the
# lower gain (1/5), GAIN_TIE its gain with the lower rate (1/50).
INTERLEAVED = CodeParams("interleaved", 10, 2, None, 4)
WEAK = CodeParams("kitaev", 100, 2, None, 1)
RATE_WINNER = CodeParams("kitaev", 4, 2, None, 0)
GAIN_WINNER = CodeParams("kitaev", 100, 2, None, 99)
RATE_TIE = CodeParams("bmd", 10, 2, None, 0)
GAIN_TIE = CodeParams("bmd", 100, 2, None, 49)


def test_hand_built_codes_order_as_described():
    assert (INTERLEAVED.rate, INTERLEAVED.gain) == (Fraction(1, 5), 1)
    assert WEAK.rate < INTERLEAVED.rate and WEAK.gain < INTERLEAVED.gain
    assert RATE_WINNER.rate > INTERLEAVED.rate > GAIN_WINNER.rate
    assert GAIN_WINNER.gain > INTERLEAVED.gain > RATE_WINNER.gain
    assert RATE_TIE.rate == INTERLEAVED.rate > GAIN_TIE.rate
    assert GAIN_TIE.gain == INTERLEAVED.gain > RATE_TIE.gain


@pytest.mark.parametrize("kitaev, bmd", [
    (RATE_WINNER, WEAK), (GAIN_WINNER, WEAK),
    (WEAK, RATE_WINNER), (WEAK, GAIN_WINNER),
    (WEAK, RATE_TIE), (WEAK, GAIN_TIE),
], ids=["kitaev-rate", "kitaev-gain", "bmd-rate", "bmd-gain",
        "bmd-rate-tie", "bmd-gain-tie"])
def test_losing_any_one_comparison_loses_dominance(kitaev, bmd):
    assert ComparisonRow(5, INTERLEAVED, WEAK, WEAK).dominates
    assert not ComparisonRow(5, INTERLEAVED, kitaev, bmd).dominates


def test_dominates_reads_no_fraction_and_agrees_with_fractions(monkeypatch):
    hand = (INTERLEAVED, WEAK, RATE_WINNER, GAIN_WINNER, RATE_TIE, GAIN_TIE)
    rows = [compare(q) for q in range(5, 1002, 2)]
    rows += [ComparisonRow(5, INTERLEAVED, kitaev, bmd)
             for kitaev in hand for bmd in hand]
    by_fractions = [all(row.interleaved.rate > b.rate
                        and row.interleaved.gain > b.gain
                        for b in (row.kitaev, row.bmd)) for row in rows]
    assert True in by_fractions and False in by_fractions

    def no_read(self):
        raise AssertionError("dominates read a Fraction property")

    for name in ("rate", "gain"):
        monkeypatch.setattr(CodeParams, name, property(no_read))
    assert [row.dominates for row in rows] == by_fractions


def test_compare_rejects_q_through_the_lattice():
    for q in (3, 4, 6):
        with pytest.raises(ValueError, match=f"q must be odd and >= 5, got {q}"):
            compare(q)

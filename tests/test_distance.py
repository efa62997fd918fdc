import pytest

from reference_data import EXAMPLE_CANDIDATES, EXAMPLE_DISTANCES
from toriclat.codes import codewords
from toriclat.distance import (distance_report, mannheim_weight,
                               min_distance_closed_form, move_vectors)
from toriclat.lattice import TorusLattice


def test_mannheim_weight_examples():
    assert mannheim_weight((0, 0)) == 0
    assert mannheim_weight((1, -3)) == 4
    assert mannheim_weight((3, 2)) == 5
    assert mannheim_weight((-3, -2)) == mannheim_weight((3, 2))


def test_bruteforce_examples():
    assert distance_report(TorusLattice(5)).distance == 3
    assert distance_report(TorusLattice(7)).distance == 3
    assert distance_report(TorusLattice(11)).distance == 4


def test_achieving_vectors_break_ties_by_smallest_k():
    assert distance_report(TorusLattice(5)).achieving_vector == (1, 2)
    assert distance_report(TorusLattice(7)).achieving_vector == (2, 1)
    assert distance_report(TorusLattice(9)).achieving_vector == (3, 0)
    assert distance_report(TorusLattice(11)).achieving_vector == (1, -3)


def test_closed_form_examples():
    assert min_distance_closed_form(TorusLattice(9)) == 3
    assert min_distance_closed_form(TorusLattice(13)) == 4
    lat = TorusLattice(101)
    assert min_distance_closed_form(lat) == 4
    assert min_distance_closed_form(lat) == distance_report(lat).distance


def test_move_vectors_examples():
    assert move_vectors(TorusLattice(11)) == ((1, -3), (3, 2))
    assert move_vectors(TorusLattice(13))[1] == (4, 1)
    assert move_vectors(TorusLattice(9))[1] == (3, 0)
    with pytest.raises(ValueError):
        move_vectors(TorusLattice(5))


def test_oracle_equivalence_for_all_n_up_to_100():
    for n in range(2, 101):
        lat = TorusLattice(2 * n + 1)
        assert distance_report(lat).distance == min_distance_closed_form(lat)


def test_candidate_weights_reproduce_the_worked_examples():
    for q, expected in EXAMPLE_CANDIDATES.items():
        report = distance_report(TorusLattice(q))
        assert dict(report.candidate_weights) == expected
        assert report.distance == min(expected.values()) == EXAMPLE_DISTANCES[q]


def test_candidates_dominate_for_n_at_least_3():
    for n in range(3, 101):
        lat = TorusLattice(2 * n + 1)
        report = distance_report(lat)
        assert report.distance == min(w for _, w in report.candidate_weights)


def test_move_vectors_reduce_to_nonzero_codewords():
    for n in range(2, 60):
        lat = TorusLattice(2 * n + 1)
        code = set(codewords(lat).codewords)
        vert = ((1) % lat.q, (-3) % lat.q)
        assert vert in code and vert != (0, 0)
        if n >= 3:
            _, horiz = move_vectors(lat)
            reduced = (horiz[0] % lat.q, horiz[1] % lat.q)
            assert reduced in code and reduced != (0, 0)
            # already in symmetric-residue form
            assert lat.reduce(reduced) == horiz


def test_distance_is_invariant_under_negating_the_generator():
    for q in (5, 7, 9, 11, 13):
        lat = TorusLattice(q)
        base = distance_report(lat).distance
        negated = min(
            mannheim_weight(lat.reduce(((-k) % q, (-k * lat.g) % q)))
            for k in range(1, q))
        assert negated == base


def test_report_carries_q_and_bruteforce_equals_report():
    lat = TorusLattice(9)
    report = distance_report(lat)
    weights = [mannheim_weight(lat.reduce(c))
               for c in codewords(lat).codewords[1:]]
    assert report.distance == min(weights)
    assert report.achieving_vector == lat.reduce(
        codewords(lat).codewords[1 + weights.index(min(weights))])
    assert report.q == 9

import pytest
from hypothesis import given, strategies as st

from oracles import PROPERTY, generates_same_code, generators_by_span
from reference_data import GENERATOR_SETS
from toriclat.codes import (codewords, generator_set, is_perfect,
                            is_sum_of_two_squares, verify_determinant)
from toriclat.lattice import TorusLattice


def test_codewords_q5_exact_order():
    code = codewords(TorusLattice(5))
    assert list(code.codewords) == [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)]


def test_codewords_known_members():
    assert (2, 1) in codewords(TorusLattice(7)).codewords
    code9 = codewords(TorusLattice(9)).codewords
    assert (2, 3) in code9
    assert (1, 6) in code9


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_codewords_form_a_subgroup_with_one_per_column(q):
    lat = TorusLattice(q)
    cells = set(codewords(lat).codewords)
    assert len(cells) == q
    assert sorted(x for x, _ in cells) == list(range(q))
    for a in cells:
        assert ((-a[0]) % q, (-a[1]) % q) in cells
        for b in cells:
            assert ((a[0] + b[0]) % q, (a[1] + b[1]) % q) in cells


@pytest.mark.parametrize("q", [5, 7, 9])
def test_generator_sets_match_the_published_listings(q):
    got = generator_set(TorusLattice(q)).vectors
    assert got == frozenset(GENERATOR_SETS[q])


def test_generator_set_q9_has_no_component_divisible_by_three():
    vectors = generator_set(TorusLattice(9)).vectors
    assert not any(c % 3 == 0 for c, _ in vectors)


def test_generates_same_code_examples():
    assert generates_same_code(TorusLattice(5), (2, -1))
    assert not generates_same_code(TorusLattice(5), (1, 1))
    for q in range(5, 42, 2):
        lat = TorusLattice(q)
        assert generates_same_code(lat, lat.generator)


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_generator_set_is_complete_over_all_signed_pairs(q):
    lat = TorusLattice(q)
    vectors = generator_set(lat).vectors
    components = [c for c in range(-(q - 1), q) if c != 0]
    for c in components:
        for d in components:
            assert generates_same_code(lat, (c, d)) == ((c, d) in vectors)


@PROPERTY
@given(st.sampled_from(range(5, 202, 2)))
def test_generator_set_matches_the_span_oracle(q):
    lat = TorusLattice(q)
    assert generator_set(lat).vectors == generators_by_span(lat)


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_generator_vectors_have_determinant_divisible_by_q(q):
    lat = TorusLattice(q)
    for vec in generator_set(lat).vectors:
        assert verify_determinant(lat, vec) % q == 0
        assert vec[0] % q != 0 and vec[1] % q != 0


def test_is_perfect_examples():
    assert is_perfect(TorusLattice(7))
    assert not is_perfect(TorusLattice(9))
    assert is_perfect(TorusLattice(5))


@pytest.mark.parametrize("q", range(5, 102, 2))
def test_is_perfect_matches_the_n_mod_3_criterion(q):
    lat = TorusLattice(q)
    assert is_perfect(lat) == (lat.n % 3 != 1)


def test_sum_of_two_squares_examples():
    assert is_sum_of_two_squares(5) == (True, (1, 2))
    assert is_sum_of_two_squares(7) == (False, None)
    assert is_sum_of_two_squares(9) == (True, (3, 0))


def test_sum_of_two_squares_against_exhaustive_search():
    def brute(q):
        return any(x * x + y * y == q
                   for x in range(q + 1) for y in range(q + 1))

    for q in range(2, 201):
        ok, witness = is_sum_of_two_squares(q)
        assert ok == brute(q)
        if ok:
            x, y = witness
            assert x * x + y * y == q


def test_sum_of_two_squares_prime_criterion():
    def is_prime(q):
        return q >= 2 and all(q % p for p in range(2, int(q ** 0.5) + 1))

    for q in range(3, 500):
        if is_prime(q):
            ok, _ = is_sum_of_two_squares(q)
            assert ok == (q % 4 == 1)


def test_verify_determinant_examples():
    assert verify_determinant(TorusLattice(5), (1, -3)) == 5
    assert verify_determinant(TorusLattice(7), (1, 4)) == 0
    assert verify_determinant(TorusLattice(9), (1, 1)) == 5

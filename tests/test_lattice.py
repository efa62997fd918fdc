import random

import pytest

from toriclat.lattice import TorusLattice, symmetric_residue


def test_symmetric_residue_examples():
    assert symmetric_residue(0, 5) == 0
    assert symmetric_residue(4, 5) == -1
    assert symmetric_residue(6, 9) == -3


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_symmetric_residue_is_the_unique_representative(q):
    half = (q - 1) // 2
    for v in range(-3 * q, 3 * q + 1):
        r = symmetric_residue(v, q)
        assert (r - v) % q == 0
        assert -half <= r <= half
        # no other value in the symmetric range is congruent to v
        others = [w for w in range(-half, half + 1) if (w - v) % q == 0]
        assert others == [r]


def test_lattice_validation():
    for bad in (3, 4, 6, 0, -5):
        with pytest.raises(ValueError):
            TorusLattice(bad)
    lat = TorusLattice(5)
    assert (lat.n, lat.g) == (2, 2)
    lat7 = TorusLattice(7)
    assert (lat7.n, lat7.g) == (3, 4)
    for q in range(5, 102, 2):
        lat = TorusLattice(q)
        assert lat.q == 2 * lat.n + 1
        assert lat.g == 2 * (lat.n - 1) == lat.q - 3


@pytest.mark.parametrize("bad", [7.0, 7.5, "7", None])
def test_a_q_that_is_not_an_integer_is_refused_at_construction(bad):
    # 7.0 would construct and fail later inside range(), as in codewords
    with pytest.raises(TypeError):
        TorusLattice(bad)


def test_an_int_subclass_q_is_taken_as_its_int():
    class Int(int):
        pass

    lat = TorusLattice(Int(7))
    assert lat == TorusLattice(7)
    assert type(lat.q) is int


@pytest.mark.parametrize("q", range(5, 62, 2))
def test_labels_and_step(q):
    lat = TorusLattice(q)
    cells = list(lat.cells())
    labels = lat.labels(cells)
    assert labels == [(y - lat.g * x) % q for x, y in cells]
    assert lat.step == 3
    label = dict(zip(cells, labels))
    for x, y in cells:
        assert (label[(x + 1) % q, y] - label[x, y]) % q == lat.step


def test_translate_examples():
    assert TorusLattice(5).translate((0, 0), (1, 2)) == (1, 2)
    assert TorusLattice(5).translate((4, 3), (1, 2)) == (0, 0)
    assert TorusLattice(7).translate((3, 0), (-1, 3)) == (2, 3)


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_translate_is_a_group_action(q):
    rng = random.Random(1234 + q)
    lat = TorusLattice(q)
    for _ in range(200):
        c = (rng.randrange(q), rng.randrange(q))
        u = (rng.randint(-2 * q, 2 * q), rng.randint(-2 * q, 2 * q))
        v = (rng.randint(-2 * q, 2 * q), rng.randint(-2 * q, 2 * q))
        assert lat.translate(lat.translate(c, u), v) == \
            lat.translate(c, (u[0] + v[0], u[1] + v[1]))
    assert lat.translate((1, 1), (0, 0)) == (1, 1)


def test_reduce_maps_to_symmetric_form():
    lat = TorusLattice(5)
    assert lat.reduce((2, 4)) == (2, -1)
    assert lat.reduce((4, 3)) == (-1, -2)

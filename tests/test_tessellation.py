import random
import xml.etree.ElementTree as ET
from collections.abc import Iterator

import pytest
from hypothesis import given, strategies as st

from oracles import (PROPERTY, ascii_by_cells, connected_by_walk,
                     fundamental_by_pairs_and_cover, odd_q_and_polyomino,
                     svg_by_cells, tiling_by_translates)
from toriclat.codes import codewords
from toriclat.lattice import TorusLattice
from toriclat.tessellation import (Grid, Polyomino, _connected,
                                   canonical_polyomino, is_fundamental_region,
                                   lee_sphere, render_ascii, render_svg,
                                   svg_rows, tessellate)


def test_from_cells_rejects_a_repeated_cell():
    # merged away, the plus pentomino would be reported later as a
    # four-cell shape for q = 5
    cells = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    with pytest.raises(ValueError, match=r"^duplicate cell \(0, 0\)$"):
        Polyomino.from_cells(cells)
    assert Polyomino.from_cells(cells[:-1]) == lee_sphere()


@pytest.mark.parametrize("bad", [1.9, 1.0, "1", None])
def test_from_cells_refuses_a_coordinate_that_is_not_an_integer(bad):
    # int() would truncate (1.9, 0) to (1, 0) and return a tromino
    with pytest.raises(TypeError):
        Polyomino.from_cells([(0, 0), (bad, 0), (0, 1)])
    with pytest.raises(TypeError):
        Polyomino.from_cells([(0, 0), (1, 0), (0, bad)])


@pytest.mark.parametrize("bad", [1.0, "1"])
def test_polyomino_refuses_a_coordinate_that_is_not_an_integer(bad):
    # taken as given, (1.0, 0) builds a shape that tessellate later
    # refuses with an unrelated TypeError from a list index
    with pytest.raises(TypeError, match="as an integer"):
        Polyomino(((0, 0), (bad, 0), (2, 0), (3, 0), (4, 0)))
    with pytest.raises(TypeError, match="as an integer"):
        Polyomino(((0, 0), (0, bad), (0, 2), (0, 3), (0, 4)))


def test_polyomino_takes_int_subclass_coordinates_as_ints():
    class Int(int):
        pass

    p = Polyomino([(Int(0), 0), (1, Int(0)), (Int(0), Int(1))])
    assert p.cells == ((0, 0), (1, 0), (0, 1))
    assert all(type(v) is int for cell in p.cells for v in cell)


def test_from_cells_takes_int_subclass_coordinates_as_ints():
    class Int(int):
        pass

    p = Polyomino.from_cells([(Int(2), 3), (3, Int(3)), (Int(2), Int(4))])
    assert p.cells == ((0, 0), (1, 0), (0, 1))
    assert all(type(v) is int for cell in p.cells for v in cell)


def test_polyomino_normalization_and_validation():
    p = Polyomino.from_cells([(2, 3), (3, 3), (2, 4)])
    assert p.cells == ((0, 0), (1, 0), (0, 1))
    with pytest.raises(ValueError):
        Polyomino.from_cells([(0, 0), (2, 0)])  # disconnected
    with pytest.raises(ValueError):
        Polyomino.from_cells([])
    with pytest.raises(ValueError):
        Polyomino(((1, 1), (1, 2)))  # not normalized


@st.composite
def _cell_set(draw):
    # a set in a small box, dense enough that both outcomes occur, given
    # in any order; x >= 0 as in a normalized polyomino, y of either sign
    cells = draw(st.sets(st.tuples(st.integers(0, 5), st.integers(-2, 3)),
                         min_size=1, max_size=24))
    return tuple(draw(st.permutations(sorted(cells))))


@PROPERTY
@given(_cell_set())
def test_connectivity_matches_the_walk_on_cell_sets(cells):
    assert _connected(cells) == connected_by_walk(cells)


@PROPERTY
@given(odd_q_and_polyomino(), st.data())
def test_connectivity_matches_the_walk_on_grown_shapes(q_and_shape, data):
    # a grown shape is connected; less one cell it may fall apart
    _, shape = q_and_shape
    assert _connected(shape.cells) and connected_by_walk(shape.cells)
    i = data.draw(st.integers(0, shape.area - 1))
    cells = shape.cells[:i] + shape.cells[i + 1:]
    assert _connected(cells) == connected_by_walk(cells)


def test_connectivity_cases():
    # a single cell
    assert _connected(((0, 0),))
    # rows that touch only at a corner, and a ring around a hole
    assert not _connected(((0, 0), (1, 1)))
    assert _connected(((0, 0), (1, 0), (2, 0), (0, 1), (2, 1),
                       (0, 2), (1, 2), (2, 2)))
    # a row that bridges two pieces of the row above
    assert _connected(((0, 0), (2, 0), (0, 1), (1, 1), (2, 1)))
    assert not _connected(((0, 0), (2, 0), (0, 1), (2, 1)))
    # rows with a gap between them
    assert not _connected(((0, 0), (0, 2)))


def _spiral(side):
    # a one-cell-wide square spiral inward from (0, 0), its arms a cell
    # apart: legs of side - 1, side - 1, side - 1, then two each of
    # side - 3, side - 5, ... steps, turning right at each
    cells = [(0, 0)]
    dx, dy = 1, 0
    legs = [side - 1] * 3 + [n for n in range(side - 3, 0, -2)
                             for _ in (0, 1)]
    for leg in legs:
        for _ in range(leg):
            x, y = cells[-1]
            cells.append((x + dx, y + dy))
        dx, dy = -dy, dx
    return cells


def test_connectivity_of_a_one_cell_wide_spiral():
    # the walk goes the whole length of the spiral, one cell at a time
    cells = _spiral(41)
    assert len(set(cells)) == len(cells) > 800
    members = set(cells)
    assert all(sum((x + dx, y + dy) in members for dx, dy in
                   ((1, 0), (-1, 0), (0, 1), (0, -1))) <= 2
               for x, y in cells)  # a path: no cell touches a second arm
    assert _connected(tuple(cells)) and connected_by_walk(cells)
    for cut in (1, len(cells) // 2, len(cells) - 2):
        rest = tuple(cells[:cut] + cells[cut + 1:])
        assert not _connected(rest) and not connected_by_walk(rest)


def test_connectivity_of_the_q10001_canonical_shape():
    # a 3333 x 3 block and a strip of 2 in column 3333; without the
    # block's column 1, column 0 is cut off
    cells = canonical_polyomino(TorusLattice(10001)).cells
    assert len(cells) == 10001 and _connected(cells)
    cut = tuple((x, y) for x, y in cells if x != 1)
    assert len(cut) == 10001 - 3 and not _connected(cut)


def test_canonical_shapes():
    assert canonical_polyomino(TorusLattice(9)).cells == tuple(
        (x, y) for y in range(3) for x in range(3))
    assert canonical_polyomino(TorusLattice(7)).cells == (
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2))
    assert canonical_polyomino(TorusLattice(5)).cells == (
        (0, 0), (1, 0), (0, 1), (1, 1), (2, 1))


def test_canonical_area_and_tiling_sweep():
    for q in range(5, 102, 2):
        lat = TorusLattice(q)
        shape = canonical_polyomino(lat)
        assert shape.area == q
        assert shape == Polyomino.from_cells(shape.cells)
        ok, witness = is_fundamental_region(lat, shape)
        assert ok and witness is None


def test_face_count_arithmetic_by_remainder():
    # r = 0, 1, 2 cases of g = 3q' + r all give exactly q cells
    for q, r in ((9, 0), (7, 1), (11, 2), (15, 0), (13, 1), (17, 2)):
        lat = TorusLattice(q)
        assert lat.g % 3 == r
        assert canonical_polyomino(lat).area == q


def test_lee_sphere():
    sphere = lee_sphere()
    assert sphere.area == 5
    assert set(sphere.cells) == {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}
    ok, _ = is_fundamental_region(TorusLattice(5), sphere)
    assert ok


def test_non_fundamental_witness():
    lat = TorusLattice(5)
    # every cell is a codeword, so all five share one coset
    ok, witness = is_fundamental_region(
        lat, {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)})
    assert not ok
    a, b = witness
    diff = ((a[0] - b[0]) % 5, (a[1] - b[1]) % 5)
    assert diff in codewords(lat)


def test_area_mismatch_rejected():
    with pytest.raises(ValueError):
        is_fundamental_region(TorusLattice(7), lee_sphere())


def _random_connected_shape(rng, area):
    cells = {(0, 0)}
    while len(cells) < area:
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        cells.add((x + dx, y + dy))
    return Polyomino.from_cells(cells)


@pytest.mark.parametrize("q", [5, 7, 9, 13, 17, 25, 31])
def test_coset_test_agrees_with_direct_cover_on_random_shapes(q):
    rng = random.Random(900 + q)
    lat = TorusLattice(q)
    for _ in range(25):
        shape = _random_connected_shape(rng, q)
        assert is_fundamental_region(lat, shape) == \
            fundamental_by_pairs_and_cover(lat, shape.cells)


@PROPERTY
@given(odd_q_and_polyomino())
def test_label_test_matches_the_pairwise_and_cover_oracle(q_and_shape):
    q, shape = q_and_shape
    lat = TorusLattice(q)
    assert is_fundamental_region(lat, shape) == \
        fundamental_by_pairs_and_cover(lat, shape.cells)


@st.composite
def _odd_q_and_cell_set(draw):
    # one cell per coset, then up to two cells moved, so both outcomes occur
    q = draw(st.sampled_from(range(5, 34, 2)))
    coord = st.integers(0, q - 1)
    xs = draw(st.lists(coord, min_size=q, max_size=q))
    cells = [(x, (label + (q - 3) * x) % q) for label, x in enumerate(xs)]
    for i, cell in draw(st.lists(st.tuples(coord, st.tuples(coord, coord)),
                                 max_size=2)):
        if cell not in cells:
            cells[i] = cell
    return q, tuple(cells)


@PROPERTY
@given(_odd_q_and_cell_set())
def test_label_test_matches_the_oracle_on_cell_sets(q_and_cells):
    q, cells = q_and_cells
    lat = TorusLattice(q)
    assert is_fundamental_region(lat, cells) == \
        fundamental_by_pairs_and_cover(lat, cells)


def test_witness_is_the_first_pair_in_the_callers_order():
    cells = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
    assert is_fundamental_region(TorusLattice(5), cells) == \
        (False, ((2, 0), (0, 1)))


def test_a_repeated_cell_is_its_own_witness():
    # q cells with a repeat, not q - 1 merged cells of the wrong count
    cells = [(0, 0), (1, 0), (0, 1), (1, 0), (1, 1)]
    assert is_fundamental_region(TorusLattice(5), cells) == \
        (False, ((1, 0), (1, 0)))


@pytest.mark.parametrize("q", [5, 13])
def test_tessellation_partitions_the_grid(q):
    lat = TorusLattice(q)
    shape = canonical_polyomino(lat)
    anchors = tessellate(lat, shape).cell_to_anchor
    assert anchors == tiling_by_translates(lat, shape)
    assert sorted(anchors) == [k for k in range(q) for _ in range(q)]
    assert {(i % q, i // q) for i, a in enumerate(anchors) if a == 0} == \
        set(shape.cells)


def _assert_anchors_follow_the_generator(lat, anchors):
    # the cell one codeword step on lies in the next translate
    q, g = lat.q, lat.g
    assert all(anchors[((y + g) % q) * q + (x + 1) % q]
               == (anchors[y * q + x] + 1) % q
               for y in range(q) for x in range(q))


@pytest.mark.parametrize("q", [*range(5, 42, 2), 301])
def test_anchor_grid_matches_the_translate_oracle_on_canonical_shapes(q):
    lat = TorusLattice(q)
    shape = canonical_polyomino(lat)
    anchors = tessellate(lat, shape).cell_to_anchor
    assert anchors == tiling_by_translates(lat, shape)
    _assert_anchors_follow_the_generator(lat, anchors)


def test_anchor_grid_matches_the_translate_oracle_on_the_lee_sphere():
    lat = TorusLattice(5)
    assert tessellate(lat, lee_sphere()).cell_to_anchor == \
        tiling_by_translates(lat, lee_sphere())


@PROPERTY
@given(odd_q_and_polyomino(fundamental=True))
def test_anchor_grid_matches_the_translate_oracle_on_random_shapes(
        q_and_shape):
    q, shape = q_and_shape
    lat = TorusLattice(q)
    anchors = tessellate(lat, shape).cell_to_anchor
    assert anchors == tiling_by_translates(lat, shape)
    _assert_anchors_follow_the_generator(lat, anchors)


def test_the_shape_is_checked_before_the_grid_is_allocated():
    # the cell count is refused before tuple() asks for q * q slots,
    # which would raise MemoryError
    with pytest.raises(ValueError, match="shape has 5 cells"):
        tessellate(TorusLattice(2 ** 30 + 1), lee_sphere())


def test_full_rows_and_columns_are_transversals_of_a_perfect_code():
    lat = TorusLattice(5)
    row = Polyomino.from_cells([(i, 0) for i in range(5)])
    column = Polyomino.from_cells([(0, i) for i in range(5)])
    assert is_fundamental_region(lat, row)[0]
    assert is_fundamental_region(lat, column)[0]


def test_a_grid_is_allocated_whole_before_a_value_is_made():
    made = []

    def values():
        made.append(1)
        yield 0

    # 8 * q * q bytes of slots exceed any address space, so tuple()
    # refuses the size at once, before it allocates or asks for a value
    with pytest.raises(MemoryError):
        tuple(Grid(2 ** 30 + 1, values()))
    assert made == []
    assert tuple(Grid(5, iter(range(25)))) == tuple(range(25))


def test_tessellate_rejects_non_fundamental_shapes():
    lat = TorusLattice(5)
    # (1,2) - (0,0) is a codeword, so these two cells share a coset
    bad = Polyomino.from_cells([(0, 0), (1, 0), (1, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match=r"cells \(0, 0\) and \(1, 2\) lie "
                                         r"in the same coset"):
        tessellate(lat, bad)


def test_ascii_rendering_counts():
    lat = TorusLattice(5)
    art = render_ascii(tessellate(lat, canonical_polyomino(lat)))
    rows = art.strip().split("\n")
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)
    flat = "".join(rows)
    symbols = set(flat)
    assert len(symbols) == 5
    assert all(flat.count(s) == 5 for s in symbols)


def test_svg_rendering_structure():
    lat = TorusLattice(9)
    svg = render_svg(tessellate(lat, canonical_polyomino(lat)))
    root = ET.fromstring(svg)
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert len(rects) == 81
    assert len(lines) == 2 * 9  # one X (two strokes) per anchor


def _assert_svg_matches_the_oracle(tiling):
    expected = svg_by_cells(tiling)
    assert render_svg(tiling) == expected
    rows = svg_rows(tiling)
    # an iterator, made as the writer reads it, not a list held whole
    assert isinstance(rows, Iterator)
    pieces = list(rows)
    assert "".join(pieces) == expected
    # the header, one piece per lattice row, two per anchor, the closing tag
    q = tiling.lattice.q
    assert len(pieces) == 1 + q + 2 * q + 1
    assert all(piece.endswith("\n") for piece in pieces)
    assert [piece.count("<rect ") for piece in pieces[1:q + 1]] == [q] * q


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_svg_matches_the_cell_by_cell_oracle_on_canonical_shapes(q):
    lat = TorusLattice(q)
    _assert_svg_matches_the_oracle(
        tessellate(lat, canonical_polyomino(lat)))


def test_svg_matches_the_cell_by_cell_oracle_on_the_lee_sphere():
    lat = TorusLattice(5)
    tiling = tessellate(lat, lee_sphere())
    _assert_svg_matches_the_oracle(tiling)


@PROPERTY
@given(odd_q_and_polyomino(fundamental=True))
def test_svg_matches_the_cell_by_cell_oracle_on_random_shapes(q_and_shape):
    q, shape = q_and_shape
    _assert_svg_matches_the_oracle(tessellate(TorusLattice(q), shape))


# up to q = 36 a cell is one symbol; past it, a padded number
@pytest.mark.parametrize("q", [5, 35, 37, 41])
def test_ascii_matches_the_cell_by_cell_oracle(q):
    lat = TorusLattice(q)
    tiling = tessellate(lat, canonical_polyomino(lat))
    assert render_ascii(tiling) == ascii_by_cells(tiling)

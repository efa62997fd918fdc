import pytest

from reference_data import (GENERATOR_SETS, GRID_MARKS, INTERLEAVED_ROWS,
                            T2_COLUMN_CODES, T2_ROW_CODES)
from toriclat.codes import render_grid
from toriclat.commands import tables
from toriclat.lattice import TorusLattice
from toriclat.params import format_ratio


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_grid_marks_match_the_published_tables(q):
    assert set(tables.grid_marks(q)) == GRID_MARKS[q]


def test_codeword_listing_matches_t2():
    codes = tables.codeword_listing(5)
    assert codes["column"] == T2_COLUMN_CODES
    assert codes["row"] == T2_ROW_CODES


def test_generator_rows_match_t3_with_erratum_annotation():
    data = tables.table_data("T3")
    for q in (5, 7, 9):
        assert set(data["rows"][q]) == GENERATOR_SETS[q]
    assert "erratum" in data["annotations"][5]
    rendered = tables.render_table("T3")
    assert "erratum" in rendered
    assert "q=5 (16 pairs)" in rendered


def test_t8_rows_and_gains():
    data = tables.table_data("T8")
    assert [row["q"] for row in data["rows"]] == [5, 7, 9, 11, 13, 15, 17]
    for row in data["rows"]:
        n, k, t, gain_text = INTERLEAVED_ROWS[row["q"]]
        assert (row["n"], row["k"], row["t"]) == (n, k, t)
        assert row["gain"]["exact"] == f"{row['q'] + 1}/{row['q']}"
        assert format_ratio(row["gain"]["value"]) == gain_text
    rendered = tables.render_table("T8")
    for _, (_, _, _, gain_text) in INTERLEAVED_ROWS.items():
        assert gain_text in rendered


def test_grid_rendering_marks_only_codeword_cells():
    art = render_grid(TorusLattice(5))
    lines = art.strip().split("\n")
    assert len(lines) == 6  # header + 5 rows
    body = lines[1:]
    got = {(r, c) for r, line in enumerate(body)
           for c, token in enumerate(line.split()[1:]) if token == "X"}
    assert got == GRID_MARKS[5]


def test_unknown_table_id_raises():
    with pytest.raises(KeyError):
        tables.table_data("T9")


def test_format_ratio_trims_trailing_zeros():
    from fractions import Fraction
    assert format_ratio(Fraction(6, 5)) == "1.2"
    assert format_ratio(Fraction(8, 7)) == "1.14286"
    assert format_ratio(Fraction(1, 25)) == "0.04"

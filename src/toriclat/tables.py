"""Regenerates the reference tables T1-T8 from the library primitives.

T1 and T4-T7 are the codeword grids for q = 5, 7, 9, 11, 13; T2 lists
the q = 5 codewords by column and by row; T3 lists the generator sets
for q = 5, 7, 9; T8 tabulates the interleaved code parameters and gains.
No table value is hardcoded here -- everything is recomputed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .codes import codewords, generator_set
from .lattice import TorusLattice

if TYPE_CHECKING:
    from fractions import Fraction

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")

_GRID_Q = {"T1": 5, "T4": 7, "T5": 9, "T6": 11, "T7": 13}
_GENERATOR_QS = (5, 7, 9)
_INTERLEAVED_QS = (5, 7, 9, 11, 13, 15, 17)

#: T3's q = 5 row is regenerated, not copied: the source table misprints
#: it as a duplicate of the q = 7 row (entries up to +-6 cannot occur at
#: q = 5).  The CLI annotates the row accordingly.
ERRATUM_T3_Q5 = (
    "erratum: the source table's q=5 row repeats the q=7 row; the 16 pairs "
    "shown here are recomputed from the generator procedure")

#: T8's gain column holds the raw ratio (k/n)*(t+1) even though the source
#: labels it in dB; the decibel value is reported separately as gain_db.
NOTE_T8_GAIN = (
    "note: gains are the raw ratio (k/n)*(t+1); the source labels the column "
    "dB, but 10*log10(G) is exposed separately as gain_db")


def format_ratio(value: Fraction, precision: int = 5) -> str:
    """Decimal form of an exact ratio, trailing zeros trimmed (1.2, 1.14286)."""
    text = f"{float(value):.{precision}f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def grid_marks(q: int) -> list[tuple[int, int]]:
    """(row, col) positions of the X marks, sorted by row."""
    return sorted((y, x) for x, y in codewords(TorusLattice(q)))


def codeword_listing(q: int = 5) -> dict[str, list[str]]:
    """Column codes 'xy' sorted by column and row codes 'yx' sorted by row."""
    code = codewords(TorusLattice(q))
    columns = [f"{x}{y}" for x, y in sorted(code)]
    rows = [f"{y}{x}" for x, y in sorted(code, key=lambda c: (c[1], c[0]))]
    return {"column": columns, "row": rows}


def generator_rows() -> dict[int, list[tuple[int, int]]]:
    return {q: sorted(generator_set(TorusLattice(q)).vectors)
            for q in _GENERATOR_QS}


def interleaved_rows() -> list[dict[str, Any]]:
    # imported here, so that the grids (codewords' text output) do not
    # load params and fractions
    from .params import interleaved_params
    rows = []
    for q in _INTERLEAVED_QS:
        params = interleaved_params(TorusLattice(q))
        rows.append({"q": q, "n": params.n, "k": params.k, "t": params.t,
                     "rate": params.rate, "gain": params.gain})
    return rows


def table_data(table_id: str) -> dict[str, Any]:
    """Structured contents of one table, ready for rendering."""
    if table_id in _GRID_Q:
        q = _GRID_Q[table_id]
        return {"id": table_id, "kind": "grid", "q": q, "marks": grid_marks(q)}
    if table_id == "T2":
        return {"id": "T2", "kind": "codes", "q": 5, "codes": codeword_listing(5)}
    if table_id == "T3":
        return {"id": "T3", "kind": "generators", "rows": generator_rows(),
                "annotations": {5: ERRATUM_T3_Q5}}
    if table_id == "T8":
        return {"id": "T8", "kind": "interleaved", "rows": interleaved_rows(),
                "annotations": [NOTE_T8_GAIN]}
    raise KeyError(f"unknown table id {table_id!r}")


def render_grid(q: int) -> str:
    marks = set(grid_marks(q))
    w = len(str(q - 1))
    lines = [" " * (w + 1) + " ".join(f"{c:>{w}}" for c in range(q))]
    for r in range(q):
        cells = " ".join(("X" if (r, c) in marks else ".").rjust(w)
                         for c in range(q))
        lines.append(f"{r:>{w}} " + cells)
    return "\n".join(lines) + "\n"


def render_table(table_id: str, precision: int = 5) -> str:
    """Plain-text rendering of one table."""
    data = table_data(table_id)
    if data["kind"] == "grid":
        q = data["q"]
        return f"{table_id}: code representatives on the {q}x{q} lattice\n" \
            + render_grid(q)
    if data["kind"] == "codes":
        codes = data["codes"]
        lines = [f"{table_id}: codeword listings for the 5x5 lattice",
                 "column: " + " ".join(codes["column"]),
                 "row:    " + " ".join(codes["row"])]
        return "\n".join(lines) + "\n"
    if data["kind"] == "generators":
        lines = [f"{table_id}: generator sets S"]
        for q, vectors in sorted(data["rows"].items()):
            pairs = ", ".join(f"({c},{d})" for c, d in vectors)
            lines.append(f"q={q} ({len(vectors)} pairs): {pairs}")
            note = data["annotations"].get(q)
            if note:
                lines.append(f"  [{note}]")
        return "\n".join(lines) + "\n"
    if data["kind"] == "interleaved":
        lines = [f"{table_id}: interleaved code parameters and coding gain",
                 f"{'q':>3} {'[[n,k,t]]':>16} {'gain':>8}"]
        for row in data["rows"]:
            code = f"[[{row['n']},{row['k']},t={row['t']}]]"
            lines.append(f"{row['q']:>3} {code:>16} "
                         f"{format_ratio(row['gain'], precision):>8}")
        for note in data["annotations"]:
            lines.append(f"[{note}]")
        return "\n".join(lines) + "\n"
    raise AssertionError(f"unhandled table kind {data['kind']}")

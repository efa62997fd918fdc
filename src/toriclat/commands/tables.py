"""tables: the paper's reference tables T1-T8, regenerated from the
library primitives.

T1 and T4-T7 are the codeword grids for q = 5, 7, 9, 11, 13; T2 lists
the q = 5 codewords by column and by row; T3 lists the generator sets
for q = 5, 7, 9; T8 tabulates the interleaved code parameters and gains.
No table value is hardcoded here -- everything is recomputed, by layers
imported when a table is built.
"""

from __future__ import annotations

from typing import Any

from .. import cli

# each table's kind and the q (or qs) it covers, in the order of `all`
TABLES = {"T1": ("grid", 5), "T2": ("codes", 5),
          "T3": ("generators", (5, 7, 9)), "T4": ("grid", 7),
          "T5": ("grid", 9), "T6": ("grid", 11), "T7": ("grid", 13),
          "T8": ("interleaved", (5, 7, 9, 11, 13, 15, 17))}

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


def add_arguments(parser) -> None:
    parser.add_argument("which", choices=(*TABLES, "all"))
    parser.add_argument("--precision", type=cli._precision, default=5,
                        help="decimal places of the text tables (0..100); "
                             "--format json ignores it and prints each "
                             "value as an exact fraction and a full float")
    cli.add_common(parser, ("text", "json"))


def grid_marks(q: int) -> list[tuple[int, int]]:
    """(row, col) positions of the X marks, sorted by row."""
    from ..codes import codewords
    from ..lattice import TorusLattice
    return sorted((y, x) for x, y in codewords(TorusLattice(q)))


def codeword_listing(q: int) -> dict[str, list[str]]:
    """Column codes 'xy' sorted by column and row codes 'yx' sorted by row."""
    from ..codes import codewords
    from ..lattice import TorusLattice
    code = codewords(TorusLattice(q))
    columns = [f"{x}{y}" for x, y in sorted(code)]
    rows = [f"{y}{x}" for x, y in sorted(code, key=lambda c: (c[1], c[0]))]
    return {"column": columns, "row": rows}


def generator_rows(qs) -> dict[int, list[tuple[int, int]]]:
    from ..codes import generator_set
    from ..lattice import TorusLattice
    return {q: sorted(generator_set(TorusLattice(q)).vectors) for q in qs}


def interleaved_rows(qs) -> list[dict[str, Any]]:
    """Each q's [[n, k, t]], with its rate and gain as an exact fraction
    and a full float."""
    from ..lattice import TorusLattice
    from ..params import interleaved_params
    rows = []
    for q in qs:
        params = interleaved_params(TorusLattice(q))
        rows.append({"q": q, "n": params.n, "k": params.k, "t": params.t,
                     "rate": {"exact": str(params.rate),
                              "value": float(params.rate)},
                     "gain": {"exact": str(params.gain),
                              "value": float(params.gain)}})
    return rows


def table_data(table_id: str) -> dict[str, Any]:
    """Structured contents of one table, ready for rendering; an unknown
    id raises KeyError."""
    kind, qs = TABLES[table_id]
    data: dict[str, Any] = {"id": table_id, "kind": kind}
    if kind == "grid":
        data.update(q=qs, marks=grid_marks(qs))
    elif kind == "codes":
        data.update(q=qs, codes=codeword_listing(qs))
    elif kind == "generators":
        data.update(rows=generator_rows(qs), annotations={5: ERRATUM_T3_Q5})
    else:
        data.update(rows=interleaved_rows(qs), annotations=[NOTE_T8_GAIN])
    return data


def render_table(table_id: str, precision: int = 5) -> str:
    """Plain-text rendering of one table."""
    data = table_data(table_id)
    if data["kind"] == "grid":
        from ..codes import render_grid
        from ..lattice import TorusLattice
        q = data["q"]
        return f"{table_id}: code representatives on the {q}x{q} lattice\n" \
            + render_grid(TorusLattice(q))
    if data["kind"] == "codes":
        q, codes = data["q"], data["codes"]
        lines = [f"{table_id}: codeword listings for the {q}x{q} lattice",
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
    from ..params import format_ratio
    lines = [f"{table_id}: interleaved code parameters and coding gain",
             f"{'q':>3} {'[[n,k,t]]':>16} {'gain':>8}"]
    for row in data["rows"]:
        code = f"[[{row['n']},{row['k']},t={row['t']}]]"
        lines.append(f"{row['q']:>3} {code:>16} "
                     f"{format_ratio(row['gain']['value'], precision):>8}")
    for note in data["annotations"]:
        lines.append(f"[{note}]")
    return "\n".join(lines) + "\n"


def run(args) -> int:
    ids = list(TABLES) if args.which == "all" else [args.which]
    if args.format == "json":
        payload = [table_data(tid) for tid in ids]
        text = cli._json(payload if len(payload) > 1 else payload[0])
    else:
        text = "\n".join(render_table(tid, args.precision) for tid in ids)
    cli._emit(text, args.out)
    return cli.EXIT_OK

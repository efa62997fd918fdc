"""interleave: the stream-to-edge map as JSON."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import cli

if TYPE_CHECKING:
    from ..interleaving import InterleaverMap


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--out", default=None)


def run(args) -> int:
    from ..interleaving import build_interleaver
    lattice = cli._lattice(args.q)
    mapping = build_interleaver(lattice)
    cli._emit(_map_json(mapping), args.out)
    return cli.EXIT_OK


def _map_json(mapping: InterleaverMap) -> str:
    """{"q": q, "map": [[i, x, y, slot], ...]} as json.dumps(indent=2)
    prints it, one piece per run of the map.

    A piece is one join over its slot's list of the q entries' parts,
    whose brackets, separators and slot digit are filled once; each run
    sets its stream indices and x and y columns by slice assignment.
    Runs come in stream order, so index i is two parts off two iterators:
    its thousands ("" below 1000, else str(i // 1000) once per thousand)
    and its units (str(i) below 1000, else one of 1000 cached "%03d").
    """
    from itertools import chain, count, cycle, islice, repeat
    q = mapping.lattice.q
    sep = ",\n      "
    thousands = chain(repeat("", 1000), chain.from_iterable(
        map(repeat, map(str, count(1)), repeat(1000))))
    units = chain(map(str, range(1000)),
                  cycle([f"{u:03d}" for u in range(1000)]))
    pieces = {}
    parts = [f'{{\n  "q": {q},\n  "map": [\n']
    for _, slot, xs, ys in mapping.runs([str(v) for v in range(q)]):
        piece = pieces.get(slot)
        if piece is None:
            # the opening bracket, then i's two parts, x, y and each close
            close = f"{sep}{slot}\n    ]"
            piece = pieces[slot] = ["    [\n      "] + [
                "", "", sep, "", sep, "", close + ",\n    [\n      "] * q
            piece[-1] = close
        piece[1::7] = islice(thousands, q)
        piece[2::7] = islice(units, q)
        piece[4::7] = xs
        piece[6::7] = ys
        parts += "".join(piece), ",\n"
    parts[-1] = "\n  ]\n}\n"  # in place of the last separator
    return "".join(parts)

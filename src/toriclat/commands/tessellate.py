"""tessellate: tile the torus with a polyomino, as ASCII or SVG."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .. import cli

if TYPE_CHECKING:
    from ..lattice import TorusLattice
    from ..tessellation import Polyomino


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--shape", default="canonical",
                        help="canonical, lee, or file:<path> of 'x y' lines")
    cli.add_common(parser, ("ascii", "text", "svg"), default_format="ascii")


def _load_shape(selector: str, lattice: TorusLattice) -> Polyomino:
    from ..tessellation import Polyomino, canonical_polyomino, lee_sphere
    if selector == "canonical":
        return canonical_polyomino(lattice)
    if selector == "lee":
        return lee_sphere()
    if selector.startswith("file:"):
        path = selector[len("file:"):]
        cells = []
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                x, y = line.split()
                cells.append((int(x), int(y)))
            return Polyomino.from_cells(cells)
        except ValueError as exc:
            raise cli.UsageError(f"bad shape file {path}: {exc}") from exc
    raise cli.UsageError(f"unknown shape {selector!r}")


def run(args) -> int:
    from ..tessellation import render_ascii, svg_rows, tessellate
    lattice = cli._lattice(args.q)
    shape = _load_shape(args.shape, lattice)
    try:
        tiling = tessellate(lattice, shape)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return cli.EXIT_VIOLATION
    pieces = (svg_rows(tiling) if args.format == "svg"
              else (render_ascii(tiling),))  # ascii / text
    with cli._output(args.out) as write:  # opened once the tiling is built
        for piece in pieces:
            write(piece)
    return cli.EXIT_OK

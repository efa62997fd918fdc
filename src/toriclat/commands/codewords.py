"""codewords: the code's cells, on the grid and as a listing."""

from .. import cli
from . import add_common


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    add_common(parser, ("text", "json"))


def run(args) -> int:
    from .. import tables
    from ..codes import codewords
    lattice = cli._lattice(args.q)
    code = codewords(lattice)
    if args.format == "json":
        text = cli._json({"q": args.q, "generator": list(lattice.generator),
                          "codewords": [list(c) for c in code]})
    else:
        listing = " ".join(f"({x},{y})" for x, y in code)
        text = (tables.render_grid(args.q)
                + f"codewords (k*(1,{lattice.g}) for k = 0..{args.q - 1}): "
                + listing + "\n")
    cli._emit(text, args.out)
    return cli.EXIT_OK

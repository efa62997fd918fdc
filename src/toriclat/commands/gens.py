"""gens: every generating vector of the code."""

from .. import cli


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    cli.add_common(parser, ("text", "json"))


def run(args) -> int:
    from ..codes import generator_set
    lattice = cli._lattice(args.q)
    vectors = sorted(generator_set(lattice).vectors)
    if args.format == "json":
        text = cli._json({"q": args.q, "count": len(vectors),
                          "generators": [list(v) for v in vectors]})
    else:
        pairs = ", ".join(f"({c},{d})" for c, d in vectors)
        text = f"q={args.q}: {len(vectors)} generators: {pairs}\n"
    cli._emit(text, args.out)
    return cli.EXIT_OK

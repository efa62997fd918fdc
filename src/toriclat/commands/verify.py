"""verify: the invariant sweeps of the verify layer.  A report line not
starting with "ok" is a violation."""

from .. import cli

# the checks of the verify layer, in report order
SCOPES = ("distance", "tiling", "interleaver")


def add_arguments(parser) -> None:
    parser.add_argument("--scope", choices=SCOPES + ("all",), default="all")
    parser.add_argument("--q-max", type=int, default=41)
    parser.add_argument("--out", default=None)


def run(args) -> int:
    if args.q_max < 5 or args.q_max % 2 == 0:
        raise cli.UsageError(
            f"--q-max must be odd and >= 5, got {args.q_max}")
    from .. import verify
    lines = [line for scope in SCOPES if args.scope in (scope, "all")
             for line in getattr(verify, scope)(args.q_max)]
    cli._emit("\n".join(lines) + "\n", args.out)
    return (cli.EXIT_OK if all(line.startswith("ok") for line in lines)
            else cli.EXIT_VIOLATION)

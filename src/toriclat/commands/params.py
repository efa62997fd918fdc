"""params: each family's code parameters at one q, in the params
layer's JSON and CSV rows."""

from .. import cli


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--precision", type=cli._precision, default=5,
                        help="decimal places, 0..100")
    cli.add_common(parser, ("text", "json", "csv"))


def run(args) -> int:
    from ..params import (CSV_HEADER, bmd_params, family_csv, family_json,
                          format_ratio, interleaved_params, kitaev_params,
                          toric_code_params)
    lattice = cli._lattice(args.q)
    rows = [toric_code_params(lattice), interleaved_params(lattice),
            kitaev_params(args.q), bmd_params(args.q)]
    p = args.precision
    if args.format == "json":
        text = cli._json({"q": args.q,
                          "codes": [family_json(cp, p) for cp in rows]})
    elif args.format == "csv":
        lines = [CSV_HEADER]
        lines += [family_csv(args.q, cp, p) for cp in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'family':<12} {'n':>6} {'k':>4} {'d':>3} {'t':>4} "
                 f"{'rate':>10} {'gain':>10} {'gain_db':>9}"]
        for cp in rows:
            d = "-" if cp.d is None else str(cp.d)
            lines.append(
                f"{cp.family:<12} {cp.n:>6} {cp.k:>4} {d:>3} {cp.t:>4} "
                f"{format_ratio(cp.rate, p):>10} "
                f"{format_ratio(cp.gain, p):>10} "
                f"{cp.gain_db:>9.{p}f}")
        text = "\n".join(lines) + "\n"
    cli._emit(text, args.out)
    return cli.EXIT_OK

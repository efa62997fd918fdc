"""params: each family's code parameters at one q.  Its JSON and CSV
rows are compare's too."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import cli
from . import add_common

if TYPE_CHECKING:
    from ..params import CodeParams

CSV_HEADER = "q,family,n,k,d,t,rate,gain,gain_db"


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--precision", type=cli._precision, default=5,
                        help="decimal places, 0..100")
    add_common(parser, ("text", "json", "csv"))


def family_json(params: CodeParams, precision: int) -> dict:
    rate, gain = params.rate, params.gain  # each property builds a Fraction
    return {
        **params._asdict(),
        "rate": round(float(rate), precision),
        "rate_exact": str(rate),
        "gain": round(float(gain), precision),
        "gain_exact": str(gain),
        "gain_db": round(params.gain_db, precision),
    }


def family_csv(q: int, params: CodeParams, precision: int) -> str:
    d = "" if params.d is None else str(params.d)
    return (f"{q},{params.family},{params.n},{params.k},{d},{params.t},"
            f"{float(params.rate):.{precision}f},"
            f"{float(params.gain):.{precision}f},"
            f"{params.gain_db:.{precision}f}")


def run(args) -> int:
    from ..params import (bmd_params, format_ratio, interleaved_params,
                          kitaev_params, toric_code_params)
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

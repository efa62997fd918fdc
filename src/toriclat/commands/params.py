"""params and compare: each family's code parameters at one q, and the
interleaved code against its baselines over a range of q.  They share
this module for their JSON and CSV rows."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import cli
from . import add_common

if TYPE_CHECKING:
    from ..params import CodeParams


def add_arguments(parser) -> None:
    # a subparser's prog ends with its command's name
    if parser.prog.endswith(" compare"):
        parser.add_argument("--q-range", default="5:17:2",
                            help="start:stop:step, stop inclusive; a "
                                 "negative start needs the = form, "
                                 "--q-range=-5:17:2")
    else:
        parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--precision", type=cli._precision, default=5,
                        help="decimal places, 0..100")
    add_common(parser, ("text", "json", "csv"))


def run(args) -> int:
    return (_compare if args.command == "compare" else _params)(args)


def _parse_q_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise cli.UsageError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError as exc:
        raise cli.UsageError(f"non-integer q-range {text!r}") from exc
    if step <= 0:
        raise cli.UsageError("q-range step must be positive")
    try:
        return list(range(start, stop + 1, step))  # stop is inclusive
    except OverflowError:  # more q than a list can index
        raise cli.UsageError(f"q-range {text!r} selects too many q") from None


def _params_payload(params: CodeParams, precision: int) -> dict:
    rate, gain = params.rate, params.gain  # each property builds a Fraction
    return {
        "family": params.family,
        "n": params.n,
        "k": params.k,
        "d": params.d,
        "t": params.t,
        "rate": round(float(rate), precision),
        "rate_exact": str(rate),
        "gain": round(float(gain), precision),
        "gain_exact": str(gain),
        "gain_db": round(params.gain_db, precision),
    }


def _csv_param_row(q: int, params: CodeParams, precision: int) -> str:
    d = "" if params.d is None else str(params.d)
    return (f"{q},{params.family},{params.n},{params.k},{d},{params.t},"
            f"{float(params.rate):.{precision}f},"
            f"{float(params.gain):.{precision}f},"
            f"{params.gain_db:.{precision}f}")


def _params(args) -> int:
    from .. import tables
    from ..params import (bmd_params, interleaved_params, kitaev_params,
                          toric_code_params)
    lattice = cli._lattice(args.q)
    rows = [toric_code_params(lattice), interleaved_params(lattice),
            kitaev_params(args.q), bmd_params(args.q)]
    p = args.precision
    if args.format == "json":
        text = cli._json({"q": args.q,
                          "codes": [_params_payload(cp, p) for cp in rows]})
    elif args.format == "csv":
        lines = ["q,family,n,k,d,t,rate,gain,gain_db"]
        lines += [_csv_param_row(args.q, cp, p) for cp in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'family':<12} {'n':>6} {'k':>4} {'d':>3} {'t':>4} "
                 f"{'rate':>10} {'gain':>10} {'gain_db':>9}"]
        for cp in rows:
            d = "-" if cp.d is None else str(cp.d)
            lines.append(
                f"{cp.family:<12} {cp.n:>6} {cp.k:>4} {d:>3} {cp.t:>4} "
                f"{tables.format_ratio(cp.rate, p):>10} "
                f"{tables.format_ratio(cp.gain, p):>10} "
                f"{cp.gain_db:>9.{p}f}")
        text = "\n".join(lines) + "\n"
    cli._emit(text, args.out)
    return cli.EXIT_OK


def _compare(args) -> int:
    from .. import tables
    from ..params import compare
    qs = [q for q in _parse_q_range(args.q_range) if q >= 5 and q % 2 == 1]
    if not qs:
        raise cli.UsageError(
            f"q-range {args.q_range!r} selects no odd q >= 5")
    rows = [compare(q) for q in qs]
    p = args.precision
    if args.format == "json":
        payload = []
        for row in rows:
            payload.append({
                "q": row.q,
                "interleaved": _params_payload(row.interleaved, p),
                "kitaev": _params_payload(row.kitaev, p),
                "bmd": _params_payload(row.bmd, p),
                "interleaved_dominates": row.dominates,
            })
        text = cli._json(payload)
    elif args.format == "csv":
        lines = ["q,family,n,k,d,t,rate,gain,gain_db"]
        for row in rows:
            for cp in (row.interleaved, row.kitaev, row.bmd):
                lines.append(_csv_param_row(row.q, cp, p))
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'q':>5} {'family':<12} {'rate':>12} {'gain':>12} "
                 f"{'dominated by interleaved':>26}"]
        for row in rows:
            for cp in (row.interleaved, row.kitaev, row.bmd):
                flag = ("-" if cp is row.interleaved
                        else "yes" if row.dominates else "NO")
                lines.append(f"{row.q:>5} {cp.family:<12} "
                             f"{tables.format_ratio(cp.rate, p):>12} "
                             f"{tables.format_ratio(cp.gain, p):>12} {flag:>26}")
        text = "\n".join(lines) + "\n"
    cli._emit(text, args.out)
    if not all(row.dominates for row in rows):
        return cli.EXIT_VIOLATION
    return cli.EXIT_OK

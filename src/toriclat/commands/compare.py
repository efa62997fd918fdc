"""compare: the interleaved code against Kitaev's and BMD's over a range
of q, in the params layer's JSON and CSV rows, which params writes too."""

from .. import cli


def add_arguments(parser) -> None:
    parser.add_argument("--q-range", default="5:17:2",
                        help="start:stop:step, stop inclusive; a negative "
                             "start needs the = form, --q-range=-5:17:2")
    parser.add_argument("--precision", type=cli._precision, default=5,
                        help="decimal places, 0..100")
    cli.add_common(parser, ("text", "json", "csv"))


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


def run(args) -> int:
    from ..params import (CSV_HEADER, compare, family_csv, family_json,
                          format_ratio)
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
                "interleaved": family_json(row.interleaved, p),
                "kitaev": family_json(row.kitaev, p),
                "bmd": family_json(row.bmd, p),
                "interleaved_dominates": row.dominates,
            })
        text = cli._json(payload)
    elif args.format == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            for cp in (row.interleaved, row.kitaev, row.bmd):
                lines.append(family_csv(row.q, cp, p))
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'q':>5} {'family':<12} {'rate':>12} {'gain':>12} "
                 f"{'dominated by interleaved':>26}"]
        for row in rows:
            for cp in (row.interleaved, row.kitaev, row.bmd):
                flag = ("-" if cp is row.interleaved
                        else "yes" if row.dominates else "NO")
                lines.append(f"{row.q:>5} {cp.family:<12} "
                             f"{format_ratio(cp.rate, p):>12} "
                             f"{format_ratio(cp.gain, p):>12} {flag:>26}")
        text = "\n".join(lines) + "\n"
    cli._emit(text, args.out)
    if not all(row.dominates for row in rows):
        return cli.EXIT_VIOLATION
    return cli.EXIT_OK

"""Command-line front end.

Subcommands: codewords, gens, distance, tessellate, params, compare,
interleave, simulate, tables, verify.  Exit codes: 0 success, 1 property
violation, 2 usage error (an input too large for memory included), 3 I/O
error.

Each command imports the layers it runs when it runs, so that a process
loads and compiles only those.  verify runs the checks of the verify layer
named in SCOPES, and a report line not starting with "ok" is a violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .interleaving import InterleaverMap, SimulationStats
    from .lattice import TorusLattice
    from .params import CodeParams
    from .tessellation import Polyomino

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAX_PRECISION = 100
STDOUT_SLICE = 1 << 16  # characters per write

# tables.TABLE_IDS and interleaving.MODEL_ONE_PER_CELL,
# MODEL_UNIFORM_CLUSTER, spelled out so that building the parser imports
# no layer
TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
MODELS = ("one-per-cell", "uniform-cluster")
# the checks of the verify layer, in report order
SCOPES = ("distance", "tiling", "interleaver")


@contextlib.contextmanager
def _output(out: str | None):
    """Open --out, or take stdout, and yield a write(piece) that sends a
    piece in STDOUT_SLICE slices, so that no document is encoded whole.
    Unbuffered (PYTHONUNBUFFERED), the text layer drops the rest of a
    short write unnoticed, so a reader that leaves mid-document shows
    only as the failure of a later write."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as f:
        def write(piece: str) -> None:
            for i in range(0, len(piece), STDOUT_SLICE):
                f.write(piece[i:i + STDOUT_SLICE])
        try:
            yield write
            # flushed here, so that a closed pipe is reported as an i/o
            # error and not as an ignored exception at interpreter shutdown
            f.flush()
        except OSError:
            if f is sys.__stdout__:
                # to devnull, as in the SIGPIPE note of Python's docs: else
                # the exit flush retries the unwritten buffer and exits 120
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, f.fileno())
                os.close(devnull)
            raise


def _emit(text: str, out: str | None) -> None:
    """Write a whole document to --out or stdout through _output."""
    with _output(out) as write:
        write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, default=_fraction) + "\n"


def _fraction(value) -> dict:
    """json.dumps's hook for a Fraction, the one value it cannot write;
    fractions is loaded already by the layer that made one."""
    from fractions import Fraction
    if not isinstance(value, Fraction):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return {"exact": str(value), "value": float(value)}


def _lattice(q: int) -> TorusLattice:
    from .lattice import TorusLattice
    try:
        return TorusLattice(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class UsageError(Exception):
    pass


def _int_at_least(text: str, low: int) -> int:
    """Parse an integer option value of at least low, for argparse types;
    --precision and --seed add their own upper bounds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _precision(text: str) -> int:
    """argparse type for --precision; past 100 places a double shows no
    more information, and huge counts make float formatting raise."""
    value = _int_at_least(text, 0)
    if value > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be <= {MAX_PRECISION}, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed; seeds wider than 64 bits would alias."""
    value = _int_at_least(text, 0)
    if value >> 64:
        raise argparse.ArgumentTypeError(f"must be < 2^64, got {value}")
    return value


def _workers(text: str) -> int:
    """argparse type for --workers, which is accepted for compatibility
    and changes nothing; all trials run in one pass."""
    return _int_at_least(text, 1)


def _parse_q_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"non-integer q-range {text!r}") from exc
    if step <= 0:
        raise UsageError("q-range step must be positive")
    try:
        return list(range(start, stop + 1, step))  # stop is inclusive
    except OverflowError:  # more q than a list can index
        raise UsageError(f"q-range {text!r} selects too many q") from None


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


# ---------------------------------------------------------------- commands


def cmd_codewords(args) -> int:
    from . import tables
    from .codes import codewords
    lattice = _lattice(args.q)
    code = codewords(lattice)
    if args.format == "json":
        text = _json({"q": args.q, "generator": list(lattice.generator),
                      "codewords": [list(c) for c in code]})
    else:
        listing = " ".join(f"({x},{y})" for x, y in code)
        text = (tables.render_grid(args.q)
                + f"codewords (k*(1,{lattice.g}) for k = 0..{args.q - 1}): "
                + listing + "\n")
    _emit(text, args.out)
    return EXIT_OK


def cmd_gens(args) -> int:
    from .codes import generator_set
    lattice = _lattice(args.q)
    vectors = sorted(generator_set(lattice).vectors)
    if args.format == "json":
        text = _json({"q": args.q, "count": len(vectors),
                      "generators": [list(v) for v in vectors]})
    else:
        pairs = ", ".join(f"({c},{d})" for c, d in vectors)
        text = f"q={args.q}: {len(vectors)} generators: {pairs}\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_distance(args) -> int:
    from .distance import (claim_failure, distance_report,
                           min_distance_closed_form)
    lattice = _lattice(args.q)
    payload: dict = {"q": args.q, "method": args.method}
    lines = [f"q = {args.q}"]
    if args.method in ("brute", "both"):
        report = distance_report(lattice)
        payload["brute"] = {
            "distance": report.distance,
            "achieving_vector": list(report.achieving_vector),
            "candidates": [{"vector": list(v), "weight": w}
                           for v, w in report.candidate_weights],
        }
        lines.append(f"distance (brute force) = {report.distance}")
        lines.append("achieved by codeword vector "
                     f"({report.achieving_vector[0]},{report.achieving_vector[1]})")
        cands = "; ".join(f"({v[0]},{v[1]}) weight {w}"
                          for v, w in report.candidate_weights)
        lines.append(f"move-vector candidates: {cands}")
    if args.method in ("closed", "both"):
        closed = min_distance_closed_form(lattice)
        payload["closed"] = {"distance": closed}
        lines.append(f"distance (closed form) = {closed}")
    failure = None  # a single method checks no claim
    if args.method == "both":
        payload["agree"] = report.distance == closed
        lines.append(f"methods agree: {payload['agree']}")
        failure = claim_failure(report, closed)
    text = _json(payload) if args.format == "json" else "\n".join(lines) + "\n"
    _emit(text, args.out)
    if failure:
        sys.stderr.write(f"error: {failure}\n")
    return EXIT_VIOLATION if failure else EXIT_OK


def _load_shape(selector: str, lattice: TorusLattice) -> Polyomino:
    from .tessellation import Polyomino, canonical_polyomino, lee_sphere
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
            raise UsageError(f"bad shape file {path}: {exc}") from exc
    raise UsageError(f"unknown shape {selector!r}")


def cmd_tessellate(args) -> int:
    from .tessellation import render_ascii, svg_rows, tessellate
    lattice = _lattice(args.q)
    shape = _load_shape(args.shape, lattice)
    try:
        tiling = tessellate(lattice, shape)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION
    pieces = (svg_rows(tiling) if args.format == "svg"
              else (render_ascii(tiling),))  # ascii / text
    with _output(args.out) as write:  # opened once the tiling is built
        for piece in pieces:
            write(piece)
    return EXIT_OK


def cmd_params(args) -> int:
    from . import tables
    from .params import (bmd_params, interleaved_params, kitaev_params,
                         toric_code_params)
    lattice = _lattice(args.q)
    rows = [toric_code_params(lattice), interleaved_params(lattice),
            kitaev_params(args.q), bmd_params(args.q)]
    p = args.precision
    if args.format == "json":
        text = _json({"q": args.q,
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
    _emit(text, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import tables
    from .params import compare
    qs = [q for q in _parse_q_range(args.q_range) if q >= 5 and q % 2 == 1]
    if not qs:
        raise UsageError(f"q-range {args.q_range!r} selects no odd q >= 5")
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
        text = _json(payload)
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
    _emit(text, args.out)
    if not all(row.dominates for row in rows):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_interleave(args) -> int:
    from .interleaving import build_interleaver
    lattice = _lattice(args.q)
    mapping = build_interleaver(lattice)
    _emit(_map_json(mapping), args.out)
    return EXIT_OK


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


def _stats_payload(stats: SimulationStats) -> dict:
    return {
        "q": stats.q,
        "model": stats.model,
        "seed": stats.seed,
        "trials": stats.trials,
        "correctable": stats.correctable,
        "failures": stats.failures,
        "failure_rate": stats.failures / stats.trials,
        "exemplars": [
            {"trial": ex.trial,
             "anchor": list(ex.anchor),
             "errors": [[e.x, e.y, e.slot] for e in ex.errored_edges]}
            for ex in stats.exemplars],
    }


def cmd_simulate(args) -> int:
    from .interleaving import simulate
    lattice = _lattice(args.q)
    try:
        stats = simulate(lattice, args.trials, args.seed, model=args.model)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "csv":
        text = ("q,model,seed,trials,correctable,failures\n"
                f"{stats.q},{stats.model},{stats.seed},{stats.trials},"
                f"{stats.correctable},{stats.failures}\n")
    else:
        text = _json(_stats_payload(stats))
    _emit(text, args.out)
    return EXIT_OK


def cmd_tables(args) -> int:
    from . import tables
    ids = list(tables.TABLE_IDS) if args.which == "all" else [args.which]
    if args.format == "json":
        payload = [tables.table_data(tid) for tid in ids]
        text = _json(payload if len(payload) > 1 else payload[0])
    else:
        text = "\n".join(tables.render_table(tid, args.precision)
                         for tid in ids)
    _emit(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.q_max < 5 or args.q_max % 2 == 0:
        raise UsageError(f"--q-max must be odd and >= 5, got {args.q_max}")
    from . import verify
    lines = [line for scope in SCOPES if args.scope in (scope, "all")
             for line in getattr(verify, scope)(args.q_max)]
    _emit("\n".join(lines) + "\n", args.out)
    return (EXIT_OK if all(line.startswith("ok") for line in lines)
            else EXIT_VIOLATION)


# ------------------------------------------------------------------ parser


def _add_common(parser, formats, default_format="text"):
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriclat",
        description="Cyclic lattice codes on q x q torus grids: distances, "
                    "tessellations, and burst-error interleaving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codewords", help="list the code's cells")
    p.add_argument("--q", type=int, required=True)
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_codewords)

    p = sub.add_parser("gens", help="list all generating vectors")
    p.add_argument("--q", type=int, required=True)
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("distance", help="minimum Mannheim distance")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--method", choices=("brute", "closed", "both"),
                   default="both")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("tessellate", help="tile the torus with a polyomino")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--shape", default="canonical",
                   help="canonical, lee, or file:<path> of 'x y' lines")
    _add_common(p, ("ascii", "text", "svg"), default_format="ascii")
    p.set_defaults(func=cmd_tessellate)

    p = sub.add_parser("params", help="code parameters for all families")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--precision", type=_precision, default=5,
                   help="decimal places, 0..100")
    _add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("compare", help="interleaved code vs baselines")
    p.add_argument("--q-range", default="5:17:2",
                   help="start:stop:step, stop inclusive; a negative "
                        "start needs the = form, --q-range=-5:17:2")
    p.add_argument("--precision", type=_precision, default=5,
                   help="decimal places, 0..100")
    _add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("interleave", help="emit the stream-to-edge map")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_interleave)

    p = sub.add_parser("simulate", help="seeded cluster-error simulation")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model", choices=MODELS, default=MODELS[0])
    p.add_argument("--workers", type=_workers, default=1,
                   help="accepted for compatibility; changes nothing")
    _add_common(p, ("json", "csv"), default_format="json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tables", help="regenerate the reference tables")
    p.add_argument("which", choices=TABLE_IDS + ("all",))
    p.add_argument("--precision", type=_precision, default=5,
                   help="decimal places of the text tables (0..100); "
                        "--format json ignores it and prints each value "
                        "as an exact fraction and a full float")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run the invariant sweeps")
    p.add_argument("--scope", choices=SCOPES + ("all",), default="all")
    p.add_argument("--q-max", type=int, default=41)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except MemoryError:
        pass  # reported below, once its traceback no longer holds the memory
    sys.stderr.write("error: out of memory; the input is too large\n")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

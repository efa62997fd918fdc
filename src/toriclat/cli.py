"""Command-line front end.

Subcommands: codewords, gens, distance, tessellate, params, compare,
interleave, simulate, tables, verify.  Exit codes: 0 success, 1 property
violation, 2 usage error (an input too large for memory included), 3 I/O
error.

Each command imports the layers it runs when it runs, so that a process
loads and compiles only those.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
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

# tables.TABLE_IDS and kernels.MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER,
# spelled out so that building the parser imports no layer
TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
MODELS = ("one-per-cell", "uniform-cluster")


def _emit(text: str | list[str], out: str | None) -> None:
    """Write a document, whole or as a list of pieces, to --out or stdout.

    Each piece goes out in STDOUT_SLICE slices, so no document is encoded
    whole.  Unbuffered (PYTHONUNBUFFERED), the text layer drops the rest
    of a short write unnoticed, so a reader that leaves mid-document
    shows only as the failure of a later write.
    """
    pieces = [text] if isinstance(text, str) else text
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as f:
        for piece in pieces:
            for i in range(0, len(piece), STDOUT_SLICE):
                f.write(piece[i:i + STDOUT_SLICE])
        # flushed here, so that a closed pipe is reported as an i/o error
        # and not as an ignored exception at interpreter shutdown
        f.flush()


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


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
    return list(range(start, stop + 1, step))  # stop is inclusive


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
    from .distance import distance_report, min_distance_closed_form
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
    if args.method == "both":
        payload["agree"] = report.distance == closed
        lines.append(f"methods agree: {payload['agree']}")
    text = _json(payload) if args.format == "json" else "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if payload.get("agree", True) else EXIT_VIOLATION


def _load_shape(selector: str, lattice: TorusLattice) -> Polyomino:
    from .tessellation import Polyomino, canonical_polyomino, lee_sphere
    if selector == "canonical":
        return canonical_polyomino(lattice)
    if selector == "lee":
        if lattice.q != 5:
            raise UsageError("the radius-1 Lee sphere only tiles q = 5")
        return lee_sphere()
    if selector.startswith("file:"):
        path = Path(selector[len("file:"):])
        cells = []
        try:
            for line in path.read_text(encoding="utf-8").splitlines():
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
    if args.format == "svg":
        _emit(svg_rows(tiling), args.out)
    else:  # ascii / text
        _emit(render_ascii(tiling), args.out)
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
                flag = ("-" if cp.family == "interleaved"
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
    prints it, formatted a block of stream positions at a time."""
    from .lattice import SLOT_LEFT, SLOT_TOP
    parts = [f'{{\n  "q": {mapping.lattice.q},\n  "map": [\n']
    i = 0
    for cells in mapping.block_cells():
        xy = [f"{x},\n      {y},\n      " for x, y in cells]
        for slot in (SLOT_TOP, SLOT_LEFT):
            parts.append(",\n".join(
                [f"    [\n      {k},\n      {c}{slot}\n    ]"
                 for k, c in enumerate(xy, i)]))
            parts.append(",\n")
            i += len(xy)
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
        payload = []
        for tid in ids:
            data = tables.table_data(tid)
            payload.append(_jsonable(data))
        text = _json(payload if len(payload) > 1 else payload[0])
    else:
        text = "\n".join(tables.render_table(tid, args.precision)
                         for tid in ids)
    _emit(text, args.out)
    return EXIT_OK


def _jsonable(value):
    from fractions import Fraction
    if isinstance(value, Fraction):
        return {"exact": str(value), "value": float(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ----------------------------------------------------------------- verify


def _verify_distance(q_max: int, report) -> bool:
    from .distance import distance_report, min_distance_closed_form
    from .lattice import TorusLattice
    ok = True
    for q in range(5, q_max + 1, 2):
        lattice = TorusLattice(q)
        brute = distance_report(lattice)
        closed = min_distance_closed_form(lattice)
        if brute.distance != closed:
            report(f"FAIL distance q={q}: brute {brute.distance} != closed {closed}")
            ok = False
            continue
        if lattice.n >= 3:
            cand = min(w for _, w in brute.candidate_weights)
            if cand != brute.distance:
                report(f"FAIL distance q={q}: move-vector minimum {cand} "
                       f"!= distance {brute.distance}")
                ok = False
    if ok:
        report(f"ok distance: brute force == closed form for odd q in [5, {q_max}]")
    return ok


def _verify_tiling(q_max: int, report) -> bool:
    from .lattice import TorusLattice
    from .tessellation import canonical_polyomino
    ok = True
    for q in range(5, q_max + 1, 2):
        try:  # it checks its shape with is_fundamental_region
            canonical_polyomino(TorusLattice(q))
        except RuntimeError as exc:
            report(f"FAIL tiling q={q}: {exc}")
            ok = False
    if ok:
        report(f"ok tiling: canonical shapes tile all odd q in [5, {q_max}]")
    return ok


def _verify_interleaver(q_max: int, report) -> bool:
    from . import interleaving
    from .lattice import TorusLattice
    ok = True
    for q in range(5, q_max + 1, 2):
        lattice = TorusLattice(q)
        mapping = interleaving.build_interleaver(lattice)
        if len(set(mapping.stream_to_edge)) != 2 * q * q:
            report(f"FAIL interleaver q={q}: stream map is not a bijection")
            ok = False
    if ok:
        report(f"ok interleaver: bijection on 2q^2 edges for odd q in [5, {q_max}]")
    for q in (5, 7, 9):
        if q > q_max:
            continue
        cases, failures, witness = interleaving.burst_exhaustive_report(
            TorusLattice(q))
        if failures:
            report(f"FAIL burst q={q}: {failures} of {cases} patterns "
                   f"uncorrectable, first witness {witness}")
            ok = False
        else:
            report(f"ok burst q={q}: {cases} cluster patterns all correctable")
    if q_max >= 5:
        if interleaving.double_slot_uncorrectable_exhaustive(TorusLattice(5)):
            report("ok negative control q=5: doubled cells always flagged")
        else:
            report("FAIL negative control q=5: a doubled cell went unflagged")
            ok = False
    return ok


def cmd_verify(args) -> int:
    if args.q_max < 5 or args.q_max % 2 == 0:
        raise UsageError(f"--q-max must be odd and >= 5, got {args.q_max}")
    lines: list[str] = []
    ok = True
    if args.scope in ("distance", "all"):
        ok &= _verify_distance(args.q_max, lines.append)
    if args.scope in ("tiling", "all"):
        ok &= _verify_tiling(args.q_max, lines.append)
    if args.scope in ("interleaver", "all"):
        ok &= _verify_interleaver(min(args.q_max, 41), lines.append)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


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
    p.add_argument("--scope",
                   choices=("distance", "tiling", "interleaver", "all"),
                   default="all")
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

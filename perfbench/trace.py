"""Traced run: per-layer self times and work counts inside toriclat.

    python3 perfbench/trace.py --workload sim --seed 1 --seconds 40 \\
        --outdir .perfbench_out/sim-s1-t1 [--smoke]

run.py --trace 1 starts this as its own process, with the checkout's src
on PYTHONPATH.  It runs the workload's commands in-process through
toriclat.cli.main, in pairs of passes: one untraced, one with the public
functions in TRACED replaced by span-recording wrappers at every place a
caller looks them up (e.g. canonical_polyomino is also imported by name
into interleaving and cli).  Spans (name, start, end, parent, workload,
command) stay in memory and are written to spans.jsonl at the end.

A function's self time is the time its spans cover minus the time their
child spans cover, taken as a union over spans so that the --workers
threads are not counted twice.  trace.overhead_ratio is the median over
pairs of the traced pass time over the untraced one, minus 1.  When both
kernel backends import, every traced kernel call is replayed on each of
them outside the timed passes, and their results must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import workloads  # noqa: E402


def _one(result) -> int:
    return 1


# metric prefix, module, attribute, counter name, counter(result)
TRACED = (
    ("cli.main", "toriclat.cli", "main", None, None),
    ("codes.codewords", "toriclat.codes", "codewords", "calls", _one),
    ("codes.generator_set", "toriclat.codes", "generator_set", "vectors",
     lambda r: len(r.vectors)),
    ("distance.distance_report", "toriclat.distance", "distance_report",
     None, None),
    ("tessellation.canonical_polyomino", "toriclat.tessellation",
     "canonical_polyomino", None, None),
    ("tessellation.is_fundamental_region", "toriclat.tessellation",
     "is_fundamental_region", "calls", _one),
    ("tessellation.tessellate", "toriclat.tessellation", "tessellate",
     None, None),
    ("tessellation.render_svg", "toriclat.tessellation", "render_svg",
     None, None),
    ("interleaving.build_interleaver", "toriclat.interleaving",
     "build_interleaver", "calls", _one),
    ("interleaving.simulate", "toriclat.interleaving", "simulate",
     None, None),
    ("kernels.simulate_trials", "toriclat.kernels", "simulate_trials",
     "trials", lambda r: r[0] + r[1]),
    ("kernels.burst_exhaustive", "toriclat.kernels", "burst_exhaustive",
     "cases", lambda r: r[0]),
)

COUNTERS = {f"{prefix}.{name}": prefix
            for prefix, _, _, name, _ in TRACED if name}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    rep: int
    command: str
    count: int


class Tracer:
    """Installs the wrappers and keeps every finished span in memory."""

    def __init__(self, cross_check: bool):
        self.spans: list[Span] = []
        self.rep = 0
        self.command = ""
        self.missing: list[str] = []
        self.kernel_calls: list | None = [] if cross_check else None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a --workers thread starts empty; its parent is the main
            # thread's open span, which waits for it
            parent = stack[-1] if stack else (
                self._main[-1] if self._main else None)
            sid = next(self._ids)
            stack.append(sid)
            count = 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                count = counter(result) if counter else 0
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end,
                                       self.rep, self.command, count))
                if self.kernel_calls is not None and \
                        name.startswith("kernels."):
                    self.kernel_calls.append((name, args, kwargs, result))
        return traced

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "toriclat"
                                      or n.startswith("toriclat."))]
        self.missing = []
        for prefix, modname, attr, _, counter in TRACED:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                self.missing.append(prefix)
                continue
            wrapper = self.wrap(prefix, fn, counter)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()


def _merge(intervals):
    out: list[list[float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _subtract(start: float, end: float, merged) -> list[tuple[float, float]]:
    pieces = []
    cursor = start
    for a, b in merged:
        if b <= cursor:
            continue
        if a >= end:
            break
        if a > cursor:
            pieces.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Self time per traced function and the work counters, for one pass."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    pieces = defaultdict(list)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        pieces[s.name] += _subtract(s.start, s.end,
                                    _merge(children.get(s.id, ())))
        counts[s.name] += s.count
    stats = {f"{prefix}.self_s": 0.0 for prefix, *_ in TRACED}
    for name, parts in pieces.items():
        stats[f"{name}.self_s"] = sum(b - a for a, b in _merge(parts))
    for metric, prefix in COUNTERS.items():
        stats[metric] = counts.get(prefix, 0)
    return stats


def run_command(cli, argv: list[str], k: int, outdir: Path
                ) -> tuple[dict, float]:
    """One command through cli.main, with its output in files as run.py
    would leave it."""
    out = outdir / f"cmd{k}.out"
    argv = workloads.bind_out(argv, str(out))
    stdout = outdir / f"cmd{k}.stdout"
    stderr = outdir / f"cmd{k}.stderr"
    with open(stdout, "w", encoding="utf-8") as so, \
            open(stderr, "w", encoding="utf-8") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
    entry = {"argv": argv, "rc": rc, "stdout": str(stdout),
             "stderr": str(stderr), "out": str(out) if "--out" in argv
             else None}
    return entry, wall


def kernel_cross_check(kernels, calls) -> tuple[dict, list[str]]:
    """Replay traced kernel calls on every backend; results must agree.

    Runs after the wrappers are uninstalled, so it calls the originals.
    """
    timings: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    problems = []
    backends = {"python": kernels.pure, "c": kernels.compiled}
    for name, args, kwargs, result in calls:
        attr = name.split(".", 1)[1]
        for backend, mod in backends.items():
            fn = getattr(mod, attr)
            start = time.perf_counter()
            got = fn(*args, **kwargs)
            timings[name][backend] += time.perf_counter() - start
            if got != result:
                problems.append(f"{name}: backend {backend} returned {got!r}"
                                f", the active backend {result!r}")
    return {k: dict(v) for k, v in timings.items()}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from toriclat import cli, kernels
    cross_check = getattr(kernels, "compiled", None) is not None and \
        getattr(kernels, "pure", None) is not None
    tracer = Tracer(cross_check)

    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    per_rep: list[dict[str, float]] = []
    problems: list[str] = []
    attempted = failed = 0
    known_sha: dict[str, str] = {}
    kernel_times: list[dict] = []
    start = time.monotonic()
    for index in itertools.count():
        pair_start = time.monotonic()
        argvs = workloads.commands(args.workload, args.seed, index,
                                   args.smoke)
        # alternate which side of the pair runs first
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.rep = index
                tracer.install()
            entries, wall = [], 0.0
            try:
                for k, cmd in enumerate(argvs, 1):
                    tracer.command = " ".join(cmd)
                    entry, seconds = run_command(cli, cmd, k, args.outdir)
                    entry["known_sha256"] = known_sha.get(
                        workloads.digest_key(entry["argv"]))
                    entries.append(entry)
                    wall += seconds
            finally:
                tracer.uninstall()
            walls["traced" if traced else "untraced"].append(wall)
            attempted += len(entries)
            for entry, res in zip(entries, checks.check_entries(entries)):
                if res["problems"]:
                    failed += 1
                    problems += res["problems"]
                else:
                    known_sha[workloads.digest_key(entry["argv"])] = \
                        res["sha256"]
            if traced:
                stats = layer_stats([s for s in tracer.spans
                                     if s.rep == index])
                stats["cli.main.bytes_out"] = sum(
                    Path(p).stat().st_size for e in entries
                    for p in (e["stdout"], e["out"]) if p)
                per_rep.append(stats)
                expect = workloads.expected_counts(argvs)
                for metric, want in expect.items():
                    if COUNTERS[metric] not in tracer.missing and \
                            stats[metric] != want:
                        problems.append(f"{metric} = {stats[metric]}, the "
                                        f"inputs imply {want}")
                if cross_check:
                    times, bad = kernel_cross_check(kernels,
                                                    tracer.kernel_calls)
                    tracer.kernel_calls.clear()
                    kernel_times.append(times)
                    problems += bad
        elapsed = time.monotonic() - start
        if elapsed + (time.monotonic() - pair_start) > args.seconds:
            break

    for metric in COUNTERS:
        if len({rep[metric] for rep in per_rep}) != 1:
            problems.append(f"{metric} differs between passes: "
                            f"{[rep[metric] for rep in per_rep]}")

    metrics = {}
    units = {"calls": "count", "vectors": "count", "trials": "count",
             "cases": "count", "self_s": "s", "bytes_out": "bytes"}
    for name in per_rep[0]:
        # counters repeat exactly (checked above); times take the median
        value = per_rep[0][name] if name in COUNTERS else statistics.median(
            rep[name] for rep in per_rep)
        metrics[name] = {"value": value, "unit": units[name.rsplit(".")[-1]]}
    busy = statistics.median(rep["kernels.simulate_trials.self_s"]
                             for rep in per_rep)
    trials = metrics["kernels.simulate_trials.trials"]["value"]
    metrics["kernels.simulate_trials.trials_per_s"] = {
        "value": trials / busy if busy else 0.0, "unit": "1/s"}
    # per pair, whose two passes ran back to back, then the median
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(t / u for t, u in zip(
            walls["traced"], walls["untraced"])) - 1, "unit": "ratio"}

    with open(args.outdir / "spans.jsonl", "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps({"id": s.id, "parent": s.parent,
                                "name": s.name, "start": s.start,
                                "end": s.end, "workload": args.workload,
                                "command": s.command, "rep": s.rep,
                                "count": s.count}) + "\n")
    details = {"passes": per_rep, "walls": walls, "missing": tracer.missing,
               "kernel_backends": kernel_times}
    (args.outdir / "trace_result.json").write_text(json.dumps({
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "details": details}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the toriclat command line.

Run from the root of a checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload sim --seed 1 --seconds 40 --trace 0

--trace 0 times whole `python -m toriclat` processes, one command at a
time, in passes over the workload's commands until --seconds are spent
(at least three passes), and reports the end-to-end metrics as medians
over the passes, with times scaled to a fixed reference speed (see
REFERENCE).  --trace 1 instead starts trace.py, a separate process
that runs the same commands in-process with every layer's public
functions wrapped, and reports the per-layer metrics.  Every output is
checked (checks.py); a command fails on a non-zero exit, a traceback or
a failed check.  The last stdout line is the JSON result; the full
record with run metadata and quartiles goes to
.perfbench_out/<workload>-s<seed>-t<trace>/result.json.

This process stays small on purpose.  On Linux a child's peak RSS
(ru_maxrss) starts at its parent's high-water mark, so this process holds
no outputs, computes no digests and parses nothing large: outputs go to
files and are checked by a separate checks.py process.  An RSS
self-check at the start and end of every run compares `python -c pass`
spawned from here with the same spawned from a minimal parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0   # a run must end within 180 s, whatever happens
MIN_PASSES = 3
RSS_TOLERANCE_KB = 4096
BUILD_RSS_SPREAD_KB = 2048
COMMAND_METRICS = ("cmd1_s", "cmd2_s", "cmd3_s")
_TINY_PARENT = ("import os, sys; "
                "pid = os.posix_spawn(sys.executable, "
                "[sys.executable, '-c', 'pass'], os.environ); "
                "print(os.wait4(pid, 0)[2].ru_maxrss)")


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


class Runner:
    """Spawns one child at a time and reaps it with its own rusage."""

    def __init__(self, outdir: Path, env: dict, deadline: float):
        self.outdir = outdir
        self.env = env
        self.deadline = deadline

    def spawn(self, argv: list[str], tag: str) -> tuple[float, int, int]:
        """Run argv to completion; returns (wall s, peak RSS KiB, exit code).

        stdout and stderr go to <tag>.stdout and <tag>.stderr.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(self.outdir / f"{tag}.stdout"),
             flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.outdir / f"{tag}.stderr"),
             flags, 0o644),
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout()
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
        try:
            signal.alarm(max(1, int(remaining)))
            _, status, usage = os.wait4(pid, 0)
            signal.alarm(0)
        except Timeout:
            _kill_and_reap(pid)
            raise
        wall = time.perf_counter() - start
        return wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)

    def read(self, tag: str) -> str:
        return (self.outdir / f"{tag}.stdout").read_text()


def _kill_and_reap(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass


# A fixed pure-Python process owned by the benchmark, whose wall time
# tracks the host's speed.  On a shared VM the CPU speed can swing by 2x
# within a minute, and every command's time moves with it.  Time metrics
# are therefore reported as raw wall seconds times
# REFERENCE_NOMINAL_S / (median reference time of the same run): seconds
# at a fixed reference speed.  Over six verify runs on a 2-core shared VM
# this cut the spread of wall_s medians from 0.155 to 0.042.  The raw
# medians and the scale go to result.json.
REFERENCE = """\
import argparse, concurrent.futures, dataclasses, fractions, json, pathlib
acc = 0
seen = {}
for i in range(60_000):
    key = (i * 7919) % 4099
    acc = (acc * 31 + key) & 0xFFFFFFFF
    seen[key] = seen.get(key, 0) + 1
"""
REFERENCE_NOMINAL_S = 0.125


def toriclat(*args: str) -> list[str]:
    return [sys.executable, "-m", "toriclat", *args]


def rss_self_check(runner: Runner) -> dict:
    """A no-op child spawned here must read like one from a tiny parent."""
    runner.spawn([sys.executable, "-S", "-c", _TINY_PARENT], "rss_bare")
    bare = int(runner.read("rss_bare"))
    _, here, _ = runner.spawn([sys.executable, "-c", "pass"], "rss_here")
    return {"bare_kb": bare, "here_kb": here,
            "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "ok": abs(here - bare) <= RSS_TOLERANCE_KB}


class Measurement:
    """Samples, attempts and failures of one --trace 0 run."""

    def __init__(self, workload: str, seed: int, smoke: bool,
                 runner: Runner):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.runner = runner
        self.samples: dict[str, list[float]] = {
            name: [] for name in ("wall_s", "setup_s", "peak_rss_mb",
                                  *COMMAND_METRICS)}
        self.reference: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known_sha: dict[str, str] = {}

    def _command(self, argv: list[str], tag: str) -> tuple[dict, float, int]:
        out = self.runner.outdir / f"{tag}.out"
        if workloads.OUT in argv and out.exists():
            out.unlink()
        argv = workloads.bind_out(argv, str(out))
        wall, rss, rc = self.runner.spawn(toriclat(*argv), tag)
        entry = {"argv": argv, "rc": rc,
                 "stdout": str(self.runner.outdir / f"{tag}.stdout"),
                 "stderr": str(self.runner.outdir / f"{tag}.stderr"),
                 "out": str(out) if "--out" in argv else None,
                 "known_sha256": self.known_sha.get(
                     workloads.digest_key(argv))}
        return entry, wall, rss

    def run_pass(self, index: int) -> None:
        argvs = workloads.commands(self.workload, self.seed, index, self.smoke)
        entries = []
        peak = 0
        times = []
        for k, argv in enumerate(argvs, 1):
            wall, _, rc = self.runner.spawn(
                [sys.executable, "-c", REFERENCE], "reference")
            if rc != 0:
                self.problems.append(f"reference process exited {rc}")
            self.reference.append(wall)
            entry, wall, rss = self._command(list(workloads.NOOP), f"noop{k}")
            entries.append(entry)
            self.samples["setup_s"].append(wall)
            peak = max(peak, rss)
            entry, wall, rss = self._command(argv, f"cmd{k}")
            entries.append(entry)
            times.append(wall)
            peak = max(peak, rss)
        for name, wall in zip(COMMAND_METRICS, times):
            self.samples[name].append(wall)
        self.samples["wall_s"].append(sum(times))
        self.samples["peak_rss_mb"].append(peak / 1024)
        self.attempted += len(entries)
        self._check(entries)

    def _check(self, entries: list[dict]) -> None:
        spec = self.runner.outdir / "check_spec.json"
        result = self.runner.outdir / "check_result.json"
        spec.write_text(json.dumps(entries))
        if result.exists():
            result.unlink()
        _, _, rc = self.runner.spawn(
            [sys.executable, str(HERE / "checks.py"), str(spec), str(result)],
            "checks")
        if rc != 0:
            self.failed += len(entries)
            self.problems.append(f"output checker exited {rc}: " + (
                self.runner.outdir / "checks.stderr").read_text()[-2000:])
            return
        for entry, res in zip(entries, json.loads(result.read_text())):
            if res["problems"]:
                self.failed += 1
                self.problems += res["problems"]
            else:
                self.known_sha[workloads.digest_key(entry["argv"])] = \
                    res["sha256"]

    def run(self, seconds: float) -> None:
        start = time.monotonic()
        index = 0
        while True:
            pass_start = time.monotonic()
            self.run_pass(index)
            index += 1
            elapsed = time.monotonic() - start
            last = time.monotonic() - pass_start
            if index >= (1 if self.smoke else MIN_PASSES) and \
                    elapsed + last > seconds:
                break


def quartiles(values: list[float]) -> dict:
    import statistics  # late: keeps it out of the children's RSS baseline
    values = sorted(values)
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def probe(runner: Runner, root: Path) -> dict | None:
    _, _, rc = runner.spawn([sys.executable, str(HERE / "probe.py"),
                             str(root)], "probe")
    if rc != 0:
        sys.stderr.write((runner.outdir / "probe.stderr").read_text())
        return None
    return json.loads(runner.read("probe"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the self-tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "toriclat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no toriclat sources under {root / 'src'}\n")
        return 2
    outdir = (root / ".perfbench_out"
              / f"{args.workload}-s{args.seed}-t{args.trace}")
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(outdir, env, deadline)

    meta = probe(runner, root)
    if meta is None:
        return 2
    rss_before = rss_self_check(runner)
    problems: list[str] = []
    try:
        run = run_traced if args.trace else run_timed
        attempted, failed, metrics, details = run(args, runner, problems)
    except Timeout:
        sys.stderr.write(f"error: run exceeded {RUN_LIMIT_S:.0f} s\n")
        return 1
    rss_after = rss_self_check(runner)
    for when, check in (("start", rss_before), ("end", rss_after)):
        if not check["ok"]:
            problems.append(f"rss self-check at {when}: no-op child read "
                            f"{check['here_kb']} KiB here, {check['bare_kb']}"
                            " KiB from a minimal parent")
    if not args.trace:
        metrics["ok_ratio"] = {"value": 1 - failed / attempted,
                               "unit": "ratio"}
    correct = not problems

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke, "meta": meta,
              "rss_self_check": [rss_before, rss_after],
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "problems": problems,
              "metrics": metrics, "details": details}
    (outdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"toriclat benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, backend {meta['backend']}, python "
          f"{meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}, "
          f"rev {meta['git_rev']}")
    for line in details.get("legend", []):
        print(line)
    for name, m in metrics.items():
        stats = details.get("stats", {}).get(name)
        spread = (f"  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  "
                  f"n {stats['n']}" if stats else "")
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else \
            f"{value:>14.6g}"
        print(f"{name:<44} {shown} {m['unit']:<6}{spread}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for p in problems[:20]:
        print(f"FAIL {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_timed(args, runner: Runner, problems: list[str]):
    m = Measurement(args.workload, args.seed, args.smoke, runner)
    m.run(args.seconds)
    problems += m.problems
    stats = {name: quartiles(xs) for name, xs in m.samples.items()}
    reference = quartiles(m.reference)
    scale = REFERENCE_NOMINAL_S / reference["median"]
    metrics = {name: {"value": s["median"] * scale, "unit": "s"}
               for name, s in stats.items()}
    metrics["peak_rss_mb"] = {"value": stats["peak_rss_mb"]["median"],
                              "unit": "MB"}
    rss = m.samples["peak_rss_mb"]
    if args.workload == "build" and \
            (max(rss) - min(rss)) * 1024 > BUILD_RSS_SPREAD_KB:
        problems.append(f"peak RSS on build varies across passes: {rss}")
    argvs = workloads.commands(args.workload, args.seed, 0, args.smoke)
    legend = [f"{name} = python -m toriclat "
              + " ".join(workloads.bind_out(argv, "FILE"))
              for name, argv in zip(COMMAND_METRICS, argvs)]
    legend.append(f"times are raw wall seconds x {scale:.4f} (reference "
                  f"{reference['median']:.4f} s, nominal "
                  f"{REFERENCE_NOMINAL_S} s); raw quartiles follow")
    details = {"stats": stats, "samples": m.samples, "legend": legend,
               "reference": reference, "scale": scale,
               "reference_samples": m.reference}
    return m.attempted, m.failed, metrics, details


def run_traced(args, runner: Runner, problems: list[str]):
    seconds = max(0.0, min(args.seconds, runner.deadline - time.monotonic()
                           - 20))
    argv = [sys.executable, str(HERE / "trace.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--outdir", str(runner.outdir)]
    if args.smoke:
        argv.append("--smoke")
    result = runner.outdir / "trace_result.json"
    if result.exists():
        result.unlink()
    _, _, rc = runner.spawn(argv, "trace")
    if rc != 0 or not result.exists():
        problems.append(f"traced run exited {rc}: "
                        + (runner.outdir / "trace.stderr").read_text()[-2000:])
        return 1, 1, {}, {}
    res = json.loads(result.read_text())
    problems += res["problems"]
    return res["attempted"], res["failed"], res["metrics"], res["details"]


if __name__ == "__main__":
    sys.exit(main())

"""Compares the end-to-end metrics of two sets of benchmark results.

    python3 perfbench/compare.py --base A1.json A2.json ... \\
        --new B1.json B2.json ...

Each file is a result.json written by run.py --trace 0 for one workload.
For every end-to-end metric in BENCHMARK.json it prints both sides'
median and quartiles and a verdict: "worse" when the new median is worse
than the base median by more than the metric's bound, "unresolved" when
the base runs' own spread (q3 - q1 over the median) exceeds the bound,
otherwise "within bound".  Results from different workloads, or measured
with different kernel backends, are refused with exit code 2: a silent
fallback from compiled to pure-Python kernels would read as a regression
(or a gain) of ten times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    base = [json.loads(p.read_text()) for p in args.base]
    new = [json.loads(p.read_text()) for p in args.new]

    keys = {(r["workload"], r["meta"]["backend"], r["trace"], r["smoke"])
            for r in base + new}
    if len(keys) != 1:
        print(f"refused: results differ in (workload, kernel backend, "
              f"trace, smoke): {sorted(keys)}")
        return 2
    if not all(r["correct"] for r in base + new):
        print("refused: a result failed its output checks")
        return 2

    status = 0
    for metric in json.loads(BENCHMARK.read_text())["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        b_med, b_q1, b_q3 = summary([r["metrics"][name]["value"]
                                     for r in base])
        n_med, n_q1, n_q3 = summary([r["metrics"][name]["value"]
                                     for r in new])
        change = (n_med - b_med) / b_med
        worse = change if metric["better"] == "lower" else -change
        if (b_q3 - b_q1) / b_med > bound:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse"
            status = 1
        else:
            verdict = "within bound"
        print(f"{name:<12} base {b_med:.4f} [{b_q1:.4f}, {b_q3:.4f}]  "
              f"new {n_med:.4f} [{n_q1:.4f}, {n_q3:.4f}]  "
              f"{change:+.2%}  bound {bound:.0%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())

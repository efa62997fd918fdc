"""Self-tests of the benchmark.

Every workload runs once in smoke mode (tiny inputs, one pass) untraced
and traced, with all output checks.  Negative tests corrupt the program's
output and expect the run to report failures, and run the benchmark where
there are no sources to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# Appended to a copy of toriclat/cli.py: swaps the edges of stream
# positions 0 and 2q^2-1, which lie in different blocks, and drops the
# last generator while keeping the announced count.
CORRUPT_EMIT = '''

_bench_original_emit = _emit


def _emit(text, out):
    if '"map"' in text:
        payload = json.loads(text)
        first, last = payload["map"][0], payload["map"][-1]
        first[1:], last[1:] = last[1:], first[1:]
        text = _json(payload)
    elif " generators: " in text:
        text = text[:text.rindex(", (")] + "\\n"
    _bench_original_emit(text, out)
'''


def _checkout(tmp_path: Path, append_to_cli: str = "") -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(REPO / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    if append_to_cli:
        with open(root / "src" / "toriclat" / "cli.py", "a") as f:
            f.write(append_to_cli)
    return root


def _run(root: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(tmp_path, workload, trace):
    proc, result = _run(_checkout(tmp_path), workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_corrupted_outputs_count_as_failures(tmp_path):
    proc, result = _run(_checkout(tmp_path, CORRUPT_EMIT), "build", 0)
    assert proc.returncode == 1
    assert not result["correct"]
    # gens and interleave fail in the single pass; tessellate and the
    # no-op commands stay correct
    assert result["failed"] == 2
    assert result["metrics"]["ok_ratio"]["value"] < 1
    assert "coset label" in proc.stdout
    assert "generators announced" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    proc, result = _run(tmp_path, "sim", 0)
    assert proc.returncode != 0
    assert result is None

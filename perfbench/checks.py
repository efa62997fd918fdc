"""Output checks for the benchmark's toriclat commands.

Every output is checked against what the paper's constructions imply,
computed here independently of the package, and every seed-independent
output must also match the sha256 digest recorded in digests.json from
the seed commit (stdout is byte-identical by the project's contract).

run.py starts this file as its own process once per pass, so that
parsing large outputs never raises run.py's resident set:

    python3 perfbench/checks.py SPEC.json RESULT.json

SPEC.json is a list of entries {"argv", "rc", "stdout", "stderr", "out",
"known_sha256"}; "out" is the --out file or null, and "known_sha256" is
the digest of an output of the same command line that already passed
the semantic checks (they are then skipped).  RESULT.json receives one
{"sha256", "problems"} per entry.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from math import comb, gcd, sqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import digest_key, option, phi, twin_key  # noqa: E402

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "digests.json").read_text())

MAX_EXEMPLARS = 5


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def canonical_cells(q: int) -> list[tuple[int, int]]:
    """The paper's q-cell tile: a (q'+1) x 3 block plus a strip of r cells,
    where q - 3 = 3q' + r; the L-pentomino at q = 5."""
    if q == 5:
        return [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    qp, r = divmod(q - 3, 3)
    return ([(i, j) for i in range(qp + 1) for j in range(3)]
            + [(qp + 1, j) for j in range(r)])


def uniform_cluster_failure_rate(q: int) -> float:
    """Exact P(fail) for q of a fundamental cluster's 2q edges drawn
    without replacement: it fails unless every cell gets exactly one."""
    return 1 - 2 ** q / comb(2 * q, q)


# ----------------------------------------------------------- per command


def check_codewords(argv, text: str) -> list[str]:
    q = int(option(argv, "--q"))
    m = re.search(r"^codewords \(k\*\(1,(\d+)\) for k = 0\.\.(\d+)\): (.*)$",
                  text, re.M)
    if m is None:
        return ["no codeword listing"]
    g = q - 3
    got = [(int(x), int(y)) for x, y in re.findall(r"\((\d+),(\d+)\)",
                                                    m.group(3))]
    if got != [(k, k * g % q) for k in range(q)]:
        return [f"codewords are not the multiples of (1,{g}) mod {q}"]
    return []


def _check_exemplar(q: int, ex: dict, trials: int) -> str | None:
    ax, ay = ex["anchor"]
    if not (0 <= ax < q and 0 <= ay < q and 0 <= ex["trial"] < trials):
        return f"exemplar {ex['trial']} out of range"
    cluster = {((ax + px) % q, (ay + py) % q)
               for px, py in canonical_cells(q)}
    edges = {tuple(e) for e in ex["errors"]}
    if len(edges) != q or len(ex["errors"]) != q:
        return (f"exemplar {ex['trial']} has {len(edges)} distinct errors, "
                f"not {q}")
    if any((x, y) not in cluster or s not in (0, 1) for x, y, s in edges):
        return f"exemplar {ex['trial']} errs an edge outside its cluster"
    if not any((x, y, 1 - s) in edges for x, y, s in edges):
        return f"exemplar {ex['trial']} is correctable (no doubled cell)"
    return None


def check_simulate(argv, text: str) -> list[str]:
    q = int(option(argv, "--q"))
    trials = int(option(argv, "--trials"))
    model = option(argv, "--model")
    d = json.loads(text)
    problems = []
    for key, want in (("q", q), ("trials", trials), ("model", model),
                      ("seed", int(option(argv, "--seed", "0")))):
        if d[key] != want:
            problems.append(f"{key} = {d[key]!r}, requested {want!r}")
    if d["correctable"] + d["failures"] != trials:
        problems.append("correctable + failures != trials")
    failures = d["failures"]
    exemplars = d["exemplars"]
    if model == "one-per-cell":
        if failures or exemplars:
            problems.append(f"one-per-cell reported {failures} failures")
        return problems
    p = uniform_cluster_failure_rate(q)
    sigma = sqrt(trials * p * (1 - p))
    if abs(failures - trials * p) > 5 * sigma:
        problems.append(f"{failures} failures of {trials}; exact rate "
                        f"{p:.7f} expects {trials * p:.1f} +- "
                        f"{5 * sigma:.1f} (5 sigma)")
    if len(exemplars) != min(MAX_EXEMPLARS, failures):
        problems.append(f"{len(exemplars)} exemplars for {failures} failures")
    order = [ex["trial"] for ex in exemplars]
    if order != sorted(set(order)):
        problems.append("exemplar trials are not distinct and increasing")
    for ex in exemplars:
        bad = _check_exemplar(q, ex, trials)
        if bad:
            problems.append(bad)
    return problems


def check_verify(argv, text: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return ["empty verify report"]
    return [f"verify: {line}" for line in lines if not line.startswith("ok")]


def check_gens(argv, text: str) -> list[str]:
    q = int(option(argv, "--q"))
    g = q - 3
    m = re.fullmatch(r"q=(\d+): (\d+) generators: (.*)\n", text)
    if m is None or int(m.group(1)) != q:
        return ["unexpected gens header"]
    got = [(int(c), int(d))
           for c, d in re.findall(r"\((-?\d+),(-?\d+)\)", m.group(3))]
    expect = {(c, d) for c in range(-(q - 1), q) if c and gcd(c, q) == 1
              for d in (g * c % q, g * c % q - q)}
    problems = []
    if int(m.group(2)) != len(got) or len(got) != 4 * phi(q):
        problems.append(f"{m.group(2)} generators announced, {len(got)} "
                        f"listed, 4*phi({q}) expected")
    bad = [v for v in got if (v[1] - g * v[0]) % q]
    if bad:
        problems.append(f"d != g*c mod q for {bad[:3]}")
    if got != sorted(set(got)):
        problems.append("generators are not sorted and distinct")
    if set(got) != expect:
        problems.append(f"generator set differs: {len(expect - set(got))} "
                        f"missing, {len(set(got) - expect)} extra")
    return problems


def check_interleave(argv, text: str) -> list[str]:
    q = int(option(argv, "--q"))
    g = q - 3
    d = json.loads(text)
    entries = d["map"]
    if d["q"] != q or len(entries) != 2 * q * q:
        return [f"map has {len(entries)} entries, 2q^2 = {2 * q * q} expected"]
    problems = []
    if [e[0] for e in entries] != list(range(2 * q * q)):
        problems.append("stream indices are not 0..2q^2-1 in order")
    edges = {(x, y, s) for _, x, y, s in entries
             if 0 <= x < q and 0 <= y < q and s in (0, 1)}
    if len(edges) != 2 * q * q:
        problems.append("map is not a bijection onto the 2q^2 edges")
    for b in range(q):
        block = entries[2 * q * b:2 * q * (b + 1)]
        if len({(y - g * x) % q for _, x, y, _ in block}) != 1:
            problems.append(f"block {b} spans more than one coset label")
            break
    return problems


def check_tessellate(argv, text: str) -> list[str]:
    q = int(option(argv, "--q"))
    lines = text.splitlines()
    rects = sum(1 for line in lines if line.startswith("<rect"))
    anchors = sum(1 for line in lines if line.startswith("<line"))
    problems = []
    if not (lines and lines[0].startswith("<svg") and lines[-1] == "</svg>"):
        problems.append("not a complete svg document")
    if rects != q * q or anchors != 2 * q:
        problems.append(f"{rects} rects and {anchors} lines; "
                        f"{q * q} and {2 * q} expected")
    return problems


CHECKS = {"codewords": check_codewords, "simulate": check_simulate,
          "verify": check_verify, "gens": check_gens,
          "interleave": check_interleave, "tessellate": check_tessellate}


def check_entries(entries: list[dict]) -> list[dict]:
    """Check one pass's outputs; returns {"sha256", "problems"} per entry."""
    results = []
    twins: dict[str, str] = {}
    for e in entries:
        problems = []
        argv = e["argv"]
        if e["rc"] != 0:
            problems.append(f"exit code {e['rc']}")
        if "Traceback" in Path(e["stderr"]).read_text(errors="replace"):
            problems.append("traceback on stderr")
        path = e["out"] or e["stdout"]
        if e["out"] and Path(e["stdout"]).stat().st_size:
            problems.append("stdout is not empty although --out was given")
        try:
            sha = sha256_file(path)
        except OSError as exc:
            results.append({"sha256": None,
                            "problems": problems + [f"no output: {exc}"]})
            continue
        key = digest_key(argv)
        if key in DIGESTS and DIGESTS[key] != sha:
            problems.append("output differs from the seed commit's digest")
        twin = twins.setdefault(twin_key(argv), sha)
        if twin != sha:
            problems.append("output depends on --workers")
        if sha != e.get("known_sha256"):
            try:
                problems += CHECKS[argv[0]](argv, Path(path).read_text())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unparsable output: {exc!r}")
        results.append({"sha256": sha,
                        "problems": [f"{key}: {p}" for p in problems]})
    return results


def main(argv: list[str]) -> int:
    spec, result = argv
    entries = json.loads(Path(spec).read_text())
    Path(result).write_text(json.dumps(check_entries(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

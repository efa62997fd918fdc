"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from fractions import Fraction

from reference_data import (EXAMPLE_CANDIDATES, EXAMPLE_DISTANCES,
                            GENERATOR_SETS, GRID_MARKS, INTERLEAVED_ROWS)
from toriclat import interleaving, tables
from toriclat.cli import main
from toriclat.codes import generator_set
from toriclat.distance import distance_report, min_distance_closed_form
from toriclat.interleaving import (MODEL_ONE_PER_CELL, build_interleaver,
                                   burst_exhaustive_report,
                                   double_slot_uncorrectable_exhaustive,
                                   simulate)
from toriclat.lattice import SLOT_LEFT, SLOT_TOP, Edge, TorusLattice
from toriclat.params import compare, interleaved_params
from toriclat.tessellation import (Polyomino, canonical_polyomino,
                                   is_fundamental_region, lee_sphere)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_codeword_tables():
    start = time.perf_counter()
    mismatches = [q for q in (5, 7, 9, 11, 13)
                  if set(tables.grid_marks(q)) != GRID_MARKS[q]]
    elapsed = time.perf_counter() - start
    _report(1, not mismatches and elapsed < 1.0,
            f"grids for q=5,7,9,11,13 match cell-for-cell ({elapsed:.3f}s)")


def test_criterion_02_generator_sets(capsys):
    start = time.perf_counter()
    ok = all(generator_set(TorusLattice(q)).vectors == frozenset(GENERATOR_SETS[q])
             for q in (5, 7, 9))
    ok = ok and len(GENERATOR_SETS[5]) == 16
    code = main(["tables", "T3"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and "erratum" in out
    ok = ok and "erratum" in tables.table_data("T3")["annotations"][5]
    elapsed = time.perf_counter() - start
    _report(2, ok and elapsed < 1.0,
            f"generator sets for q=5,7,9 exact; q=5 erratum annotated "
            f"({elapsed:.3f}s)")


def test_criterion_03_distance_oracles():
    start = time.perf_counter()
    ok = True
    for n in range(2, 101):
        lattice = TorusLattice(2 * n + 1)
        brute = distance_report(lattice).distance
        closed = min_distance_closed_form(lattice)
        expected = 3 if n in (2, 3, 4) else 4
        ok = ok and brute == closed == expected
    for q, cands in EXAMPLE_CANDIDATES.items():
        report = distance_report(TorusLattice(q))
        ok = ok and dict(report.candidate_weights) == cands
        ok = ok and report.distance == EXAMPLE_DISTANCES[q]
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 5.0,
            f"brute == closed for n in [2,100]; worked-example candidates "
            f"exact ({elapsed:.3f}s)")


def test_criterion_04_tessellations():
    start = time.perf_counter()
    ok = True
    for q in range(5, 102, 2):
        lattice = TorusLattice(q)
        shape = canonical_polyomino(lattice)
        good, _ = is_fundamental_region(lattice, shape)
        ok = ok and shape.area == q and good
    lattice5 = TorusLattice(5)
    ok = ok and is_fundamental_region(lattice5, lee_sphere())[0]
    square_plus_one = Polyomino.from_cells(
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    ok = ok and is_fundamental_region(lattice5, square_plus_one)[0]
    elapsed = time.perf_counter() - start
    _report(4, ok and elapsed < 10.0,
            f"canonical shapes tile odd q in [5,101]; both q=5 shapes tile "
            f"({elapsed:.3f}s)")


def test_criterion_05_interleaved_table():
    start = time.perf_counter()
    ok = True
    for q, (n, k, t, gain_text) in INTERLEAVED_ROWS.items():
        params = interleaved_params(TorusLattice(q))
        ok = ok and (params.n, params.k, params.t) == (n, k, t)
        ok = ok and params.gain == Fraction(q + 1, q)
        ok = ok and tables.format_ratio(params.gain, 5) == gain_text
    elapsed = time.perf_counter() - start
    _report(5, ok and elapsed < 1.0,
            f"[[2q^2,2q,t=q]] rows and gains match to 5 decimals "
            f"({elapsed:.3f}s)")


def test_criterion_06_dominance():
    start = time.perf_counter()
    ok = all(compare(q).dominates for q in range(5, 1002, 2))
    elapsed = time.perf_counter() - start
    _report(6, ok and elapsed < 1.0,
            f"interleaved rate and gain beat both baselines for odd q in "
            f"[5,1001] ({elapsed:.3f}s)")


def test_criterion_07_interleaver_bijection():
    start = time.perf_counter()
    ok = all(len(set(build_interleaver(TorusLattice(q)).stream_to_edge))
             == 2 * q * q for q in range(5, 42, 2))
    elapsed = time.perf_counter() - start
    _report(7, ok and elapsed < 1.0,
            f"stream map is a permutation of 2q^2 edges for odd q in [5,41] "
            f"({elapsed:.3f}s)")


def test_criterion_08_burst_guarantee():
    start = time.perf_counter()
    ok = True
    for q in (5, 7, 9):
        cases, failures, _ = burst_exhaustive_report(
            build_interleaver(TorusLattice(q)))
        ok = ok and cases == q * q * 3 ** q and failures == 0
    exhaustive_elapsed = time.perf_counter() - start
    ok = ok and exhaustive_elapsed < 60.0
    for q in (11, 13):
        ok = ok and burst_exhaustive_report(
            build_interleaver(TorusLattice(q))) == (q * q * 3 ** q, 0, None)
        stats = simulate(TorusLattice(q), trials=100_000, seed=20260808,
                         model=MODEL_ONE_PER_CELL)
        ok = ok and stats.failures == 0
    elapsed = time.perf_counter() - start
    _report(8, ok,
            f"exhaustive q^2*3^q sweeps clean for q=5,7,9 "
            f"({exhaustive_elapsed:.2f}s), and for q=11,13 the closed-form "
            f"q^2*3^q count clean and 1e5 seeded trials clean "
            f"({elapsed:.2f}s total)")


def test_criterion_09_negative_control(monkeypatch):
    start = time.perf_counter()
    lattice = TorusLattice(5)
    verdicts = []
    real = interleaving.is_correctable

    def counting(mapping, errors, t=1):
        verdicts.append(sorted(errors))
        return real(mapping, errors, t)

    monkeypatch.setattr(interleaving, "is_correctable", counting)
    ok = double_slot_uncorrectable_exhaustive(build_interleaver(lattice))
    # exhaustive means one verdict per torus cell with both its edges
    # errored, which covers that cell in each of the 5 anchors' clusters
    # that hold it
    ok = ok and verdicts == [[Edge(x, y, SLOT_TOP), Edge(x, y, SLOT_LEFT)]
                             for x, y in lattice.cells()]
    elapsed = time.perf_counter() - start
    _report(9, ok and elapsed < 1.0,
            f"all 25 doubled cells reported uncorrectable, each in 5 "
            f"anchors' clusters ({elapsed:.3f}s)")


def test_criterion_10_simulation_determinism(capsys):
    argv = ["simulate", "--q", "5", "--trials", "300", "--seed", "424242",
            "--model", "uniform-cluster"]
    outputs = []
    for workers in ("1", "1", "2", "4"):
        code = main(argv + ["--workers", workers])
        out = capsys.readouterr().out
        outputs.append((code, out.encode("utf-8")))
    ok = all(code == 0 for code, _ in outputs)
    ok = ok and all(blob == outputs[0][1] for _, blob in outputs[1:])
    payload = json.loads(outputs[0][1])
    ok = ok and payload["trials"] == 300
    with capsys.disabled():
        print()
    _report(10, ok,
            "simulate JSON byte-identical across repeated runs and worker "
            "counts 1, 2, 4")

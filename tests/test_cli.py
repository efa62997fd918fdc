import argparse
import hashlib
import importlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toriclat
from oracles import PROPERTY, odd_q_and_polyomino
from reference_data import GRID_MARKS, INTERLEAVED_ROWS
from toriclat import kernels, params, tables
from toriclat.cli import build_parser, main
from toriclat.commands.interleave import _map_json
from toriclat.interleaving import build_interleaver
from toriclat.lattice import TorusLattice

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    return run_err(capsys, *argv)[:2]


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_codewords_json(capsys):
    code, out = run(capsys, "codewords", "--q", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["codewords"] == [[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]
    assert payload["generator"] == [1, 2]


def test_gens_json_matches_generator_set(capsys):
    code, out = run(capsys, "gens", "--q", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 24
    assert [1, -3] in payload["generators"]
    assert not any(c % 3 == 0 for c, _ in payload["generators"])


def test_distance_both_methods_agree(capsys):
    code, out = run(capsys, "distance", "--q", "11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute"]["distance"] == 4
    assert payload["closed"]["distance"] == 4
    assert payload["agree"] is True
    cands = {tuple(c["vector"]): c["weight"]
             for c in payload["brute"]["candidates"]}
    assert cands == {(1, -3): 4, (3, 2): 5}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_distance_disagreement_emits_one_document_and_exits_1(
        capsys, monkeypatch, fmt):
    from toriclat import distance
    code, agreed = run(capsys, "distance", "--q", "11", "--format", fmt)
    assert code == 0
    monkeypatch.setattr(distance, "min_distance_closed_form", lambda lat: 5)
    code, out, err = run_err(capsys, "distance", "--q", "11", "--format", fmt)
    assert code == 1
    assert err == "error: brute 4 != closed 5\n"
    if fmt == "json":
        payload = json.loads(out)
        assert payload["closed"]["distance"] == 5
        assert payload["agree"] is False
    else:
        assert out == agreed.replace("(closed form) = 4", "(closed form) = 5"
                                     ).replace("agree: True", "agree: False")


def test_distance_single_methods(capsys):
    code, out = run(capsys, "distance", "--q", "9", "--method", "brute")
    assert code == 0
    assert "distance (brute force) = 3" in out
    assert "(3,0)" in out
    code, out = run(capsys, "distance", "--q", "9", "--method", "closed",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"]["distance"] == 3
    assert "brute" not in payload


# Faults in the distance layer, each as broken(real) for the name it
# replaces on the module.

def _horizontal_move_one_column_right(real):
    # at q = 7 and 9 the horizontal move alone weighs the distance 3
    from toriclat.distance import mannheim_weight

    def candidates(lattice):
        found = real(lattice)
        if len(found) < 2:
            return found
        (x, y), _ = found[1]
        return found[0], ((x + 1, y), mannheim_weight((x + 1, y)))
    return candidates


def _candidates_heavier_at_9(real):
    def report(lattice):
        found = real(lattice)
        if lattice.q != 9:
            return found
        return found._replace(candidate_weights=tuple(
            (v, w + 1) for v, w in found.candidate_weights))
    return report


DISTANCE_FAULTS = {
    "closed-form-plus-one-at-7": (
        "min_distance_closed_form",
        lambda real: lambda lattice: real(lattice) + (lattice.q == 7)),
    "candidates-heavier-at-9": ("distance_report", _candidates_heavier_at_9),
    "horizontal-move-one-column-right": (
        "_candidates", _horizontal_move_one_column_right),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("q,move", [("7", (2, 1)), ("9", (3, 0))])
def test_distance_both_exits_1_on_a_wrong_move_vector(
        capsys, monkeypatch, fmt, q, move):
    from toriclat import distance
    shifted = (move[0] + 1, move[1])
    code, agreed = run(capsys, "distance", "--q", q, "--format", fmt)
    assert code == 0
    monkeypatch.setattr(distance, "_candidates",
                        _horizontal_move_one_column_right(
                            distance._candidates))
    code, out, err = run_err(capsys, "distance", "--q", q, "--format", fmt)
    assert code == 1
    assert err == "error: move-vector minimum 4 != distance 3\n"
    # the verdict is the exit code and stderr: the document shows the
    # shifted move, whose weight is 4, and nothing else changes
    if fmt == "json":
        expected = json.loads(agreed)
        expected["brute"]["candidates"][1] = {"vector": list(shifted),
                                              "weight": 4}
        assert expected["agree"] is True
        assert out == json.dumps(expected, indent=2) + "\n"
    else:
        assert out == agreed.replace("({},{}) weight 3".format(*move),
                                     "({},{}) weight 4".format(*shifted))
    for method in ("brute", "closed"):
        assert run(capsys, "distance", "--q", q, "--method", method,
                   "--format", fmt)[0] == 0


@pytest.mark.parametrize("fault", sorted(DISTANCE_FAULTS))
def test_distance_both_fails_exactly_where_verify_does(
        capsys, monkeypatch, fault):
    from toriclat import distance
    name, broken = DISTANCE_FAULTS[fault]
    monkeypatch.setattr(distance, name, broken(getattr(distance, name)))
    code, out = run(capsys, "verify", "--scope", "distance", "--q-max", "61")
    assert code == 1
    # each FAIL line is "FAIL distance q=Q: TEXT"
    reported = {int(line.split("q=")[1].split(":")[0]):
                f"error: {line.split(': ', 1)[1]}\n"
                for line in out.splitlines()}
    failing = {}
    for q in range(5, 62, 2):
        code, _, err = run_err(capsys, "distance", "--q", str(q),
                               "--method", "both")
        if code == 1:
            failing[q] = err
        else:
            assert (code, err) == (0, "")
    assert failing == reported != {}


@pytest.mark.parametrize("method", ["both", "brute", "closed"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_distance_writes_nothing_to_stderr_when_the_claim_holds(
        capsys, method, fmt):
    for q in range(5, 62, 2):
        assert run_err(capsys, "distance", "--q", str(q), "--method", method,
                       "--format", fmt)[::2] == (0, "")


def test_codewords_text_contains_grid_and_listing(capsys):
    code, out = run(capsys, "codewords", "--q", "5")
    assert code == 0
    assert "X" in out
    assert "(1,2)" in out and "(4,3)" in out


def test_params_text_and_json(capsys):
    code, out = run(capsys, "params", "--q", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    families = {c["family"]: c for c in payload["codes"]}
    assert families["interleaved"]["gain_exact"] == "6/5"
    assert families["kitaev"]["rate_exact"] == "1/25"
    code, out = run(capsys, "params", "--q", "5")
    assert code == 0
    assert "interleaved" in out and "bmd" in out


def test_tables_t2_codeword_listings(capsys):
    code, out = run(capsys, "tables", "T2")
    assert code == 0
    assert "column: 00 12 24 31 43" in out
    assert "row:    00 13 21 34 42" in out


def test_tables_t1_grid(capsys):
    code, out = run(capsys, "tables", "T1")
    assert code == 0
    body = out.strip().split("\n")[2:]
    got = {(r, c) for r, line in enumerate(body)
           for c, token in enumerate(line.split()[1:]) if token == "X"}
    assert got == GRID_MARKS[5]


def test_tables_t8_gains(capsys):
    code, out = run(capsys, "tables", "T8")
    assert code == 0
    for _, (_, _, _, gain) in INTERLEAVED_ROWS.items():
        assert f" {gain}\n" in out or out.rstrip().endswith(gain)


def test_tables_t3_carries_the_erratum(capsys):
    code, out = run(capsys, "tables", "T3")
    assert code == 0
    assert "erratum" in out
    assert "(1,-3)" in out


def test_tables_all_and_json(capsys):
    code, out = run(capsys, "tables", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [t["id"] for t in payload] == list("T" + str(i) for i in range(1, 9))


def test_unknown_table_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "T9"])
    assert exc.value.code == 2


def test_tessellate_ascii(capsys):
    code, out = run(capsys, "tessellate", "--q", "5")
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 5
    flat = "".join(rows)
    assert all(flat.count(s) == 5 for s in set(flat))


def test_tessellate_svg_to_file(tmp_path, capsys):
    target = tmp_path / "tile.svg"
    code, _ = run(capsys, "tessellate", "--q", "9", "--format", "svg",
                  "--out", str(target))
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.count("<rect") == 81


def test_tessellate_shape_file(tmp_path, capsys):
    shape = tmp_path / "shape.txt"
    shape.write_text("0 0\n1 0\n-1 0\n0 1\n0 -1\n", encoding="utf-8")
    code, out = run(capsys, "tessellate", "--q", "5", "--shape",
                    f"file:{shape}")
    assert code == 0
    assert len(out.strip().split("\n")) == 5


def test_tessellate_bad_shape_is_a_violation(tmp_path, capsys):
    # contains the pair (0,0), (1,2), which differ by a codeword
    shape = tmp_path / "ell.txt"
    shape.write_text("0 0\n1 0\n1 1\n1 2\n0 2\n", encoding="utf-8")
    code, _ = run(capsys, "tessellate", "--q", "5", "--shape", f"file:{shape}")
    assert code == 1


@pytest.mark.parametrize("q", ["5", "7", "9"])
def test_tessellate_lee_meets_the_check_its_cells_get_as_a_file(
        tmp_path, capsys, q):
    plus = tmp_path / "plus.txt"
    plus.write_text("0 0\n1 0\n-1 0\n0 1\n0 -1\n", encoding="utf-8")
    target = tmp_path / "tiling.txt"
    results = []
    for shape in ("lee", f"file:{plus}"):
        code = main(["tessellate", "--q", q, "--shape", shape,
                     "--out", str(target)])
        captured = capsys.readouterr()
        tiling = target.read_text(encoding="utf-8") if code == 0 else None
        assert not code or not target.exists()
        results.append((code, captured.out, captured.err, tiling))
        target.unlink(missing_ok=True)
    assert results[0] == results[1]
    if q == "5":
        assert results[0][:3] == (0, "", "")
    else:
        assert results[0] == (1, "", f"error: shape has 5 cells, expected "
                              f"q={q}\n", None)


@pytest.mark.parametrize("text", ["0 0\n1 0 0\n", "0 0\n1 x\n"])
def test_tessellate_malformed_shape_file_is_a_usage_error(tmp_path, capsys,
                                                          text):
    shape = tmp_path / "shape.txt"
    shape.write_text(text, encoding="utf-8")
    code = main(["tessellate", "--q", "5", "--shape", f"file:{shape}"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad shape file")


def test_tessellate_shape_file_with_a_repeated_cell_is_a_usage_error(
        tmp_path, capsys):
    # the plus pentomino tiles q = 5; its repeated first line must not be
    # merged away into a misleading cell-count violation
    shape = tmp_path / "shape.txt"
    shape.write_text("0 0\n1 0\n-1 0\n0 1\n0 -1\n0 0\n", encoding="utf-8")
    code = main(["tessellate", "--q", "5", "--shape", f"file:{shape}"])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: bad shape file {shape}: duplicate cell (0, 0)\n"


def test_bad_shape_file_is_named_as_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "shape.txt").write_text("0 0\n2 0\n", encoding="utf-8")
    code = main(["tessellate", "--q", "5", "--shape", "file:./shape.txt"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: bad shape file ./shape.txt: ")


def test_params_csv_schema(capsys):
    code, out = run(capsys, "params", "--q", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,family,n,k,d,t,rate,gain,gain_db"
    rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert rows["interleaved"][2:6] == ["50", "10", "", "5"]
    assert rows["kitaev"][2:6] == ["50", "2", "5", "2"]
    assert rows["toric"][2:6] == ["10", "2", "3", "1"]
    assert rows["bmd"][2:6] == ["122", "2", "11", "5"]


def test_compare_reports_dominance(capsys):
    code, out = run(capsys, "compare", "--q-range", "5:9:2",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["q"] for row in payload] == [5, 7, 9]
    assert all(row["interleaved_dominates"] for row in payload)


def test_compare_flags_a_row_that_does_not_dominate(capsys, monkeypatch):
    # a kitaev stand-in with rate 2/5 beats the interleaved rate 1/5
    real = params.compare
    losing = params.CodeParams("kitaev", 10, 4, 3, 1)

    def compare(q):
        row = real(q)
        return row if q == 5 else row._replace(kitaev=losing)

    monkeypatch.setattr(params, "compare", compare)
    code, out = run(capsys, "compare", "--q-range", "5:7:2")
    assert code == 1
    flags = [line.split()[-1] for line in out.strip().split("\n")[1:]]
    assert flags == ["-", "yes", "yes", "-", "NO", "NO"]
    code, out = run(capsys, "compare", "--q-range", "7:7:2",
                    "--format", "json")
    assert code == 1
    assert json.loads(out)[0]["interleaved_dominates"] is False


def test_compare_q_range_is_inclusive(capsys):
    code, out = run(capsys, "compare", "--q-range", "5:17:2",
                    "--format", "csv")
    assert code == 0
    qs = sorted({int(line.split(",")[0])
                 for line in out.strip().split("\n")[1:]})
    assert qs == [5, 7, 9, 11, 13, 15, 17]


def test_compare_negative_range_start_takes_the_equals_form(capsys):
    # a separate value starting with "-" would be read as an option
    code, out = run(capsys, "compare", "--q-range=-5:7:2", "--format", "json")
    assert code == 0
    assert [row["q"] for row in json.loads(out)] == [5, 7]


def test_a_q_range_too_long_to_list_is_a_usage_error(capsys):
    # FLAG_VALUES holds the long range as a separate value
    code = main(["compare", f"--q-range=-{HUGE}:9:1"])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: q-range '-{HUGE}:9:1' selects too many q\n")


@pytest.mark.parametrize("argv", [
    ["params", "--format", "text"], ["params", "--format", "json"],
    ["params", "--format", "csv"], ["compare", "--format", "json"],
    ["compare", "--format", "csv"],
])
def test_a_q_past_the_float_range_prints_a_finite_gain_db(capsys, argv):
    q = 10 ** 400 + 1  # the kitaev and bmd gains underflow a float
    span = ["--q", str(q)] if argv[0] == "params" else [
        "--q-range", f"{q}:{q}:2"]
    code, out = run(capsys, *argv, *span)
    assert code == 0
    if argv[-1] == "json":
        payload = json.loads(out)
        codes = payload["codes"] if argv[0] == "params" else [
            payload[0][family] for family in ("interleaved", "kitaev", "bmd")]
        gains_db = [row["gain_db"] for row in codes]
    elif argv[-1] == "csv":
        gains_db = [float(line.rsplit(",", 1)[1])
                    for line in out.splitlines()[1:]]
    else:
        gains_db = [float(line.split()[-1]) for line in out.splitlines()[1:]]
    assert len(gains_db) == (4 if argv[0] == "params" else 3)
    assert all(math.isfinite(g) for g in gains_db)
    assert min(gains_db) == pytest.approx(-4003.0103, abs=1e-4)


def test_compare_bad_range_is_a_usage_error(capsys):
    code, _ = run(capsys, "compare", "--q-range", "5-17")
    assert code == 2


def test_interleave_json_schema(capsys):
    code, out = run(capsys, "interleave", "--q", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 5
    assert len(payload["map"]) == 50
    assert payload["map"][0] == [0, 0, 0, 0]
    assert payload["map"][1] == [1, 1, 2, 0]
    edges = {tuple(entry[1:]) for entry in payload["map"]}
    assert len(edges) == 50


def test_simulate_json_is_byte_identical_across_runs_and_workers(capsys):
    args = ["simulate", "--q", "5", "--trials", "400", "--seed", "11",
            "--model", "uniform-cluster"]
    outputs = []
    for workers in ("1", "1", "3", "5"):
        code, out = run(capsys, *args, "--workers", workers)
        assert code == 0
        outputs.append(out)
    assert all(o == outputs[0] for o in outputs[1:])
    payload = json.loads(outputs[0])
    assert payload["trials"] == 400
    assert payload["correctable"] + payload["failures"] == 400


def test_simulate_csv(capsys):
    code, out = run(capsys, "simulate", "--q", "5", "--trials", "50",
                    "--seed", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,model,seed,trials,correctable,failures"
    assert lines[1].startswith("5,one-per-cell,2,50,")


def test_simulate_zero_trials_is_a_usage_error(capsys):
    code, _ = run(capsys, "simulate", "--q", "5", "--trials", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["params", "--q", "5", "--precision", "-1"],
    ["compare", "--precision", "-1"],
    ["tables", "T8", "--precision", "-2"],
    ["params", "--q", "5", "--precision", str(10 ** 20)],
    ["simulate", "--q", "5", "--trials", "10", "--seed", "-1"],
    ["simulate", "--q", "5", "--trials", "10", "--seed", str(2 ** 64)],
    ["simulate", "--q", "5", "--trials", "10", "--workers", "0"],
    ["simulate", "--q", "5", "--trials", "10", "--workers", "-2"],
])
def test_out_of_range_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


def test_simulate_accepts_the_largest_seed(capsys):
    code, out = run(capsys, "simulate", "--q", "5", "--trials", "10",
                    "--seed", str(2 ** 64 - 1))
    assert code == 0
    assert json.loads(out)["seed"] == 2 ** 64 - 1


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--scope", "distance", "--q-max", "101")
    assert code == 0
    assert "ok distance" in out
    code, out = run(capsys, "verify", "--scope", "tiling", "--q-max", "101")
    assert code == 0
    code, out = run(capsys, "verify", "--scope", "interleaver", "--q-max", "9")
    assert code == 0
    assert "ok burst q=9" in out
    assert "negative control" in out


def test_verify_reports_a_broken_canonical_shape_as_a_violation(
        capsys, monkeypatch):
    from toriclat import tessellation
    real = tessellation.is_fundamental_region

    def fails_at_7(lattice, shape):
        if lattice.q == 7:
            return False, shape.cells[:2]
        return real(lattice, shape)

    monkeypatch.setattr(tessellation, "is_fundamental_region", fails_at_7)
    code = main(["verify", "--scope", "tiling", "--q-max", "11"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == (
        "FAIL tiling q=7: internal error: canonical shape for q=7 is not a "
        "fundamental region (witness ((0, 0), (1, 0)))\n")
    assert captured.err == ""


# the ok lines of `verify --scope interleaver --q-max 9` after the first
BURSTS_TO_9 = ("ok burst q=5: 6075 cluster patterns all correctable\n"
               "ok burst q=7: 107163 cluster patterns all correctable\n"
               "ok burst q=9: 1594323 cluster patterns all correctable\n")
CONTROL_OK = "ok negative control q=5: doubled cells always flagged\n"


def _verify_with(capsys, monkeypatch, module, name, broken, argv):
    """Run verify with module.name replaced by broken(real); the exit
    code, stdout and stderr."""
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_reports_a_distance_that_differs_from_the_closed_form(
        capsys, monkeypatch):
    from toriclat import distance
    assert _verify_with(
        capsys, monkeypatch, distance, "min_distance_closed_form",
        lambda real: lambda lattice: real(lattice) + (lattice.q == 7),
        ["--scope", "distance", "--q-max", "9"]) == (
        1, "FAIL distance q=7: brute 3 != closed 4\n", "")


def test_verify_reports_a_move_vector_minimum_off_the_distance(
        capsys, monkeypatch):
    from toriclat import distance

    def heavier_at_9(real):
        def report(lattice):
            found = real(lattice)
            if lattice.q != 9:
                return found
            return found._replace(candidate_weights=tuple(
                (v, w + 1) for v, w in found.candidate_weights))
        return report

    assert _verify_with(
        capsys, monkeypatch, distance, "distance_report", heavier_at_9,
        ["--scope", "distance", "--q-max", "11"]) == (
        1, "FAIL distance q=9: move-vector minimum 4 != distance 3\n", "")


def test_verify_reports_a_stream_map_that_is_not_a_bijection(
        capsys, monkeypatch):
    from types import SimpleNamespace
    from toriclat import interleaving

    def doubled_at_11(real):
        def build(lattice):
            mapping = real(lattice)
            if lattice.q != 11:
                return mapping
            edges = mapping.stream_to_edge
            return SimpleNamespace(lattice=lattice,
                                   stream_to_edge=edges[:1] + edges[:-1])
        return build

    assert _verify_with(
        capsys, monkeypatch, interleaving, "build_interleaver", doubled_at_11,
        ["--scope", "interleaver", "--q-max", "11"]) == (
        1, "FAIL interleaver q=11: stream map is not a bijection\n"
           + BURSTS_TO_9 + CONTROL_OK, "")


def test_verify_reports_an_uncorrectable_burst(capsys, monkeypatch):
    from toriclat import interleaving

    def fails_at_7(real):
        def report(mapping):
            cases, failures, witness = real(mapping)
            if mapping.lattice.q == 7:
                return cases, 3, (1, 2, 0)
            return cases, failures, witness
        return report

    assert _verify_with(
        capsys, monkeypatch, interleaving, "burst_exhaustive_report",
        fails_at_7, ["--scope", "interleaver", "--q-max", "7"]) == (
        1, "ok interleaver: bijection on 2q^2 edges for odd q in [5, 7]\n"
           "ok burst q=5: 6075 cluster patterns all correctable\n"
           "FAIL burst q=7: 3 of 107163 patterns uncorrectable, first "
           "witness (1, 2, 0)\n" + CONTROL_OK, "")


def test_verify_reports_a_failed_negative_control(capsys, monkeypatch):
    from toriclat import interleaving
    assert _verify_with(
        capsys, monkeypatch, interleaving,
        "double_slot_uncorrectable_exhaustive", lambda real: lambda m: False,
        ["--scope", "interleaver", "--q-max", "5"]) == (
        1, "ok interleaver: bijection on 2q^2 edges for odd q in [5, 5]\n"
           "ok burst q=5: 6075 cluster patterns all correctable\n"
           "FAIL negative control q=5: a doubled cell went unflagged\n", "")


def test_verify_all_keeps_every_scope_past_a_failing_one(capsys, monkeypatch):
    from toriclat import distance
    assert _verify_with(
        capsys, monkeypatch, distance, "min_distance_closed_form",
        lambda real: lambda lattice: real(lattice) + (lattice.q == 7),
        ["--scope", "all", "--q-max", "9"]) == (
        1, "FAIL distance q=7: brute 3 != closed 4\n"
           "ok tiling: canonical shapes tile all odd q in [5, 9]\n"
           "ok interleaver: bijection on 2q^2 edges for odd q in [5, 9]\n"
           + BURSTS_TO_9 + CONTROL_OK, "")


def _not_a_region_at(bad_q):
    """is_fundamental_region, failing the shapes of the q in bad_q."""
    def broken(real):
        def check(lattice, shape):
            if lattice.q in bad_q:
                return False, shape.cells[:2]
            return real(lattice, shape)
        return check
    return broken


def test_verify_reports_a_map_that_cannot_be_built_and_keeps_going(
        capsys, monkeypatch):
    # build_interleaver raises ValueError in coset_blocks at q = 7; the
    # lines already collected and the other q's sweeps still print
    from toriclat import tessellation
    assert _verify_with(
        capsys, monkeypatch, tessellation, "is_fundamental_region",
        _not_a_region_at({7}), ["--scope", "all", "--q-max", "9"]) == (
        1, "ok distance: brute force == closed form for odd q in [5, 9]\n"
           "FAIL tiling q=7: internal error: canonical shape for q=7 is not "
           "a fundamental region (witness ((0, 0), (1, 0)))\n"
           "FAIL interleaver q=7: shape is not a fundamental region: cells "
           "(0, 0) and (1, 0) lie in the same coset\n"
           "ok burst q=5: 6075 cluster patterns all correctable\n"
           "ok burst q=9: 1594323 cluster patterns all correctable\n"
           + CONTROL_OK, "")


def test_verify_fails_the_negative_control_without_a_q5_map(
        capsys, monkeypatch):
    from toriclat import tessellation
    assert _verify_with(
        capsys, monkeypatch, tessellation, "is_fundamental_region",
        _not_a_region_at({5}), ["--scope", "interleaver", "--q-max", "7"]) == (
        1, "FAIL interleaver q=5: shape is not a fundamental region: cells "
           "(0, 0) and (1, 0) lie in the same coset\n"
           "ok burst q=7: 107163 cluster patterns all correctable\n"
           "FAIL negative control q=5: the q=5 map could not be built\n", "")


@pytest.mark.parametrize("argv,builds,checks", [
    (["interleave", "--q", "7"], 1, 1),
    (["tessellate", "--q", "7"], 0, 1),
    (["simulate", "--q", "7", "--trials", "10"], 1, 1),
    (["verify", "--scope", "interleaver", "--q-max", "41"], 19, 19),
    (["verify", "--scope", "tiling", "--q-max", "41"], 0, 19),
], ids=["interleave", "tessellate", "simulate", "verify-interleaver",
        "verify-tiling"])
def test_each_shape_is_checked_once_and_each_map_built_once(
        capsys, monkeypatch, argv, builds, checks):
    from toriclat import interleaving, tessellation
    calls = {"build": 0, "check": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(interleaving, "build_interleaver", counting(
        "build", interleaving.build_interleaver))
    monkeypatch.setattr(tessellation, "is_fundamental_region", counting(
        "check", tessellation.is_fundamental_region))
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == {"build": builds, "check": checks}


def test_verify_bad_qmax_is_usage_error(capsys):
    code, _ = run(capsys, "verify", "--q-max", "4")
    assert code == 2


def _assert_one_io_error_line(code, err):
    assert code == 3
    assert err.startswith("i/o error: ") and err.endswith("\n")
    assert err.count("\n") == 1, err


def test_out_to_unwritable_path_is_io_error(capsys):
    for argv in (["tables", "T1"], ["interleave", "--q", "7"],
                 ["tessellate", "--q", "7", "--format", "svg"]):
        for out in ("/nonexistent/dir/out.txt", ""):
            code = main(argv + ["--out", out])
            captured = capsys.readouterr()
            assert captured.out == ""
            _assert_one_io_error_line(code, captured.err)


@pytest.mark.parametrize("argv", [
    ["interleave", "--q", "7"],
    ["tessellate", "--q", "7", "--format", "svg"],
    ["tessellate", "--q", "41", "--format", "svg"],
])
def test_stdout_and_out_file_carry_the_same_bytes(tmp_path, capsys, argv):
    target = tmp_path / "out"
    code, out = run(capsys, *argv)
    assert code == 0
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


def _child_env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(toriclat.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _read_then_close_stdout(argv, head, unbuffered):
    """Run the command, read the head of its stdout, close the pipe and
    return the exit code and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "toriclat", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_child_env(unbuffered))
    try:
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return code, err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_is_an_io_error(unbuffered):
    # like `interleave --q 101 | head -c 10`: the map (about 0.9 MB) is far
    # longer than a pipe holds, so the writer sees the reader go away
    _assert_one_io_error_line(*_read_then_close_stdout(
        ["interleave", "--q", "101"], b'{\n  "q": 1', unbuffered))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_during_the_svg_rows_is_an_io_error(unbuffered):
    # the SVG (about 1.1 MB) is written a lattice row at a time
    _assert_one_io_error_line(*_read_then_close_stdout(
        ["tessellate", "--q", "101", "--format", "svg"], b"<svg xmlns",
        unbuffered))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_during_the_ascii_grid_is_an_io_error(unbuffered):
    # the grid (about 360 kB) is one string, longer than a pipe holds
    _assert_one_io_error_line(*_read_then_close_stdout(
        ["tessellate", "--q", "301"], b"  0 ", unbuffered))


def _write_into_a_closed_pipe(argv, unbuffered):
    """Run the command with stdout the write end of a pipe whose reader
    has already gone; return the exit code and stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toriclat", *argv],
            stdout=write_end, stderr=subprocess.PIPE,
            env=_child_env(unbuffered), timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_pipe_closed_before_a_short_output_is_an_io_error(unbuffered):
    # the map (3.6 kB) fits in the stdout buffer, so with buffering on
    # only the flush meets the closed pipe
    _assert_one_io_error_line(*_write_into_a_closed_pipe(
        ["interleave", "--q", "7"], unbuffered))


@pytest.mark.parametrize("argv", [
    ["codewords", "--q", "5"],
    ["verify", "--q-max", "9"],
    ["interleave", "--q", "101"],
    ["tessellate", "--q", "101", "--format", "svg"],
], ids=["codewords", "verify", "interleave", "tessellate-svg"])
def test_a_buffered_stdout_reports_a_closed_pipe_once(argv):
    # the bytes a failed write leaves in stdout's buffer are retried by
    # the flush at interpreter shutdown, which must not fail again: that
    # would print an ignored exception and exit 120
    _assert_one_io_error_line(*_write_into_a_closed_pipe(argv, False))


CHILD_ADDRESS_SPACE = 256 << 20  # bytes


def _limit_address_space():
    # runs in the child between fork and exec, so only the child is limited
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _run_in_limited_memory(argv):
    return subprocess.run(
        [sys.executable, "-m", "toriclat", *argv], capture_output=True,
        text=True, env=_child_env(False), preexec_fn=_limit_address_space,
        timeout=120)


def _assert_out_of_memory_exit(argv):
    proc = _run_in_limited_memory(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory; the input is too large\n"


@pytest.mark.parametrize("model", [kernels.MODEL_ONE_PER_CELL,
                                   kernels.MODEL_UNIFORM_CLUSTER])
def test_the_interleaver_map_grows_with_q_not_q_squared(model):
    # the map keeps one block per coset label, so q = 10001 fits in the
    # limit that a q**2 grid of 10**8 entries would not
    proc = _run_in_limited_memory(["simulate", "--q", "10001", "--trials",
                                   "1", "--model", model, "--format", "csv"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"q,model,seed,trials,correctable,"
                                  f"failures\n10001,{model},0,1,")


@pytest.mark.parametrize("argv", [
    ["compare", "--q-range", "5:100000000001:2"],  # one huge list at once
    ["interleave", "--q", "100001"],  # grows until an allocation fails
    ["tessellate", "--q", "100001", "--format", "svg"],
])
def test_an_input_too_large_for_memory_is_a_usage_error(argv):
    _assert_out_of_memory_exit(argv)


def test_a_tiling_too_large_for_memory_never_creates_the_out_file(tmp_path):
    # the tiling is built before --out is opened
    target = tmp_path / "huge.svg"
    _assert_out_of_memory_exit(["tessellate", "--q", "100001", "--format",
                                "svg", "--out", str(target)])
    assert not target.exists()


# A child's ru_maxrss starts from the high-water mark of the process it
# was forked from, so the command is started by a small launcher process
# rather than by the test process, which may be larger than the command.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_bytes(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER,
         sys.executable, "-m", "toriclat", *argv],
        capture_output=True, text=True, env=_child_env(False), timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0
    return maxrss * (1 if sys.platform == "darwin" else 1024)


def test_svg_is_streamed_a_row_at_a_time(tmp_path):
    # each row is written as it is formatted, so only one row of the SVG
    # (about 30 kB of 9.3 MB) is held at a time, next to the tiling itself
    target = tmp_path / "q301.svg"
    extra = (_peak_rss_bytes(["tessellate", "--q", "301", "--format", "svg",
                              "--out", str(target)])
             - _peak_rss_bytes(["codewords", "--q", "5"]))
    assert extra <= 0.25 * target.stat().st_size


def _assert_same_document(got, expected):
    """got == expected; a mismatch is reported by its first differing
    offset and some 80 characters around it, so that pytest never diffs
    two documents of megabytes line by line."""
    if got == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    start = max(at - 40, 0)
    pytest.fail(f"documents differ at offset {at} (lengths {len(got)} and "
                f"{len(expected)}):\n"
                f"     got {got[start:at + 40]!r}\n"
                f"expected {expected[start:at + 40]!r}", pytrace=False)


# at q = 125 runs of q stream positions start at 1000, 2000, ..., 31000
@pytest.mark.parametrize("q", [*range(5, 42, 2), 125])
def test_interleave_prints_the_stream_map_as_indented_json(capsys, q):
    mapping = build_interleaver(TorusLattice(q))
    payload = {"q": q, "map": [[i, e.x, e.y, e.slot]
                               for i, e in enumerate(mapping.stream_to_edge)]}
    code, out = run(capsys, "interleave", "--q", str(q))
    assert code == 0
    _assert_same_document(out, json.dumps(payload, indent=2) + "\n")


@PROPERTY
@given(odd_q_and_polyomino(fundamental=True))
def test_map_json_matches_json_dumps_on_random_shapes(q_and_shape):
    q, shape = q_and_shape
    mapping = build_interleaver(TorusLattice(q), shape)
    payload = {"q": q, "map": [[i, e.x, e.y, e.slot]
                               for i, e in enumerate(mapping.stream_to_edge)]}
    _assert_same_document(_map_json(mapping),
                          json.dumps(payload, indent=2) + "\n")


def _benchmark_digest(command):
    digests = json.loads((Path(__file__).parents[1] / "perfbench"
                          / "digests.json").read_text(encoding="utf-8"))
    return digests[command]


def test_svg_golden_is_the_benchmark_digest():
    data = (GOLDEN / "tessellate_q7.svg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        _benchmark_digest("tessellate --q 7 --format svg")


def test_svg_at_benchmark_size_is_the_benchmark_digest(tmp_path):
    # three seed rows (3 divides 501) and multi-digit coordinates
    target = tmp_path / "q501.svg"
    assert main(["tessellate", "--q", "501", "--format", "svg",
                 "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == \
        _benchmark_digest("tessellate --q 501 --format svg")


def test_interleave_at_benchmark_size_is_the_benchmark_digest(capsys):
    # multi-digit stream indices and coordinates, past the json.dumps
    # comparison's q <= 41
    code, out = run(capsys, "interleave", "--q", "301")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _benchmark_digest("interleave --q 301")


@pytest.mark.parametrize("scope", ["distance", "tiling", "interleaver"])
def test_verify_at_benchmark_size_is_the_benchmark_digest(capsys, scope):
    command = f"verify --scope {scope} --q-max 201"
    code, out = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _benchmark_digest(command)


@pytest.mark.parametrize("name,argv", [
    ("t1.txt", ["tables", "T1"]),
    ("t8.txt", ["tables", "T8"]),
    ("tessellate_q5.txt", ["tessellate", "--q", "5"]),
    ("interleave_q5.json", ["interleave", "--q", "5"]),
    ("simulate_q5_uniform.json",
     ["simulate", "--q", "5", "--trials", "200", "--seed", "42",
      "--model", "uniform-cluster"]),
    ("tessellate_q7.svg", ["tessellate", "--q", "7", "--format", "svg"]),
])
def test_golden_outputs_are_stable(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert out == expected


# Import contract.  A command imports only the layers it runs, and
# `import toriclat` imports none until one of its names is looked up.

def _imported_modules(argv):
    """Modules a fresh `python -m toriclat ...` process imports, read off
    its -X importtime report."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "toriclat", *argv],
        capture_output=True, text=True, env=_child_env(False), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["codewords", "--q", "5"],
    ["verify", "--scope", "distance", "--q-max", "9"],
    ["verify", "--scope", "tiling", "--q-max", "9"],
    ["gens", "--q", "7"],
])
def test_commands_import_only_their_layers(argv):
    loaded = _imported_modules(argv)
    assert "toriclat.cli" in loaded and "toriclat.codes" in loaded
    assert not loaded & {"toriclat.interleaving", "toriclat.params",
                         "fractions"}


@pytest.mark.parametrize("argv", [
    ["verify", "--scope", "all", "--q-max", "9"],
    ["verify", "--scope", "interleaver", "--q-max", "9"],
    ["interleave", "--q", "5"],
    ["tessellate", "--q", "7", "--format", "svg"],
    ["gens", "--q", "7"],
])
def test_commands_that_run_no_trials_do_not_load_the_kernel(argv):
    # interleaving imports the kernel inside simulate, and the model names
    # live in interleaving
    assert not _imported_modules(argv) & {"toriclat.kernels", "array"}


@pytest.mark.parametrize("argv", [
    ["codewords", "--q", "5"], ["gens", "--q", "7"],
    ["interleave", "--q", "5"], ["simulate", "--q", "5", "--trials", "5"],
    ["verify", "--scope", "distance", "--q-max", "5"],
])
def test_only_verify_loads_the_verify_layer(argv):
    assert ("toriclat.verify" in _imported_modules(argv)) == (
        argv[0] == "verify")


def test_simulate_loads_the_kernel():
    assert {"toriclat.kernels", "array"} <= _imported_modules(
        ["simulate", "--q", "5", "--trials", "5"])


def test_import_toriclat_loads_no_layer():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, toriclat; print(sorted("
         "m for m in sys.modules if m.startswith('toriclat.')))"],
        capture_output=True, text=True, env=_child_env(False), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Every command's records are tuples, so no command pays for importing
# dataclasses and the inspect module it pulls in.
HEAVY_MODULES = ("dataclasses", "inspect")

ALL_COMMANDS = [
    ["codewords", "--q", "5"], ["gens", "--q", "7"], ["distance", "--q", "7"],
    ["tessellate", "--q", "7", "--format", "svg"], ["params", "--q", "7"],
    ["compare", "--q-range", "5:9:2"], ["interleave", "--q", "5"],
    ["simulate", "--q", "5", "--trials", "50", "--seed", "3"],
    ["tables", "all"], ["verify", "--scope", "all", "--q-max", "9"],
]


def _heavy_modules_loaded(code):
    """Which of HEAVY_MODULES a fresh process has loaded after `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(sorted(m for m in "
         f"{HEAVY_MODULES!r} if m in sys.modules))"],
        capture_output=True, text=True, env=_child_env(False), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_commands_do_not_import_dataclasses_or_inspect(argv):
    # a module the interpreter's own start-up loads is not toriclat's cost
    run_command = ("import contextlib, io\nfrom toriclat.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert main({argv!r}) == 0\n")
    assert _heavy_modules_loaded(run_command) == _heavy_modules_loaded("")


# Each command's arguments and body are in its module of toriclat.commands
# (compare's in params's), and a process compiles only the one it runs.

@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_each_command_loads_only_its_own_command_module(argv):
    own = "params" if argv[0] == "compare" else argv[0]
    assert {m for m in _imported_modules(argv)
            if m.startswith("toriclat.commands.")} == {
        f"toriclat.commands.{own}"}


def test_cli_loads_a_command_module_only_for_the_parser_of_that_command():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, toriclat.cli as cli\n"
         "def commands():\n"
         "    return sorted(m for m in sys.modules\n"
         "                  if m.startswith('toriclat.commands'))\n"
         "print(commands())\n"
         "cli.build_parser(['-h'])\n"
         "print(commands())\n"
         "cli.build_parser(['gens', '--q', '7'])\n"
         "print(commands())\n"],
        capture_output=True, text=True, env=_child_env(False), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "[]", "['toriclat.commands', 'toriclat.commands.gens']"]


# the package's public names and their layers
PUBLIC_NAMES = {
    "codes": ("GeneratorSet", "codewords", "generator_set", "is_perfect",
              "is_sum_of_two_squares", "verify_determinant"),
    "distance": ("DistanceReport", "distance_report", "mannheim_weight",
                 "min_distance_closed_form", "move_vectors"),
    "interleaving": ("FailureExemplar", "InterleaverMap", "SimulationStats",
                     "build_interleaver", "deinterleave", "is_correctable",
                     "simulate"),
    "lattice": ("SLOT_LEFT", "SLOT_TOP", "Cell", "Edge", "TorusLattice",
                "Vector", "symmetric_residue"),
    "params": ("CodeParams", "ComparisonRow", "bmd_params", "compare",
               "interleaved_params", "kitaev_params", "toric_code_params"),
    "tessellation": ("Polyomino", "Tiling", "canonical_polyomino",
                     "is_fundamental_region", "lee_sphere", "render_ascii",
                     "render_svg", "tessellate"),
}


def test_public_names_resolve_to_their_layers():
    assert sorted(toriclat.__all__) == sorted(
        name for names in PUBLIC_NAMES.values() for name in names)
    for layer, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"toriclat.{layer}")
        for name in names:
            assert getattr(toriclat, name) is getattr(module, name), name
    assert set(toriclat.__all__) <= set(dir(toriclat))
    namespace: dict = {}
    exec("from toriclat import *", namespace)
    assert set(toriclat.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        toriclat.no_such_name


# public names that restated another one; each line gives the replacement
REMOVED_NAMES = (
    "RateGain",  # CodeParams.rate, .gain, .gain_db
    "rate_gain",  # the same properties
    "generates_same_code",  # tests/oracles.py, a brute-force span check
    "min_distance_bruteforce",  # distance_report(lattice)
    "burst_correctability_exhaustive",  # burst_exhaustive_report(map)[1] == 0
    "CodewordSet",  # codewords(lattice), a tuple
    "BurstCluster",  # FailureExemplar.anchor, .errored_edges; cluster_cells
)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_gone(name):
    assert name not in toriclat.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(toriclat, name)


def _choices(command, dest):
    sub = next(a for a in build_parser([command])._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return action.choices, action.default


def test_parser_choices_are_the_layers_constants():
    assert _choices("tables", "which")[0] == tables.TABLE_IDS + ("all",)
    assert _choices("simulate", "model") == (
        (kernels.MODEL_ONE_PER_CELL, kernels.MODEL_UNIFORM_CLUSTER),
        kernels.MODEL_ONE_PER_CELL)
    # verify runs the function of its layer named by each scope
    from toriclat import verify
    assert _choices("verify", "scope") == (
        ("distance", "tiling", "interleaver", "all"), "all")
    assert all(callable(getattr(verify, scope))
               for scope in _choices("verify", "scope")[0][:-1])



# Argv fuzzing.  Each flag gets valid, malformed and out-of-range values.
# Valid sizes stay small so that each run is quick: --trials gets no huge
# value, because a huge count is a valid request that runs as long as
# asked, and the huge q values are even, so rejected.
HUGE = str(10 ** 20)
FLAG_VALUES = {
    "--q": ("5", "41", "-5", "4", HUGE, "x", "", "1.5"),
    "--q-max": ("9", "-7", "8", HUGE, "x"),
    "--trials": ("40", "0", "-3", "x", "2.5"),
    "--seed": ("7", "-1", str(2 ** 64 - 1), str(2 ** 64), "x"),
    "--workers": ("2", "0", "-2", HUGE, "x"),
    "--precision": ("0", "100", "101", "-1", HUGE, "x"),
    "--q-range": ("5:9:2", "9:5:2", "5:9:0", f"5:9:{HUGE}", f"5:{HUGE}:2",
                  "5:9", "a:b:c", ""),
    "--model": ("uniform-cluster", "x"),
    "--method": ("brute", "closed", "x"),
    "--scope": ("tiling", "interleaver", "x"),
    "--format": ("text", "json", "csv", "ascii", "svg", "x"),
    "--shape": ("lee", "x", "file:{missing}", "file:{dir}", "file:{binary}",
                "file:{repeated}", "file:{plus}"),
    "--out": ("{dir}", "{missing}/out.txt", "{dir}/out.txt"),
}
# each subcommand: a valid argv tail and the flags it takes
COMMANDS = {
    "codewords": (("--q", "5"), ("--q", "--format", "--out")),
    "gens": (("--q", "5"), ("--q", "--format", "--out")),
    "distance": (("--q", "5"), ("--q", "--method", "--format", "--out")),
    "tessellate": (("--q", "5"), ("--q", "--shape", "--format", "--out")),
    "params": (("--q", "5"), ("--q", "--precision", "--format", "--out")),
    "compare": ((), ("--q-range", "--precision", "--format", "--out")),
    "interleave": (("--q", "5"), ("--q", "--out")),
    "simulate": (("--q", "5", "--trials", "20"),
                 ("--q", "--trials", "--seed", "--model", "--workers",
                  "--format", "--out")),
    "tables": (("T8",), ("--precision", "--format", "--out")),
    "verify": (("--q-max", "7"), ("--scope", "--q-max", "--out")),
}
TOKENS = ("T1", "all", "T9", "x", "", "--help", "bogus")


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "binary.txt").write_bytes(bytes(range(256)))
    (root / "repeated.txt").write_text("0 0\n0 0\n", encoding="utf-8")
    (root / "plus.txt").write_text("0 0\n1 0\n-1 0\n0 1\n0 -1\n",
                                   encoding="utf-8")
    return {"missing": str(root / "missing"), "dir": str(root),
            "binary": str(root / "binary.txt"),
            "repeated": str(root / "repeated.txt"),
            "plus": str(root / "plus.txt")}


def _assert_documented_exit(argv, paths):
    argv = [token.format(**paths) for token in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


def test_every_flag_value_on_a_valid_command_exits_with_a_documented_code(
        fuzz_paths):
    for command, (base, flags) in COMMANDS.items():
        for flag in flags:
            for value in FLAG_VALUES[flag]:
                _assert_documented_exit([command, *base, flag, value],
                                        fuzz_paths)


@st.composite
def fuzzed_argv(draw):
    """A subcommand, maybe its valid tail, then flags, values and tokens."""
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus", ""]))
    base, own = COMMANDS.get(command, ((), ()))
    argv = [command, *base] if draw(st.booleans()) else [command]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 4))
        flag = draw(st.sampled_from(own if own and kind < 2
                                    else sorted(FLAG_VALUES)))
        if kind < 3:
            argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
        elif kind == 3:
            argv.append(flag)
        else:
            argv.append(draw(st.sampled_from(TOKENS)))
    return argv


@settings(PROPERTY, max_examples=300)
@given(fuzzed_argv())
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_paths, argv):
    _assert_documented_exit(argv, fuzz_paths)


# Help and usage bytes, captured with COLUMNS=80 before the commands moved
# out of cli.py.  Python 3.13 wraps the top-level usage line otherwise;
# its copies of the files that differ are under py3.13/.
HELP_GOLDEN = GOLDEN / "cli"
HELP_CASES = {
    "help.txt": ["-h"],
    **{f"help_{command}.txt": [command, "-h"] for command in COMMANDS},
    "usage_none.txt": [],
    "usage_bogus.txt": ["bogus"],
    "usage_option_first.txt": ["--q", "5", "gens"],
}


def _help_golden(name):
    version = HELP_GOLDEN / "py{}.{}".format(*sys.version_info[:2]) / name
    return (version if version.exists() else HELP_GOLDEN / name).read_text(
        encoding="utf-8")


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_and_usage_are_the_goldens(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(HELP_CASES[name])
    out, err = capsys.readouterr()
    if name.startswith("usage"):
        assert (exc.value.code, out, err) == (2, "", _help_golden(name))
    else:
        assert (exc.value.code, out, err) == (0, _help_golden(name), "")

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import toriclat
from oracles import PROPERTY
from reference_data import GRID_MARKS, INTERLEAVED_ROWS
from toriclat import kernels, params, tables
from toriclat.cli import build_parser, main
from toriclat.interleaving import build_interleaver
from toriclat.lattice import TorusLattice

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
    code, out = run(capsys, "distance", "--q", "11", "--format", fmt)
    assert code == 1
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
        return row if q == 5 else replace(row, kitaev=losing)

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
def test_stdout_pipe_closed_before_a_short_output_is_an_io_error(unbuffered):
    # the map (3.6 kB) fits in the stdout buffer, so with buffering on
    # only the flush meets the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toriclat", "interleave", "--q", "7"],
            stdout=write_end, stderr=subprocess.PIPE,
            env=_child_env(unbuffered), timeout=60)
    finally:
        os.close(write_end)
    _assert_one_io_error_line(proc.returncode, proc.stderr.decode())


CHILD_ADDRESS_SPACE = 256 << 20  # bytes


def _limit_address_space():
    # runs in the child between fork and exec, so only the child is limited
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("argv", [
    ["compare", "--q-range", "5:100000000001:2"],  # one huge list at once
    ["interleave", "--q", "100001"],  # grows until an allocation fails
])
def test_an_input_too_large_for_memory_is_a_usage_error(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "toriclat", *argv], capture_output=True,
        text=True, env=_child_env(False), preexec_fn=_limit_address_space,
        timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory; the input is too large\n"


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


def test_svg_is_written_without_a_whole_document_copy(tmp_path):
    # the SVG is held once, as its row pieces, and written a slice at a
    # time; a joined or encoded copy of the document would double it
    target = tmp_path / "q301.svg"
    extra = (_peak_rss_bytes(["tessellate", "--q", "301", "--format", "svg",
                              "--out", str(target)])
             - _peak_rss_bytes(["codewords", "--q", "5"]))
    assert extra <= 1.5 * target.stat().st_size


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_interleave_prints_the_stream_map_as_indented_json(capsys, q):
    mapping = build_interleaver(TorusLattice(q))
    payload = {"q": q, "map": [[i, e.x, e.y, e.slot]
                               for i, e in enumerate(mapping.stream_to_edge)]}
    code, out = run(capsys, "interleave", "--q", str(q))
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


def test_svg_golden_is_the_benchmark_digest():
    digests = json.loads((Path(__file__).parents[1] / "perfbench"
                          / "digests.json").read_text(encoding="utf-8"))
    data = (GOLDEN / "tessellate_q7.svg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        digests["tessellate --q 7 --format svg"]


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


def test_import_toriclat_loads_no_layer():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, toriclat; print(sorted("
         "m for m in sys.modules if m.startswith('toriclat.')))"],
        capture_output=True, text=True, env=_child_env(False), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    "burst_correctability_exhaustive",  # burst_exhaustive_report(l)[1] == 0
    "CodewordSet",  # codewords(lattice), a tuple
    "BurstCluster",  # FailureExemplar.anchor, .errored_edges; cluster_cells
)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_names_are_gone(name):
    assert name not in toriclat.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(toriclat, name)


def _choices(command, dest):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return action.choices, action.default


def test_parser_choices_are_the_layers_constants():
    assert _choices("tables", "which")[0] == tables.TABLE_IDS + ("all",)
    assert _choices("simulate", "model") == (
        (kernels.MODEL_ONE_PER_CELL, kernels.MODEL_UNIFORM_CLUSTER),
        kernels.MODEL_ONE_PER_CELL)



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
    "--q-range": ("5:9:2", "9:5:2", "5:9:0", f"5:9:{HUGE}", "5:9", "a:b:c",
                  ""),
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

"""The benchmark's workloads: which toriclat commands a pass runs.

Each workload is a fixed list of three commands, run one after another
(a closed loop with one client).  The end-to-end metrics cmd1_s, cmd2_s
and cmd3_s are the wall times of these commands in list order; README.md
maps each slot to the command it times.  Before every command a pass
also runs NOOP, a toriclat process that does no real work, to sample
setup_s.

The workload seed only reaches `simulate`: every pass derives a fresh
simulation seed from (workload seed, pass index), shared by the commands
of that pass, so the same seed always gives the same inputs.
"""

from __future__ import annotations

from math import gcd

SEED = "{seed}"  # replaced by the pass's simulation seed
OUT = "{out}"    # replaced by the command's output file

NOOP = ("codewords", "--q", "5")

_FULL = {
    # The trial kernel.  uniform-cluster fails 99.92% of trials at q = 13, so
    # exemplar replay runs; one-per-cell never fails and is the only command
    # on the chunked --workers path.  The third command is the same run with
    # one worker: its output must be byte-identical to the second one's, and
    # cmd2_s against cmd3_s shows what the thread pool buys.
    "sim": (
        ("simulate", "--q", "13", "--trials", "100000", "--model",
         "uniform-cluster", "--workers", "1", "--seed", SEED),
        ("simulate", "--q", "41", "--trials", "20000", "--model",
         "one-per-cell", "--workers", "2", "--seed", SEED),
        ("simulate", "--q", "41", "--trials", "20000", "--model",
         "one-per-cell", "--workers", "1", "--seed", SEED),
    ),
    # The exhaustive sweeps over many small q, one scope per command; together
    # they do the work of `verify --scope all --q-max 201`.  tiling is
    # dominated by is_fundamental_region, interleaver by burst_exhaustive.
    "verify": (
        ("verify", "--scope", "distance", "--q-max", "201"),
        ("verify", "--scope", "tiling", "--q-max", "201"),
        ("verify", "--scope", "interleaver", "--q-max", "201"),
    ),
    # One large q per construction layer plus formatting and emit.
    "build": (
        ("gens", "--q", "1001", "--out", OUT),
        ("interleave", "--q", "301", "--out", OUT),
        ("tessellate", "--q", "501", "--format", "svg", "--out", OUT),
    ),
}

# The same command shapes on tiny inputs, for the benchmark's own tests.
_SMOKE = {
    "sim": (
        ("simulate", "--q", "5", "--trials", "300", "--model",
         "uniform-cluster", "--workers", "1", "--seed", SEED),
        ("simulate", "--q", "7", "--trials", "300", "--model",
         "one-per-cell", "--workers", "2", "--seed", SEED),
        ("simulate", "--q", "7", "--trials", "300", "--model",
         "one-per-cell", "--workers", "1", "--seed", SEED),
    ),
    "verify": (
        ("verify", "--scope", "distance", "--q-max", "9"),
        ("verify", "--scope", "tiling", "--q-max", "9"),
        ("verify", "--scope", "interleaver", "--q-max", "7"),
    ),
    "build": (
        ("gens", "--q", "7", "--out", OUT),
        ("interleave", "--q", "7", "--out", OUT),
        ("tessellate", "--q", "7", "--format", "svg", "--out", OUT),
    ),
}

NAMES = tuple(_FULL)


def sim_seed(seed: int, pass_index: int) -> int:
    """The simulation seed of one pass, a pure function of its inputs.

    A splitmix64 finalizer over (seed, pass index); hashlib is avoided
    because loading OpenSSL would raise run.py's resident set, which
    every child inherits in its peak RSS reading.
    """
    m64 = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + pass_index + 1) & m64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
    return (z ^ (z >> 31)) >> 16


def commands(workload: str, seed: int, pass_index: int,
             smoke: bool = False) -> list[list[str]]:
    """The pass's command lines; OUT is left for the caller to bind."""
    table = _SMOKE if smoke else _FULL
    s = str(sim_seed(seed, pass_index))
    return [[s if a == SEED else a for a in cmd] for cmd in table[workload]]


def bind_out(argv: list[str], path: str) -> list[str]:
    return [path if a == OUT else a for a in argv]


def option(argv, name: str, default: str | None = None) -> str | None:
    """The value following `name` in an argv list."""
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return default


def digest_key(argv) -> str:
    """The command line without its output path, naming an output."""
    out = []
    skip = False
    for a in argv:
        if skip:
            skip = False
        elif a == "--out":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def twin_key(argv) -> str:
    """Commands equal up to --workers must print identical bytes."""
    key = digest_key(argv).split(" ")
    if "--workers" in key:
        i = key.index("--workers")
        del key[i:i + 2]
    return " ".join(key)


def phi(q: int) -> int:
    return sum(1 for c in range(1, q) if gcd(c, q) == 1)


def expected_counts(argvs) -> dict[str, int]:
    """Work counts that one pass over these commands must report exactly.

    They follow from the inputs alone, not from how the program is written.
    """
    counts = {"kernels.simulate_trials.trials": 0,
              "kernels.burst_exhaustive.cases": 0,
              "codes.generator_set.vectors": 0}
    for argv in argvs:
        cmd = argv[0]
        if cmd == "simulate":
            counts["kernels.simulate_trials.trials"] += int(
                option(argv, "--trials"))
        elif cmd == "gens":
            counts["codes.generator_set.vectors"] += 4 * phi(
                int(option(argv, "--q")))
        elif cmd == "verify" and option(argv, "--scope") in ("interleaver",
                                                             "all"):
            q_max = min(int(option(argv, "--q-max")), 41)
            counts["kernels.burst_exhaustive.cases"] += sum(
                q * q * 3 ** q for q in (5, 7, 9) if q <= q_max)
    return counts

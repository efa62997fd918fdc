"""simulate: a seeded Monte Carlo run of cluster errors through the
interleaver."""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from .. import cli

if TYPE_CHECKING:
    from ..interleaving import SimulationStats

# kernels.MODEL_ONE_PER_CELL and MODEL_UNIFORM_CLUSTER, spelled out so
# that building the parser imports no layer
MODELS = ("one-per-cell", "uniform-cluster")


def _seed(text: str) -> int:
    """argparse type for --seed; seeds wider than 64 bits would alias."""
    value = cli._int_at_least(text, 0)
    if value >> 64:
        raise argparse.ArgumentTypeError(f"must be < 2^64, got {value}")
    return value


def _workers(text: str) -> int:
    """argparse type for --workers, which is accepted for compatibility
    and changes nothing; all trials run in one pass."""
    return cli._int_at_least(text, 1)


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--model", choices=MODELS, default=MODELS[0])
    parser.add_argument("--workers", type=_workers, default=1,
                        help="accepted for compatibility; changes nothing")
    cli.add_common(parser, ("json", "csv"), default_format="json")


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


def run(args) -> int:
    from ..interleaving import simulate
    lattice = cli._lattice(args.q)
    try:
        stats = simulate(lattice, args.trials, args.seed, model=args.model)
    except ValueError as exc:
        raise cli.UsageError(str(exc)) from exc
    if args.format == "csv":
        text = ("q,model,seed,trials,correctable,failures\n"
                f"{stats.q},{stats.model},{stats.seed},{stats.trials},"
                f"{stats.correctable},{stats.failures}\n")
    else:
        text = cli._json(_stats_payload(stats))
    cli._emit(text, args.out)
    return cli.EXIT_OK

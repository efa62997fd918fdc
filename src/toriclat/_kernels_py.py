"""Pure-Python kernel for the seeded channel simulation.

toriclat.kernels swaps in the compiled twin (_kernels_c) when it was
built; both implementations follow the same draw sequences and must
return identical results.

Shared conventions:
  * cells       -- the tiling shape's offsets, row-major; cell i of a
                   cluster anchored at (ax, ay) is ((ax+px) % q, (ay+py) % q).
  * block_grid  -- length q*q, the block index of the cell (x, y) stored
                   row-major at index y*q + x.
  * trial draws -- stream(seed, trial): anchor x, anchor y, then either
    one choice in range(3) per cell (model 0) or a partial Fisher-Yates
    over the cluster's 2*ncells edges taking the first ncells (model 1).
"""

from __future__ import annotations

from typing import Sequence

from .rng import stream

MODEL_ONE_PER_CELL = 0
MODEL_UNIFORM_CLUSTER = 1


def simulate_trials(
    q: int,
    cells: Sequence[tuple[int, int]],
    block_grid: Sequence[int],
    seed: int,
    start: int,
    count: int,
    model: int,
    t: int = 1,
    max_record: int = 5,
) -> tuple[int, int, list[int]]:
    """Run trials [start, start+count); return (correctable, failures,
    first failing trial indices, at most max_record of them)."""
    ncells = len(cells)
    nedges = 2 * ncells
    correctable = 0
    failing: list[int] = []
    for trial in range(start, start + count):
        rng = stream(seed, trial)
        ax = rng.below(q)
        ay = rng.below(q)
        blocks = [block_grid[((ay + py) % q) * q + (ax + px) % q]
                  for px, py in cells]
        counts = [0] * q
        if model == MODEL_ONE_PER_CELL:
            for i in range(ncells):
                if rng.below(3):
                    counts[blocks[i]] += 1
        elif model == MODEL_UNIFORM_CLUSTER:
            perm = list(range(nedges))
            for i in range(ncells):
                j = i + rng.below(nedges - i)
                perm[i], perm[j] = perm[j], perm[i]
                counts[blocks[perm[i] >> 1]] += 1
        else:
            raise ValueError(f"unknown model {model}")
        if max(counts) <= t:
            correctable += 1
        elif len(failing) < max_record:
            failing.append(trial)
    return correctable, count - correctable, failing

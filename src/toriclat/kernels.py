"""The trial kernel of the seeded channel simulation.

Shared conventions:
  * cells       -- the tiling shape's offsets, row-major; cell i of a
                   cluster anchored at (ax, ay) is ((ax+px) % q, (ay+py) % q).
  * block_grid  -- length q*q, the block index of the cell (x, y) stored
                   row-major at index y*q + x.
  * trial draws -- stream(seed, trial): anchor x, anchor y, then either
    one choice in range(3) per cell (one-per-cell) or a partial
    Fisher-Yates over the cluster's 2*ncells edges taking the first
    ncells (uniform-cluster).

The kernel computes rng.stream's splitmix64 steps on local ints and
leaves out only draws that cannot change a trial's outcome.  Block
counts only rise, so a trial fails at its first overflow and draws no
further.  Under one-per-cell a block receives at most m_b errors, m_b
being the number of cluster cells in block b, so an anchor with
max m_b <= t is correctable whatever its cells draw; such a trial ends
after its anchor draws.  tests/oracles.simulate_by_streams makes every
draw through rng.stream and is held equal to this kernel.
"""

from __future__ import annotations

from typing import Sequence

from .rng import GOLDEN, M64

# the only backend; benchmark results record it so that only runs of one
# backend are compared
BACKEND = "python"

MODEL_ONE_PER_CELL = "one-per-cell"
MODEL_UNIFORM_CLUSTER = "uniform-cluster"

# the splitmix64 finalizer's multipliers, as in rng.mix64
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

_UNKNOWN, _SAFE, _UNSAFE = 0, 1, 2


def _redraw(state: int, floor: int) -> tuple[int, int]:
    """Step past rejected outputs; returns (state, first output >= floor).

    Rejection has probability below n / 2^64, so the callers keep the
    first attempt inline and come here only when it is rejected.
    """
    while True:
        state = (state + GOLDEN) & M64
        z = ((state ^ (state >> 30)) * _C1) & M64
        z = ((z ^ (z >> 27)) * _C2) & M64
        z ^= z >> 31
        if z >= floor:
            return state, z


def simulate_trials(
    q: int,
    cells: Sequence[tuple[int, int]],
    block_grid: Sequence[int],
    seed: int,
    start: int,
    count: int,
    model: str,
    t: int = 1,
    max_record: int = 5,
) -> tuple[int, int, list[int]]:
    """Run trials [start, start+count); return (correctable, failures,
    first failing trial indices, at most max_record of them)."""
    if model not in (MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER):
        raise ValueError(f"unknown model {model!r}")
    if t < 0:
        raise ValueError("t must be >= 0")
    ncells = len(cells)
    nedges = 2 * ncells
    pxs = [px for px, _ in cells]
    pys = [py for _, py in cells]
    # below(n) rejects raw outputs under 2^64 % n
    floor = [(1 << 64) % n if n else 0 for n in range(max(q, nedges) + 1)]
    q_floor = floor[q]
    three_floor = floor[3]
    seed &= M64
    one_per_cell = model == MODEL_ONE_PER_CELL
    verdicts = bytearray(q * q)  # per one-per-cell anchor, lazily
    identity = list(range(nedges))
    correctable = 0
    failing: list[int] = []
    for trial in range(start, start + count):
        # state = mix64(seed ^ mix64(trial))
        z = trial & M64
        z = ((z ^ (z >> 30)) * _C1) & M64
        z = ((z ^ (z >> 27)) * _C2) & M64
        z = seed ^ z ^ (z >> 31)
        z = ((z ^ (z >> 30)) * _C1) & M64
        z = ((z ^ (z >> 27)) * _C2) & M64
        state = z ^ (z >> 31)

        state = (state + GOLDEN) & M64
        z = ((state ^ (state >> 30)) * _C1) & M64
        z = ((z ^ (z >> 27)) * _C2) & M64
        z ^= z >> 31
        if z < q_floor:
            state, z = _redraw(state, q_floor)
        ax = z % q
        state = (state + GOLDEN) & M64
        z = ((state ^ (state >> 30)) * _C1) & M64
        z = ((z ^ (z >> 27)) * _C2) & M64
        z ^= z >> 31
        if z < q_floor:
            state, z = _redraw(state, q_floor)
        ay = z % q

        if one_per_cell:
            anchor = ay * q + ax
            verdict = verdicts[anchor]
            if verdict == _UNKNOWN:
                cells_in_block = [0] * q
                for i in range(ncells):
                    cells_in_block[block_grid[((ay + pys[i]) % q) * q
                                              + (ax + pxs[i]) % q]] += 1
                verdict = _SAFE if max(cells_in_block) <= t else _UNSAFE
                verdicts[anchor] = verdict
            if verdict == _SAFE:
                correctable += 1
                continue
            counts = [0] * q
            for i in range(ncells):
                state = (state + GOLDEN) & M64
                z = ((state ^ (state >> 30)) * _C1) & M64
                z = ((z ^ (z >> 27)) * _C2) & M64
                z ^= z >> 31
                if z < three_floor:
                    state, z = _redraw(state, three_floor)
                if z % 3:
                    b = block_grid[((ay + pys[i]) % q) * q
                                   + (ax + pxs[i]) % q]
                    counts[b] += 1
                    if counts[b] > t:
                        break
            else:
                correctable += 1
                continue
        else:
            counts = [0] * q
            perm = identity[:]
            for i in range(ncells):
                n = nedges - i
                state = (state + GOLDEN) & M64
                z = ((state ^ (state >> 30)) * _C1) & M64
                z = ((z ^ (z >> 27)) * _C2) & M64
                z ^= z >> 31
                if z < floor[n]:
                    state, z = _redraw(state, floor[n])
                j = i + z % n
                # half a swap: slot i is never read again
                e = perm[j]
                perm[j] = perm[i]
                c = e >> 1
                b = block_grid[((ay + pys[c]) % q) * q + (ax + pxs[c]) % q]
                counts[b] += 1
                if counts[b] > t:
                    break
            else:
                correctable += 1
                continue
        if len(failing) < max_record:
            failing.append(trial)
    return correctable, count - correctable, failing

"""The channel's seeded draws and the trial kernel that runs them.

Trial i of a run draws from stream(seed, i), a splitmix64 generator
whose state starts at mix64(seed ^ mix64(i)), both taken mod 2^64, and
whose draw d is mix64(state + (d+1)*GOLDEN).  A trial's draws depend on
(seed, i) alone, so a run's results are fixed by its seed, however its
trials are split up or cut short.  trial_errors makes one trial's draws
through stream and is their one specification: anchor x, anchor y, then
one choice in range(3) per cell (one-per-cell) or a partial Fisher-Yates
over the cluster's 2*ncells edges taking the first ncells
(uniform-cluster).

simulate_trials runs the trials in blocks of LANES and computes their
draws on packed lanes: one Python int holds a 64-bit value per trial,
each in its own 128-bit slot, so that an add, shift, xor, multiply or
mask acts on every trial of the block at once and a product of two
64-bit values never reaches the next slot.  Draw d of the block's trials
is one such row, computed the first time a trial needs it and unpacked
into an array('Q').

The kernel leaves out draws that cannot change an outcome.  A translate
of the fundamental shape carries every coset label once, so when the
map's table gives each label its own block (judged once per map) every
cluster puts its cells in distinct blocks.  A block then errs as often
as its one cell: at most once under one-per-cell and at most twice under
uniform-cluster, so where that bound is <= t no trial can fail and the
run returns its count without drawing.  The lanes then serve one case,
uniform-cluster with t = 1, where a trial fails exactly when it draws
both edges of one cell: its Fisher-Yates deck holds cell bits and it
stops at the first bit already seen.  Every other trial leaves the lanes
and is judged by interleaving.is_correctable on the edges trial_errors
draws: one at t = 0, one on a table that repeats a block (never, on a
built map), and one that reads a packed draw below(n) would reject
(probability below n / 2^64 per draw).
tests/oracles.simulate_by_streams makes every draw through stream and is
held equal to this kernel.
"""

from __future__ import annotations

import sys
from array import array

from .interleaving import (MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER,
                           InterleaverMap, cluster_cells, is_correctable)
from .lattice import SLOT_LEFT, SLOT_TOP, Cell, Edge

# the only backend; benchmark results record it so that only runs of one
# backend are compared
BACKEND = "python"

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_C1, MIX_C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # mix64's multipliers

# trials per block, each a 128-bit slot of the packed ints
LANES = 1024

# the array('Q') index of each slot's low 64 bits, in native byte order
_LOW = 0 if sys.byteorder == "little" else 1


def mix64(z: int) -> int:
    """The splitmix64 finalizer, a 64-bit bijection."""
    z &= M64
    z = ((z ^ (z >> 30)) * MIX_C1) & M64
    z = ((z ^ (z >> 27)) * MIX_C2) & M64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, state: int) -> None:
        self._state = state & M64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & M64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Unbiased draw from range(n) by rejecting the low remainder zone."""
        if n <= 0:
            raise ValueError("n must be positive")
        threshold = (1 << 64) % n
        while True:
            v = self.next_u64()
            if v >= threshold:
                return v % n


def stream(seed: int, index: int) -> SplitMix64:
    """The independent generator for one trial of a seeded run."""
    return SplitMix64(mix64((seed & M64) ^ mix64(index)))


def _pack(values: array) -> int:
    """The 64-bit values as the low halves of consecutive 128-bit slots."""
    slots = array("Q", bytes(16 * len(values)))
    slots[_LOW::2] = values
    return int.from_bytes(slots, sys.byteorder)


def _unpack(packed: int, lanes: int) -> array:
    """The low half of each of the first `lanes` slots, in packing order."""
    slots = array("Q")
    slots.frombytes(packed.to_bytes(16 * lanes, sys.byteorder))
    return slots[_LOW::2]


def _mix(z: int, mask: int) -> int:
    """mix64 on every slot of a packed int whose slots are < 2^64."""
    z = ((z ^ (z >> 30)) & mask) * MIX_C1 & mask
    z = ((z ^ (z >> 27)) & mask) * MIX_C2 & mask
    return (z ^ (z >> 31)) & mask


class _Draws(dict):
    """Draw d of a block's trials, row d, computed on first lookup."""

    def __init__(self, seed: int, first: int, lanes: int) -> None:
        super().__init__()
        ones = _pack(array("Q", [1]) * lanes)
        self.ones = ones
        self.mask = M64 * ones
        self.lanes = lanes
        trials = (first & M64) * ones + _pack(array("Q", range(lanes)))
        mixed = _mix(trials & self.mask, self.mask)
        self.state = _mix(mixed ^ seed * ones, self.mask)

    def __missing__(self, d: int) -> array:
        step = ((d + 1) * GOLDEN & M64) * self.ones
        row = self[d] = _unpack(
            _mix((self.state + step) & self.mask, self.mask), self.lanes)
        return row


def trial_errors(
    mapping: InterleaverMap, seed: int, trial: int, model: str,
) -> tuple[Cell, tuple[Edge, ...]]:
    """One trial's anchor (ax, ay) and errored edges, each placed on its
    cell of the cluster_cells translate, with every draw through stream.
    An unknown model raises ValueError."""
    if model not in (MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER):
        raise ValueError(f"unknown model {model!r}")
    q, ncells = mapping.lattice.q, len(mapping.shape.cells)
    rng = stream(seed, trial)
    anchor = rng.below(q), rng.below(q)
    cells = cluster_cells(mapping.lattice, mapping.shape, anchor)
    if model == MODEL_ONE_PER_CELL:
        # choice 0 errs nothing, 1 the top edge, 2 the left edge
        choices = [rng.below(3) for _ in range(ncells)]
        return anchor, tuple(Edge(*cells[i], SLOT_TOP if c == 1 else SLOT_LEFT)
                             for i, c in enumerate(choices) if c)
    # edge e is slot e & 1 of cell e >> 1
    perm = list(range(2 * ncells))
    for i in range(ncells):
        j = i + rng.below(2 * ncells - i)
        perm[i], perm[j] = perm[j], perm[i]
    return anchor, tuple(Edge(*cells[e >> 1], e & 1) for e in perm[:ncells])


def simulate_trials(
    mapping: InterleaverMap,
    seed: int,
    start: int,
    count: int,
    model: str,
    t: int = 1,
    max_record: int = 5,
) -> tuple[int, int, list[int]]:
    """Run trials [start, start+count) on the map; return (correctable,
    failures, first failing trial indices, at most max_record of them)."""
    if model not in (MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER):
        raise ValueError(f"unknown model {model!r}")
    if t < 0:
        raise ValueError("t must be >= 0")
    if count < 0:
        raise ValueError("count must be >= 0")
    q, ncells = mapping.lattice.q, len(mapping.shape.cells)
    nedges = 2 * ncells
    # below(n) rejects raw outputs under 2^64 % n
    q_floor = (1 << 64) % q
    seed &= M64
    # where each label has its own block, a block errs as often as its one
    # cluster cell: at most once (one-per-cell) or twice (uniform-cluster),
    # so where that bound is <= t no trial can fail; with t = 1 a
    # uniform-cluster trial fails at its first cell drawn twice
    distinct = len(set(mapping.blocks)) == q
    if distinct and (1 if model == MODEL_ONE_PER_CELL else 2) <= t:
        return count, 0, []
    dealt = distinct and model == MODEL_UNIFORM_CLUSTER and t == 1
    # the Fisher-Yates deck holds each edge's cell bit, edge e lying in
    # cell e >> 1; step i takes draw i + 2 from range(n), n = nedges - i
    bits = [1 << (e >> 1) for e in range(nedges)]
    steps = [(i, i + 2, nedges - i, (1 << 64) % (nedges - i))
             for i in range(ncells)]
    correctable = 0
    failing: list[int] = []
    for first in range(start, start + count, LANES):
        lanes = min(LANES, start + count - first)
        draws = _Draws(seed, first, lanes)
        for k, (zx, zy) in enumerate(zip(draws[0], draws[1])):
            ok = None  # for a trial that leaves the packed lanes
            if dealt and zx >= q_floor and zy >= q_floor:
                perm = bits[:]
                seen = 0
                ok = True
                for i, d, n, n_floor in steps:
                    z = draws[d][k]
                    if z < n_floor:
                        ok = None
                        break
                    j = i + z % n
                    # half a swap: slot i is never read again
                    bit = perm[j]
                    perm[j] = perm[i]
                    if seen & bit:
                        ok = False
                        break
                    seen |= bit
            if ok is None:
                _, edges = trial_errors(mapping, seed, first + k, model)
                ok = is_correctable(mapping, edges, t)[0]
            if ok:
                correctable += 1
            elif len(failing) < max_record:
                failing.append(first + k)
    return correctable, count - correctable, failing

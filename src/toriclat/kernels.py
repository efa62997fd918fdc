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

The kernel leaves out draws that cannot change an outcome.  A translate
of the fundamental shape carries every coset label once, so when the
map's table gives each label its own block (judged once per map) every
cluster puts its cells in distinct blocks.  A block then errs as often
as its one cell: at most once under one-per-cell and at most twice under
uniform-cluster, so where that bound is <= t no trial can fail and the
run returns its count without drawing.  The lanes then serve one case,
uniform-cluster with t = 1, where a trial fails exactly when it draws
both edges of one cell: its Fisher-Yates deck holds cell bits and it
stops at the first bit already seen.

simulate_trials deals these trials in blocks of LANES, phase by phase.
A phase packs one lane per live trial: one Python int holds a 64-bit
value per lane, each in its own 128-bit slot, so that an add, shift,
xor, multiply or mask acts on every lane at once and a product of two
64-bit values never reaches the next slot.  Each of the phase's draws is
one such row, unpacked into an array('Q'); the live trials then take the
phase's Fisher-Yates steps, and the survivors carry their decks on.  A
phase ends where the birthday survival prod (2c - 2i) / (2c - i) over c
cells has halved since it began: at q = 13 a trial costs 9.5 rows, not 15.

A trial leaves the lanes and is judged by interleaving.is_correctable on
the edges trial_errors draws at t = 0, on a table that repeats a block
(never, on a built map; these runs pack no row), and where a row of one
of its phases holds a value below(n) would reject (below n / 2^64 per
draw), read or not; a row is scanned for one only when its bytes hold a
run of zeros.

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


def _rows(seed: int, first: int, lanes: list[int], draws: range,
          ns: list[int]) -> tuple[list[array], set[int]]:
    """Draw d of trial first + k for each d in draws, one row per draw over
    the lanes k in order, and the lanes where below(ns[d]) may reject."""
    ones = _pack(array("Q", [1]) * len(lanes))
    mask = M64 * ones
    state = ((first & M64) * ones + _pack(array("Q", lanes))) & mask
    state = _mix(_mix(state, mask) ^ seed * ones, mask)
    # as in SplitMix64, draw d mixes the state moved on by (d + 1) * GOLDEN
    state += (draws.start * GOLDEN & M64) * ones
    golden = GOLDEN * ones
    rows, off = [], set()
    for d in draws:
        state = (state + golden) & mask
        rows.append(_unpack(_mix(state, mask), len(lanes)))
        # below(n) rejects the values under 2^64 % n, whose top bytes are 0
        floor = (1 << 64) % ns[d]
        if bytes(8 - (floor.bit_length() + 7) // 8) in rows[-1].tobytes():
            off.update(k for k, z in zip(lanes, rows[-1]) if z < floor)
    return rows, off


def _deal(seed: int, first: int, lanes: int, phases: list[range],
          ns: list[int], deck: list[int]) -> bytearray:
    """The verdicts of a block's trials first, first+1, ...: 0 fails, 1
    passes, 2 leaves the lanes."""
    # each live trial's lane, its deck and the bits of the cells it has
    # seen, in lane order; a lane copies deck when it first deals
    alive, sent = list(range(lanes)), set()
    decks, seens = (deck[:] for _ in alive), [0] * lanes
    for phase in phases:
        rows, off = _rows(seed, first, alive, phase, ns)
        sent |= off
        walk = [(d - 2, ns[d], row) for d, row in zip(phase, rows) if d > 1]
        kept, kept_decks, kept_seens = [], [], []
        for p, (k, perm, seen) in enumerate(zip(alive, decks, seens)):
            for i, n, row in walk:
                j = i + row[p] % n
                # half a swap: slot i is never read again
                bit = perm[j]
                perm[j] = perm[i]
                if seen & bit:
                    break
                seen |= bit
            else:
                kept.append(k)
                kept_decks.append(perm)
                kept_seens.append(seen)
        alive, decks, seens = kept, kept_decks, kept_seens
        if not alive:
            break
    verdict = bytearray(lanes)
    for k in alive:
        verdict[k] = 1
    for k in sent:
        verdict[k] = 2
    return verdict


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
    seed &= M64
    # where each label has its own block, a block errs as often as its one
    # cluster cell: at most once (one-per-cell) or twice (uniform-cluster),
    # so where that bound is <= t no trial can fail; with t = 1 a
    # uniform-cluster trial fails at its first cell drawn twice
    distinct = len(set(mapping.blocks)) == q
    if distinct and (1 if model == MODEL_ONE_PER_CELL else 2) <= t:
        return count, 0, []
    dealt = distinct and model == MODEL_UNIFORM_CLUSTER and t == 1
    # draw d picks from range(ns[d]): the anchor's x and y, then step d - 2
    # of the Fisher-Yates, whose deck holds each edge's cell bit (edge e
    # lies in cell e >> 1)
    ns = [q, q] + list(range(nedges, ncells, -1))
    deck = [1 << (e >> 1) for e in range(nedges)]
    # a phase ends where the survival prod (nedges - 2i) / (nedges - i)
    # has halved since it began; the last step's 2 / (ncells + 1) alone does
    phases, begin, num, den = [], 0, 1, 1
    for i in range(ncells):
        num, den = num * (nedges - 2 * i), den * (nedges - i)
        if 2 * num <= den:
            phases.append(range(begin, i + 3))
            begin, num, den = i + 3, 1, 1
    correctable = 0
    failing: list[int] = []
    for first in range(start, start + count, LANES):
        lanes = min(LANES, start + count - first)
        verdict = (_deal(seed, first, lanes, phases, ns, deck) if dealt
                   else bytearray(b"\2") * lanes)
        k = verdict.find(2)
        while k >= 0:
            _, edges = trial_errors(mapping, seed, first + k, model)
            verdict[k] = is_correctable(mapping, edges, t)[0]
            k = verdict.find(2, k + 1)
        correctable += verdict.count(1)
        k = verdict.find(0)
        while k >= 0 and len(failing) < max_record:
            failing.append(first + k)
            k = verdict.find(0, k + 1)
    return correctable, count - correctable, failing

"""Interleaving of 2*q**2 stream qubits across the torus edges.

Stream positions are split into q blocks of 2q.  Block b owns both edge
slots of the q cells {c_b + k*(1, g) mod q}, the coset of c_b, the b-th
cell of the tiling shape in row-major order (c_0 = (0, 0) for the
canonical shape), as the tiling's `coset_rows` reads it off: positions
[2qb, 2qb+q) take the top edges in k order, positions [2qb+q, 2qb+2q)
the left edges.  Because the shape's cells lie in pairwise distinct
cosets, any translate of the shape touches every block in exactly one
cell, so a cluster of errors confined to one translate with at most one
errored edge per cell leaves at most one error per block -- correctable
by a per-block capability of t = 1.

The block partition depends only on the code, which the lattice alone
fixes, not on which generator enumerates it: every generating vector
spans the same subgroup, hence the same cosets.  Swapping the generator
would only reorder positions within a block, so the canonical (1, g)
layout is the one exposed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import prod
from typing import Iterator

from . import kernels
from .kernels import MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER
from .lattice import SLOT_LEFT, SLOT_TOP, Cell, Edge, TorusLattice
from .rng import M64, stream
from .tessellation import Polyomino, canonical_polyomino, coset_rows


@dataclass(frozen=True)
class InterleaverMap:
    """Bijection between stream positions 0..2q**2-1 and torus edges."""

    lattice: TorusLattice
    shape: Polyomino
    block_grid: tuple[int, ...]

    def block_cells(self) -> Iterator[list[Cell]]:
        """Each block's q cells in stream order, block by block.

        Block b holds c_b + k*(1, g) mod q for k = 0..q-1; its stream
        positions take the top edges of these cells, then the left edges.
        """
        q, g = self.lattice.q, self.lattice.g
        for bx, by in self.shape.cells:
            yield [((bx + k) % q, (by + k * g) % q) for k in range(q)]

    @cached_property
    def stream_to_edge(self) -> tuple[Edge, ...]:
        """The torus edge at each stream position, block by block."""
        edges: list[Edge] = []
        for cells in self.block_cells():
            edges.extend(Edge(x, y, SLOT_TOP) for x, y in cells)
            edges.extend(Edge(x, y, SLOT_LEFT) for x, y in cells)
        return tuple(edges)

    def edge_block(self, edge: Edge) -> int:
        """The block of an edge's cell, its coordinates taken mod q."""
        q = self.lattice.q
        return self.block_grid[(edge.y % q) * q + edge.x % q]


def build_interleaver(
    lattice: TorusLattice, shape: Polyomino | None = None
) -> InterleaverMap:
    """Lay the 2*q**2 stream positions onto the torus edges block by block.

    The shape must be a fundamental region; the default is the canonical
    tiling shape.  Block b is the coset of the shape's cell b, so the
    block grid is the rows of `coset_rows`, whose ValueError a shape that
    is not a fundamental region raises.
    """
    if shape is None:
        shape = canonical_polyomino(lattice)
    rows = coset_rows(lattice, shape)
    return InterleaverMap(lattice, shape, tuple(chain.from_iterable(rows)))


def deinterleave(mapping: InterleaverMap, errors) -> list[int]:
    """Per-block error counts for a set of errored edges, taken mod q."""
    q = mapping.lattice.q
    counts = [0] * q
    for edge in {Edge(x % q, y % q, slot) for x, y, slot in errors}:
        counts[mapping.edge_block(edge)] += 1
    return counts


def is_correctable(mapping: InterleaverMap, errors, t: int = 1
                   ) -> tuple[bool, list[int]]:
    """Whether every block sees at most t errors; lists offending blocks."""
    counts = deinterleave(mapping, errors)
    offending = [b for b, c in enumerate(counts) if c > t]
    return not offending, offending


def cluster_cells(lattice: TorusLattice, shape: Polyomino, anchor: Cell
                  ) -> tuple[Cell, ...]:
    """The shape's translate anchored at the given cell."""
    return tuple(lattice.translate(anchor, offset) for offset in shape.cells)


def burst_exhaustive_report(lattice: TorusLattice
                            ) -> tuple[int, int, tuple[int, int, int] | None]:
    """Account for all q**2 anchors x 3**q one-edge-per-cell patterns.

    Returns (cases, failures, witness); a failing witness is (ax, ay,
    pattern_index).  Limited to q <= 9.
    """
    if lattice.q > 9:
        raise ValueError("exhaustive burst enumeration is limited to q <= 9")
    mapping = build_interleaver(lattice)
    return burst_pattern_counts(lattice.q, mapping.shape.cells,
                                mapping.block_grid)


def burst_pattern_counts(
    q: int, cells: tuple[Cell, ...], block_grid: tuple[int, ...]
) -> tuple[int, int, tuple[int, int, int] | None]:
    """Count, per anchor, the error patterns that overflow a block.

    A pattern gives each cluster cell one of {0 none, 1 top, 2 left}; the
    patterns are numbered like itertools.product((0, 1, 2), repeat=n),
    cell 0 being the most significant base-3 digit.  A pattern fails when
    two errored cells share a block, so with m_b cluster cells in block b
    exactly prod(1 + 2*m_b) patterns pass.  The first failing pattern
    errs the top edges of just the colliding pair (i, j) that minimises
    3**(n-1-i) + 3**(n-1-j).  The witness is (ax, ay, pattern_index) at
    the first failing anchor in row-major order, or None.
    """
    n = len(cells)
    total = 3 ** n
    failures = 0
    witness: tuple[int, int, int] | None = None
    for ay in range(q):
        for ax in range(q):
            blocks = [block_grid[((ay + py) % q) * q + (ax + px) % q]
                      for px, py in cells]
            passing = prod(1 + 2 * m for m in Counter(blocks).values())
            failures += total - passing
            if passing < total and witness is None:
                witness = (ax, ay, min(
                    3 ** (n - 1 - i) + 3 ** (n - 1 - j)
                    for i, j in combinations(range(n), 2)
                    if blocks[i] == blocks[j]))
    return q * q * total, failures, witness


def double_slot_uncorrectable_exhaustive(lattice: TorusLattice) -> bool:
    """Negative control: erroring both slots of any one cluster cell must
    be reported uncorrectable, for every anchor and every cell."""
    mapping = build_interleaver(lattice)
    for anchor in lattice.cells():
        for cell in cluster_cells(lattice, mapping.shape, anchor):
            errors = {Edge(cell[0], cell[1], SLOT_TOP),
                      Edge(cell[0], cell[1], SLOT_LEFT)}
            ok, _ = is_correctable(mapping, errors)
            if ok:
                return False
    return True


@dataclass(frozen=True)
class FailureExemplar:
    """A failing trial's cluster anchor and errored edges; the cluster's
    cells are cluster_cells(lattice, shape, anchor)."""

    trial: int
    anchor: Cell
    errored_edges: tuple[Edge, ...]


@dataclass(frozen=True)
class SimulationStats:
    q: int
    model: str
    seed: int
    trials: int
    correctable: int
    failures: int
    exemplars: tuple[FailureExemplar, ...]


def _replay_trial(lattice: TorusLattice, shape: Polyomino, seed: int,
                  trial: int, model: str) -> FailureExemplar:
    """Re-derive one trial's anchor and errors from its stream."""
    q = lattice.q
    rng = stream(seed, trial)
    ax = rng.below(q)
    ay = rng.below(q)
    cells = cluster_cells(lattice, shape, (ax, ay))
    edges: list[Edge] = []
    if model == MODEL_ONE_PER_CELL:
        for cell in cells:
            choice = rng.below(3)
            if choice == 1:
                edges.append(Edge(cell[0], cell[1], SLOT_TOP))
            elif choice == 2:
                edges.append(Edge(cell[0], cell[1], SLOT_LEFT))
    else:
        nedges = 2 * len(cells)
        perm = list(range(nedges))
        for i in range(len(cells)):
            j = i + rng.below(nedges - i)
            perm[i], perm[j] = perm[j], perm[i]
        for e in perm[:len(cells)]:
            cell = cells[e >> 1]
            edges.append(Edge(cell[0], cell[1], e & 1))
    return FailureExemplar(trial, (ax, ay), tuple(edges))


def simulate(lattice: TorusLattice, trials: int, seed: int,
             model: str = MODEL_ONE_PER_CELL) -> SimulationStats:
    """Sample random cluster-error trials and count correctable ones.

    Trial i draws from an independent stream derived from (seed, i), so
    the statistics do not depend on how trials are split up; all of them
    run in one kernel call.  one-per-cell picks none/top/left uniformly
    per cluster cell; uniform-cluster draws q of the cluster's 2q edges
    without replacement, which can err both slots of one cell and thereby
    overflow a block.  A trial fails when a block gets more than t = 1
    errors, and the first five failing trials are replayed as exemplars.
    An unknown model raises ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mapping = build_interleaver(lattice)
    # called through the module so that a tracer patching
    # toriclat.kernels.simulate_trials sees the call
    correctable, failures, failing = kernels.simulate_trials(
        lattice.q, mapping.shape.cells, mapping.block_grid, seed & M64, 0,
        trials, model, 1, 5)
    exemplars = tuple(_replay_trial(lattice, mapping.shape, seed, i, model)
                      for i in failing)
    return SimulationStats(lattice.q, model, seed, trials, correctable,
                           failures, exemplars)

"""Interleaving of 2*q**2 stream qubits across the torus edges.

Stream positions are split into q blocks of 2q.  Block b owns both edge
slots of the q cells {c_b + k*(1, g) mod q}, the coset of c_b, the b-th
cell of the tiling shape in row-major order (c_0 = (0, 0) for the
canonical shape).  So a cell's block is its coset label's block, and the
map keeps the tiling's q-entry table `coset_blocks` for its lookups;
InterleaverMap.runs says where in the block each edge sits.  Because the
shape's cells lie in pairwise distinct cosets, any translate of the
shape touches every block in exactly one cell, so a cluster of errors
confined to one translate with at most one errored edge per cell leaves
at most one error per block -- correctable by a per-block capability of
t = 1.

The block partition depends only on the code, which the lattice alone
fixes, not on which generator enumerates it: every generating vector
spans the same subgroup, hence the same cosets.  Swapping the generator
would only reorder positions within a block, so the canonical (1, g)
layout is the one exposed.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
from math import prod
from typing import Iterator, NamedTuple, Sequence

from .lattice import SLOT_LEFT, SLOT_TOP, Cell, Edge, TorusLattice
from .tessellation import Polyomino, canonical_polyomino, coset_blocks

# the channel models simulate takes, named here so that naming one does not
# load the kernel
MODEL_ONE_PER_CELL = "one-per-cell"
MODEL_UNIFORM_CLUSTER = "uniform-cluster"


class InterleaverMap(NamedTuple("InterleaverMap", [
        ("lattice", TorusLattice), ("shape", Polyomino),
        ("blocks", tuple[int, ...])])):
    """Bijection between stream positions 0..2q**2-1 and torus edges, laid
    out by runs; blocks[L] is the block of every cell of coset label L."""

    __slots__ = ()

    def runs(self, names: Sequence | None = None
             ) -> Iterator[tuple[int, int, list, list]]:
        """The 2q runs of q stream positions in stream order, each as
        (first position, slot, x column, y column): edge `slot` of block
        b's k-th cell c_b + k*(1, g) mod q sits at 2qb + slot*q + k.

        x runs up range(q) from bx, y down it from by in steps of
        lattice.step, both sliced off one cycle.  Given q names, a
        coordinate v comes as names[v] instead."""
        q, step = self.lattice.q, self.lattice.step
        cycle = list(range(q) if names is None else names) * (step + 1)
        for b, (bx, by) in enumerate(self.shape.cells):
            xs, ys = cycle[bx:bx + q], cycle[by + step * q:by:-step]
            for slot in (SLOT_TOP, SLOT_LEFT):
                yield 2 * q * b + slot * q, slot, xs, ys

    @property
    def stream_to_edge(self) -> tuple[Edge, ...]:
        """The torus edge at each stream position."""
        return tuple(chain.from_iterable(
            map(Edge, xs, ys, repeat(slot))
            for _, slot, xs, ys in self.runs()))


def build_interleaver(
    lattice: TorusLattice, shape: Polyomino | None = None
) -> InterleaverMap:
    """Lay the 2*q**2 stream positions onto the torus edges block by block.

    The shape must be a fundamental region; the default is the canonical
    tiling shape.  Block b is the coset of the shape's cell b, so the map
    keeps the table of `coset_blocks`, whose check is the only one a shape
    gets: one that is not a fundamental region raises its ValueError.
    """
    if shape is None:
        shape = canonical_polyomino(lattice)
    return InterleaverMap(lattice, shape, coset_blocks(lattice, shape))


def deinterleave(mapping: InterleaverMap, errors) -> list[int]:
    """Per-block error counts for a set of errored edges, taken mod q."""
    q = mapping.lattice.q
    counts = [0] * q
    edges = {(x % q, y % q, slot) for x, y, slot in errors}
    for label in mapping.lattice.labels((x, y) for x, y, _ in edges):
        counts[mapping.blocks[label]] += 1
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


def burst_exhaustive_report(mapping: InterleaverMap
                            ) -> tuple[int, int, tuple[int, int, int] | None]:
    """Account for all q**2 anchors x 3**q one-edge-per-cell patterns of
    a built map's shape against its blocks, as (cases, failures,
    witness), by one product over the map's table.

    A pattern gives each cluster cell one of {0 none, 1 top, 2 left}; the
    patterns are numbered like itertools.product((0, 1, 2), repeat=q),
    cell 0 being the most significant base-3 digit.  A pattern fails when
    two errored cells share a block, so with m_b cluster cells in block b
    exactly prod(1 + 2*m_b) patterns pass.  A built map's shape is a
    fundamental region, so its cells carry the q labels once each, and as
    the label is linear, L(a + p) = L(a) + L(p) mod q, so does its
    translate at every anchor a: every anchor's m_b is the number of
    table entries naming block b, and every anchor fails alike.  The
    first failing anchor in row-major order is therefore (0, 0), where
    cell i lies in block blocks[L(cell i)], and the first failing pattern
    there errs the top edges of just the colliding pair (i, j) that
    minimises 3**(q-1-i) + 3**(q-1-j).  The witness is (0, 0,
    pattern_index), or None when every pattern passes.
    """
    lattice, table = mapping.lattice, mapping.blocks
    q = lattice.q
    total = 3 ** q
    failing = total - prod(1 + 2 * m for m in Counter(table).values())
    witness: tuple[int, int, int] | None = None
    if failing:
        blocks = [table[label]
                  for label in lattice.labels(mapping.shape.cells)]
        witness = (0, 0, min(3 ** (q - 1 - i) + 3 ** (q - 1 - j)
                             for i, j in combinations(range(q), 2)
                             if blocks[i] == blocks[j]))
    return q * q * total, q * q * failing, witness


def double_slot_uncorrectable_exhaustive(mapping: InterleaverMap) -> bool:
    """Negative control on a built map: erroring both slots of any one
    cluster cell must be reported uncorrectable, for every anchor and
    every cell of the map's shape.

    The translates of the shape cover every torus cell (each cell q
    times, once per shape cell), and a doubled cell's verdict depends on
    the cell alone, not on the anchor that put it in the cluster, so one
    pass over the q**2 cells covers every anchor.  This holds for untyped
    errors only, where a block fails on more than t = 1 errored edges.
    Decoded as a CSS code, a cell with both edges errored can still pass,
    for instance when one edge takes an X error and the other a Z
    error."""
    for x, y in mapping.lattice.cells():
        ok, _ = is_correctable(mapping, {Edge(x, y, SLOT_TOP),
                                         Edge(x, y, SLOT_LEFT)})
        if ok:
            return False
    return True


class FailureExemplar(NamedTuple):
    """A failing trial's cluster anchor and errored edges; the cluster's
    cells are cluster_cells(lattice, shape, anchor)."""

    trial: int
    anchor: Cell
    errored_edges: tuple[Edge, ...]


class SimulationStats(NamedTuple):
    q: int
    model: str
    seed: int
    trials: int
    correctable: int
    failures: int
    exemplars: tuple[FailureExemplar, ...]


def simulate(lattice: TorusLattice, trials: int, seed: int,
             model: str = MODEL_ONE_PER_CELL) -> SimulationStats:
    """Sample random cluster-error trials and count correctable ones.

    Trial i draws from its own stream of (seed, i) (see kernels), so the
    statistics do not depend on how trials are split up.  one-per-cell
    picks none/top/left uniformly per cluster cell; uniform-cluster draws
    q of the cluster's 2q edges without replacement, which can err both
    slots of one cell and thereby overflow a block.  A trial fails when a
    block gets more than t = 1 errors.  The first five failing trials are
    drawn again and placed on the cluster as exemplars.  An unknown model
    raises ValueError.
    """
    # imported here, so that only the commands that run trials load it
    from . import kernels

    if trials < 1:
        raise ValueError("trials must be >= 1")
    mapping = build_interleaver(lattice)
    # called through the module so that a tracer patching
    # toriclat.kernels.simulate_trials sees the call
    correctable, failures, failing = kernels.simulate_trials(
        mapping, seed, 0, trials, model, 1, 5)
    exemplars = tuple(
        FailureExemplar(i, *kernels.trial_errors(mapping, seed, i, model))
        for i in failing)
    return SimulationStats(lattice.q, model, seed, trials, correctable,
                           failures, exemplars)

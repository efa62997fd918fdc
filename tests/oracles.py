"""Brute-force reference implementations for the tests.

The package derives the tiling test, the generator set, the interleaver's
block grid and the burst sweep from coset labels, and its trial kernel
skips draws that cannot change a trial's outcome.  These functions get
the same answers the direct way, by enumeration or by making every draw,
so the tests can hold the fast paths to them.  The hypothesis settings
and shape strategy shared by those property tests live here too.
"""

from itertools import product

from hypothesis import settings, strategies as st

from toriclat.codes import generates_same_code
from toriclat.kernels import MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER
from toriclat.rng import stream
from toriclat.tessellation import Polyomino

# every property test replays the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def odd_q_and_polyomino(draw, q_values=range(5, 34, 2)):
    """An odd q and a q-cell polyomino grown one edge neighbour at a time."""
    q = draw(st.sampled_from(q_values))
    cells = {(0, 0)}
    while len(cells) < q:
        frontier = sorted({(x + dx, y + dy) for x, y in cells
                           for dx, dy in STEPS} - cells)
        cells.add(draw(st.sampled_from(frontier)))
    return q, Polyomino.from_cells(cells)


def fundamental_by_pairs_and_cover(code, cells):
    """(ok, witness) from the pairwise coset test, checked by exact cover.

    The witness is the first pair (cells[i], cells[j]), i < j, whose
    difference is a codeword mod q.
    """
    q = code.lattice.q
    witness = None
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            (ax, ay), (bx, by) = cells[i], cells[j]
            if code.contains(((ax - bx) % q, (ay - by) % q)):
                witness = (cells[i], cells[j])
                break
        if witness:
            break
    covered = [0] * (q * q)
    for kx, ky in code.codewords:
        for px, py in cells:
            covered[((ky + py) % q) * q + (kx + px) % q] += 1
    covers = covered == [1] * (q * q)
    assert covers == (witness is None), "coset and exact-cover checks disagree"
    return covers, witness


def block_grid_by_cover(lattice, shape):
    """Mark every codeword translate of each shape cell with its block."""
    q = lattice.q
    grid = [-1] * (q * q)
    for b, (bx, by) in enumerate(shape.cells):
        for k in range(q):
            x, y = (bx + k) % q, (by + k * lattice.g) % q
            if grid[y * q + x] != -1:
                raise ValueError(
                    "shape is not a fundamental region: blocks "
                    f"{grid[y * q + x]} and {b} collide on cell ({x}, {y})")
            grid[y * q + x] = b
    return tuple(grid)


def generators_by_span(lattice):
    """Candidates (c, g*c mod q) and (c, g*c mod q - q) that span the code."""
    q, g = lattice.q, lattice.g
    found = set()
    for c in range(-(q - 1), q):
        for d in ((g * c) % q, (g * c) % q - q):
            if c % q and d % q and generates_same_code(lattice, (c, d)):
                found.add((c, d))
    return frozenset(found)


def burst_by_enumeration(q, cells, block_grid):
    """Try every anchor and every one-edge-per-cell error pattern.

    Patterns are numbered like itertools.product((0, 1, 2), repeat=n); a
    pattern fails when two errored cells share a block.  Returns (cases,
    failures, witness) with witness (ax, ay, pattern_index) or None.
    """
    patterns = list(product((0, 1, 2), repeat=len(cells)))
    cases = failures = 0
    witness = None
    for ay in range(q):
        for ax in range(q):
            blocks = [block_grid[((ay + py) % q) * q + (ax + px) % q]
                      for px, py in cells]
            for index, pattern in enumerate(patterns):
                hit = [b for b, choice in zip(blocks, pattern) if choice]
                cases += 1
                if len(set(hit)) < len(hit):
                    failures += 1
                    if witness is None:
                        witness = (ax, ay, index)
    return cases, failures, witness


def simulate_by_streams(q, cells, block_grid, seed, start, count, model,
                        t=1, max_record=5):
    """The trial kernel's specification: every draw through rng.stream.

    Same arguments and (correctable, failures, failing) result as
    toriclat.kernels.simulate_trials.
    """
    ncells = len(cells)
    nedges = 2 * ncells
    correctable = 0
    failing = []
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
            raise ValueError(f"unknown model {model!r}")
        if max(counts) <= t:
            correctable += 1
        elif len(failing) < max_record:
            failing.append(trial)
    return correctable, count - correctable, failing

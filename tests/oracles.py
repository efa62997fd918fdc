"""Brute-force reference implementations for the tests.

The package derives the tiling test, the tiling, the generator set, the
interleaver's q-entry block table and the burst sweep from coset labels,
and its trial kernel skips draws that cannot change a trial's outcome.
These functions get the same answers the direct way, by enumeration, by
a per-cell block grid, anchor by anchor or by making every draw, so the
tests can hold the fast paths to them.  The renderers' cell-by-cell
loops are kept here too, as the reference for the row-at-a-time ones,
and a walk over edge neighbours that the polyomino's connectivity check
is held to, and the distance report taken codeword by codeword through
the lattice's reduce and mannheim_weight, which the inline one is held to.
The hypothesis settings and shape strategy shared by the property tests
live here as well.
"""

from collections import Counter
from itertools import combinations, product
from math import prod

from hypothesis import assume, settings, strategies as st

from toriclat.codes import codewords
from toriclat.distance import DistanceReport, _candidates, mannheim_weight
from toriclat.interleaving import MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER
from toriclat.kernels import M64, stream
from toriclat.lattice import TorusLattice
from toriclat.tessellation import _SYMBOLS, Polyomino

# every property test replays the same examples on every run
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def odd_q_and_polyomino(draw, q_values=range(5, 34, 2), fundamental=False):
    """An odd q and a q-cell polyomino grown one edge neighbour at a time.

    With fundamental set, each new cell takes a coset label not yet used,
    so the shape tiles the torus; a growth with no such neighbour left is
    rejected.
    """
    q = draw(st.sampled_from(q_values))
    g = TorusLattice(q).g
    cells = {(0, 0)}
    labels = {0}
    while len(cells) < q:
        frontier = sorted(
            (x, y) for x, y in {(x + dx, y + dy) for x, y in cells
                                for dx, dy in STEPS} - cells
            if not fundamental or (y - g * x) % q not in labels)
        assume(frontier)
        x, y = draw(st.sampled_from(frontier))
        cells.add((x, y))
        labels.add((y - g * x) % q)
    return q, Polyomino.from_cells(cells)


def connected_by_walk(cells):
    """Whether the cells form one edge-connected set, by a walk from the
    first cell over edge neighbours."""
    todo = {cells[0]}
    seen = set()
    members = set(cells)
    while todo:
        x, y = todo.pop()
        seen.add((x, y))
        for dx, dy in STEPS:
            nb = (x + dx, y + dy)
            if nb in members and nb not in seen:
                todo.add(nb)
    return len(seen) == len(cells)


def distance_by_reduce(lattice):
    """distance_report's specification: each nonzero codeword reduced by
    lattice.reduce, the first of least mannheim_weight taken by min."""
    nonzero = [lattice.reduce(c) for c in codewords(lattice)[1:]]
    best = min(nonzero, key=mannheim_weight)  # the first of minimal weight
    return DistanceReport(lattice.q, mannheim_weight(best), best,
                          _candidates(lattice))


def fundamental_by_pairs_and_cover(lattice, cells):
    """(ok, witness) from the pairwise coset test, checked by exact cover.

    The witness is the first pair (cells[i], cells[j]), i < j, whose
    difference is a codeword mod q.
    """
    q = lattice.q
    code = codewords(lattice)
    members = set(code)
    witness = None
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            (ax, ay), (bx, by) = cells[i], cells[j]
            if ((ax - bx) % q, (ay - by) % q) in members:
                witness = (cells[i], cells[j])
                break
        if witness:
            break
    covered = [0] * (q * q)
    for kx, ky in code:
        for px, py in cells:
            covered[((ky + py) % q) * q + (kx + px) % q] += 1
    covers = covered == [1] * (q * q)
    assert covers == (witness is None), "coset and exact-cover checks disagree"
    return covers, witness


def tiling_by_translates(lattice, shape):
    """Mark every codeword translate of the shape with its anchor index."""
    q = lattice.q
    assign = [-1] * (q * q)
    for k, (kx, ky) in enumerate(codewords(lattice)):
        for px, py in shape.cells:
            assign[((ky + py) % q) * q + (kx + px) % q] = k
    return tuple(assign)


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


def block_grid_by_labels(lattice, shape):
    """The block of each cell's coset label (y - g*x) mod q, one label per
    cell, written out here so that it does not rest on the lattice's own."""
    q, g = lattice.q, lattice.g
    block_of_label = {(by - g * bx) % q: b
                      for b, (bx, by) in enumerate(shape.cells)}
    return tuple(block_of_label[(y - g * x) % q] for x, y in lattice.cells())


def grid_of(mapping):
    """The per-cell block grid, grid[y*q + x], of a map's q-entry table:
    each cell's block is the block of its label (y - g*x) mod q."""
    q, g = mapping.lattice.q, mapping.lattice.g
    return tuple(mapping.blocks[(y - g * x) % q]
                 for y in range(q) for x in range(q))


def edge_block(mapping, edge):
    """The block of an edge's cell, its label (y - g*x) mod q taking the
    coordinates mod q."""
    q, g = mapping.lattice.q, mapping.lattice.g
    return mapping.blocks[(edge.y - g * edge.x) % q]


def generates_same_code(lattice, vec):
    """True when the mod-q multiples of vec give exactly the code's cells."""
    q = lattice.q
    span = {((k * vec[0]) % q, (k * vec[1]) % q) for k in range(q)}
    return span == set(codewords(lattice))


def generators_by_span(lattice):
    """Candidates (c, g*c mod q) and (c, g*c mod q - q) that span the code."""
    q, g = lattice.q, lattice.g
    found = set()
    for c in range(-(q - 1), q):
        for d in ((g * c) % q, (g * c) % q - q):
            if c % q and d % q and generates_same_code(lattice, (c, d)):
                found.add((c, d))
    return frozenset(found)


def cluster_blocks(mapping, ax, ay):
    """The block of each shape cell's translate by (ax, ay), in shape
    order: the label is linear, so L(a + p) = L(a) + L(p) mod q."""
    q, blocks = mapping.lattice.q, mapping.blocks
    shift = mapping.lattice.labels([(ax, ay)])[0]
    return [blocks[(shift + label) % q]
            for label in mapping.lattice.labels(mapping.shape.cells)]


def burst_by_anchors(mapping):
    """burst_exhaustive_report's count taken anchor by anchor: prod(1 +
    2*m_b) patterns pass at an anchor whose cluster has m_b cells in
    block b, and the witness is the first failing anchor in row-major
    order with its least pattern index, that of the colliding pair (i, j)
    minimising 3**(n-1-i) + 3**(n-1-j)."""
    q, n = mapping.lattice.q, len(mapping.shape.cells)
    total = 3 ** n
    failures = 0
    witness = None
    for ay in range(q):
        for ax in range(q):
            blocks = cluster_blocks(mapping, ax, ay)
            passing = prod(1 + 2 * m for m in Counter(blocks).values())
            failures += total - passing
            if passing < total and witness is None:
                witness = (ax, ay, min(
                    3 ** (n - 1 - i) + 3 ** (n - 1 - j)
                    for i, j in combinations(range(n), 2)
                    if blocks[i] == blocks[j]))
    return q * q * total, failures, witness


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


def _unxorshift(y, shift):
    """The x with x ^ (x >> shift) == y; each pass fixes shift more bits."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def unmix64(z):
    """The inverse of toriclat.kernels.mix64: its steps undone in reverse."""
    z = _unxorshift(z & M64, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & M64
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & M64
    return _unxorshift(z, 30)


def simulate_by_streams(mapping, seed, start, count, model, t=1,
                        max_record=5):
    """The trial kernel's specification: every draw through kernels.stream.

    Same arguments and (correctable, failures, failing) result as
    toriclat.kernels.simulate_trials.
    """
    q, cells, block_grid = (mapping.lattice.q, mapping.shape.cells,
                            grid_of(mapping))
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


def ascii_by_cells(tiling):
    """render_ascii's specification: one formatted label per cell."""
    q = tiling.lattice.q
    rows = []
    if q <= len(_SYMBOLS):
        for y in range(q):
            rows.append("".join(_SYMBOLS[tiling.cell_to_anchor[y * q + x]]
                                for x in range(q)))
    else:
        width = len(str(q - 1))
        for y in range(q):
            rows.append(" ".join(f"{tiling.cell_to_anchor[y * q + x]:>{width}}"
                                 for x in range(q)))
    return "\n".join(rows) + "\n"


def svg_by_cells(tiling):
    """The specification of render_svg and of svg_rows joined: one
    formatted rect per cell."""
    q = tiling.lattice.q
    s = 24
    side = q * s
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {side} {side}">'
    ]
    for y in range(q):
        for x in range(q):
            anchor = tiling.cell_to_anchor[y * q + x]
            hue = (360 * anchor) // q
            parts.append(
                f'<rect x="{x * s}" y="{y * s}" width="{s}" height="{s}" '
                f'fill="hsl({hue},65%,72%)" stroke="black" stroke-width="1"/>')
    pad = s // 4
    for kx, ky in codewords(tiling.lattice):
        x0, y0 = kx * s + pad, ky * s + pad
        x1, y1 = (kx + 1) * s - pad, (ky + 1) * s - pad
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
                     f'stroke="black" stroke-width="2"/>')
        parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y0}" '
                     f'stroke="black" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

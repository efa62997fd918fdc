"""Brute-force reference implementations for the tests.

The package derives the tiling test, the tiling, the generator set, the
interleaver's block grid and the burst sweep from coset labels, and its
trial kernel skips draws that cannot change a trial's outcome.  These
functions get the same answers the direct way, by enumeration or by
making every draw, so the tests can hold the fast paths to them.  The
renderers' cell-by-cell loops are kept here too, as the reference for
the row-at-a-time ones.  The hypothesis settings and shape strategy
shared by the property tests live here as well.
"""

from itertools import product

from hypothesis import assume, settings, strategies as st

from toriclat.codes import codewords
from toriclat.kernels import MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER
from toriclat.lattice import TorusLattice, coset_label
from toriclat.rng import stream
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
            if not fundamental or coset_label(q, g, x, y) not in labels)
        assume(frontier)
        x, y = draw(st.sampled_from(frontier))
        cells.add((x, y))
        labels.add(coset_label(q, g, x, y))
    return q, Polyomino.from_cells(cells)


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
    """The block of each cell's coset label, one label per cell."""
    q, g = lattice.q, lattice.g
    block_of_label = {coset_label(q, g, bx, by): b
                      for b, (bx, by) in enumerate(shape.cells)}
    return tuple(block_of_label[coset_label(q, g, x, y)]
                 for x, y in lattice.cells())


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


def svg_by_cells(tiling, cell_size=24):
    """The specification of render_svg and of svg_rows joined: one
    formatted rect per cell."""
    q = tiling.lattice.q
    s = cell_size
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

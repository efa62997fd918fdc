"""Polyomino fundamental regions and the coset decomposition they give.

A polyomino with q cells tiles the torus under translation by the q
codewords exactly when its cells lie in pairwise distinct cosets of the
code, i.e. when their q coset labels are distinct; the lattice gives
the labels and their step, so the lattice names the code.  Every torus
cell then lies in the coset of the shape cell with its label
(`coset_blocks`, a q-entry table), which gives both the tiling and the
interleaver's blocks.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Iterable, Iterator, NamedTuple

from .codes import codewords
from .lattice import Cell, TorusLattice


class Polyomino(NamedTuple("Polyomino", [("cells", tuple[Cell, ...])])):
    """An edge-connected set of cell offsets, normalized to the corner.

    Cells have min x = min y = 0 and keep the order they are given in,
    which is the block order of an interleaver built on the shape;
    from_cells sorts them row-major.  The origin itself need not be a
    cell (the radius-1 Lee sphere has none at its bounding-box corner).
    """

    __slots__ = ()

    def __new__(cls, cells: Iterable[Cell]) -> Polyomino:
        """The shape of the normalized cells, each kept as a pair of ints;
        a coordinate that is not an integer (a float, a str) raises
        TypeError."""
        cells = tuple((index(x), index(y)) for x, y in cells)
        if not cells:
            raise ValueError("polyomino needs at least one cell")
        if len(set(cells)) != len(cells):
            raise ValueError("duplicate cells")
        if min(x for x, _ in cells) != 0 or min(y for _, y in cells) != 0:
            raise ValueError("cells must be normalized; use Polyomino.from_cells")
        if not _connected(cells):
            raise ValueError("cells must form one edge-connected component")
        return super().__new__(cls, cells)

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Polyomino":
        """Normalize arbitrary integer offsets and sort them row-major; a
        repeated cell raises ValueError and a coordinate that is not an
        integer (a float, a str) TypeError."""
        pts: set[Cell] = set()
        for x, y in cells:
            cell = (index(x), index(y))
            if cell in pts:
                raise ValueError(f"duplicate cell {cell}")
            pts.add(cell)
        if not pts:
            raise ValueError("polyomino needs at least one cell")
        min_x = min(x for x, _ in pts)
        min_y = min(y for _, y in pts)
        shifted = sorted(((x - min_x, y - min_y) for x, y in pts),
                         key=lambda c: (c[1], c[0]))
        return cls(tuple(shifted))

    @property
    def area(self) -> int:
        return len(self.cells)


def _connected(cells: tuple[Cell, ...]) -> bool:
    """Whether the cells form one edge-connected set: a walk from any cell
    over edge neighbours removes from the set every cell it reaches."""
    todo = set(cells)
    stack = [todo.pop()]
    while stack:
        x, y = stack.pop()
        for cell in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if cell in todo:
                todo.remove(cell)
                stack.append(cell)
    return not todo


def canonical_polyomino(lattice: TorusLattice) -> Polyomino:
    """The q-cell tiling shape for the code on the given lattice, built
    normalized and row-major, so block b of the interleaver is cell b.

    For n >= 3 it is a (q'+1)-wide block, the lattice's step s tall, plus
    a one-wide strip of height r in column q'+1, where g = s*q' + r; its
    labels j + s*i run through 0..q-1 once for any 0 < g < q.  For q = 5
    it is the 2x2 square plus a single cell; the extra cell attaches at
    (2, 1), since placing it at (2, 0) would put two cells a codeword
    apart ((2,0) - (0,1) = (2,-1), which marks a region anchor).  It is
    not checked here: `coset_blocks` checks every shape on its way into a
    tiling or an interleaver, and `verify --scope tiling` checks these.
    """
    if lattice.q == 5:
        return Polyomino(((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)))
    q_prime, r = divmod(lattice.g, lattice.step)
    return Polyomino(tuple((i, j) for j in range(lattice.step)
                           for i in range(q_prime + 1 + (j < r))))


def lee_sphere() -> Polyomino:
    """The radius-1 Lee sphere (plus-shape); the alternate q = 5 tile."""
    return Polyomino.from_cells([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])


def is_fundamental_region(
    lattice: TorusLattice, shape: "Polyomino | Iterable[Cell]"
) -> tuple[bool, tuple[Cell, Cell] | None]:
    """Whether codeword translates of the shape tile the torus exactly.

    Accepts a Polyomino or any iterable of q cells (the test is
    translation-invariant and does not need connectivity).  Returns
    (ok, witness); on failure the witness is the first pair of shape
    cells (i < j, in lexicographic order of (i, j) over the cells in the
    caller's order) that share a coset, a repeated cell being such a pair.
    """
    cells = shape.cells if isinstance(shape, Polyomino) else tuple(shape)
    q = lattice.q
    if len(cells) != q:
        raise ValueError(f"shape has {len(cells)} cells, expected q={q}")
    labels = lattice.labels(cells)
    first: dict[int, int] = {}
    for j, label in enumerate(labels):
        first.setdefault(label, j)
    if len(first) == q:
        return True, None
    # the first cell with a later partner is the first of its label, and
    # its earliest partner is that label's second cell
    i, j = min((first[label], j) for j, label in enumerate(labels)
               if first[label] != j)
    return False, (cells[i], cells[j])


class Tiling(NamedTuple):
    """Assignment of every lattice cell to the region anchored at a
    codeword: cell_to_anchor[y*q + x] = k names codewords(lattice)[k]."""

    lattice: TorusLattice
    shape: Polyomino
    cell_to_anchor: tuple[int, ...]


def coset_blocks(lattice: TorusLattice, shape: Polyomino) -> tuple[int, ...]:
    """blocks[L], the index of the shape cell of label L, whose coset holds
    every cell of label L.  Making it is the check every shape gets on its
    way into a tiling or an interleaver: one that is not a fundamental
    region raises ValueError naming two of its cells in one coset."""
    ok, witness = is_fundamental_region(lattice, shape)
    if not ok:
        raise ValueError(
            f"shape is not a fundamental region: cells {witness[0]} and "
            f"{witness[1]} lie in the same coset")
    blocks = [0] * lattice.q
    for b, label in enumerate(lattice.labels(shape.cells)):
        blocks[label] = b
    return tuple(blocks)


class Grid:
    """A q x q grid's values, whose length tuple() reads to allocate the
    grid whole first: one too large for memory fails before a cell."""

    def __init__(self, q: int, values: Iterable[int]) -> None:
        self.size, self.values = q * q, values

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


def tessellate(lattice: TorusLattice, shape: Polyomino) -> Tiling:
    """Tile the torus by the shape; every cell gets a unique anchor index.

    A cell in the coset of shape cell (px, py) is that cell moved by the
    codeword k*(1, g) in column k = (x - px) mod q, its anchor index.  So
    the tiling is invariant under the generator: the cell c + (1, g) lies
    in the next translate, and with s the lattice's step row y is row
    y - s moved one column left, every anchor less one mod q.  The
    first s rows are computed cell by cell, row y's shape cells being
    every s-th entry of coset_blocks from label y on; each later row
    comes from the row s above it, and only the last s rows are held.
    """
    q, step = lattice.q, lattice.step
    cycle = coset_blocks(lattice, shape) * (step + 1)  # checks the shape
    px = [x for x, _ in shape.cells]
    ks = list(range(q))  # one shared int object per anchor
    less_one = ks[-1:] + ks[:-1]  # less_one[k] = (k - 1) mod q

    def anchor_rows() -> Iterator[list[int]]:
        held = [[ks[(x - px[b]) % q]
                 for x, b in enumerate(cycle[y:y + step * q:step])]
                for y in range(step)]
        yield from held
        for y in range(step, q):
            before = held[y % step]
            held[y % step] = row = [*map(less_one.__getitem__, before[1:]),
                                    less_one[before[0]]]
            yield row

    return Tiling(lattice, shape,
                  tuple(Grid(q, chain.from_iterable(anchor_rows()))))


_SYMBOLS = "0123456789abcdefghijklmnopqrstuvwxyz"


def render_ascii(tiling: Tiling) -> str:
    """Character grid of anchor indices, one row per lattice row.

    With at most 36 anchors a cell is one symbol; past that, it is its
    right-aligned anchor number, the q labels being formatted once.
    """
    q = tiling.lattice.q
    if q <= len(_SYMBOLS):
        labels, sep = _SYMBOLS, ""
    else:
        width = len(str(q - 1))
        labels, sep = [f"{a:>{width}}" for a in range(q)], " "
    anchors = tiling.cell_to_anchor
    return "".join(
        sep.join(map(labels.__getitem__, anchors[y * q:(y + 1) * q])) + "\n"
        for y in range(q))


# the side of each cell's square in the SVG, in user units
CELL_SIZE = 24


def svg_rows(tiling: Tiling) -> Iterator[str]:
    """The SVG of render_svg as pieces, each ending in a newline, made as
    they are read: the header, the rects of each lattice row, one piece
    per anchor line and the closing tag.  Only the piece in hand is held.

    A row's rects are one join over a slot list of each cell's head, y
    and tail: the per-column heads are filled once, and each row sets its
    y and its per-anchor tails (each formatted once) by slice assignment.
    """
    q = tiling.lattice.q
    s = CELL_SIZE
    side = q * s
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
           f'height="{side}" viewBox="0 0 {side} {side}">\n')
    tails = [f'" width="{s}" height="{s}" fill="hsl({(360 * a) // q},65%,72%)"'
             ' stroke="black" stroke-width="1"/>\n' for a in range(q)]
    rects = [""] * (3 * q)
    rects[0::3] = [f'<rect x="{x * s}" y="' for x in range(q)]
    anchors = tiling.cell_to_anchor
    for y in range(q):
        rects[1::3] = [str(y * s)] * q
        rects[2::3] = map(tails.__getitem__, anchors[y * q:(y + 1) * q])
        yield "".join(rects)
    pad = s // 4
    for kx, ky in codewords(tiling.lattice):
        x0, y0 = kx * s + pad, ky * s + pad
        x1, y1 = (kx + 1) * s - pad, (ky + 1) * s - pad
        yield (f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
               f'stroke="black" stroke-width="2"/>\n')
        yield (f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y0}" '
               f'stroke="black" stroke-width="2"/>\n')
    yield "</svg>\n"


def render_svg(tiling: Tiling) -> str:
    """SVG with one unit square per cell, colored by anchor, X on anchors;
    the pieces of svg_rows joined."""
    return "".join(svg_rows(tiling))

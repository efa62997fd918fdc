"""Polyomino fundamental regions and the coset decomposition they give.

A polyomino with q cells tiles the torus under translation by the q
codewords exactly when its cells lie in pairwise distinct cosets of the
code, i.e. when their q coset labels are distinct; the lattice's q and
g fix the labels, so the lattice names the code.  Every torus cell then
lies in the coset of one shape cell (`coset_rows`), which gives both
the tiling and the interleaver's block grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .codes import codewords
from .lattice import Cell, TorusLattice, coset_label


@dataclass(frozen=True)
class Polyomino:
    """An edge-connected set of cell offsets, normalized to the corner.

    Cells are stored sorted row-major with min x = min y = 0.  The origin
    itself need not be a cell (the radius-1 Lee sphere has none at its
    bounding-box corner).
    """

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("polyomino needs at least one cell")
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("duplicate cells")
        if min(x for x, _ in self.cells) != 0 or min(y for _, y in self.cells) != 0:
            raise ValueError("cells must be normalized; use Polyomino.from_cells")
        if not _connected(self.cells):
            raise ValueError("cells must form one edge-connected component")

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Polyomino":
        """Normalize arbitrary integer offsets and sort them row-major; a
        repeated cell raises ValueError."""
        pts: set[Cell] = set()
        for x, y in cells:
            cell = (int(x), int(y))
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
    todo = {cells[0]}
    seen: set[Cell] = set()
    members = set(cells)
    while todo:
        x, y = todo.pop()
        seen.add((x, y))
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in members and nb not in seen:
                todo.add(nb)
    return len(seen) == len(cells)


def canonical_polyomino(lattice: TorusLattice) -> Polyomino:
    """The q-cell tiling shape for the code on the given lattice.

    For n >= 3 it is a (q'+1)-wide, 3-tall block plus a one-wide strip of
    height r in column q'+1, where g = 3*q' + r.  For q = 5 it is the 2x2
    square plus a single cell; the extra cell attaches at (2, 1), since
    placing it at (2, 0) would put two cells a codeword apart
    ((2,0) - (0,1) = (2,-1), which marks a region anchor).
    """
    q = lattice.q
    if q == 5:
        cells = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    else:
        q_prime, r = divmod(lattice.g, 3)
        cells = [(i, j) for i in range(q_prime + 1) for j in range(3)]
        cells += [(q_prime + 1, j) for j in range(r)]
    shape = Polyomino.from_cells(cells)
    ok, witness = is_fundamental_region(lattice, shape)
    if not ok:
        raise RuntimeError(
            f"internal error: canonical shape for q={q} is not a fundamental "
            f"region (witness {witness})")
    return shape


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
    labels = [coset_label(q, lattice.g, x, y) for x, y in cells]
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


@dataclass(frozen=True)
class Tiling:
    """Assignment of every lattice cell to the region anchored at a
    codeword: cell_to_anchor[y*q + x] = k names codewords(lattice)[k]."""

    lattice: TorusLattice
    shape: Polyomino
    cell_to_anchor: tuple[int, ...]


def coset_rows(lattice: TorusLattice, shape: Polyomino) -> Iterator[list[int]]:
    """Row by row, the index of the shape cell whose coset holds each cell.

    A shape that is not a fundamental region raises ValueError naming two
    of its cells in one coset.  Along a row the label L(x, y) = (y - g*x)
    mod q steps by -g mod q, so row y is every such step of the
    label-indexed owners from label y on; the rows share their ints.
    """
    ok, witness = is_fundamental_region(lattice, shape)
    if not ok:
        raise ValueError(
            f"shape is not a fundamental region: cells {witness[0]} and "
            f"{witness[1]} lie in the same coset")
    q, g = lattice.q, lattice.g
    owner = [0] * q
    for b, (bx, by) in enumerate(shape.cells):
        owner[coset_label(q, g, bx, by)] = b
    step = -g % q  # 3, as g = q - 3
    cycle = owner * (step + 1)
    return (cycle[y:y + step * q:step] for y in range(q))


def tessellate(lattice: TorusLattice, shape: Polyomino) -> Tiling:
    """Tile the torus by the shape; every cell gets a unique anchor index.

    A cell in the coset of shape cell (px, py) is that cell moved by the
    codeword k*(1, g) in column k = (x - px) mod q, its anchor index.
    """
    q = lattice.q
    px = [x for x, _ in shape.cells]
    ks = list(range(q))  # one shared int object per anchor
    assign = tuple(ks[(x - px[b]) % q] for row in coset_rows(lattice, shape)
                   for x, b in enumerate(row))
    return Tiling(lattice, shape, assign)


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


def svg_rows(tiling: Tiling, cell_size: int = 24) -> list[str]:
    """The SVG of render_svg as pieces, each ending in a newline: the
    header, the rects of each lattice row, one piece per anchor line and
    the closing tag.

    A cell's rect is a per-column head, the row's y and a per-anchor
    tail, each formatted once.
    """
    q = tiling.lattice.q
    s = cell_size
    side = q * s
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {side} {side}">\n'
    ]
    heads = [f'<rect x="{x * s}" y="' for x in range(q)]
    tails = [f'" width="{s}" height="{s}" fill="hsl({(360 * a) // q},65%,72%)"'
             ' stroke="black" stroke-width="1"/>\n' for a in range(q)]
    anchors = tiling.cell_to_anchor
    for y in range(q):
        ys = str(y * s)
        parts.append("".join([head + ys + tail for head, tail in zip(
            heads, map(tails.__getitem__, anchors[y * q:(y + 1) * q]))]))
    pad = s // 4
    for kx, ky in codewords(tiling.lattice):
        x0, y0 = kx * s + pad, ky * s + pad
        x1, y1 = (kx + 1) * s - pad, (ky + 1) * s - pad
        parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
                     f'stroke="black" stroke-width="2"/>\n')
        parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y0}" '
                     f'stroke="black" stroke-width="2"/>\n')
    parts.append("</svg>\n")
    return parts


def render_svg(tiling: Tiling, cell_size: int = 24) -> str:
    """SVG with one unit square per cell, colored by anchor, X on anchors;
    the pieces of svg_rows joined."""
    return "".join(svg_rows(tiling, cell_size))

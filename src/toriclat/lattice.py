"""Torus lattice geometry: cells, signed lattice vectors, and edge qubits.

The q x q grid (q odd, q >= 5) is glued into a torus.  x is the column
index and increases rightward, y is the row index and increases
downward, both taken modulo q.  Every cell owns two of the grid's edges,
its top edge (slot 0) and its left edge (slot 1), so the torus carries
exactly 2*q**2 edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

Cell = tuple[int, int]
Vector = tuple[int, int]

SLOT_TOP = 0
SLOT_LEFT = 1


class Edge(NamedTuple):
    x: int
    y: int
    slot: int


def symmetric_residue(v: int, q: int) -> int:
    """Reduce v modulo q into the symmetric range [-(q-1)/2, (q-1)/2]."""
    half = (q - 1) // 2
    return (v + half) % q - half


def coset_label(q: int, g: int, x: int, y: int) -> int:
    """Which coset of the code <(1, g)> holds the cell (x, y).

    (x, y) - (x', y') is a multiple of (1, g) mod q exactly when
    y - g*x = y' - g*x' mod q, so two cells share a coset exactly when
    their labels are equal, and the q labels name the q cosets.
    """
    return (y - g * x) % q


@dataclass(frozen=True)
class TorusLattice:
    """The q x q cell grid with torus wraparound, q = 2n+1 and n >= 2."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 5 or self.q % 2 == 0:
            raise ValueError(f"q must be odd and >= 5, got {self.q}")

    @property
    def n(self) -> int:
        return (self.q - 1) // 2

    @property
    def g(self) -> int:
        # the generator slope 2*(n-1), equivalently q - 3
        return self.q - 3

    @property
    def generator(self) -> Vector:
        return (1, self.g)

    def cells(self) -> Iterator[Cell]:
        """All q**2 cells in row-major order."""
        q = self.q
        return ((x, y) for y in range(q) for x in range(q))

    def translate(self, cell: Cell, vec: Vector) -> Cell:
        """Move a cell by a signed vector, wrapping around the torus."""
        q = self.q
        return ((cell[0] + vec[0]) % q, (cell[1] + vec[1]) % q)

    def reduce(self, vec: Vector) -> Vector:
        """Symmetric-residue form of a vector, component by component."""
        return (symmetric_residue(vec[0], self.q), symmetric_residue(vec[1], self.q))

"""The cyclic code on the q x q grid, its generator vectors, and
classification helpers.

The code is the order-q subgroup of Z_q x Z_q spanned by (1, g) with
g = 2*(n-1); its elements mark the cells where tiling regions are
anchored.  A signed pair (c, d) is an alternative generator exactly when
d is congruent to g*c modulo q and c is a unit modulo q: then (c, d) is
c times (1, g), whose multiples run through the whole subgroup.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .lattice import Cell, TorusLattice, Vector


class GeneratorSet(NamedTuple):
    """All signed vectors generating the same code as (1, g)."""

    lattice: TorusLattice
    vectors: frozenset[Vector]


def codewords(lattice: TorusLattice) -> tuple[Cell, ...]:
    """The q multiples k*(1, g) mod q, k = 0..q-1; one in every column."""
    q, g = lattice.q, lattice.g
    return tuple((k, (k * g) % q) for k in range(q))


def generator_set(lattice: TorusLattice) -> GeneratorSet:
    """Every generating pair (c, d) with components in +-{1..q-1}.

    These are (c, g*c mod q) and (c, g*c mod q - q) for each c coprime
    to q.  Coprimality is what makes the multiples span the whole code:
    at q = 15 the pair (3, 6) has d = g*c mod q yet spans only a subgroup
    of order 5.  Neither component can vanish, since g*c = -3c mod q and
    q does not divide 3.
    """
    q, g = lattice.q, lattice.g
    vectors: set[Vector] = set()
    for c in range(-(q - 1), q):
        if gcd(c, q) == 1:
            d = (g * c) % q
            vectors.update(((c, d), (c, d - q)))
    return GeneratorSet(lattice, frozenset(vectors))


def is_perfect(lattice: TorusLattice) -> bool:
    """Exactly one codeword in every row and in every column of the grid."""
    cw = codewords(lattice)
    q = lattice.q
    return len({x for x, _ in cw}) == q and len({y for _, y in cw}) == q


def is_sum_of_two_squares(q: int) -> tuple[bool, tuple[int, int] | None]:
    """Whether x**2 + y**2 = q is solvable in integers, with a witness.

    Searches the smallest positive x; y = 0 is allowed (9 = 3**2 + 0**2).
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    for x in range(1, isqrt(q) + 1):
        rem = q - x * x
        y = isqrt(rem)
        if y * y == rem:
            return True, (x, y)
    return False, None


def verify_determinant(lattice: TorusLattice, vec: Vector) -> int:
    """Determinant of the 2x2 integer matrix with rows vec and (1, g).

    A pair from the generator procedure always makes this a multiple of q.
    """
    return vec[0] * lattice.g - vec[1]

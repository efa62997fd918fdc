"""Mannheim-metric minimum distance of the code.

Provides the brute-force oracle (minimum weight over the nonzero
codewords in symmetric-residue form), the closed form (3 for n in
{2, 3, 4}, else 4), and the minimal vertical/horizontal move vectors
whose weights realize the minimum for n >= 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import codewords
from .lattice import TorusLattice, Vector

#: Generates the code for every n >= 2: det((1,-3),(1,g)) = g + 3 = q.
VERTICAL_MOVE: Vector = (1, -3)


def mannheim_weight(vec: Vector) -> int:
    """|dx| + |dy| of the vector exactly as given, no reduction."""
    return abs(vec[0]) + abs(vec[1])


class DistanceReport(NamedTuple):
    """Minimum distance together with how it was achieved.

    achieving_vector is the first minimal-weight nonzero codeword in the
    k*(1, g) enumeration, in symmetric-residue form.  candidate_weights
    holds the vertical move vector (1, -3) and, for n >= 3, the
    horizontal move vector (q'+1, r).
    """

    q: int
    distance: int
    achieving_vector: Vector
    candidate_weights: tuple[tuple[Vector, int], ...]


def move_vectors(lattice: TorusLattice) -> tuple[Vector, Vector]:
    """The (vertical, horizontal) move vectors (1, -3) and (q'+1, r).

    q' and r split the slope as g = 3*q' + r with 0 <= r <= 2.  Requires
    n >= 3; at n = 2 there is no horizontal move vector.
    """
    if lattice.n < 3:
        raise ValueError(f"horizontal move vector needs n >= 3, got n={lattice.n}")
    q_prime, r = divmod(lattice.g, 3)
    return VERTICAL_MOVE, (q_prime + 1, r)


def _candidates(lattice: TorusLattice) -> tuple[tuple[Vector, int], ...]:
    cands = [(VERTICAL_MOVE, mannheim_weight(VERTICAL_MOVE))]
    if lattice.n >= 3:
        _, horizontal = move_vectors(lattice)
        cands.append((horizontal, mannheim_weight(horizontal)))
    return tuple(cands)


def min_distance_closed_form(lattice: TorusLattice) -> int:
    """3 for n in {2, 3, 4}, and 4 for every n >= 5."""
    return 3 if lattice.n <= 4 else 4


def distance_report(lattice: TorusLattice) -> DistanceReport:
    """Brute force: the minimum Mannheim weight over the q-1 nonzero
    codewords of the canonical code, each in symmetric-residue form."""
    nonzero = [lattice.reduce(c) for c in codewords(lattice)[1:]]
    best = min(nonzero, key=mannheim_weight)  # the first of minimal weight
    return DistanceReport(lattice.q, mannheim_weight(best), best,
                          _candidates(lattice))

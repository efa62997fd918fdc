"""Mannheim-metric minimum distance of the code.

Provides the brute-force oracle (minimum weight over the nonzero
codewords in symmetric-residue form), the closed form (3 for n in
{2, 3, 4}, else 4), the minimal vertical/horizontal move vectors
whose weights realize the minimum for n >= 3, and `claim_failure`, the
one check of the distance claim that `distance` and `verify` apply.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import TorusLattice, Vector

def mannheim_weight(vec: Vector) -> int:
    """|dx| + |dy| of the vector exactly as given, no reduction."""
    return abs(vec[0]) + abs(vec[1])


class DistanceReport(NamedTuple):
    """Minimum distance together with how it was achieved.

    achieving_vector is the first minimal-weight nonzero codeword in the
    k*(1, g) enumeration, in symmetric-residue form.  candidate_weights
    holds the vertical move vector (1, -s) and, for n >= 3, the
    horizontal move vector (q'+1, r), s being the lattice's step.
    """

    q: int
    distance: int
    achieving_vector: Vector
    candidate_weights: tuple[tuple[Vector, int], ...]


def move_vectors(lattice: TorusLattice) -> tuple[Vector, Vector]:
    """The (vertical, horizontal) move vectors (1, -s) and (q'+1, r).

    s is the lattice's step, -g mod q; the vertical move generates the
    code for every n >= 2, as det((1, -s), (1, g)) = g + s = q.  q' and r
    split the slope as g = s*q' + r with 0 <= r < s.  Requires n >= 3; at
    n = 2 there is no horizontal move vector.
    """
    if lattice.n < 3:
        raise ValueError(f"horizontal move vector needs n >= 3, got n={lattice.n}")
    return tuple(vec for vec, _ in _candidates(lattice))


def _candidates(lattice: TorusLattice) -> tuple[tuple[Vector, int], ...]:
    """Each move vector with its weight: the horizontal one for n >= 3."""
    step = lattice.step
    q_prime, r = divmod(lattice.g, step)
    moves = ((1, -step), (q_prime + 1, r)) if lattice.n >= 3 else ((1, -step),)
    return tuple((vec, mannheim_weight(vec)) for vec in moves)


def min_distance_closed_form(lattice: TorusLattice) -> int:
    """3 for n in {2, 3, 4}, and 4 for every n >= 5."""
    return 3 if lattice.n <= 4 else 4


def distance_report(lattice: TorusLattice) -> DistanceReport:
    """Brute force: the minimum Mannheim weight over the q-1 nonzero
    codewords k*(1, g) mod q, k = 1..q-1, each in symmetric-residue form,
    v -> (v + h) % q - h with h = (q-1)/2, reduced and weighed inline."""
    q, g, h = lattice.q, lattice.g, lattice.n
    nonzero = [((k + h) % q - h, (k * g + h) % q - h) for k in range(1, q)]
    weights = [abs(x) + abs(y) for x, y in nonzero]
    distance = min(weights)
    # index finds the first of minimal weight
    return DistanceReport(q, distance, nonzero[weights.index(distance)],
                          _candidates(lattice))


def claim_failure(report: DistanceReport, closed: int) -> str | None:
    """What fails of the distance claim, or None: the brute-force distance
    must equal the closed form and, for n >= 3, the lightest move vector
    must weigh the distance."""
    least = min(w for _, w in report.candidate_weights)
    if report.distance != closed:
        return f"brute {report.distance} != closed {closed}"
    if TorusLattice(report.q).n >= 3 and least != report.distance:
        return f"move-vector minimum {least} != distance {report.distance}"
    return None

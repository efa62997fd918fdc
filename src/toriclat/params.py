"""Code parameters, rates, and gains for the four code families compared.

All rates and gains are exact rationals; decimals appear only at output
boundaries.  Printed gain tables list the raw ratio (k/n)*(t+1); the
honest decibel value 10*log10(G) is exposed separately as gain_db.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .distance import min_distance_closed_form
from .lattice import TorusLattice

FAMILY_TORIC = "toric"
FAMILY_INTERLEAVED = "interleaved"
FAMILY_KITAEV = "kitaev"
FAMILY_BMD = "bmd"


class CodeParams(NamedTuple("CodeParams", [
        ("family", str), ("n", int), ("k", int), ("d", int | None),
        ("t", int)])):
    """An [[n, k, d]] (or [[n, k, t]]) descriptor; d may be unset when the
    family is specified directly by its correction capability t."""

    __slots__ = ()

    def __new__(cls, family: str, n: int, k: int, d: int | None,
                t: int) -> CodeParams:
        if n <= k:
            raise ValueError("n must exceed k")
        if d is not None and t != (d - 1) // 2:
            raise ValueError(f"t={t} inconsistent with d={d}")
        return super().__new__(cls, family, n, k, d, t)

    @property
    def rate(self) -> Fraction:
        """R = k/n, exact."""
        return Fraction(self.k, self.n)

    @property
    def gain(self) -> Fraction:
        """G = (k/n)*(t+1), exact."""
        return Fraction(self.k * (self.t + 1), self.n)

    @property
    def gain_db(self) -> float:
        if value := float(self.gain):
            return 10.0 * math.log10(value)
        # past n = 10^324 the gain underflows a float; log10 takes any int
        return 10.0 * (math.log10(self.k * (self.t + 1)) - math.log10(self.n))


def toric_code_params(lattice: TorusLattice) -> CodeParams:
    """[[2q, 2, d]] with d = 3 for n in {2,3,4} and d = 4 for n >= 5."""
    d = min_distance_closed_form(lattice)
    return CodeParams(FAMILY_TORIC, 2 * lattice.q, 2, d, (d - 1) // 2)


def interleaved_params(lattice: TorusLattice) -> CodeParams:
    """[[2q**2, 2q, t = q]]: q interleaved copies of the [[2q, 2, t=1]] code."""
    q = lattice.q
    return CodeParams(FAMILY_INTERLEAVED, 2 * q * q, 2 * q, None, q)


def kitaev_params(q: int) -> CodeParams:
    """[[2q**2, 2, q]] on the q x q torus, for the q TorusLattice takes."""
    q = TorusLattice(q).q
    return CodeParams(FAMILY_KITAEV, 2 * q * q, 2, q, (q - 1) // 2)


def bmd_params(r: int) -> CodeParams:
    """[[2m, 2, 2r+1]] with m = 2r**2 + 2r + 1, for r >= 1."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    m = 2 * r * r + 2 * r + 1
    return CodeParams(FAMILY_BMD, 2 * m, 2, 2 * r + 1, r)


class ComparisonRow(NamedTuple):
    """Interleaved code versus the two baselines at the same q (bmd at r=q)."""

    q: int
    interleaved: CodeParams
    kitaev: CodeParams
    bmd: CodeParams

    @property
    def dominates(self) -> bool:
        """Whether the interleaved code beats both baselines strictly on rate
        k/n and gain k(t+1)/n, by integer cross-multiplication (n > 0)."""
        i = self.interleaved
        return all(i.k * b.n > b.k * i.n
                   and i.k * (i.t + 1) * b.n > b.k * (b.t + 1) * i.n
                   for b in (self.kitaev, self.bmd))


def compare(q: int) -> ComparisonRow:
    """The comparison row at q; TorusLattice rejects q even or below 5."""
    lattice = TorusLattice(q)
    return ComparisonRow(q, interleaved_params(lattice), kitaev_params(q),
                         bmd_params(q))

"""A tiny splittable PRNG (splitmix64) for reproducible simulations.

Trial i of a simulation draws from stream(seed, i), which depends on
nothing but (seed, i).  All trials run in one pass of one kernel call,
and a trial may stop drawing once its outcome is known without changing
any other trial, so the results are fixed by the seed alone.  The trial
kernel (kernels.simulate_trials) computes a block of trials' outputs at
once, with mix64's steps on packed 64-bit lanes, and settles there every
trial whose anchored cluster puts its cells in distinct blocks; any
other trial, one that reads a draw below() would reject, and each
exemplar simulate reports, is drawn through stream() by
kernels.trial_errors, the one place the package calls it.
tests/oracles.simulate_by_streams draws through stream() alone and holds
the kernel to it value for value.

The channel models' names live here, beside the streams they draw from,
so that naming a model does not load the kernel.
"""

from __future__ import annotations

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_C1, MIX_C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # mix64's multipliers

MODEL_ONE_PER_CELL = "one-per-cell"
MODEL_UNIFORM_CLUSTER = "uniform-cluster"


def mix64(z: int) -> int:
    """The splitmix64 finalizer, a 64-bit bijection."""
    z &= M64
    z = ((z ^ (z >> 30)) * MIX_C1) & M64
    z = ((z ^ (z >> 27)) * MIX_C2) & M64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, state: int) -> None:
        self._state = state & M64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & M64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Unbiased draw from range(n) by rejecting the low remainder zone."""
        if n <= 0:
            raise ValueError("n must be positive")
        threshold = (1 << 64) % n
        while True:
            v = self.next_u64()
            if v >= threshold:
                return v % n


def stream(seed: int, index: int) -> SplitMix64:
    """The independent generator for one trial of a seeded run."""
    return SplitMix64(mix64((seed & M64) ^ mix64(index)))

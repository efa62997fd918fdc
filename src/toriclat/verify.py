"""The invariant sweeps of `toriclat verify`, one check per scope.  A check
takes an odd q_max >= 5 and returns its report lines, a line not starting
with "ok" being a violation.  It finds the functions it checks on their
modules when it runs, so that a caller can replace them there."""


def distance(q_max: int) -> list[str]:
    """The distance layer's claim_failure at every odd q."""
    from .distance import (claim_failure, distance_report,
                           min_distance_closed_form)
    from .lattice import TorusLattice
    lines = []
    for q in range(5, q_max + 1, 2):
        lattice = TorusLattice(q)
        failure = claim_failure(distance_report(lattice),
                                min_distance_closed_form(lattice))
        if failure:
            lines.append(f"FAIL distance q={q}: {failure}")
    return lines or [
        f"ok distance: brute force == closed form for odd q in [5, {q_max}]"]


def tiling(q_max: int) -> list[str]:
    """Each canonical shape is a fundamental region."""
    from . import tessellation
    from .lattice import TorusLattice
    lines = []
    for q in range(5, q_max + 1, 2):
        lattice = TorusLattice(q)
        good, witness = tessellation.is_fundamental_region(
            lattice, tessellation.canonical_polyomino(lattice))
        if not good:
            lines.append(f"FAIL tiling q={q}: internal error: canonical shape "
                         f"for q={q} is not a fundamental region "
                         f"(witness {witness})")
    return lines or [
        f"ok tiling: canonical shapes tile all odd q in [5, {q_max}]"]


def interleaver(q_max: int) -> list[str]:
    """The stream map is a bijection up to q = 41; every burst pattern is
    correctable for q <= 9, and every doubled cell is flagged at q = 5.
    A q whose map cannot be built is a violation, and its sweeps are
    skipped."""
    from . import interleaving
    from .lattice import TorusLattice
    q_max = min(q_max, 41)
    lines, bursts = [], []
    control = "FAIL negative control q=5: the q=5 map could not be built"
    for q in range(5, q_max + 1, 2):
        try:
            mapping = interleaving.build_interleaver(TorusLattice(q))
        except ValueError as error:
            lines.append(f"FAIL interleaver q={q}: {error}")
            continue
        if len(set(mapping.stream_to_edge)) != 2 * q * q:
            lines.append(f"FAIL interleaver q={q}: stream map is not a "
                         "bijection")
        if q <= 9:
            cases, failures, witness = \
                interleaving.burst_exhaustive_report(mapping)
            bursts.append(
                f"FAIL burst q={q}: {failures} of {cases} patterns "
                f"uncorrectable, first witness {witness}" if failures else
                f"ok burst q={q}: {cases} cluster patterns all correctable")
        if q == 5:
            control = (
                "ok negative control q=5: doubled cells always flagged"
                if interleaving.double_slot_uncorrectable_exhaustive(mapping)
                else "FAIL negative control q=5: a doubled cell went "
                "unflagged")
    return (lines or ["ok interleaver: bijection on 2q^2 edges for odd q "
                      f"in [5, {q_max}]"]) + bursts + [control]

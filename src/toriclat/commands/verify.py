"""verify: the invariant sweeps, one check per scope.  A check takes an
odd q_max >= 5 and returns its report lines, a line not starting with
"ok" being a violation.  It imports its layers when it runs and finds
the functions it checks on their modules, so that a caller can replace
them there."""

from .. import cli


def _distance(q_max: int) -> list[str]:
    """The distance layer's claim_failure at every odd q."""
    from ..distance import (claim_failure, distance_report,
                            min_distance_closed_form)
    from ..lattice import TorusLattice
    lines = []
    for q in range(5, q_max + 1, 2):
        lattice = TorusLattice(q)
        failure = claim_failure(distance_report(lattice),
                                min_distance_closed_form(lattice))
        if failure:
            lines.append(f"FAIL distance q={q}: {failure}")
    return lines or [
        f"ok distance: brute force == closed form for odd q in [5, {q_max}]"]


def _tiling(q_max: int) -> list[str]:
    """Each canonical shape is a fundamental region."""
    from .. import tessellation
    from ..lattice import TorusLattice
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


def _interleaver(q_max: int) -> list[str]:
    """The stream map is a bijection up to q = 41; every burst pattern is
    correctable for q <= 9, and every doubled cell is flagged at q = 5.
    A q whose map cannot be built is a violation, and its sweeps are
    skipped."""
    from itertools import repeat

    from .. import interleaving
    from ..lattice import TorusLattice
    q_max = min(q_max, 41)
    lines, bursts = [], []
    control = "FAIL negative control q=5: the q=5 map could not be built"
    for q in range(5, q_max + 1, 2):
        try:
            mapping = interleaving.build_interleaver(TorusLattice(q))
        except ValueError as error:
            lines.append(f"FAIL interleaver q={q}: {error}")
            continue
        # the edges the stream's runs lay down, as plain (x, y, slot)
        # tuples: a bijection lays down 2q^2 distinct ones
        edges = set()
        for _, slot, xs, ys in mapping.runs():
            edges.update(zip(xs, ys, repeat(slot)))
        if len(edges) != 2 * q * q:
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


# each scope's check, in report order
SCOPES = {"distance": _distance, "tiling": _tiling,
          "interleaver": _interleaver}


def add_arguments(parser) -> None:
    parser.add_argument("--scope", choices=(*SCOPES, "all"), default="all")
    parser.add_argument("--q-max", type=int, default=41)
    parser.add_argument("--out", default=None)


def run(args) -> int:
    if args.q_max < 5 or args.q_max % 2 == 0:
        raise cli.UsageError(
            f"--q-max must be odd and >= 5, got {args.q_max}")
    lines = [line for scope, check in SCOPES.items()
             if args.scope in (scope, "all") for line in check(args.q_max)]
    cli._emit("\n".join(lines) + "\n", args.out)
    return (cli.EXIT_OK if all(line.startswith("ok") for line in lines)
            else cli.EXIT_VIOLATION)

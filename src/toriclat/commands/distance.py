"""distance: the minimum Mannheim distance, by brute force, in closed
form, or both, which checks the one against the other."""

import sys

from .. import cli


def add_arguments(parser) -> None:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--method", choices=("brute", "closed", "both"),
                        default="both")
    cli.add_common(parser, ("text", "json"))


def run(args) -> int:
    from ..distance import (claim_failure, distance_report,
                            min_distance_closed_form)
    lattice = cli._lattice(args.q)
    payload: dict = {"q": args.q, "method": args.method}
    lines = [f"q = {args.q}"]
    if args.method in ("brute", "both"):
        report = distance_report(lattice)
        payload["brute"] = {
            "distance": report.distance,
            "achieving_vector": list(report.achieving_vector),
            "candidates": [{"vector": list(v), "weight": w}
                           for v, w in report.candidate_weights],
        }
        lines.append(f"distance (brute force) = {report.distance}")
        lines.append("achieved by codeword vector "
                     f"({report.achieving_vector[0]},{report.achieving_vector[1]})")
        cands = "; ".join(f"({v[0]},{v[1]}) weight {w}"
                          for v, w in report.candidate_weights)
        lines.append(f"move-vector candidates: {cands}")
    if args.method in ("closed", "both"):
        closed = min_distance_closed_form(lattice)
        payload["closed"] = {"distance": closed}
        lines.append(f"distance (closed form) = {closed}")
    failure = None  # a single method checks no claim
    if args.method == "both":
        payload["agree"] = report.distance == closed
        lines.append(f"methods agree: {payload['agree']}")
        failure = claim_failure(report, closed)
    text = (cli._json(payload) if args.format == "json"
            else "\n".join(lines) + "\n")
    cli._emit(text, args.out)
    if failure:
        sys.stderr.write(f"error: {failure}\n")
    return cli.EXIT_VIOLATION if failure else cli.EXIT_OK

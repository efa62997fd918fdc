"""Command-line front end.

Subcommands: codewords, gens, distance, tessellate, params, compare,
interleave, simulate, tables, verify.  Exit codes: 0 success, 1 property
violation, 2 usage error (an input too large for memory included), 3 I/O
error.

This module holds what every command shares: the output functions, the
exit codes, the argparse types and the table of subcommands.  Each
command's arguments and body live in its module of toriclat.commands
(params and compare share one), and build_parser imports only the module
of the command being run, so that a process compiles and configures that
command alone.  A command imports the layers it runs when it runs, so
that a process loads and compiles only those too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import TorusLattice

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAX_PRECISION = 100
STDOUT_SLICE = 1 << 16  # characters per write

# each subcommand's module of toriclat.commands and its help, in the
# order that `toriclat -h` lists them
COMMANDS = {
    "codewords": ("codewords", "list the code's cells"),
    "gens": ("gens", "list all generating vectors"),
    "distance": ("distance", "minimum Mannheim distance"),
    "tessellate": ("tessellate", "tile the torus with a polyomino"),
    "params": ("params", "code parameters for all families"),
    "compare": ("params", "interleaved code vs baselines"),
    "interleave": ("interleave", "emit the stream-to-edge map"),
    "simulate": ("simulate", "seeded cluster-error simulation"),
    "tables": ("tables", "regenerate the reference tables"),
    "verify": ("verify", "run the invariant sweeps"),
}


@contextlib.contextmanager
def _output(out: str | None):
    """Open --out, or take stdout, and yield a write(piece) that sends a
    piece in STDOUT_SLICE slices, so that no document is encoded whole.
    Unbuffered (PYTHONUNBUFFERED), the text layer drops the rest of a
    short write unnoticed, so a reader that leaves mid-document shows
    only as the failure of a later write."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as f:
        def write(piece: str) -> None:
            for i in range(0, len(piece), STDOUT_SLICE):
                f.write(piece[i:i + STDOUT_SLICE])
        try:
            yield write
            # flushed here, so that a closed pipe is reported as an i/o
            # error and not as an ignored exception at interpreter shutdown
            f.flush()
        except OSError:
            if f is sys.__stdout__:
                # to devnull, as in the SIGPIPE note of Python's docs: else
                # the exit flush retries the unwritten buffer and exits 120
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, f.fileno())
                os.close(devnull)
            raise


def _emit(text: str, out: str | None) -> None:
    """Write a whole document to --out or stdout through _output.  The
    commands look it up on this module when they write, so that a
    wrapper bound here sees every document."""
    with _output(out) as write:
        write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, default=_fraction) + "\n"


def _fraction(value) -> dict:
    """json.dumps's hook for a Fraction, the one value it cannot write;
    fractions is loaded already by the layer that made one."""
    from fractions import Fraction
    if not isinstance(value, Fraction):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return {"exact": str(value), "value": float(value)}


def _lattice(q: int) -> TorusLattice:
    from .lattice import TorusLattice
    try:
        return TorusLattice(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class UsageError(Exception):
    pass


def _int_at_least(text: str, low: int) -> int:
    """Parse an integer option value of at least low, for argparse types;
    --precision and --seed add their own upper bounds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _precision(text: str) -> int:
    """argparse type for --precision; past 100 places a double shows no
    more information, and huge counts make float formatting raise."""
    value = _int_at_least(text, 0)
    if value > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be <= {MAX_PRECISION}, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed; seeds wider than 64 bits would alias."""
    value = _int_at_least(text, 0)
    if value >> 64:
        raise argparse.ArgumentTypeError(f"must be < 2^64, got {value}")
    return value


def _workers(text: str) -> int:
    """argparse type for --workers, which is accepted for compatibility
    and changes nothing; all trials run in one pass."""
    return _int_at_least(text, 1)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv (default sys.argv[1:]): every subcommand's name
    and help, and the arguments and body of the one argv invokes.

    That is the first token not starting with "-", since the top-level
    parser takes no option with a value.  Where argparse reads another
    token as the command, that token is no subcommand's name, and it
    stops at the invalid choice before a subcommand's arguments count.
    """
    if argv is None:
        argv = sys.argv[1:]
    invoked = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="toriclat",
        description="Cyclic lattice codes on q x q torus grids: distances, "
                    "tessellations, and burst-error interleaving.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (module, summary) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name == invoked:
            # __import__ with a fromlist returns the module itself; unlike
            # importlib.import_module, it shows in -X importtime
            command = __import__(f"{__package__}.commands.{module}",
                                 fromlist=["run"])
            command.add_arguments(p)
            p.set_defaults(func=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except MemoryError:
        pass  # reported below, once its traceback no longer holds the memory
    sys.stderr.write("error: out of memory; the input is too large\n")
    return EXIT_USAGE


if __name__ == "__main__":
    # the package's own copy of this module, whose UsageError and _emit
    # are the ones the commands use
    from toriclat.cli import main as _main
    sys.exit(_main())

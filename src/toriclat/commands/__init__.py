"""The CLI's subcommands, one module each, which holds all the code that
only its command runs; compare writes params' JSON and CSV rows.

A module has add_arguments(parser), which adds the command's arguments
to its subparser, and run(args), the command's body, which returns its
exit code.  toriclat.cli imports only the module of the command being
run.  A body imports its layers when it runs, and writes through
toriclat.cli's _emit, looked up when it writes.
"""


def add_common(parser, formats, default_format="text") -> None:
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--out", default=None, help="write output to a file")

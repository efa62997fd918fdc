"""tables: the paper's reference tables, regenerated."""

from .. import cli
from . import add_common

# tables.TABLE_IDS, spelled out so that building the parser imports no
# layer
TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")


def add_arguments(parser) -> None:
    parser.add_argument("which", choices=TABLE_IDS + ("all",))
    parser.add_argument("--precision", type=cli._precision, default=5,
                        help="decimal places of the text tables (0..100); "
                             "--format json ignores it and prints each "
                             "value as an exact fraction and a full float")
    add_common(parser, ("text", "json"))


def run(args) -> int:
    from .. import tables
    ids = list(tables.TABLE_IDS) if args.which == "all" else [args.which]
    if args.format == "json":
        payload = [tables.table_data(tid) for tid in ids]
        text = cli._json(payload if len(payload) > 1 else payload[0])
    else:
        text = "\n".join(tables.render_table(tid, args.precision)
                         for tid in ids)
    cli._emit(text, args.out)
    return cli.EXIT_OK

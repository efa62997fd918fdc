"""The CLI's subcommands, one module each, which holds all the code that
only its command runs.

A module has add_arguments(parser), which adds the command's arguments
to its subparser, and run(args), the command's body, which returns its
exit code.  toriclat.cli imports only the module of the command being
run.  At module level a command module imports, of toriclat, only
toriclat.cli, and no command module imports another: its body imports
its layers when it runs, and writes through toriclat.cli's _emit,
looked up when it writes.
"""

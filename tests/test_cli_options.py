"""Every option of every ``ptqm`` subcommand is read.

Walks :func:`ptqm.cli.build_parser` and requires, for each option, an
``args.<dest>`` read in the subcommand's handler, in ``_model`` when the
handler builds the two-level model through it, or in ``main`` when no
handler reads it (``--output``).  An option that nothing reads is removed
rather than accepted and ignored; the ones removed for that reason
(``--format`` of ``two-level``, ``evolve`` and ``spectrum``, and
``--tolerance`` of every subcommand but ``check``, whose two observable
criteria are the only tests it decides) now exit 2 as unrecognized.
"""

import argparse
import ast
import inspect
import textwrap

import pytest

from ptqm import cli

MODEL = ["--r", "1.0", "--s", "1.0", "--theta", "0.5235987755982988"]


def parse(function):
    return ast.parse(textwrap.dedent(inspect.getsource(function)))


def args_read(function):
    """Names of the ``args.<name>`` attributes that one function reads."""
    return {
        node.attr
        for node in ast.walk(parse(function))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }


def calls(function, name):
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        for node in ast.walk(parse(function))
    )


def subcommands():
    (sub,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sub.choices


def test_every_option_is_read():
    handler_reads = {}
    for command, parser in subcommands().items():
        handler = parser.get_default("handler")
        readers = [handler] + ([cli._model] if calls(handler, "_model") else [])
        handler_reads[command] = set().union(*map(args_read, readers))
    # main's read of an option some handler uses (a validation, say) does
    # not make that option used by the other subcommands
    main_reads = args_read(cli.main) - set().union(*handler_reads.values())
    unread = [
        f"{command} {action.option_strings[0]}"
        for command, parser in subcommands().items()
        for action in parser._actions
        if action.dest != "help" and action.dest not in handler_reads[command] | main_reads
    ]
    assert not unread, f"options that no code reads: {unread}"


@pytest.mark.parametrize(
    "argv",
    [
        ["two-level", *MODEL, "--format", "json"],
        ["evolve", *MODEL, "--t-max", "1", "--steps", "3", "--format", "csv"],
        ["spectrum", "--nu", "1", "--format", "json"],
        ["spectrum", "--nu", "1", "--tolerance", "1e-8"],
        ["two-level", *MODEL, "--tolerance", "1e-8"],
        ["evolve", *MODEL, "--t-max", "1", "--steps", "3", "--tolerance", "1e-8"],
    ],
)
def test_removed_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err

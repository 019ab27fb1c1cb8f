"""The README's examples run: its Python quick start executes, its
``faddeeva eval`` and ``faddeeva bounds`` lines run to exit 0, and every
other ``faddeeva ...`` command line parses (``sweep``, ``table`` and
``bench`` are parsed only: on the full grid they take minutes). The
package docstring's example passes as a doctest."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import faddeeva
from faddeeva import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def command_lines():
    """The ``faddeeva ...`` lines of the bash blocks, without their comments."""
    return [
        shlex.join(shlex.split(line, comments=True))
        for block in blocks("bash")
        for line in block.splitlines()
        if line.startswith("faddeeva ")
    ]


def test_python_blocks_run():
    assert blocks("python")
    for block in blocks("python"):
        exec(compile(block, "README.md", "exec"), {})


def test_every_subcommand_shown():
    shown = {shlex.split(line)[1] for line in command_lines()}
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert shown == set(sub.choices)


@pytest.mark.parametrize("line", command_lines())
def test_command_line_parses(line):
    try:
        cli.build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"README line does not parse ({exc.code}): {line}")


#: subcommands whose README lines are fast enough to run as written
RUN = ("eval", "bounds")


@pytest.mark.parametrize("line", [c for c in command_lines() if shlex.split(c)[1] in RUN])
def test_command_line_runs(line):
    assert cli.main(shlex.split(line)[1:]) == 0, line


def test_package_docstring_examples():
    result = doctest.testmod(faddeeva)
    assert result.attempted >= 1 and result.failed == 0, result

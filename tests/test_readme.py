"""The README's examples run: its Python quick start executes, and every
``faddeeva ...`` command line parses and runs to exit 0. The ``sweep``,
``table`` and ``bench`` lines run on a 225-point polar grid, as on the full
grid they take minutes. The package docstring's example passes as a
doctest."""

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


#: appended to the lines of the subcommands that sweep a grid: 25 x 9 polar
#: points in place of the full 1.6M-point grid
SMALL_GRID = ["--p-step", "0.5", "--theta-count", "9"]


@pytest.mark.parametrize("line", command_lines())
def test_command_line_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the lines write their --out files here
    argv = shlex.split(line)[1:]
    if argv[0] in ("sweep", "table", "bench"):
        argv += SMALL_GRID
    assert cli.main(argv) == 0, line


def test_package_docstring_examples():
    result = doctest.testmod(faddeeva)
    assert result.attempted >= 1 and result.failed == 0, result

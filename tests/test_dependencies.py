"""The package runs with numpy as its only third-party dependency, as
pyproject.toml declares: every other test imports scipy or mpmath, so a
stray import of one of them in the package would not show there."""

import subprocess
import sys
from pathlib import Path

import faddeeva

SCRIPT = """
import sys
for name in ("scipy", "mpmath", "hypothesis", "pytest"):
    sys.modules[name] = None
import importlib, pkgutil
import faddeeva
print(faddeeva.w(1 + 1j))
# a point within h/4 of 0 builds the Maclaurin coefficients of its order,
# and a point beyond |z| = 64 the Laurent coefficients
print(faddeeva.w(0.01 + 0.01j))
print(faddeeva.w(30 + 90j))
# binary64 w runs without the double-double oracle
assert "faddeeva.oracle" not in sys.modules
for info in pkgutil.iter_modules(faddeeva.__path__):
    importlib.import_module("faddeeva." + info.name)
from faddeeva import cli
sys.exit(cli.main(["eval", "--re", "1", "--im", "1", "--method", "weideman"]))
"""


def test_numpy_only():
    src = str(Path(faddeeva.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert complex(lines[0]) == faddeeva.w(1 + 1j)
    assert complex(lines[1]) == faddeeva.w(0.01 + 0.01j)
    assert complex(lines[2]) == faddeeva.w(30 + 90j)
    assert lines[3].endswith("[weideman(40)]")

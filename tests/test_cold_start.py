"""Which modules a fresh interpreter loads: the package and its command line
import no pipeline module, a command imports only the pipeline it runs, and
no command loads `heavenly.forms`, the alias module that nothing imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heavenly

SRC = str(Path(heavenly.__file__).parent.parent)
PIPELINE = {"grassmann", "poly", "linalg", "liesp", "forms", "integrability", "quartic",
            "laxpair", "parse", "catalog"}
PROBE = """
import contextlib, io, sys
{code}
print(sorted(name[len("heavenly."):] for name in sys.modules if name.startswith("heavenly.")))
"""
RUN_MAIN = """
from heavenly.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main({argv!r})
    except SystemExit as stop:
        code = stop.code
print(code)
"""


def loaded_modules(code):
    """The heavenly submodules a fresh interpreter holds after running code,
    and the lines code printed before them."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return set(ast.literal_eval(modules)), printed


@pytest.mark.parametrize("statement", ["import heavenly", "import heavenly.cli"])
def test_importing_the_package_or_its_cli_loads_no_pipeline(statement):
    modules, _ = loaded_modules(statement)
    assert modules & PIPELINE == set()


NOT_PARSER = {"liesp", "forms", "integrability", "laxpair", "quartic"}
COMMANDS = [  # a command that exits 0, and the modules it must not load
    (["--help"], NOT_PARSER),
    (["basis-info", "--n", "4"], NOT_PARSER),
    (["symmetry", "--n", "3", "--expr", "u11+u22+u33"], {"forms", "laxpair"}),
    (["lambda", "--builtin", "husain"], {"forms", "integrability", "laxpair"}),
    (["legendre", "--builtin", "husain", "--flip", "1,2"], {"forms", "integrability", "laxpair"}),
    (["classify", "--builtin", "husain"], {"forms", "laxpair"}),
]


@pytest.mark.parametrize("argv, absent", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_a_command_loads_only_the_pipeline_it_runs(argv, absent):
    modules, printed = loaded_modules(RUN_MAIN.format(argv=argv))
    assert printed == ["0"]
    assert modules & absent == set()


def test_a_cold_4d_classify_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples and slotted classes: importing
    # dataclasses pulls in inspect, which a cold command would pay for
    code = RUN_MAIN.format(argv=["classify", "--builtin", "husain"])
    _, printed = loaded_modules(code + 'print(sorted({"dataclasses", "inspect"} & set(sys.modules)))')
    assert printed == ["0", "[]"]

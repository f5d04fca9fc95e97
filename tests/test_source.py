"""Source-level checks on the package."""

import ast
import sys
from pathlib import Path

import heavenly

PACKAGE_DIR = Path(heavenly.__file__).parent


def test_package_has_no_assert_statements():
    # Invariant checks must still run under `python -O`, which strips asserts.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_stdlib():
    # The package runs on the standard library alone: every import is
    # relative or names a standard-library module.
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []

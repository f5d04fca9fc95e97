"""Source-level checks on the package."""

import ast
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

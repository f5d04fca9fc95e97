"""Source-level checks on the package."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

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


def _unbounded_cache(decorator):
    """Whether the decorator is functools.cache or an lru_cache with maxsize None."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:  # a bare lru_cache keeps 128 entries
        return False
    size = call.args[0] if call.args else {k.arg: k.value for k in call.keywords}.get("maxsize")
    return isinstance(size, ast.Constant) and size.value is None


def test_no_unbounded_cache_keyed_by_an_equation():
    # A cache keyed by an MAEquation grows with every equation a long run
    # streams through (the classify-warm benchmark gates peak memory).
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or not node.args.args:
                continue
            first = node.args.args[0].annotation
            if first is None or ast.unparse(first).strip("'\"") != "MAEquation":
                continue
            found += [f"{path.name}:{node.lineno}: {node.name}" for d in node.decorator_list
                      if _unbounded_cache(d)]
    assert found == []


def test_integrability_decision_is_unseeded():
    # integrable_4d decides by an exact identity: no random draws and no
    # sampled chart permutations in its module
    tree = ast.parse((PACKAGE_DIR / "integrability.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module} | {alias.name for alias in node.names}
    assert names & {"random", "permutations"} == set()


def test_every_definition_is_used_in_the_package_or_exported():
    # Test-only code lives under tests/: each module-level function and class
    # of the package is referenced somewhere in it (as a name, an attribute or
    # an imported name), exported by heavenly.__all__, or a module hook that
    # the interpreter calls (PEP 562).
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    used = set(heavenly.__all__) | {"__getattr__", "__dir__"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    found = [f"{name}:{node.lineno}: {node.name}" for name, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name not in used]
    assert found == []


def test_every_export_resolves_to_its_defining_module():
    # the package resolves its exports lazily from one name -> module table,
    # whose literal lists exactly the names of __all__, each once
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"])
    assert sorted(key.value for key in table.keys) == heavenly.__all__
    for name, module in heavenly._EXPORTS.items():
        defining = importlib.import_module(f"heavenly.{module}")
        value = getattr(heavenly, name)
        assert value is vars(defining)[name] and value.__module__ == defining.__name__, name
        assert vars(heavenly)[name] is value  # bound on first access
    assert set(heavenly.__all__) <= set(dir(heavenly))
    namespace = {}
    exec("from heavenly import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(heavenly.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        heavenly.nope


def test_cli_main_maps_errors_to_exits_in_one_handler():
    # the exit code and stderr label of a failure come from the error type
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == ["HeavenlyError"]


def test_every_library_error_exits_2_or_3():
    # each HeavenlyError subclass, in any module, inherits or sets an
    # exit_code of 2 (rejected or error) or 3 (inconclusive)
    classes = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                codes = [stmt.value.value for stmt in node.body
                         if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
                         and [ast.unparse(t) for t in stmt.targets] == ["exit_code"]]
                classes[node.name] = ([ast.unparse(b) for b in node.bases], codes)

    def lineage(name):
        while name in classes:
            yield name
            bases, _ = classes[name]
            name = bases[0] if bases else None

    errors = {name: next((classes[c][1][0] for c in lineage(name) if classes[c][1]), None)
              for name in classes if "HeavenlyError" in lineage(name)}
    assert len(errors) >= 14 and "CommandError" in errors
    assert {name: code for name, code in errors.items() if code not in (2, 3)} == {}
    assert errors["NoSamplePoint"] == 3

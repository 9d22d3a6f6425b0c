"""No module of the package may import pickle: env state and checkpoints
load from plain data, so loading a file never runs code from it."""
import ast
from pathlib import Path

import roommem

PACKAGE = Path(roommem.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_module_imports_pickle():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.relative_to(PACKAGE)} imports {name}"
        for path in modules
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in ("pickle", "cPickle", "_pickle", "dill", "cloudpickle")
    ]
    assert offenders == []

"""Every name a package module imports is used in that module, and every
private function the package defines is used by the package.

AST scans, since no linter is a dependency. `__init__.py` is exempt from the
import scan: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rngswarm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation ("SwarmState") reads the names inside the string
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scanner_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n    from .engine import SwarmState, WorldConfig\n"
        "def f(s: 'SwarmState') -> None:\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Sequence", "WorldConfig", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_defs(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node


def _references(tree) -> list[str]:
    """Every name read, and every attribute named, anywhere in `tree`."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
    return refs


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """Private functions and methods that nothing in `sources` refers to,
    outside their own definitions."""
    trees = [ast.parse(s) for s in sources]
    refs = [r for t in trees for r in _references(t)]
    unused = set()
    for tree in trees:
        for node in _private_defs(tree):
            own = _references(node).count(node.name)
            if refs.count(node.name) - own <= 0:
                unused.add(node.name)
    return sorted(unused)


def test_private_scanner_finds_unreferenced_defs():
    sources = [
        "def _used():\n    pass\ndef _only_self():\n    return _only_self()\n"
        "class A:\n    def _method(self):\n        pass\n    def __init__(self):\n        pass\n",
        "from .a import _used\nx = _used()\n",
    ]
    assert unreferenced_private_defs(sources) == ["_method", "_only_self"]


def test_every_private_function_is_used_by_the_package():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_defs(sources) == []

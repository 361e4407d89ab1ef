"""Every name a package module imports is used in that module, every
private function the package defines is used by the package, a state's
geometry is built in one place, so are a graph's hop diameter and its
planner indices, every builder of the distance matrix is named, nothing
imports scipy or sorts unstably, directly or through `np.unique` or
`np.isin`, every value rule of a config lives in its class, and only the
scenario loader parses YAML, through its one safe loader `_LOADER`, with no
unsafe loader named anywhere.

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


# a state's distances and graphs come from `engine._geometry`; `_init_fault`
# checks a candidate start, which is not a state yet
GEOMETRY_BUILDERS = {"pairwise_distances", "visibility_graph", "effective_graph"}
GEOMETRY_OWNERS = {"_geometry", "_init_fault"}
GEOMETRY_MODULES = ("engine.py", "cli.py", "reporting.py")

# a graph's hop diameter is derived by its cached `Graph._diameter`;
# `is_connected` searches from one vertex only
DIAMETER_BUILDERS = {"_hops"}
DIAMETER_OWNERS = {"_diameter", "is_connected"}

# the distance matrix is built by the engine's geometry and its start check,
# and by the `dist=None` fallbacks of the planner and of the three graph
# layers that perfbench's sweep calls from positions alone; every other layer
# takes the matrix itself
MATRIX_BUILDERS = {"pairwise_distances"}
MATRIX_OWNERS = {
    "_geometry",
    "_init_fault",
    "apply_motion_law",
    "visibility_graph",
    "effective_graph",
    "graph_metrics",
}


def stray_calls(source: str, builders, owners) -> list[tuple[str, str]]:
    """(innermost enclosing function, callee) for each call to one of
    `builders` outside `owners`; module-level calls name "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in builders and owner not in owners:
                    found.append((owner, name))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_geometry_scanner_finds_stray_calls():
    source = (
        "def _geometry(p, w):\n    return pairwise_distances(p)\n"
        "def frame(s, w):\n    def draw():\n        return graphs.effective_graph(g, s)\n"
        "    return visibility_graph(s, w)\n"
        "d = pairwise_distances(xy)\n"
    )
    assert stray_calls(source, GEOMETRY_BUILDERS, GEOMETRY_OWNERS) == [
        ("<module>", "pairwise_distances"),
        ("draw", "effective_graph"),
        ("frame", "visibility_graph"),
    ]


@pytest.mark.parametrize("name", GEOMETRY_MODULES)
def test_geometry_is_built_in_one_place(name):
    assert stray_calls((SRC / name).read_text(), GEOMETRY_BUILDERS, GEOMETRY_OWNERS) == []


def test_diameter_scanner_finds_stray_calls():
    source = (
        "class Graph:\n    @cached_property\n    def _diameter(self):\n"
        "        return _hops(self, np.arange(self.n))\n"
        "def is_connected(g):\n    return _hops(g, [0]) >= 0\n"
        "def graph_metrics(g):\n    return graphs._hops(g, np.arange(g.n))\n"
        "class Other:\n    def span(self):\n        return _hops(self.g, [0, 1])\n"
        "d = _hops(g, [0])\n"
    )
    assert stray_calls(source, DIAMETER_BUILDERS, DIAMETER_OWNERS) == [
        ("<module>", "_hops"),
        ("graph_metrics", "_hops"),
        ("span", "_hops"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_diameter_is_derived_in_one_place(path):
    assert stray_calls(path.read_text(), DIAMETER_BUILDERS, DIAMETER_OWNERS) == []


def test_matrix_scanner_finds_stray_calls():
    source = (
        "def graph_metrics(g, eff, xy, dist=None):\n"
        "    if dist is None:\n        dist = pairwise_distances(xy)\n"
        "def nearest_distances(xy, dist=None):\n"
        "    return graphs.pairwise_distances(xy) if dist is None else dist\n"
        "def separation_cap(dist, v, sep):\n    f = lambda xy: pairwise_distances(xy)\n"
        "d = pairwise_distances(xy)\n"
    )
    assert stray_calls(source, MATRIX_BUILDERS, MATRIX_OWNERS) == [
        ("<module>", "pairwise_distances"),
        ("nearest_distances", "pairwise_distances"),
        ("separation_cap", "pairwise_distances"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_builder_of_the_matrix_is_named(path):
    assert stray_calls(path.read_text(), MATRIX_BUILDERS, MATRIX_OWNERS) == []


# a graph's planner indices are derived by its cached `Graph._plan`: the
# degrees (indptr[1:] - indptr[:-1]), the edge-length key (owner * n + nbr)
# and the index-ordered ends of each edge (np.minimum / np.maximum of owner
# and nbr); everything else reads them from there
PLAN_OWNERS = {"_plan"}


def _names(*nodes) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def _plan_derivation(node) -> str | None:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        if all(isinstance(s, ast.Subscript) and _names(s.value) == {"indptr"} for s in (node.left, node.right)):
            return "degree"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and "owner" in _names(node.left):
        return "edge key"
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if name in {"minimum", "maximum"} and {"owner", "nbr"} <= _names(*node.args):
            return "edge ends"
    return None


def plan_derivations(source: str, owners) -> list[tuple[str, str]]:
    """(innermost enclosing function, what) for each derivation of a planner
    index outside `owners`; module-level ones name "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            what = _plan_derivation(child)
            if what is not None and owner not in owners:
                found.append((owner, what))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_plan_scanner_finds_stray_derivations():
    source = (
        "class Graph:\n    @cached_property\n    def _plan(self):\n"
        "        indptr, nbr, owner = self._csr\n"
        "        return indptr[1:] - indptr[:-1], owner * self.n + nbr, np.minimum(owner, nbr)\n"
        "def plan(eff, xy, dist):\n    indptr, nbr, owner = eff._csr\n"
        "    deg = indptr[1:] - indptr[:-1]\n    length = dist[owner, nbr]\n"
        "    def ends():\n        return xy[np.maximum(nbr, owner)]\n"
        "    return dist.take(owner * len(xy) + nbr)\n"
        "hops = (indptr[1:] == indptr[:-1]).any()\n"
        "key = owner * n + nbr\n"
    )
    assert plan_derivations(source, PLAN_OWNERS) == [
        ("<module>", "edge key"),
        ("ends", "edge ends"),
        ("plan", "degree"),
        ("plan", "edge key"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_planner_indices_are_derived_in_one_place(path):
    assert plan_derivations(path.read_text(), PLAN_OWNERS) == []


# numpy's default sort pages in about 0.5 MB of code on first use, and
# importing scipy adds about 33 MB, against the 10 % bound on the benchmark's
# peak RSS: the package sorts stably only, and counts with `bincount` where
# `np.unique` or `np.isin` would sort
def peak_rss_breaks(source: str) -> list[tuple[int, str]]:
    """(line, what) for each scipy import, each `np.unique` or `np.isin`, and
    each `sort` or `argsort` call without kind="stable"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Attribute) and node.attr in {"unique", "isin"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            stable = any(k.arg == "kind" and getattr(k.value, "value", None) == "stable" for k in node.keywords)
            if name in {"sort", "argsort"} and not stable:
                found.append((node.lineno, f"unstable {name}"))
    return sorted(found)


def test_peak_rss_scanner_finds_every_break():
    source = (
        "import numpy as np\nimport scipy.spatial\nfrom scipy import sparse\n"
        "a = np.unique(x)\nb = np.isin(x, y)\n"
        "c = np.argsort(x, kind='stable')\nd = np.argsort(x)\ne = x.sort(kind='quicksort')\n"
        "f = sorted(x)\ng = np.sort(x, kind='stable')\n"
    )
    assert peak_rss_breaks(source) == [
        (2, "scipy.spatial"),
        (3, "scipy"),
        (4, "unique"),
        (5, "isin"),
        (7, "unstable argsort"),
        (8, "unstable sort"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_or_call_that_raises_peak_rss(path):
    assert peak_rss_breaks(path.read_text()) == []


# a value rule lives in its config class: the scenario loader checks only the
# file's keys, and the classes' constructors check numbers, integers and points
# only through `geom._number`, `geom._integer` and `geom._points`
VALUE_TYPES = {"int", "float", "bool"}
CONVERTERS = {"__post_init__", "for_range"}


def value_rules_out_of_place(source: str, loader: bool) -> list[tuple[int, str]]:
    """(line, what) for each `isinstance` test against int, float or bool in
    a loader module or in a `__post_init__` or `for_range` of any module, and
    each bare `float(` or `int(` call in a `__post_init__` or `for_range`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                name, args = child.func.id, child.args
                if (loader or owner in CONVERTERS) and name == "isinstance" and len(args) == 2:
                    kinds = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
                    hit = sorted(VALUE_TYPES & {k.id for k in kinds if isinstance(k, ast.Name)})
                    found.extend((child.lineno, f"isinstance {t}") for t in hit)
                if owner in CONVERTERS and name in {"float", "int"}:
                    found.append((child.lineno, f"{name}( in {owner}"))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_value_rule_scanner_finds_every_case():
    loader = (
        "def _as_int(value):\n    if isinstance(value, bool) or not isinstance(value, int):\n        raise E\n"
        "def _as_number(value):\n    return isinstance(value, (int, float, str))\n"
        "def _mapping(value):\n    return isinstance(value, dict) and isinstance(value, (list, tuple))\n"
    )
    assert value_rules_out_of_place(loader, loader=True) == [
        (2, "isinstance bool"),
        (2, "isinstance int"),
        (5, "isinstance float"),
        (5, "isinstance int"),
    ]
    classes = (
        "class Spec:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'gain', float(self.gain))\n"
        "        pts = tuple((float(x), float(y)) for x, y in self.points)\n"
        "        self.a = _number(self.a, 'a', 'must be positive', ok)\n"
        "    @classmethod\n    def for_range(cls, v):\n        return cls(int(v))\n"
        "    def describe(self):\n        return float(self.gain)\n"
        "def isinstance_elsewhere(x):\n    return isinstance(x, int)\n"
        "class World:\n    def __post_init__(self):\n"
        "        if isinstance(self.n, bool) or not isinstance(self.n, int):\n            raise E\n"
        "        if not isinstance(self.behavior, Spec) or isinstance(self.init, (list, tuple)):\n"
        "            raise E\n"
        "    @classmethod\n    def for_range(cls, v):\n        return cls(v if isinstance(v, float) else 1.0)\n"
    )
    assert value_rules_out_of_place(classes, loader=False) == [
        (3, "float( in __post_init__"),
        (4, "float( in __post_init__"),
        (4, "float( in __post_init__"),
        (8, "int( in for_range"),
        (15, "isinstance bool"),
        (15, "isinstance int"),
        (21, "isinstance float"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_value_rule_lives_in_its_class(path):
    assert value_rules_out_of_place(path.read_text(), loader=path.name == "scenario.py") == []


# YAML is parsed in one place, `scenario.load_scenario`, as
# `yaml.load(stream, Loader=_LOADER)`: `_LOADER` is libyaml's safe loader or
# PyYAML's pure-Python one, so every path parses alike and none can build
# Python objects from a tag
YAML_PARSERS = {"load", "load_all", "safe_load", "safe_load_all", "parse", "compose", "compose_all", "scan"}
UNSAFE_YAML = {
    "FullLoader",
    "UnsafeLoader",
    "CLoader",
    "CFullLoader",
    "CUnsafeLoader",
    "full_load",
    "full_load_all",
    "unsafe_load",
    "unsafe_load_all",
}


def yaml_breaks(source: str, loader: bool) -> list[tuple[int, str]]:
    """(line, what) for each YAML parse outside a `loader` module, each one
    in it but not `yaml.load(..., Loader=_LOADER)`, and each unsafe loader
    or `yaml.Loader` named anywhere."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names if a.name == "yaml"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "yaml":
            found += [(node.lineno, f"yaml.{a.name}") for a in node.names if a.name in UNSAFE_YAML | {"Loader"}]
            found += [(node.lineno, f"imports yaml.{a.name}") for a in node.names if a.name in YAML_PARSERS]
        elif isinstance(node, ast.Name) and node.id in UNSAFE_YAML:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            of_yaml = isinstance(node.value, ast.Name) and node.value.id in modules
            if node.attr in UNSAFE_YAML or (of_yaml and node.attr == "Loader"):
                found.append((node.lineno, f"yaml.{node.attr}" if of_yaml else node.attr))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if not (isinstance(func.value, ast.Name) and func.value.id in modules and func.attr in YAML_PARSERS):
            continue
        if not loader:
            found.append((node.lineno, f"yaml.{func.attr} outside the loader"))
            continue
        through = [k for k in node.keywords if k.arg == "Loader" and getattr(k.value, "id", None) == "_LOADER"]
        if func.attr != "load" or not through:
            found.append((node.lineno, f"yaml.{func.attr} not through _LOADER"))
    return sorted(found)


def test_yaml_scanner_finds_every_break():
    loader = (
        "import yaml\nfrom yaml import CLoader, safe_load\n"
        "_LOADER = getattr(yaml, 'CSafeLoader', yaml.SafeLoader)\n"
        "a = yaml.load(text, Loader=_LOADER)\nb = yaml.safe_load(text)\n"
        "c = yaml.load(text, Loader=yaml.Loader)\nd = yaml.full_load(text)\n"
        "e = yaml.load_all(text, Loader=_LOADER)\nf = yaml.safe_dump(doc)\n"
        "g = yaml.load(text, Loader=UnsafeLoader)\n"
    )
    assert yaml_breaks(loader, loader=True) == [
        (2, "imports yaml.safe_load"),
        (2, "yaml.CLoader"),
        (5, "yaml.safe_load not through _LOADER"),
        (6, "yaml.Loader"),
        (6, "yaml.load not through _LOADER"),
        (7, "yaml.full_load"),
        (8, "yaml.load_all not through _LOADER"),
        (10, "UnsafeLoader"),
        (10, "yaml.load not through _LOADER"),
    ]
    other = "import yaml as y\ndoc = y.load(text, Loader=_LOADER)\nout = y.safe_dump(doc)\nL = y.CFullLoader\n"
    assert yaml_breaks(other, loader=False) == [
        (2, "yaml.load outside the loader"),
        (4, "yaml.CFullLoader"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_yaml_is_parsed_in_one_place(path):
    assert yaml_breaks(path.read_text(), loader=path.name == "scenario.py") == []

"""The modules that decide positions keep to the portable arithmetic.

`geom` and `motion` compute positions, `engine` decides which of them
commit, and `graphs` computes the distances the plan reads. All four spell
dot products and squares out as products and sums, because BLAS kernels
(`@`, `np.dot`, `np.matmul`, `np.einsum`) may use fused multiply-adds
chosen per CPU, and `**` goes through libm `pow`; either would tie the
trajectories to the machine. Neighbour sums are `bincount`s, which add in
input order; a flat `add` reduction (`np.add.reduce`, `reduceat`,
`accumulate`) in their place may add pairwise, which rounds differently and
would move every golden. The hop search in `graphs` ORs and counts bits,
integer operations whose result no order or CPU can change. So the scan
allows nothing. An AST scan, like `tests/test_imports.py`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rngswarm"
MODULES = [SRC / "engine.py", SRC / "geom.py", SRC / "graphs.py", SRC / "motion.py"]
BLAS_NAMES = {"dot", "matmul", "einsum", "vdot", "inner"}
ADD_REDUCTIONS = {"reduce", "reduceat", "accumulate"}


def non_portable(source: str) -> list[str]:
    """`line: construct` for every matrix product, BLAS name, power or flat
    `add` reduction."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.MatMult, ast.Pow)):
            found.append((node.lineno, "@" if isinstance(node.op, ast.MatMult) else "**"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr in ADD_REDUCTIONS and (
            isinstance(node.value, ast.Attribute) and node.value.attr == "add"
            or isinstance(node.value, ast.Name) and node.value.id == "add"
        ):
            found.append((node.lineno, f"add.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, f"import {a.name}") for a in node.names if a.name in BLAS_NAMES)
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_scanner_finds_every_construct():
    source = (
        "import numpy as np\nfrom numpy import einsum\n"
        "a = d @ d\nb = np.dot(w, d)\nc = x ** 2\nc **= 2\ne = np.matmul(w, d)\nf = einsum('i,i', d, d)\n"
        "g = w.dot(d)\nh = d[0] * d[0] + d[1] * d[1]\n"
        "i = np.add.reduce(w)\nj = np.add.reduceat(w, k)\nm = add.accumulate(w)\n"
        "o = np.minimum.reduceat(w, k)\np = np.bincount(k, w, 3)\nq = functools.reduce(f, w)\n"
    )
    assert non_portable(source) == [
        "2: import einsum", "3: @", "4: .dot", "5: **", "6: **", "7: .matmul", "8: einsum", "9: .dot",
        "11: add.reduce", "12: add.reduceat", "13: add.accumulate",
    ]


def functions_by_line(source: str) -> dict[int, str]:
    """The innermost function around each line of `source`."""
    where = {}
    for node in ast.walk(ast.parse(source)):  # outer functions come first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    return where


def constructs(path: Path) -> list[tuple[str, str, str]]:
    """(function, construct, `line: construct`) for each `non_portable`
    entry of a module; code outside any function is in `<module>`."""
    source = path.read_text()
    where = functions_by_line(source)
    found = []
    for entry in non_portable(source):
        line, what = entry.split(": ", 1)
        found.append((where.get(int(line), "<module>"), what, entry))
    return found


def test_functions_by_line_names_the_innermost_function():
    source = "x = 1\ndef f():\n    a = 1\n    def g():\n        b = 2\n    c = 3\n"
    assert functions_by_line(source) == {2: "f", 3: "f", 4: "g", 5: "g", 6: "f"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_or_pow(path):
    assert [f"{entry} in {f}" for f, _, entry in constructs(path)] == []

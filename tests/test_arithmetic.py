"""The modules that decide positions keep to the portable arithmetic.

`geom` and `motion` compute positions and `engine` decides which of them
commit. All three spell dot products and squares out as products and sums,
because BLAS kernels (`@`, `np.dot`, `np.matmul`, `np.einsum`) may use
fused multiply-adds chosen per CPU, and `**` goes through libm `pow`; either
would tie the trajectories to the machine. Neighbour sums are `bincount`s,
which add in input order; a flat `add` reduction (`np.add.reduce`,
`reduceat`, `accumulate`) in their place may add pairwise, which rounds
differently and would move every golden. An AST scan, like
`tests/test_imports.py`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rngswarm"
MODULES = [SRC / "engine.py", SRC / "geom.py", SRC / "motion.py"]
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_or_pow(path):
    assert non_portable(path.read_text()) == []

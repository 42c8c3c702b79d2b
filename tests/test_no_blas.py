"""No norm, distance or dot in the package goes through BLAS.

numpy's linalg, dot products and the @ operator round through the BLAS kernel
that the library picks for the CPU at run time, so their bits may differ from
one machine to the next.  The package takes every such sum in a fixed order
instead, and this test fails on the syntax that would reach BLAS.
"""

import ast
from pathlib import Path

import rootmaps

BLAS_ATTRIBUTES = {"linalg", "dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def blas_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each @ or @= and each attribute or imported name in BLAS_ATTRIBUTES."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, alias.name) for alias in node.names if alias.name in BLAS_ATTRIBUTES]
    return sorted(uses)


def test_guard_finds_each_form():
    source = "import numpy as np\nfrom numpy import dot\nx = a @ b\nx @= b\nnp.linalg.norm(x)\nx.dot(y)\ninner = 1\n"
    assert blas_uses(source) == [(2, "dot"), (3, "@"), (4, "@"), (5, "linalg"), (6, "dot")]


def test_package_makes_no_blas_call():
    found = [f"{path.name}:{line}: {what}" for path in sorted(Path(rootmaps.__file__).parent.glob("*.py"))
             for line, what in blas_uses(path.read_text())]
    assert not found, found

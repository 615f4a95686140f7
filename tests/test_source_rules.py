"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "matroidkit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    # python -O strips asserts, and an uncaught AssertionError is a
    # traceback rather than an exit code; raise a named error instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement on line(s) {lines}"


def test_the_rule_sees_the_library():
    assert {"cli.py", "core.py"} <= {p.name for p in SOURCES}


def _module_level_imports(node):
    """Import statements that run when the module loads, or would under
    ``if TYPE_CHECKING:``: every import outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield child, [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            yield child, [child.module] if child.level == 0 and child.module else []
        yield from _module_level_imports(child)


def _networkx_lines(source: str):
    tree = ast.parse(source)
    return [
        node.lineno
        for node, names in _module_level_imports(tree)
        if any(name.split(".")[0] == "networkx" for name in names)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_networkx_only_inside_functions(path):
    # importing networkx takes about 0.2 s; at module level it would put
    # that on every CLI start, so only the functions that need it import it
    lines = _networkx_lines(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name}: networkx imported outside a function on line(s) {lines}"


def test_the_networkx_rule_sees_guarded_and_nested_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import networkx\n"
        "if TYPE_CHECKING:\n"
        "    from networkx.algorithms import isomorphism\n"
        "class Holder:\n"
        "    import networkx as nx\n"
        "    def graph(self):\n"
        "        import networkx as nx\n"
        "        return nx.Graph()\n"
    )
    assert _networkx_lines(source) == [2, 4, 6]


#: numpy entry points that call BLAS.  ``cli.main`` starts numpy with one
#: OpenBLAS thread, which costs nothing only while the library makes no
#: BLAS call.
BLAS_NAMES = frozenset({"dot", "matmul", "linalg", "einsum", "inner", "vdot", "tensordot"})


def _blas_lines(source: str):
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            lines.add(node.lineno)  # np.dot, numpy.linalg.norm, array.dot
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.add(node.lineno)  # a @ b, a @= b
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            if BLAS_NAMES & {*node.module.split("."), *(alias.name for alias in node.names)}:
                lines.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_makes_no_blas_call(path):
    lines = _blas_lines(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name}: BLAS call on line(s) {lines}"


def test_the_blas_rule_sees_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import einsum\n"
        "from numpy.linalg import norm\n"
        "x = np.dot(a, b)\n"
        "y = a @ b\n"
        "a @= b\n"
        "def f(m):\n"
        "    return m.dot(m), np.linalg.norm(m), np.inner(m, m)\n"
        "z = np.vdot(a, b) + np.tensordot(a, b) + np.matmul(a, b)\n"
        "ok = np.add.outer(a, b) & a | b\n"
    )
    assert _blas_lines(source) == [2, 3, 4, 5, 6, 7, 9, 10]

"""Rules on the library source itself."""

import ast
import importlib
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
    """Lines of every networkx import, also inside function bodies."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "networkx" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_networkx_only_inside_functions(path):
    # networkx is a test dependency only: the tests compare the bipartite
    # encoding with networkx graphs, and no library code may import it
    lines = _networkx_lines(path.read_text(encoding="utf-8"))
    assert not lines, f"{path.name}: networkx imported on line(s) {lines}"


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
    assert _networkx_lines(source) == [2, 4, 6, 8]


#: The modules on the path of a command that only parses, runs listed-data
#: rules and serializes, or runs a listed-data search (the graph encoding,
#: intersect3 over bases lists, the 3DM reduction); the array layer and the
#: harness built on it may load only inside their functions, which run
#: array passes or build tables.
LISTED_PATH = ("__init__.py", "bitsets.py", "cli.py", "conversions.py", "core.py",
               "descriptions.py", "families.py", "reductions.py")
ARRAY_MODULES = frozenset({"numpy", "tables", "harness"})


def _array_import_lines(source: str):
    """Lines outside function bodies that import numpy or one of the
    array modules, in any form: ``import numpy``, ``from . import tables``,
    ``from .tables import popcounts``, ``import matroidkit.harness``."""
    lines = []
    for node, _ in _module_level_imports(ast.parse(source)):
        names = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if any(ARRAY_MODULES & set(name.split(".")) for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", LISTED_PATH)
def test_listed_path_imports_numpy_only_inside_functions(name):
    # numpy's import is about half of a convert along a pure-Python edge;
    # at module level every command would pay it
    path = SOURCES[0].parent / name
    lines = _array_import_lines(path.read_text(encoding="utf-8"))
    assert not lines, f"{name}: numpy or an array module imported outside a function on line(s) {lines}"


def test_the_array_import_rule_sees_every_form():
    source = (
        "import numpy as np\n"
        "from numpy import zeros\n"
        "from . import KINDS, tables\n"
        "from .tables import popcounts\n"
        "from matroidkit import harness\n"
        "import matroidkit.harness\n"
        "from .bitsets import elements\n"
        "from . import KINDS\n"
        "if True:\n"
        "    import numpy.linalg\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from . import tables\n"
    )
    assert _array_import_lines(source) == [1, 2, 3, 4, 5, 6, 10]


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


def _description_calls(source: str, builder: str = ""):
    """Lines that call ``Description(...)`` outside a function named
    ``builder``."""
    lines = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name == builder)
                continue
            if isinstance(child, ast.Call) and not inside:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Description":
                    lines.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_builder_constructs_descriptions(path):
    # the canonical order and rank alignment live in descriptions.canonical
    builder = "canonical" if path.name == "descriptions.py" else ""
    lines = _description_calls(path.read_text(encoding="utf-8"), builder)
    assert not lines, f"{path.name}: Description(...) built outside the builder on line(s) {lines}"


def test_the_description_rule_sees_every_call():
    source = (
        "from matroidkit import descriptions\n"
        "from matroidkit.descriptions import Description\n"
        "d = Description('bases', 0, ())\n"
        "def canonical(kind, n, sets):\n"
        "    return Description(kind, n, tuple(sets))\n"
        "def dual(desc):\n"
        "    return descriptions.Description(desc.kind, desc.n, desc.sets)\n"
        "class Holder:\n"
        "    def build(self):\n"
        "        return [Description('bases', 0, ()) for _ in ()]\n"
        "x = descriptions.description('bases', 0, [])\n"
    )
    assert _description_calls(source) == [3, 5, 7, 10]
    assert _description_calls(source, "canonical") == [3, 7, 10]


#: The functions that may touch the process environment: the ground-set
#: cap reads ``MATROID_MAX_N``, and the entry point sets the BLAS thread
#: count.  Any other use would be a new environment variable.
ENV_USERS = frozenset({("bitsets.py", "max_ground"), ("cli.py", "main")})
ENV_NAMES = frozenset({"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"})


def _environment_uses(source: str):
    """(line, innermost enclosing function or "") of each ``os.environ``,
    ``os.getenv`` or ``os.putenv`` attribute and each import of them."""
    uses = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in ENV_NAMES:
                uses.append((child.lineno, func))
            elif isinstance(child, ast.ImportFrom) and child.module == "os":
                if ENV_NAMES & {alias.name for alias in child.names}:
                    uses.append((child.lineno, func))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(ast.parse(source), "")
    return sorted(uses)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_cap_and_the_entry_point_touch_the_environment(path):
    uses = _environment_uses(path.read_text(encoding="utf-8"))
    lines = [line for line, func in uses if (path.name, func) not in ENV_USERS]
    assert not lines, f"{path.name}: environment touched on line(s) {lines}"


def test_the_environment_rule_sees_every_form():
    source = (
        "import os\n"
        "from os import environ\n"
        "def max_ground():\n"
        "    return os.environ['MATROID_MAX_N']\n"
        "def other():\n"
        "    return os.getenv('X'), environ['Y']\n"
        "class Holder:\n"
        "    def set(self):\n"
        "        os.putenv('Z', '1')\n"
        "x = os.environ.get('W')\n"
    )
    assert _environment_uses(source) == [
        (2, ""), (4, "max_ground"), (6, "other"), (9, "set"), (10, ""),
    ]


def _classify_uses(source: str):
    """Lines that import, call or otherwise name ``classify``; its own
    definition is not a use."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "classify":
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "classify":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "classify" for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_size_tables_classify_every_family(path):
    # classify builds all nine family tables; every other command lists
    # one kind and builds that kind's table alone, through family_table
    lines = _classify_uses(path.read_text(encoding="utf-8"))
    if path.name == "harness.py":
        assert lines, "harness.py: the sizes experiment no longer calls classify"
    else:
        assert not lines, f"{path.name}: classify used on line(s) {lines}"


def test_the_classify_rule_sees_every_form():
    source = (
        "from . import tables\n"
        "from .tables import classify\n"
        "from .tables import classify as every_family\n"
        "def classify(view):\n"
        "    return {}\n"
        "x = tables.classify(view)\n"
        "y = classify(view)\n"
        "f = tables.classify\n"
        "z = tables.family_table(view, 'bases')\n"
    )
    assert _classify_uses(source) == [2, 3, 6, 7, 8]


#: The listed layer's helpers: Python loops over the listed sets, some of
#: them quadratic in the listing, and the view that runs such rules.
LISTED_HELPERS = frozenset(
    {"minimal_sets", "maximal_sets", "canonical_order", "columns", "_flat_heights", "to_view"}
)


def _listed_helper_uses(source: str):
    """Lines that import, call or otherwise name a listed-layer helper."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in LISTED_HELPERS:
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in LISTED_HELPERS:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in LISTED_HELPERS for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_table_decoder_names_no_listed_helper():
    # tables.decode reads each kind's listed sets by subset transforms
    # alone, so a table costs n * 2**n cells whatever the listing's size
    path = SOURCES[0].parent / "tables.py"
    lines = _listed_helper_uses(path.read_text(encoding="utf-8"))
    assert not lines, f"tables.py: listed-layer helper named on line(s) {lines}"


def test_the_listed_helper_rule_sees_every_form():
    source = (
        "from .bitsets import minimal_sets\n"
        "from .bitsets import maximal_sets as tops, popcount\n"
        "from . import bitsets, descriptions\n"
        "def decode(desc):\n"
        "    heights = descriptions._flat_heights(desc.sets)\n"
        "    return bitsets.canonical_order(desc.sets)\n"
        "class Holder:\n"
        "    def rows(self, sets, n):\n"
        "        return [columns(s, n) for s in sets]\n"
        "view = descriptions.to_view\n"
        "x = bitsets.full_mask(3)\n"
    )
    assert _listed_helper_uses(source) == [1, 2, 5, 6, 9, 10]


def _is_listing(node) -> bool:
    """``sets``, ``desc.sets``, ``desc.set_ranks`` or a ``zip`` of them."""
    if isinstance(node, ast.Name):
        return node.id == "sets"
    if isinstance(node, ast.Attribute):
        return node.attr in ("sets", "set_ranks")
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "zip"
        and any(_is_listing(arg) for arg in node.args)
    )


def _listing_loops(source: str, function: str = "decode"):
    """Lines of the ``for`` loops and comprehensions inside the top-level
    ``function`` that iterate over the listing."""
    lines = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            for node in ast.walk(top):
                if isinstance(node, (ast.For, ast.comprehension)) and _is_listing(node.iter):
                    lines.append(node.iter.lineno)
    return sorted(lines)


def test_the_table_decoder_never_loops_over_the_listing():
    # one pass per listed set would make a table's cost grow with k
    path = SOURCES[0].parent / "tables.py"
    lines = _listing_loops(path.read_text(encoding="utf-8"))
    assert not lines, f"tables.decode: loop over the listed sets on line(s) {lines}"


def test_the_listing_loop_rule_sees_every_form():
    source = (
        "def decode(desc):\n"
        "    n, sets = desc.n, desc.sets\n"
        "    for z in sets:\n"
        "        pass\n"
        "    for z, rz in zip(sets, desc.set_ranks):\n"
        "        pass\n"
        "    rows = [z & 1 for z in desc.sets]\n"
        "    ranks = {z: rz for z, rz in zip(range(3), desc.set_ranks)}\n"
        "    for b in range(n):\n"
        "        bits = any(b for _ in indicator(n, sets))\n"
        "    return sum(rz for rz in desc.set_ranks)\n"
        "def encode(desc):\n"
        "    return [z for z in desc.sets]\n"
    )
    assert _listing_loops(source) == [3, 5, 7, 8, 11]


def _isomorphic_uses(source: str, helper: str = "_first_minor"):
    """Lines that name ``isomorphic`` (a call, an attribute, an alias or
    a bare reference) outside the function ``helper`` and outside the
    definition of ``isomorphic`` itself."""
    lines = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name in (helper, "isomorphic"))
                continue
            if not inside:
                if isinstance(child, ast.Name) and child.id == "isomorphic":
                    lines.append(child.lineno)
                elif isinstance(child, ast.Attribute) and child.attr == "isomorphic":
                    lines.append(child.lineno)
                elif isinstance(child, ast.ImportFrom):
                    if any(alias.name == "isomorphic" for alias in child.names):
                        lines.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_both_minor_searches_test_minors_in_one_helper():
    # the two minor searches differ only in their contract sets; the
    # minor they test, the one verify_minor_witness checks, is built and
    # compared in reductions._first_minor alone
    path = SOURCES[0].parent / "reductions.py"
    source = path.read_text(encoding="utf-8")
    lines = _isomorphic_uses(source)
    assert not lines, f"reductions.py: isomorphic used outside _first_minor on line(s) {lines}"
    assert _isomorphic_uses(source, helper=""), "reductions.py: _first_minor no longer calls isomorphic"


def test_the_isomorphic_rule_sees_every_form():
    source = (
        "from . import reductions\n"
        "from .reductions import isomorphic as iso\n"
        "def isomorphic(a, b):\n"
        "    return isomorphic(b, a)\n"
        "def _first_minor(rt, pattern, candidates):\n"
        "    def test(view):\n"
        "        return isomorphic(view, pattern)\n"
        "    return isomorphic(rt, pattern)\n"
        "def detect_minor_fixed(host, pattern):\n"
        "    return isomorphic(host, pattern)\n"
        "class Search:\n"
        "    def run(self):\n"
        "        return [reductions.isomorphic(a, b) for a, b in ()]\n"
        "test = isomorphic\n"
    )
    assert _isomorphic_uses(source) == [2, 10, 13, 14]
    assert _isomorphic_uses(source, helper="") == [2, 7, 8, 10, 13, 14]


TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names(source: str):
    """What the traced benchmark run wraps, read from its source: the
    ``MODULES`` it patches, every two-string tuple literal that names one
    of them (the keys of ``SPANS`` and ``OVERRIDES``, ``COUNTED``,
    ``convert_edge``), and the ``MatroidView`` methods in ``CORE_METHODS``."""
    tree = ast.parse(source)
    consts = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    modules = ast.literal_eval(consts["MODULES"])
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                module, attr = (e.value for e in node.elts)
                if module in modules:
                    pairs.add((module, attr))
    return modules, sorted(pairs), ast.literal_eval(consts["CORE_METHODS"])


def test_every_name_the_benchmark_trace_wraps_exists():
    # the traced run swaps these names for wrappers; one renamed away
    # would crash it with an AttributeError instead of failing here
    modules, pairs, methods = _traced_names(TRACING.read_text(encoding="utf-8"))
    assert ("conversions", "convert_edge") in pairs
    assert ("bitsets", "check_mask") in pairs
    kit = {name: importlib.import_module(f"matroidkit.{name}") for name in modules}
    missing = [f"{m}.{a}" for m, a in pairs if not hasattr(kit[m], a)]
    missing += [f"core.MatroidView.{name}" for name in methods
                if not hasattr(kit["core"].MatroidView, name)]
    assert not missing, f"perfbench/tracing.py wraps names that do not exist: {missing}"

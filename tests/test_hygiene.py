"""Source hygiene of the package, read with the standard library's ast.

Every name a module imports is used in that module, and every private
top-level function or class is referenced somewhere in the package, so
no import or helper outlives the code that needed it.  The modules'
imports of one another form no cycle, so the package reads in layers.
Only tensor.as_real casts to float64, so every reader refuses complex
input the same way, and only linalg calls numpy's LAPACK factorizations,
so every factor takes its signs from one place.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttsketch"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# Bound on purpose: perfbench's tracer test finds `svd` in decompose's
# namespace, although decompose itself calls left_svd, and `qr` in als's,
# although als runs its steps through decompose's sweep.
UNUSED_ON_PURPOSE = {("decompose", "svd"), ("als", "qr")}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def _loaded(tree):
    """Names read anywhere in the tree, plus the strings of __all__."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _referenced(tree):
    """Names read or imported, and attributes taken, anywhere in the tree."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_modules_were_found():
    assert {"decompose", "linalg", "tt", "tensor", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    loaded = _loaded(tree)
    unused = [name for name in _imported(tree)
              if name not in loaded and (module, name) not in UNUSED_ON_PURPOSE]
    assert unused == []


def test_the_kept_imports_are_still_bound_and_unused():
    # An exception that no longer applies is itself a leftover.
    for module, name in UNUSED_ON_PURPOSE:
        tree = MODULES[module]
        assert name in set(_imported(tree))
        assert name not in _loaded(tree)


def test_every_private_helper_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _referenced(tree)
    private = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert private == []


def _package_imports(tree):
    """The package modules a module imports, at top level or in a function:
    `from .m import ...` gives m, `from . import m` gives m."""
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            deps.update([node.module.split(".")[0]] if node.module
                        else (alias.name for alias in node.names))
    return deps


def _in_cycles(graph):
    """The modules left once every module that imports none of the others
    left is peeled off, layer by layer: empty if and only if there is no
    cycle."""
    left = dict(graph)
    while True:
        layer = [m for m, deps in left.items() if not deps & left.keys()]
        if not layer:
            return sorted(left)
        for m in layer:
            del left[m]


def test_peeling_finds_a_cycle():
    assert _in_cycles({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == [
        "a", "b", "c", "d"]
    assert _in_cycles({"a": set(), "b": {"a"}, "c": {"a", "b"}}) == []


def test_package_imports_have_no_cycle():
    graph = {module: _package_imports(tree) for module, tree in MODULES.items()}
    assert all(deps <= set(MODULES) for deps in graph.values())
    assert _in_cycles(graph) == []


# The casts the rule covers, with the position of their dtype argument.
_DTYPE_POSITION = {"asarray": 1, "astype": 0}


def _is_float64(node):
    return (isinstance(node, ast.Attribute) and node.attr == "float64"
            or isinstance(node, ast.Name) and node.id == "float64"
            or isinstance(node, ast.Constant) and node.value == "float64")


def _float64_casts(tree, where=None):
    """The enclosing function (None at module level) of every
    `np.asarray(..., dtype=np.float64)` and `.astype(np.float64)` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _float64_casts(node, node.name)
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DTYPE_POSITION):
            at = _DTYPE_POSITION[node.func.attr]
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if any(map(_is_float64, dtypes + node.args[at:at + 1])):
                yield where
        yield from _float64_casts(node, where)


def test_float64_cast_finder_finds_every_form():
    tree = ast.parse(
        "a = np.asarray(x, dtype=np.float64)\n"
        "def f(x):\n"
        "    def g(y):\n"
        "        return y.astype(np.float64)\n"
        "    return np.asarray(x, np.float64), x.astype(dtype='float64')\n"
        "def h(x):\n"
        "    return np.asarray(x), x.astype(np.int64), np.array(x, dtype=np.float64)\n"
    )
    assert list(_float64_casts(tree)) == [None, "g", "f", "f"]


def test_only_as_real_casts_to_float64():
    sites = {(module, where) for module, tree in MODULES.items()
             for where in _float64_casts(tree)}
    assert sites == {("tensor", "as_real")}


# numpy.linalg's functions that call LAPACK; its norms and products do not.
_LAPACK = {"cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv",
           "lstsq", "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd",
           "svdvals", "tensorinv", "tensorsolve"}


def _lapack_names(tree):
    """The numpy.linalg factorizations a module names, in every form:
    `np.linalg.f` with np bound to numpy, `la.f` with la bound to
    numpy.linalg, and `from numpy.linalg import f`."""
    numpy, numpy_linalg, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.linalg" and alias.asname:
                    numpy_linalg.add(alias.asname)
                elif alias.name in ("numpy", "numpy.linalg"):  # both bind numpy
                    numpy.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                numpy_linalg.update(alias.asname or alias.name
                                    for alias in node.names if alias.name == "linalg")
            elif node.module == "numpy.linalg":
                found += [alias.name for alias in node.names if alias.name in _LAPACK]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _LAPACK:
            base = node.value
            if (isinstance(base, ast.Name) and base.id in numpy_linalg
                    or isinstance(base, ast.Attribute) and base.attr == "linalg"
                    and isinstance(base.value, ast.Name) and base.value.id in numpy):
                found.append(node.attr)
    return found


def test_lapack_finder_finds_every_form():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import cholesky, norm\n"
        "from . import linalg as own\n"
        "a = np.linalg.qr(x), la.eigh(x), linalg.svd(x), np.linalg.norm(x)\n"
        "b = own.qr(x), x.qr(), np.qr\n"
    )
    assert sorted(_lapack_names(tree)) == ["cholesky", "eigh", "qr", "svd"]
    assert _lapack_names(ast.parse("import numpy.linalg\nnumpy.linalg.inv(x)")) == ["inv"]


def test_only_linalg_calls_lapack():
    names = {module: sorted(set(_lapack_names(tree))) for module, tree in MODULES.items()}
    assert {module for module, found in names.items() if found} == {"linalg"}
    assert names["linalg"] == ["qr", "svd"]

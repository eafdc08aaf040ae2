"""Source hygiene: every name a package module imports is used in it,
every import sits at module level, every function, method and class the
package defines is referenced somewhere, the batch expression compiler
covers exactly the grammar's functions, in whole trees and in staged ones
(exprlang.stage), one function holds the
singularity test, and one function loops over RK4 steps."""

import ast
from pathlib import Path

import numpy as np
import pytest

from bundleconn import exprlang
from bundleconn.errors import NonFinite

SRC = Path(__file__).resolve().parent.parent / "src" / "bundleconn"
TESTS = Path(__file__).resolve().parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def function_imports(source):
    """Line numbers of the imports inside a function body."""
    lines = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(node.lineno for node in ast.walk(func)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("import math\nfrom os import path, sep\n"
              "__all__ = ['sep']\n")
    assert unused_imports(source) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_function_local_import_is_reported():
    source = ("import math\n\n"
              "def f():\n"
              "    from os import path\n"
              "    def g():\n"
              "        import sys\n"
              "    return math, path\n")
    assert function_imports(source) == [4, 6]


def definitions_and_references(source, module):
    """The (qualified name, name) of every function, method and class the
    source defines, and the set of names it references: Name and Attribute
    nodes and string constants, not counting a definition's references to
    itself from its own body."""
    defined, referenced = [], set()

    def walk(node, enclosing, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                defined.append((f"{scope}.{child.name}", child.name))
                walk(child, enclosing | {child.name}, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str)):
                name = child.value
            else:
                name = None
            if name is not None and name not in enclosing:
                referenced.add(name)
            walk(child, enclosing, scope)

    walk(ast.parse(source), frozenset(), module)
    return defined, referenced


def unreferenced(sources, defining):
    """Qualified names of the definitions in the `defining` modules of
    {module: source} that no module references (dunder methods are called
    by the language)."""
    defined, referenced = [], set()
    for module, source in sources.items():
        defs, refs = definitions_and_references(source, module)
        referenced |= refs
        if module in defining:
            defined += defs
    return sorted(qual for qual, name in defined
                  if name not in referenced
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_referenced():
    sources = {f"{path.parent.name}/{path.stem}": path.read_text(
        encoding="utf-8")
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    defining = {module for module in sources
                if module.startswith(f"{SRC.name}/")}
    assert unreferenced(sources, defining) == []


def test_unreferenced_definition_is_reported():
    package = ("class Box:\n"
               "    def __init__(self):\n"
               "        self.lo = 0\n"
               "    def width(self):\n"
               "        return self.width()\n"
               "    def used(self):\n"
               "        return 1\n"
               "def helper():\n"
               "    def inner():\n"
               "        return 2\n"
               "    return inner\n"
               "def dead():\n"
               "    return dead()\n"
               "NAMES = ['named']\n"
               "def named():\n"
               "    return 3\n")
    test = "from m import Box, helper\nBox().used()\nhelper()\n"
    assert unreferenced({"m": package, "test_m": test}, {"m"}) == [
        "m.Box.width", "m.dead"]


def singularity_sites(source, module):
    """Qualified names of the functions (or the module) that call
    np.linalg.det or read SINGULAR_DET."""
    sites = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if ((isinstance(child, ast.Attribute) and child.attr == "det"
                 and isinstance(child.value, ast.Attribute)
                 and child.value.attr == "linalg")
                    or (isinstance(child, ast.Name)
                        and child.id == "SINGULAR_DET"
                        and isinstance(child.ctx, ast.Load))):
                sites.add(scope)
            walk(child, scope)

    walk(ast.parse(source), module)
    return sorted(sites)


# the suite's determinant bound draws well-conditioned random matrices; it
# is not a singularity test
SINGULARITY_SITES = ["fields.nonsingular", "suites.transformation_laws_suite"]


def test_singularity_test_lives_in_nonsingular():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += singularity_sites(path.read_text(encoding="utf-8"),
                                   path.stem)
    assert sorted(sites) == SINGULARITY_SITES


def test_singularity_site_is_reported():
    source = ("import numpy as np\n"
              "SINGULAR_DET = 1e-12\n"
              "class F:\n"
              "    def __call__(self, M):\n"
              "        return abs(np.linalg.det(M)) < SINGULAR_DET\n"
              "def g(M):\n"
              "    return M.det, SINGULAR_DET\n"
              "def h(M):\n"
              "    return np.linalg.inv(M)\n")
    assert singularity_sites(source, "m") == ["m.F.__call__", "m.g"]


STEP_LOOP_READS = {"nsteps", "rhs", "rhs_many"}


def rk4_step_sites(source, module):
    """(qualified names of the functions that loop over RK4 steps, those
    that name a defect). A step loop is a loop or comprehension that reads
    `nsteps` or a right-hand side (`rhs`, `rhs_many`)."""
    loops, defects = set(), set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, (ast.For, ast.While, ast.ListComp,
                                  ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp)):
                reads = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(child)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if reads & STEP_LOOP_READS:
                    loops.add(scope)
            if isinstance(child, ast.Name) and "defect" in child.id:
                defects.add(scope)
            walk(child, scope)

    walk(ast.parse(source), module)
    return sorted(loops), sorted(defects)


def test_one_rk4_driver_loops_over_steps():
    source = (SRC / "transport.py").read_text(encoding="utf-8")
    assert rk4_step_sites(source, "transport") == (["transport._rk4"],
                                                   ["transport._rk4"])


def test_second_step_loop_and_defect_are_reported():
    source = ("def _rk4(rhs, grid):\n"
              "    for i in range(grid.nsteps):\n"
              "        defect = rhs(i)\n"
              "def driver(grid):\n"
              "    def rhs(k):\n"
              "        return k\n"
              "    ys = [rhs(k) for k in grid.bases]\n"
              "    while ys:\n"
              "        ys.pop()\n"
              "    return ys\n"
              "def other(grid):\n"
              "    def rhs(k):\n"
              "        my_defect = k - 1\n"
              "        return my_defect\n"
              "    return [s for s in grid.ts]\n")
    assert rk4_step_sites(source, "m") == (["m._rk4", "m.driver"],
                                           ["m._rk4", "m.other.rhs"])


def staged_values(node, cols, us):
    """A tree over (x1, x2, u1) evaluated the staged way, as bytes per
    point: the base-only parts in one batch, then the spine per point."""
    spine, parts = exprlang.stage(node, ("x1", "x2"))
    table = [exprlang.compile_batch(part, ("x1", "x2"))(*cols)
             for part in parts]
    names = ("x1", "x2", *(f"@{i}" for i in range(len(parts))), "u1")
    fn = exprlang.compile_fn(spine, names, checked=False)
    rows = np.column_stack([*cols, *table, us]).tolist()
    return np.array([fn(row) for row in rows]).tobytes()


def test_batch_compiler_handles_exactly_the_grammar_functions():
    # compile_batch dispatches calls through _CALL_IMPL, like compile_fn
    assert set(exprlang._CALL_IMPL) == set(exprlang.FUNCTION_ARITY)
    names = ("x1", "x2")
    cols = (np.linspace(0.1, 1.4, 7), np.linspace(0.3, 0.9, 7))
    for func, arity in exprlang.FUNCTION_ARITY.items():
        node = exprlang.Call(func, tuple(exprlang.Var(n)
                                         for n in names[:arity]))
        batch = exprlang.compile_batch(node, names)(*cols)
        point = exprlang.compile_fn(node, names)
        assert np.array_equal(batch, [point(p) for p in zip(*cols)]), func
    # staged: the function as a base-only part (compile_batch) and, with
    # a fibre argument, in the spine (compile_fn with unchecked leaves)
    xu = ("x1", "x2", "u1")
    us = np.linspace(0.2, 1.3, 7)
    for func, arity in [*exprlang.FUNCTION_ARITY.items(), ("^", 2)]:
        for args in (("x1", "x2"), ("u1", "x2")):
            leaves = tuple(exprlang.Var(n) for n in args[:arity])
            call = (exprlang.BinOp("^", *leaves) if func == "^"
                    else exprlang.Call(func, leaves))
            node = exprlang.BinOp("*", call, exprlang.Var("u1"))
            whole = exprlang.compile_fn(node, xu)
            points = np.column_stack([*cols, us]).tolist()
            expected = [whole(p) for p in points]
            assert (staged_values(node, cols, us)
                    == np.array(expected).tobytes()), (func, args)
    unknown = exprlang.Call("sinh", (exprlang.Var("x1"),))
    with pytest.raises(KeyError):
        exprlang.compile_batch(unknown, names)


def test_power_is_the_function_pow():
    # '^' runs through the closure of pow, under its own label
    names = ("x1", "x2")
    cols = (np.linspace(0.1, 3.0, 9), np.linspace(-2.5, 2.5, 9))
    caret, call = (exprlang.parse(src) for src in ("x1^x2", "pow(x1, x2)"))
    assert (exprlang.compile_batch(caret, names)(*cols).tobytes()
            == exprlang.compile_batch(call, names)(*cols).tobytes())
    caret, call = (exprlang.compile_fn(ast, names) for ast in (caret, call))
    assert (np.array([caret(p) for p in zip(*cols)]).tobytes()
            == np.array([call(p) for p in zip(*cols)]).tobytes())
    with pytest.raises(NonFinite, match="^'\\^': math domain error$"):
        caret((-2.0, 0.5))
    with pytest.raises(NonFinite, match="^'\\^': math range error$"):
        caret((10.0, 400.0))
    with pytest.raises(NonFinite, match="^pow: math domain error$"):
        call((-2.0, 0.5))

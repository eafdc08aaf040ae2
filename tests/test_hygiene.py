"""Source hygiene: every name a package or test module imports is used in
it, every import sits at module level, no package module uses numpy.random, every function, method and class the
package defines is referenced somewhere, every attribute it stores is
read somewhere, the compiled batches and kernels
cover exactly the grammar's functions, one function holds the singularity
test, one function loops over RK4 steps, one function compiles generated
code, one function turns expression trees into code, a compiled kernel
calls no Python-level function per point, cli.main reuses the parser
built at import, no function only passes its own parameters on to another,
and every `module.name` the README and docs name exists."""

import ast
import builtins
import importlib
import re
import types
from pathlib import Path

import numpy as np
import pytest

from bundleconn import cli, exprlang, fields, transport
from bundleconn.errors import NonFinite
from bundleconn.fields import MatrixField, ScalarField

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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("import math\nfrom os import path, sep\n"
              "__all__ = ['sep']\n")
    assert unused_imports(source) == [(1, "math"), (2, "path")]


def numpy_random_uses(source):
    """Line numbers that import numpy.random or read np.random."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.random") for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("numpy.random") or (
                    node.module == "numpy"
                    and any(a.name == "random" for a in node.names)):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy")):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_does_not_use_numpy_random(path):
    # the suites' fixtures come from suites._Rng, on the standard library's
    # random(); importing numpy.random would cost every process that runs
    # them about 6 MB
    assert numpy_random_uses(path.read_text(encoding="utf-8")) == []


def test_numpy_random_use_is_reported():
    source = ("import numpy as np\nimport numpy.random\n"
              "from numpy.random import default_rng\n"
              "from numpy import random, linalg\n"
              "rng = np.random.default_rng(1)\n"
              "x = numpy.random\n"
              "y = np.linalg\n"
              "# np.random in a comment is prose\n")
    assert numpy_random_uses(source) == [2, 3, 4, 5, 6]


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


def package_and_test_sources():
    """{module: source} of the package and the tests, and the package's
    module names."""
    sources = {f"{path.parent.name}/{path.stem}": path.read_text(
        encoding="utf-8")
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    return sources, {module for module in sources
                     if module.startswith(f"{SRC.name}/")}


def test_every_definition_is_referenced():
    assert unreferenced(*package_and_test_sources()) == []


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


def attribute_stores_and_reads(source, module):
    """The (qualified name, name) of every attribute the source stores on
    an object (x.name = ...) and of every dataclass field, and the set of
    attribute names it reads (x.name; a string, as getattr takes, does not
    count)."""
    stored, read = [], set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d)
                       for d in child.decorator_list):
                    stored.extend(
                        (f"{scope}.{child.name}.{s.target.id}", s.target.id)
                        for s in child.body if isinstance(s, ast.AnnAssign))
                walk(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Store):
                    stored.append((f"{scope}.{child.attr}", child.attr))
                else:
                    read.add(child.attr)
            walk(child, scope)

    walk(ast.parse(source), module)
    return stored, read


def unread_attributes(sources, defining):
    """Qualified names of the attributes the `defining` modules of
    {module: source} store that no module reads (dunders are read by the
    language)."""
    stored, read = [], set()
    for module, source in sources.items():
        stores, reads = attribute_stores_and_reads(source, module)
        read |= reads
        if module in defining:
            stored += stores
    return sorted({qual for qual, name in stored if name not in read
                   and not (name.startswith("__") and name.endswith("__"))})


def test_every_stored_attribute_is_read():
    assert unread_attributes(*package_and_test_sources()) == []


def test_unread_attribute_is_reported():
    package = ("from dataclasses import dataclass\n"
               "@dataclass\n"
               "class Point:\n"
               "    x: float\n"
               "    label: str = ''\n"
               "class Box:\n"
               "    def __init__(self, p):\n"
               "        self.lo = p.x\n"
               "        self.hi = 0\n"
               "        self.__doc__ = 'box'\n"
               "def tag(box):\n"
               "    box.note = 'seen'\n"
               "    box.hi += 1\n"
               "    return getattr(box, 'note')\n")
    test = "from m import Box\nassert Box(None).lo == 0\n"
    assert unread_attributes({"m": package, "test_m": test}, {"m"}) == [
        "m.Box.hi", "m.Point.label", "m.hi", "m.note"]


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


SINGULARITY_SITES = ["fields.nonsingular"]


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


STEP_LOOP_READS = {"nsteps", "rhs", "rhs_many", "step"}


def rk4_step_sites(source, module):
    """(qualified names of the functions that loop over RK4 steps, those
    that name a defect). A step loop is a loop or comprehension that reads
    `nsteps`, a right-hand side (`rhs`, `rhs_many`) or a step (`step`, a
    checked or compiled RK4 step)."""
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
              "    return [s for s in grid.ts]\n"
              "def compiled(field, grid, y):\n"
              "    step = field.kernel(None, None)\n"
              "    for b, h in zip(grid.bases, grid.hs):\n"
              "        y = step(b, h, y)\n"
              "    return y\n")
    assert rk4_step_sites(source, "m") == (
        ["m._rk4", "m.compiled", "m.driver"], ["m._rk4", "m.other.rhs"])


def code_generation_sites(source, module):
    """(builtin, qualified name of the function or module) of every call
    of compile or exec, sorted."""
    sites = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id in ("compile", "exec")):
                sites.append((child.func.id, scope))
            walk(child, scope)

    walk(ast.parse(source), module)
    return sorted(sites)


def test_one_function_compiles_generated_code():
    # kernels and batches are both defined through fields._define
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += code_generation_sites(path.read_text(encoding="utf-8"),
                                       path.stem)
    assert sorted(sites) == [("compile", "fields._define"),
                             ("exec", "fields._define")]


def test_second_code_generator_is_reported():
    source = ("import re\n"
              "def define(text, space):\n"
              "    exec(compile(text, '<f>', 'exec'), space)\n"
              "class Batch:\n"
              "    def build(self, text):\n"
              "        return compile(text, '<g>', 'exec')\n"
              "PATTERN = re.compile('x')\n"
              "exec('y = 1')\n")
    assert code_generation_sites(source, "m") == [
        ("compile", "m.Batch.build"), ("compile", "m.define"),
        ("exec", "m"), ("exec", "m.define")]


TREE_NODES = {"BinOp", "Neg", "Call"}
# renderers and rewriters of trees, and the one walk that turns a tree into
# code (exprlang.program: run interprets it, ssa_lines prints it)
TREE_WALKERS = ["exprlang._neg", "exprlang.derivative", "exprlang.pretty",
                "exprlang.program.walk", "suites._sexpr"]


def tree_dispatch_sites(source, module):
    """Qualified names of the functions (or the module) that dispatch on an
    operator node of an expression tree: an isinstance test against BinOp,
    Neg or Call, by name or as an attribute."""
    sites = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and len(child.args) == 2
                    and TREE_NODES & {
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(child.args[1])
                        if isinstance(n, (ast.Name, ast.Attribute))}):
                sites.add(scope)
            walk(child, scope)

    walk(ast.parse(source), module)
    return sorted(sites)


def test_one_function_turns_trees_into_code():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += tree_dispatch_sites(path.read_text(encoding="utf-8"),
                                     path.stem)
    assert sorted(sites) == TREE_WALKERS


def test_second_tree_walker_is_reported():
    source = ("from bundleconn import exprlang\n"
              "from bundleconn.exprlang import BinOp, Call, Const, Neg\n"
              "def evaluate(node, env):\n"
              "    if isinstance(node, BinOp):\n"
              "        return evaluate(node.lhs, env)\n"
              "class Printer:\n"
              "    def emit(self, node):\n"
              "        return isinstance(node, (Const, Neg))\n"
              "def leaf(node):\n"
              "    return isinstance(node, Const)\n"
              "def qualified(node):\n"
              "    return isinstance(node, exprlang.Call)\n"
              "CALLS = [n for n in () if isinstance(n, Call)]\n")
    assert tree_dispatch_sites(source, "m") == [
        "m", "m.Printer.emit", "m.evaluate", "m.qualified"]


def batch_values(node, names, cols):
    """A tree over `names` evaluated on float columns by ScalarField.values,
    as bytes, through its compiled batch, which may not fall back."""
    field = ScalarField(node, names)
    points = np.column_stack(cols)
    assert field._batch_values(points) is not None, node
    return field.values(points).tobytes()


def kernel_values(node, cols, us, h=1e-3):
    """RK4 steps of u1' = a tree over (x1, x2, u1), from u1 = us[b] at row
    b of the table of cols, as bytes: (the compiled step, which reads
    (x1, x2) from the table row and may not fall back, the checked step
    over exprlang.evaluate)."""
    def no_fallback(b, h, y):
        raise AssertionError(f"the kernel fell back at row {b}")

    xu = ("x1", "x2", "u1")
    table = np.column_stack([*cols, *np.ones((2, len(cols[0])))])
    step = ScalarField(node, xu).kernel(lambda G, v: G, no_fallback, table)
    checked = transport._checked_step(lambda k, y: [exprlang.evaluate(
        node, dict(zip(xu, (*table[k, :2].tolist(), *y))))])
    return tuple(np.array([run(b, h, [u]) for b, u in
                           enumerate(us[:len(table) - 2].tolist())]).tobytes()
                 for run in (step, checked))


def test_batch_compiler_handles_exactly_the_grammar_functions():
    # a batch applies each function of _CALL_IMPL element by element, and a
    # compiled kernel calls the same functions, under their names
    assert set(exprlang._CALL_IMPL) == set(exprlang.FUNCTION_ARITY)
    assert set(exprlang.BATCH_GLOBALS) == set(exprlang.FUNCTION_ARITY)
    assert all(exprlang.KERNEL_GLOBALS[name] is impl
               for name, impl in exprlang._CALL_IMPL.items())
    names = ("x1", "x2")
    cols = (np.linspace(0.1, 1.4, 7), np.linspace(0.3, 0.9, 7))
    for func, arity in exprlang.FUNCTION_ARITY.items():
        node = exprlang.Call(func, tuple(exprlang.Var(n)
                                         for n in names[:arity]))
        want = np.array([exprlang.evaluate(node, dict(zip(names, p)))
                         for p in zip(*cols)]).tobytes()
        assert batch_values(node, names, cols) == want, func
        impl = exprlang._CALL_IMPL[func]
        assert (exprlang.BATCH_GLOBALS[func](*cols[:arity]).tobytes()
                == np.array([impl(*p) for p in zip(*cols[:arity])]
                            ).tobytes()), func
    # in a compiled step, with a base argument read from the table row
    # and with a fibre argument
    us = np.linspace(0.2, 1.3, 7)
    for func, arity in [*exprlang.FUNCTION_ARITY.items(), ("^", 2)]:
        for args in (("x1", "x2"), ("u1", "x2")):
            leaves = tuple(exprlang.Var(n) for n in args[:arity])
            call = (exprlang.BinOp("^", *leaves) if func == "^"
                    else exprlang.Call(func, leaves))
            node = exprlang.BinOp("*", call, exprlang.Var("u1"))
            compiled, checked = kernel_values(node, cols, us)
            assert compiled == checked, (func, args)
    unknown = exprlang.Call("sinh", (exprlang.Var("x1"),))
    with pytest.raises(KeyError):
        exprlang.program([unknown], names)
    with pytest.raises(KeyError):
        ScalarField(unknown, names)


def test_power_is_the_function_pow():
    # '^' runs through the step of pow, under its own label
    names = ("x1", "x2")
    cols = (np.linspace(0.1, 3.0, 9), np.linspace(-2.5, 2.5, 9))
    caret, call = (exprlang.parse(src) for src in ("x1^x2", "pow(x1, x2)"))
    assert batch_values(caret, names, cols) == batch_values(call, names,
                                                            cols)
    caret, call = (
        lambda p, ast=ast: exprlang.evaluate(ast, dict(zip(names, p)))
        for ast in (caret, call))
    assert (np.array([caret(p) for p in zip(*cols)]).tobytes()
            == np.array([call(p) for p in zip(*cols)]).tobytes())
    with pytest.raises(NonFinite, match="^'\\^': math domain error$"):
        caret((-2.0, 0.5))
    with pytest.raises(NonFinite, match="^'\\^': math range error$"):
        caret((10.0, 400.0))
    with pytest.raises(NonFinite, match="^pow: math domain error$"):
        call((-2.0, 0.5))


def kernel_calls(source):
    """The names a kernel's source calls, and the attributes it calls."""
    calls = [node.func for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)]
    return ({f.id for f in calls if isinstance(f, ast.Name)},
            {f.attr for f in calls if isinstance(f, ast.Attribute)})


def test_kernels_call_only_c_builtins(monkeypatch):
    # a Python helper such as exprlang._cot would cost one frame per call
    sources = []
    compile_ = compile
    monkeypatch.setattr(fields, "compile",
                        lambda text, *a: sources.append(text)
                        or compile_(text, *a), raising=False)
    xu = ("x1", "x2", "u1", "u2")
    for func, arity in [*exprlang.FUNCTION_ARITY.items(), ("^", 2)]:
        leaves = tuple(exprlang.Var(n) for n in ("u1", "x2")[:arity])
        call = (exprlang.BinOp("^", *leaves) if func == "^"
                else exprlang.Call(func, leaves))
        field = MatrixField.from_exprs([[call, "x1"]], xu)
        field.kernel(lambda G, v: [G[0] * v[0], G[1]] * 4, None)
        field.kernel(lambda G, v: [G[0] * v[0] + G[1] * v[1], G[1]], None,
                     np.array([[0.5, 0.5, 1.0, 2.0]]))
    assert len(sources) == 2 * (len(exprlang.FUNCTION_ARITY) + 1)
    scope = {**vars(builtins), **exprlang.KERNEL_GLOBALS}
    for source in sources:
        names, attributes = kernel_calls(source)
        assert all(isinstance(scope[name], types.BuiltinFunctionType)
                   for name in names - {"fallback"}), source
        assert attributes <= {"tolist"}, source


def test_python_level_call_in_a_kernel_is_reported():
    names, attributes = kernel_calls(
        "def kernel(p):\n    t0 = _cot(p[0])\n    return fallback(p)\n"
        "def other(k):\n    return table[k].tolist(), k.item()\n")
    assert names == {"_cot", "fallback"}
    assert attributes == {"tolist", "item"}
    assert not isinstance(exprlang._cot, types.BuiltinFunctionType)


def test_main_reuses_the_parser_built_at_import(tmp_path, monkeypatch,
                                                capsys):
    # rebuilding the argparse tree cost about half of a short job
    def rebuilt():
        raise AssertionError("cli.main built a parser")
    monkeypatch.setattr(cli, "build_parser", rebuilt)
    path = tmp_path / "flat.json"
    path.write_text('{"connection": "registry:flat", "point": [0.5, 0.5]}',
                    encoding="utf-8")
    codes = [cli.main(["curvature", "--config", str(path)]) for _ in range(2)]
    assert codes == [0, 0]
    assert len(capsys.readouterr().out.splitlines()) == 2


def pass_throughs(source, module):
    """Qualified names of the functions and methods whose body, after the
    docstring, is one return of a call that passes exactly the function's
    own parameters (a method's self or cls aside), each once and by name:
    another name for the function it calls."""
    found = []

    def passes_its_parameters(func, method):
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        if method and not any(isinstance(d, ast.Name)
                              and d.id == "staticmethod"
                              for d in func.decorator_list):
            params = params[1:]
        body = func.body[1:] if ast.get_docstring(func) else func.body
        if not (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)):
            return False
        call = body[0].value
        passed = [a.value if isinstance(a, ast.Starred) else a
                  for a in call.args] + [k.value for k in call.keywords]
        return (all(isinstance(a, ast.Name) for a in passed)
                and sorted(a.id for a in passed) == sorted(params))

    def walk(node, scope, method):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{scope}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if passes_its_parameters(child, method):
                    found.append(f"{scope}.{child.name}")
                walk(child, f"{scope}.{child.name}", False)
            else:
                walk(child, scope, method)

    walk(ast.parse(source), module, False)
    return sorted(found)


def test_no_function_only_passes_its_parameters_on():
    # callers call the function itself, with their own argument order
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += pass_throughs(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


def test_pass_through_is_reported():
    source = ("def alias(g, x, h=None):\n"
              "    \"\"\"The target, with g first.\"\"\"\n"
              "    return target(x, g, h=h)\n"
              "def star(*args, **kwargs):\n"
              "    return target(*args, **kwargs)\n"
              "class Box:\n"
              "    @classmethod\n"
              "    def make(cls, a, b):\n"
              "        return cls(a, b=b)\n"
              "    @staticmethod\n"
              "    def wrap(a):\n"
              "        return Box(a)\n"
              "    def moved(self, a):\n"
              "        return self.move(a + 1)\n"
              "    def pair(self, a):\n"
              "        return make(a, a)\n"
              "def fixed(a):\n"
              "    return target(a, 2)\n"
              "def fewer(a, b):\n"
              "    return target(a)\n"
              "def named(a):\n"
              "    x = a\n"
              "    return target(x)\n")
    assert pass_throughs(source, "m") == ["m.Box.make", "m.Box.wrap",
                                          "m.alias", "m.star"]


DOCS = [SRC.parent.parent / "README.md",
        *sorted((SRC.parent.parent / "docs").glob("*.md"))]


def doc_references(text, modules):
    """(every backticked `module.name` of a Markdown text whose module is
    one of {name: module}, those that name no attribute of it)."""
    refs = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)",
                                                          text)
            if module in modules]
    return refs, sorted({f"{module}.{name}" for module, name in refs
                         if not hasattr(modules[module], name)})


def test_docs_name_only_what_exists():
    modules = {path.stem: importlib.import_module(f"bundleconn.{path.stem}")
               for path in SRC.glob("*.py") if path.stem != "__init__"}
    found, stale = [], {}
    for path in DOCS:
        refs, missing = doc_references(path.read_text(encoding="utf-8"),
                                       modules)
        found += refs
        stale[path.name] = missing
    assert found
    assert stale == dict.fromkeys(stale, [])


def test_stale_doc_reference_is_reported():
    text = ("`fields.frame_partials` with `transport.gone(x)` and\n"
            "`fields.Region.contains`, `cli.PARSER`, `np.gone`, `x.y`;\n"
            "fields.gone outside backticks is prose\n")
    refs, stale = doc_references(text, {"fields": fields, "cli": cli,
                                        "transport": transport})
    assert refs == [("fields", "frame_partials"), ("transport", "gone"),
                    ("fields", "Region"), ("cli", "PARSER")]
    assert stale == ["transport.gone"]

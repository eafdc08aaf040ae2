"""Source hygiene: every name a package module imports is used in it,
every import sits at module level, and the batch expression compiler covers
exactly the grammar's functions."""

import ast
from pathlib import Path

import numpy as np
import pytest

from bundleconn import exprlang

SRC = Path(__file__).resolve().parent.parent / "src" / "bundleconn"


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
    unknown = exprlang.Call("sinh", (exprlang.Var("x1"),))
    with pytest.raises(KeyError):
        exprlang.compile_batch(unknown, names)

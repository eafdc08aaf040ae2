"""Independent reference for the checked evaluation of expression trees.

Written from the "Evaluation semantics" of docs/grammar.md, sharing no code
with bundleconn.exprlang: a plain recursive walk that evaluates every
occurrence of a node where it occurs (no shared subtrees, no program), in
post-order, left to right. It reads the package's tree nodes by their
fields only. A failure is an OracleFailure carrying the error type name and
the message that the documentation gives for it.
"""

from __future__ import annotations

import math


class OracleFailure(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(kind, message)
        self.kind = kind
        self.message = message


_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "cot": lambda a: math.cos(a) / math.sin(a),
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
    "pow": math.pow, "^": math.pow,
}


def _fail(message):
    raise OracleFailure("NonFinite", message)


def _build_checks(node, names):
    """What building a field checks, in post-order: names and constants."""
    kind = type(node).__name__
    if kind == "Const":
        if not math.isfinite(float(node.value)):
            _fail(f"constant {node.value!r}")
    elif kind == "Var":
        if node.name not in names:
            raise OracleFailure("UnboundVariable", node.name)
    elif kind == "Neg":
        _build_checks(node.operand, names)
    elif kind == "BinOp":
        _build_checks(node.lhs, names)
        _build_checks(node.rhs, names)
    else:
        for arg in node.args:
            _build_checks(arg, names)


def _value(node, scope):
    kind = type(node).__name__
    if kind == "Const":
        return float(node.value)
    if kind == "Var":
        v = scope[node.name]
        if not math.isfinite(v):
            _fail(f"variable {node.name} is {v!r}")
        return float(v)
    if kind == "Neg":
        return -_value(node.operand, scope)
    if kind == "BinOp" and node.op in "+-*/":
        lhs = _value(node.lhs, scope)
        rhs = _value(node.rhs, scope)
        if node.op == "/" and rhs == 0.0:
            _fail("division by zero")
        v = {"+": lambda: lhs + rhs, "-": lambda: lhs - rhs,
             "*": lambda: lhs * rhs, "/": lambda: lhs / rhs}[node.op]()
        if not math.isfinite(v):
            _fail(f"overflow in '{node.op}'")
        return v
    if kind == "BinOp":
        name, args = "'^'", [node.lhs, node.rhs]
        impl = _FUNCTIONS["^"]
    else:
        name, args, impl = node.func, list(node.args), _FUNCTIONS[node.func]
    values = [_value(arg, scope) for arg in args]
    try:
        v = impl(*values)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        _fail(f"{name}: {exc}")
    if not math.isfinite(v):
        _fail(f"{name} produced {v!r}")
    return v


def oracle_entries(trees, names, point):
    """The values of the entry trees of one field over the coordinate names
    at one point, in entry order, or an OracleFailure: first every check of
    building the field, then the entries one after another."""
    for tree in trees:
        _build_checks(tree, names)
    scope = dict(zip(names, point))
    return [_value(tree, scope) for tree in trees]

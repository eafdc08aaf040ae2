"""Built-in example connections used by the tests and the CLI.

Entries: "flat" (zero coefficients), "constant" (constant coefficient
matrices), "sphere-lc" (Levi-Civita connection of the round 2-sphere in
(theta, phi) coordinates), "pure-gauge" (planar rotation gauge field,
always flat), "cartan-flat" (affine with zero linear part and identity
inhomogeneous term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connection import AffineCoefficients, CoefficientField3, TwoIndexField
from .errors import ConfigError
from .exprlang import BinOp, Call, Const, Neg, Var, parse, pretty
from .fields import MatrixField, Region, base_names

# ---------------------------------------------------------------------------
# A tiny symbolic differentiator over the expression AST, so registry
# entries can expose exact closed-form coefficient expressions for any
# user-supplied source expression. Smart constructors fold constants to
# keep the printed results readable.

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return _ONE
    return BinOp("^", a, b)


def derivative(ast, name):
    """Exact derivative of an expression AST with respect to one variable."""
    if isinstance(ast, Const):
        return _ZERO
    if isinstance(ast, Var):
        return _ONE if ast.name == name else _ZERO
    if isinstance(ast, Neg):
        return _neg(derivative(ast.operand, name))
    if isinstance(ast, BinOp):
        a, b = ast.lhs, ast.rhs
        da, db = derivative(a, name), derivative(b, name)
        if ast.op == "+":
            return _add(da, db)
        if ast.op == "-":
            return _sub(da, db)
        if ast.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if ast.op == "/":
            return _sub(_div(da, b), _div(_mul(a, db), _pow(b, Const(2.0))))
        if ast.op == "^":
            if _is_const(b):
                return _mul(_mul(b, _pow(a, Const(b.value - 1.0))), da)
            return _mul(_pow(a, b),
                        _add(_mul(db, Call("ln", (a,))),
                             _div(_mul(b, da), a)))
    if isinstance(ast, Call):
        if ast.func == "pow":
            return derivative(BinOp("^", ast.args[0], ast.args[1]), name)
        (arg,) = ast.args
        da = derivative(arg, name)
        outer = {
            "sin": lambda: Call("cos", (arg,)),
            "cos": lambda: _neg(Call("sin", (arg,))),
            "tan": lambda: _div(_ONE, _pow(Call("cos", (arg,)), Const(2.0))),
            "cot": lambda: _neg(_div(_ONE, _pow(Call("sin", (arg,)),
                                                Const(2.0)))),
            "exp": lambda: Call("exp", (arg,)),
            "ln": lambda: _div(_ONE, arg),
            "sqrt": lambda: _div(Const(0.5), Call("sqrt", (arg,))),
            "abs": lambda: _div(arg, Call("abs", (arg,))),
        }[ast.func]()
        return _mul(outer, da)
    raise TypeError(f"cannot differentiate {type(ast).__name__}")


# ---------------------------------------------------------------------------


@dataclass
class Example:
    """A named connection fixture: either linear (g3 set) or affine
    (affine set; g3 is its linear part), plus the induced 2-index field."""

    name: str
    kind: str
    n: int
    r: int
    g3: CoefficientField3
    g2: TwoIndexField
    affine: AffineCoefficients | None = None
    region: Region | None = None
    gauge: MatrixField | None = None
    params: dict = field(default_factory=dict)


def make_flat(n=2, r=2):
    n, r = int(n), int(r)
    g3 = CoefficientField3.zero(n, r)
    return Example("flat", "linear", n, r, g3, TwoIndexField.from_linear(g3))


def make_constant(matrices=None):
    if matrices is None:
        matrices = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    arr = np.asarray(matrices, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ConfigError(
            "constant matrices must form an (n, r, r) stack, got shape "
            f"{arr.shape}")
    n, r = arr.shape[0], arr.shape[1]
    g3 = CoefficientField3.constant(arr)
    return Example("constant", "linear", n, r, g3,
                   TwoIndexField.from_linear(g3),
                   params={"matrices": arr.tolist()})


def make_sphere_lc(margin=0.05):
    margin = float(margin)
    region = Region([(margin, math.pi - margin), (-math.inf, math.inf)])
    stacks = [
        [["0", "0"], ["0", "cot(x1)"]],
        [["0", "-sin(x1)*cos(x1)"], ["cot(x1)", "0"]],
    ]
    g3 = CoefficientField3.from_exprs(stacks, region)
    return Example("sphere-lc", "linear", 2, 2, g3,
                   TwoIndexField.from_linear(g3), region=region,
                   params={"margin": margin})


def make_pure_gauge(alpha="x1*x2", n=2):
    n = int(n)
    source = alpha
    ast = parse(alpha) if isinstance(alpha, str) else alpha
    partials = [derivative(ast, f"x{mu + 1}") for mu in range(n)]
    stacks = [[["0", d], [_neg(d), "0"]] for d in partials]
    g3 = CoefficientField3.from_exprs(stacks)
    gauge = MatrixField.from_exprs(
        [[Call("cos", (ast,)), _neg(Call("sin", (ast,)))],
         [Call("sin", (ast,)), Call("cos", (ast,))]], base_names(n))
    return Example("pure-gauge", "linear", n, 2, g3,
                   TwoIndexField.from_linear(g3), gauge=gauge,
                   params={"alpha": source if isinstance(source, str)
                           else pretty(ast)})


def make_cartan_flat(n=2):
    n = int(n)
    linear = CoefficientField3.zero(n, n)
    inhom = MatrixField.constant(np.eye(n), base_names(n))
    aff = AffineCoefficients(linear, inhom)
    return Example("cartan-flat", "affine", n, n, linear,
                   TwoIndexField.from_affine(aff), affine=aff)


class ExampleRegistry:
    """Named example-connection builders, looked up by CLI configs."""

    def __init__(self, builders):
        self._builders = dict(builders)

    def names(self):
        return sorted(self._builders)

    def build(self, name, **params):
        if name not in self._builders:
            raise ConfigError(
                f"unknown registry entry {name!r}; known entries: "
                + ", ".join(self.names()))
        try:
            return self._builders[name](**params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for registry entry "
                              f"{name!r}: {exc}") from exc


REGISTRY = ExampleRegistry({
    "flat": make_flat,
    "constant": make_constant,
    "sphere-lc": make_sphere_lc,
    "pure-gauge": make_pure_gauge,
    "cartan-flat": make_cartan_flat,
})

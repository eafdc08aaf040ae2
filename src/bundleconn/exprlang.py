"""Parsing, evaluation, and compilation of closed-form scalar expressions.

Expressions are the universal field representation: connection coefficients,
frame changes, paths, and sections are all defined by text in the grammar of
docs/grammar.md. Precedence, loosest to tightest: + - (left), * / (left),
unary -, ^ (right). Evaluation is strict IEEE double arithmetic: a NaN or
infinity at any node raises NonFinite instead of propagating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFinite, ParseError, UnboundVariable

FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "tan": 1, "cot": 1,
    "exp": 1, "ln": 1, "sqrt": 1, "abs": 1,
    "pow": 2,
}


class ExprAst:
    """Base class for expression tree nodes. Nodes are immutable."""


@dataclass(frozen=True)
class Const(ExprAst):
    value: float


@dataclass(frozen=True)
class Var(ExprAst):
    name: str


@dataclass(frozen=True)
class Neg(ExprAst):
    operand: ExprAst


@dataclass(frozen=True)
class BinOp(ExprAst):
    op: str
    lhs: ExprAst
    rhs: ExprAst


@dataclass(frozen=True)
class Call(ExprAst):
    func: str
    args: tuple


def _tokenize(source):
    """Produce (kind, text, byte offset) triples plus a trailing 'end'."""
    toks = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c in " \t\n\r":
            i += 1
            continue
        if c in "+-*/^(),":
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if source[start:i] == ".":
                raise ParseError("malformed number", start)
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j >= n or not source[j].isdigit():
                    raise ParseError("malformed number", start)
                i = j
                while i < n and source[i].isdigit():
                    i += 1
            toks.append(("num", source[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            toks.append(("ident", source[start:i], start))
            continue
        raise ParseError("unexpected character", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent over the token list, one method per grammar rule."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "ident":
            if self.peek()[0] != "(":
                return Var(text)
            if text not in FUNCTION_ARITY:
                raise ParseError(f"unknown function {text!r}", off)
            self.advance()
            args = [self.expr()]
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.expr())
            k2, _, off2 = self.advance()
            if k2 != ")":
                raise ParseError("unbalanced parenthesis, expected ')'", off2)
            if len(args) != FUNCTION_ARITY[text]:
                raise ParseError(
                    f"{text} takes {FUNCTION_ARITY[text]} argument(s), got {len(args)}",
                    off,
                )
            return Call(text, tuple(args))
        if kind == "(":
            node = self.expr()
            k2, _, off2 = self.advance()
            if k2 != ")":
                raise ParseError("unbalanced parenthesis, expected ')'", off2)
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {text!r}", off)


def parse(source):
    """Parse source text into an ExprAst. Raises ParseError with the byte
    offset where the problem starts."""
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {text!r}", off)
    return node


def pretty(ast):
    """Render an AST back to source. Fully parenthesized, so the output
    reparses to a structurally identical tree."""
    if isinstance(ast, Const):
        return repr(float(ast.value))
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{pretty(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({pretty(ast.lhs)} {ast.op} {pretty(ast.rhs)})"
    return f"{ast.func}({', '.join(pretty(a) for a in ast.args)})"


def _cot(x):
    return math.cos(x) / math.sin(x)


_CALL_IMPL = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "cot": _cot,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
    "pow": math.pow,
}


def _compile(ast, resolve):
    """Compile a node to a closure env -> float. The resolver maps a variable
    name to its getter closure; everything else is shared between the
    scope-dict and positional code paths."""
    if isinstance(ast, Const):
        value = float(ast.value)
        if not math.isfinite(value):
            raise NonFinite(f"constant {ast.value!r}")
        return lambda env: value
    if isinstance(ast, Var):
        return resolve(ast.name)
    if isinstance(ast, Neg):
        f = _compile(ast.operand, resolve)
        return lambda env: -f(env)
    if isinstance(ast, BinOp):
        lf = _compile(ast.lhs, resolve)
        rf = _compile(ast.rhs, resolve)
        op = ast.op
        if op == "+":
            def run(env):
                v = lf(env) + rf(env)
                if math.isfinite(v):
                    return v
                raise NonFinite("overflow in '+'")
        elif op == "-":
            def run(env):
                v = lf(env) - rf(env)
                if math.isfinite(v):
                    return v
                raise NonFinite("overflow in '-'")
        elif op == "*":
            def run(env):
                v = lf(env) * rf(env)
                if math.isfinite(v):
                    return v
                raise NonFinite("overflow in '*'")
        elif op == "/":
            def run(env):
                try:
                    v = lf(env) / rf(env)
                except ZeroDivisionError:
                    raise NonFinite("division by zero") from None
                if math.isfinite(v):
                    return v
                raise NonFinite("overflow in '/'")
        else:
            def run(env):
                try:
                    v = math.pow(lf(env), rf(env))
                except (ValueError, OverflowError) as exc:
                    raise NonFinite(f"'^': {exc}") from None
                if math.isfinite(v):
                    return v
                raise NonFinite(f"'^' produced {v!r}")
        return run
    impl = _CALL_IMPL[ast.func]
    arg_fns = tuple(_compile(a, resolve) for a in ast.args)
    name = ast.func
    if len(arg_fns) == 1:
        af = arg_fns[0]

        def run(env):
            try:
                v = impl(af(env))
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise NonFinite(f"{name}: {exc}") from None
            if math.isfinite(v):
                return v
            raise NonFinite(f"{name} produced {v!r}")
    else:
        af0, af1 = arg_fns

        def run(env):
            try:
                v = impl(af0(env), af1(env))
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise NonFinite(f"{name}: {exc}") from None
            if math.isfinite(v):
                return v
            raise NonFinite(f"{name} produced {v!r}")
    return run


def _scope_resolver(name):
    def get(env):
        try:
            v = env[name]
        except KeyError:
            raise UnboundVariable(name) from None
        v = float(v)
        if math.isfinite(v):
            return v
        raise NonFinite(f"variable {name} is {v!r}")
    return get


@lru_cache(maxsize=None)
def _compiled_for_scope(ast):
    return _compile(ast, _scope_resolver)


def evaluate(ast, scope):
    """Evaluate an AST against a mapping from variable names to doubles.

    Raises UnboundVariable for names missing from the scope and NonFinite if
    the result or any intermediate is NaN or infinite.
    """
    return _compiled_for_scope(ast)(scope)


def compile_fn(ast, names):
    """Compile an AST into a closure over a positional coordinate tuple.

    Variable positions are resolved now, so a name outside `names` raises
    UnboundVariable at compile time rather than per evaluation.
    """
    names = tuple(names)

    def resolve(name):
        try:
            idx = names.index(name)
        except ValueError:
            raise UnboundVariable(name) from None

        def get(env):
            v = env[idx]
            if math.isfinite(v):
                return v
            raise NonFinite(f"variable {name} is {v!r}")
        return get

    return _compile(ast, resolve)


_BATCH_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply,
                 "/": np.divide}


def _finite_batch(values):
    if np.isfinite(values).all():
        return values
    raise NonFinite("non-finite value in a batch")


def compile_batch(ast, names):
    """Compile an AST into a function of one float column per name (all of
    one length K) returning the K values, bitwise equal to compile_fn at
    each point: + - * / and unary minus are numpy ufuncs (the same IEEE
    operations), every function and '^' applies the scalar implementation
    element by element. A non-finite value at any node raises NonFinite
    without naming a point; re-evaluate point by point for the message."""
    names = tuple(names)

    def build(node):
        if isinstance(node, Const):
            value = float(node.value)
            if not math.isfinite(value):
                raise NonFinite(f"constant {node.value!r}")
            return lambda cols: value
        if isinstance(node, Var):
            try:
                idx = names.index(node.name)
            except ValueError:
                raise UnboundVariable(node.name) from None
            return lambda cols: _finite_batch(cols[idx])
        if isinstance(node, Neg):
            f = build(node.operand)
            return lambda cols: np.negative(f(cols))
        if isinstance(node, BinOp) and node.op in _BATCH_UFUNCS:
            ufunc = _BATCH_UFUNCS[node.op]
            lf, rf = build(node.lhs), build(node.rhs)
            return lambda cols: _finite_batch(ufunc(lf(cols), rf(cols)))
        if isinstance(node, BinOp):
            impl, args = math.pow, (node.lhs, node.rhs)
        else:
            impl, args = _CALL_IMPL[node.func], node.args
        elementwise = np.frompyfunc(impl, len(args), 1)
        arg_fns = tuple(build(a) for a in args)

        def run(cols):
            try:
                v = elementwise(*(f(cols) for f in arg_fns))
            except (ValueError, OverflowError, ZeroDivisionError):
                raise NonFinite("libm error in a batch") from None
            return _finite_batch(np.asarray(v, dtype=float))
        return run

    fn = build(ast)
    return np.errstate(all="ignore")(lambda *cols: fn(cols))

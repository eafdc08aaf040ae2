"""Parsing, evaluation, and compilation of closed-form scalar expressions.

Expressions are the universal field representation: connection coefficients,
frame changes, paths, and sections are all defined by text in the grammar of
docs/grammar.md. Precedence, loosest to tightest: + - (left), * / (left),
unary -, ^ (right). Evaluation is strict IEEE double arithmetic: a NaN or
infinity at any node raises NonFinite instead of propagating.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, ParseError, UnboundVariable

FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "tan": 1, "cot": 1,
    "exp": 1, "ln": 1, "sqrt": 1, "abs": 1,
    "pow": 2,
}
MAX_DEPTH = 100


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
    """Recursive descent over the token list, one method per grammar rule.
    Each rule returns (node, depth of its tree); both the tree and the
    nesting of the descent stop at MAX_DEPTH levels, so parsing and every
    later walk of the tree recurse a bounded number of times."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def deeper(self, depth, off):
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} "
                             "levels", off)
        return depth + 1

    def descend(self, rule, off):
        """rule() one nesting level down (a parenthesis, a function
        argument, the operand of unary minus or the exponent of '^')."""
        self.level = self.deeper(self.level, off)
        out = rule()
        self.level -= 1
        return out

    def expr(self):
        node, depth = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.advance()
            rhs, d = self.term()
            node, depth = BinOp(op, node, rhs), self.deeper(max(depth, d), off)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.advance()
            rhs, d = self.unary()
            node, depth = BinOp(op, node, rhs), self.deeper(max(depth, d), off)
        return node, depth

    def unary(self):
        if self.peek()[0] == "-":
            off = self.advance()[2]
            operand, d = self.descend(self.unary, off)
            return Neg(operand), self.deeper(d, off)
        return self.power()

    def power(self):
        node, depth = self.atom()
        if self.peek()[0] == "^":
            off = self.advance()[2]
            rhs, d = self.descend(self.unary, off)
            return BinOp("^", node, rhs), self.deeper(max(depth, d), off)
        return node, depth

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text)), 1
        if kind == "ident":
            if self.peek()[0] != "(":
                return Var(text), 1
            if text not in FUNCTION_ARITY:
                raise ParseError(f"unknown function {text!r}", off)
            self.advance()
            args = [self.descend(self.expr, off)]
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.descend(self.expr, off))
            k2, _, off2 = self.advance()
            if k2 != ")":
                raise ParseError("unbalanced parenthesis, expected ')'", off2)
            if len(args) != FUNCTION_ARITY[text]:
                raise ParseError(
                    f"{text} takes {FUNCTION_ARITY[text]} argument(s), got {len(args)}",
                    off,
                )
            return (Call(text, tuple(a for a, _ in args)),
                    self.deeper(max(d for _, d in args), off))
        if kind == "(":
            node = self.descend(self.expr, off)
            k2, _, off2 = self.advance()
            if k2 != ")":
                raise ParseError("unbalanced parenthesis, expected ')'", off2)
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {text!r}", off)


def parse(source):
    """Parse source text into an ExprAst. Raises ParseError with the byte
    offset where the problem starts, also for a tree or a nesting deeper
    than MAX_DEPTH levels."""
    parser = _Parser(_tokenize(source))
    node, _ = parser.expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {text!r}", off)
    return node


# per operator: its binding level (loosest 1, unary minus 3, atoms 5) and
# the levels its lhs and rhs need to go without parentheses
_BINDING = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3),
            "^": (4, 5, 3)}


def pretty(ast, need=0):
    """Render an AST back to source with only the parentheses that the
    precedence rules need (`need` is the binding level of the context), so
    parse(pretty(ast)) == ast for every tree that parse returns."""
    if isinstance(ast, Const):
        return repr(float(ast.value)) if ast.value != math.inf else "1e999"
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.func}({', '.join(pretty(a) for a in ast.args)})"
    if isinstance(ast, Neg):
        level, text = 3, f"-{pretty(ast.operand, 3)}"
    else:
        level, lhs, rhs = _BINDING[ast.op]
        text = f"{pretty(ast.lhs, lhs)} {ast.op} {pretty(ast.rhs, rhs)}"
    return f"({text})" if level < need else text


def _cot(x):
    return math.cos(x) / math.sin(x)


_CALL_IMPL = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "cot": _cot,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
    "pow": math.pow,
}


def _call_parts(node):
    """(implementation, message label, argument nodes) of a function call,
    or of '^', which is the function pow."""
    if isinstance(node, BinOp):
        return math.pow, "'^'", (node.lhs, node.rhs)
    return _CALL_IMPL[node.func], node.func, node.args


def _compile(ast, names, checked):
    """Compile a node to a closure over a positional point: variables are
    resolved to their index in `names` now, so a name outside it raises
    UnboundVariable at compile time rather than per evaluation. Unchecked
    leaves are operator.itemgetter, for points the caller has checked."""
    if isinstance(ast, Const):
        value = float(ast.value)
        if not math.isfinite(value):
            raise NonFinite(f"constant {ast.value!r}")
        return lambda env: value
    if isinstance(ast, Var):
        name = ast.name
        try:
            idx = names.index(name)
        except ValueError:
            raise UnboundVariable(name) from None
        if not checked:
            return operator.itemgetter(idx)

        def get(env):
            v = env[idx]
            if math.isfinite(v):
                return v
            raise NonFinite(f"variable {name} is {v!r}")
        return get
    if isinstance(ast, Neg):
        f = _compile(ast.operand, names, checked)
        return lambda env: -f(env)
    if isinstance(ast, BinOp) and ast.op != "^":
        lf = _compile(ast.lhs, names, checked)
        rf = _compile(ast.rhs, names, checked)
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
        else:
            # the divisor is tested, not trapped: a numpy float divides by
            # zero to inf with a warning where a Python float raises
            def run(env):
                num, den = lf(env), rf(env)
                if den == 0.0:
                    raise NonFinite("division by zero")
                v = num / den
                if math.isfinite(v):
                    return v
                raise NonFinite("overflow in '/'")
        return run
    impl, name, args = _call_parts(ast)
    arg_fns = tuple(_compile(a, names, checked) for a in args)
    # one closure per arity: a generic impl(*args) costs more per call
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


def compile_fn(ast, names, checked=True):
    """Compile an AST into a closure over a positional coordinate tuple
    ordered as `names`; checked=False leaves the test of non-finite
    coordinates to the caller."""
    return _compile(ast, tuple(names), checked)


def evaluate(ast, scope):
    """Evaluate an AST against a mapping from variable names to doubles.

    Raises UnboundVariable for names missing from the scope and NonFinite if
    the result or any intermediate is NaN or infinite.
    """
    return compile_fn(ast, scope)(tuple(float(v) for v in scope.values()))


def stage(ast, ahead, parts=None):
    """Split an AST in two: every maximal subtree that reads names in
    `ahead` and no other becomes a leaf Var(f"@{i}") of the spine and
    parts[i] (appended to `parts` if given); returns (spine, parts). The
    parts, then the spine on their values, run the tree's operations in
    its order."""
    parts = [] if parts is None else parts

    def leaf(node):
        parts.append(node)
        return Var(f"@{len(parts) - 1}")

    def split(node):
        # (spine, True if it reads only ahead, False if nothing, None else)
        if isinstance(node, (Const, Var)):
            return node, isinstance(node, Var) and (node.name in ahead or None)
        kids = ((node.operand,) if isinstance(node, Neg) else
                (node.lhs, node.rhs) if isinstance(node, BinOp) else node.args)
        kids = [split(kid) for kid in kids]
        if all(reads is not None for _, reads in kids):
            return node, any(reads for _, reads in kids)
        kids = [leaf(kid) if reads else kid for kid, reads in kids]
        return (Neg(*kids) if isinstance(node, Neg) else
                BinOp(node.op, *kids) if isinstance(node, BinOp) else
                Call(node.func, tuple(kids))), None

    spine, reads = split(ast)
    return (leaf(spine) if reads else spine), parts


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
        impl, _, args = _call_parts(node)
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

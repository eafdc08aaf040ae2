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


def _compile(ast, names):
    """Compile a node to a closure over a positional point: variables are
    resolved to their index in `names` now, so a name outside it raises
    UnboundVariable at compile time rather than per evaluation."""
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

        def get(env):
            v = env[idx]
            if math.isfinite(v):
                return v
            raise NonFinite(f"variable {name} is {v!r}")
        return get
    if isinstance(ast, Neg):
        f = _compile(ast.operand, names)
        return lambda env: -f(env)
    if isinstance(ast, BinOp) and ast.op != "^":
        lf = _compile(ast.lhs, names)
        rf = _compile(ast.rhs, names)
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
    arg_fns = tuple(_compile(a, names) for a in args)
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


def compile_fn(ast, names):
    """Compile an AST into a closure over a positional coordinate tuple
    ordered as `names`."""
    return _compile(ast, tuple(names))


def evaluate(ast, scope):
    """Evaluate an AST against a mapping from variable names to doubles.

    Raises UnboundVariable for names missing from the scope and NonFinite if
    the result or any intermediate is NaN or infinite.
    """
    return compile_fn(ast, scope)(tuple(float(v) for v in scope.values()))


# the names a kernel's source may call: the grammar functions under their
# own names ('^' is pow), the finiteness test, and inf for unbounded axes
KERNEL_GLOBALS = {**_CALL_IMPL, "isfinite": math.isfinite, "inf": math.inf}


def _elementwise(impl, arity):
    ufunc = np.frompyfunc(impl, arity, 1)
    return lambda *cols: np.asarray(ufunc(*cols), dtype=float)


# the names a batch's source may call: each grammar function applied to
# float columns element by element, so every value has the scalar bits
BATCH_GLOBALS = {name: _elementwise(impl, FUNCTION_ARITY[name])
                 for name, impl in _CALL_IMPL.items()}


class Code(str):
    """Source text of a float expression: +, * and unary minus build the
    text of the operation, so float code run on Code returns its source."""
    __add__ = lambda a, b: Code(f"({a} + {b})")
    __radd__ = lambda a, b: Code(f"({b!r} + {a})")
    __mul__ = lambda a, b: Code(f"({a} * {b})")
    __neg__ = lambda a: Code(f"(-{a})")


def ssa_lines(asts, names):
    """Unchecked statements t{j} = ... of a compiled kernel or batch
    (fields), one per operator node with compile_fn's IEEE operations in its
    order, over v{i} (names[i]): (statements, each AST's value, operands to
    test). A NaN or infinity at a node makes an operation raise or reaches a
    value or an operand that could turn it finite: a divisor, the argument
    of exp, both of pow and '^'; on float columns a zero divisor gives one.
    cot(a) is cos(a) / sin(a), as _cot, without its frame. Only generated
    names, float reprs and KERNEL_GLOBALS keys reach the statements."""
    tested, seen = [], {}

    def put(text):      # once per text: SSA text is a function of its names
        return seen.setdefault(text, f"t{len(seen)}")

    def emit(node):
        if isinstance(node, Const):
            return f"({float(node.value)!r})"
        if isinstance(node, Var):
            return f"v{names.index(node.name)}"
        if isinstance(node, Neg):
            return put(f"-{emit(node.operand)}")
        if isinstance(node, BinOp) and node.op != "^":
            lhs, rhs = emit(node.lhs), emit(node.rhs)
            tested.extend([rhs] if node.op == "/" else [])
            return put(f"{lhs} {node.op} {rhs}")
        func = node.func if isinstance(node, Call) else "pow"
        args = [emit(arg) for arg in _call_parts(node)[2]]
        tested.extend(args if func in ("exp", "pow") else [])
        if func == "cot":
            cos, sin = put(f"cos({args[0]})"), put(f"sin({args[0]})")
            tested.append(sin)
            return put(f"{cos} / {sin}")
        return put(f"{func}({', '.join(args)})")

    values = [emit(ast) for ast in asts]
    return [f"{t} = {text}" for text, t in seen.items()], values, tested

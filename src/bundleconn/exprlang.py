"""Parsing, evaluation, and compilation of closed-form scalar expressions.

Expressions are the universal field representation: connection coefficients,
frame changes, paths, and sections are all defined by text in the grammar of
docs/grammar.md. Precedence, loosest to tightest: + - (left), * / (left),
unary -, ^ (right), one table (_BINDING) for parse and pretty. Evaluation
is strict IEEE double arithmetic: a NaN or infinity at any node raises
NonFinite instead of propagating. Trees become one Program of steps
(program): run checks it, ssa_lines prints it as code; derivative
differentiates a tree exactly.
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
    """Produce (kind, text, character offset) triples plus a trailing 'end'."""
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
            try:        # isdigit admits digits float rejects, such as "²"
                float(source[start:i])
            except ValueError:
                raise ParseError("malformed number", start) from None
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


# per operator: its binding level (loosest 1, unary minus 3, atoms 5) and
# the levels its lhs and rhs need to go without parentheses; the parser
# reads it for precedence and associativity, pretty for parentheses
_BINDING = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3),
            "^": (4, 5, 3)}
_UNARY_MINUS = 3


class _Parser:
    """Precedence climbing over the token list, with the levels of
    _BINDING. Each method returns (node, depth of its tree); both the tree
    and the nesting of the descent stop at MAX_DEPTH levels, so parsing and
    every later walk of the tree recurse a bounded number of times."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.nesting = 0

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

    def descend(self, level, off):
        """operand(level) one nesting level down (a parenthesis, a function
        argument, the operand of unary minus or the exponent of '^')."""
        self.nesting = self.deeper(self.nesting, off)
        out = self.operand(level)
        self.nesting -= 1
        return out

    def operand(self, level):
        """The longest operand whose operators bind at `level` or tighter:
        a unary minus (_UNARY_MINUS) or an atom, then each infix operator of
        that level or above with its rhs parsed at the operator's rhs
        level, so '^' nests to the right and the others to the left."""
        if level <= _UNARY_MINUS and self.peek()[0] == "-":
            off = self.advance()[2]
            operand, d = self.descend(_UNARY_MINUS, off)
            node, depth = Neg(operand), self.deeper(d, off)
        else:
            node, depth = self.atom()
        while True:
            op, _, off = self.peek()
            if op not in _BINDING or _BINDING[op][0] < level:
                return node, depth
            self.advance()
            rhs_level = _BINDING[op][2]
            rhs, d = (self.descend(rhs_level, off) if op == "^"
                      else self.operand(rhs_level))
            node, depth = BinOp(op, node, rhs), self.deeper(max(depth, d), off)

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
            args = [self.descend(1, off)]
            while self.peek()[0] == ",":
                self.advance()
                args.append(self.descend(1, off))
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
            node = self.descend(1, off)
            k2, _, off2 = self.advance()
            if k2 != ")":
                raise ParseError("unbalanced parenthesis, expected ')'", off2)
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected token {text!r}", off)


def parse(source):
    """Parse source text into an ExprAst. Raises ParseError with the UTF-8
    byte offset where the problem starts, also for a tree or a nesting
    deeper than MAX_DEPTH levels."""
    try:
        parser = _Parser(_tokenize(source))
        node, _ = parser.operand(1)
        kind, text, off = parser.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", off)
    except ParseError as exc:       # the tokenizer counts characters
        start = len(source[:exc.offset].encode("utf-8", "surrogatepass"))
        raise ParseError(exc.reason, start) from None
    return node


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
        level, text = _UNARY_MINUS, f"-{pretty(ast.operand, _UNARY_MINUS)}"
    else:
        level, lhs, rhs = _BINDING[ast.op]
        text = f"{pretty(ast.lhs, lhs)} {ast.op} {pretty(ast.rhs, rhs)}"
    return f"({text})" if level < need else text


# exact derivatives of trees (the pure-gauge registry entry's coefficients);
# the constructors below fold constants to keep the trees small

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


def _cot(x):
    return math.cos(x) / math.sin(x)


_CALL_IMPL = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "cot": _cot,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
    "pow": math.pow,
}
# the kinds of program steps; (kind, label, operation) per operator
_LOAD, _INFIX, _CALL, _ENTRY = range(4)
_BINARY = {"+": (_INFIX, "+", operator.add), "-": (_INFIX, "-", operator.sub),
           "*": (_INFIX, "*", operator.mul),
           "/": (_INFIX, "/", operator.truediv), "^": (_CALL, "'^'", math.pow)}


@dataclass(frozen=True)
class Program:
    """The steps that evaluate a list of entries: each step is (kind, label,
    operation, a, b, slot), a and b its operand slots (a load's operation is
    the index it reads); `init` holds each slot's value before the first
    step (a constant's, else None), `outputs` each entry's slot, and
    `callables` tells whether an entry is a callable."""
    init: list
    steps: list
    outputs: list
    callables: bool


def program(entries, names):
    """The Program of the entries (ASTs, or callables of the point called
    at their position) over the coordinates `names`: one step per distinct
    node, keyed by operation and operand slots (constants by repr: 0.0 is
    not -0.0), in post-order, a load at each variable's first read. The one
    walk that turns trees into code, for run and ssa_lines; UnboundVariable
    and NonFinite for a constant are raised here, entry by entry."""
    slots, init, steps = {}, [], []

    def slot(kind, label=None, op=None, a=None, b=None, value=None):
        key = repr(value) if kind is None else (kind, label, a, b)
        if key not in slots:
            slots[key] = len(init)
            init.append(value)
            if kind is not None:
                steps.append((kind, label, op, a, b, slots[key]))
        return slots[key]

    def walk(node):
        if isinstance(node, Const):
            value = float(node.value)
            if not math.isfinite(value):
                raise NonFinite(f"constant {node.value!r}")
            return slot(None, value=value)
        if isinstance(node, Var):
            if node.name not in names:
                raise UnboundVariable(node.name)
            return slot(_LOAD, node.name, names.index(node.name))
        if isinstance(node, BinOp):
            step, args = _BINARY[node.op], (node.lhs, node.rhs)
        elif isinstance(node, Neg):
            step, args = (_CALL, "-", operator.neg), (node.operand,)
        else:
            step, args = (_CALL, node.func, _CALL_IMPL[node.func]), node.args
        return slot(*step, *map(walk, args))

    outputs = [walk(entry) if isinstance(entry, ExprAst)
               else slot(_ENTRY, None, entry, pos)
               for pos, entry in enumerate(entries)]
    return Program(init, steps, outputs,
                   any(step[0] == _ENTRY for step in steps))


def run(prog, point):
    """The entries of a Program at one point as Python floats, checked as
    docs/grammar.md says, with its messages; a callable entry unchecked."""
    vals = prog.init.copy()
    for kind, label, op, a, b, out in prog.steps:
        if kind == _LOAD:
            v = point[op]
            if not math.isfinite(v):
                raise NonFinite(f"variable {label} is {v!r}")
            # a Python float raises on a zero divisor, a numpy float warns
            v = float(v)
        elif kind == _ENTRY:
            v = float(op(*point))
        else:
            try:
                v = op(vals[a]) if b is None else op(vals[a], vals[b])
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise NonFinite("division by zero" if label == "/"
                                else f"{label}: {exc}") from None
            if not math.isfinite(v):
                raise NonFinite(f"overflow in '{label}'" if kind == _INFIX
                                else f"{label} produced {v!r}")
        vals[out] = v
    return [vals[s] for s in prog.outputs]


def evaluate(ast, scope):
    """Evaluate an AST against a mapping from variable names to doubles.

    Raises UnboundVariable for names missing from the scope and NonFinite if
    the result or any intermediate is NaN or infinite.
    """
    return run(program([ast], tuple(scope)),
               tuple(float(v) for v in scope.values()))[0]


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


def ssa_lines(prog, variables):
    """The unchecked statements t{j} = ... of a compiled kernel or batch
    (fields): a Program without callables printed with run's operations, in
    its order, over the texts `variables` of its names: (statements, each
    entry's value, operands to test). A NaN or infinity at a step makes an
    operation raise or reaches a value or an operand that could turn it
    finite: a divisor, the argument of exp, both of pow and '^'; on float
    columns a zero divisor gives one. cot(a) is cos(a) / sin(a), as _cot,
    without its frame; a statement that recurs is printed once. Only
    generated names, float reprs and KERNEL_GLOBALS keys reach them."""
    texts = [None if v is None else f"({v!r})" for v in prog.init]
    tested, seen = [], {}

    def put(text):      # once per text: SSA text is a function of its names
        return seen.setdefault(text, f"t{len(seen)}")

    for kind, label, op, a, b, out in prog.steps:
        args = [texts[i] for i in (a, b) if i is not None]
        if kind == _LOAD:
            texts[out] = variables[op]
        elif kind == _INFIX:
            tested.extend(args[1:] if label == "/" else [])
            texts[out] = put(f"{args[0]} {label} {args[1]}")
        elif label == "-":
            texts[out] = put(f"-{args[0]}")
        elif label == "cot":
            cos, sin = put(f"cos({args[0]})"), put(f"sin({args[0]})")
            tested.append(sin)
            texts[out] = put(f"{cos} / {sin}")
        else:
            tested.extend(args if label in ("exp", "pow", "'^'") else [])
            func = "pow" if label == "'^'" else label
            texts[out] = put(f"{func}({', '.join(args)})")
    return ([f"{t} = {text}" for text, t in seen.items()],
            [texts[s] for s in prog.outputs], tested)

"""Parser and evaluator tests, checked against the independent oracle in
tests/_oracle_parser.py and the hand-frozen fixture tables."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundleconn.errors import NonFinite, ParseError, UnboundVariable
from bundleconn.exprlang import (
    MAX_DEPTH, BinOp, Call, Const, Neg, Var, evaluate, parse, pretty,
    program, ssa_lines,
)
from bundleconn.fields import ScalarField
from bundleconn.registry import make_pure_gauge
from bundleconn.transport import _checked_step

from _oracle_parser import (
    ERROR_CASES,
    PRECEDENCE_CASES,
    OracleNonFinite,
    OracleParseError,
    oracle_eval,
    oracle_sexpr,
)


def to_sexpr(ast):
    """Render the package AST in the oracle's canonical S-expression form."""
    if isinstance(ast, Const):
        return repr(float(ast.value))
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(neg {to_sexpr(ast.operand)})"
    if isinstance(ast, Call):
        args = " ".join(to_sexpr(a) for a in ast.args)
        return f"(call {ast.func} {args})"
    return f"({ast.op} {to_sexpr(ast.lhs)} {to_sexpr(ast.rhs)})"


@pytest.mark.parametrize("source,expected", PRECEDENCE_CASES)
def test_precedence_fixture_oracle(source, expected):
    assert oracle_sexpr(source) == expected


@pytest.mark.parametrize("source,expected", PRECEDENCE_CASES)
def test_precedence_fixture_parser(source, expected):
    assert to_sexpr(parse(source)) == expected


@pytest.mark.parametrize("source,offset", ERROR_CASES)
def test_error_offsets_parser(source, offset):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset
    # the message is the one-line reason and the offset
    reason = exc.value.reason
    assert reason and "\n" not in reason
    assert str(exc.value) == f"{reason} at byte {offset}"


@pytest.mark.parametrize("source,offset", ERROR_CASES)
def test_error_offsets_oracle(source, offset):
    with pytest.raises(OracleParseError) as exc:
        oracle_sexpr(source)
    assert exc.value.offset == offset


def test_zero_literal():
    assert parse("0") == Const(0.0)


def test_unary_minus_binds_looser_than_power():
    assert parse("-x1^2") == Neg(BinOp("^", Var("x1"), Const(2.0)))


def test_unbalanced_call_offset():
    with pytest.raises(ParseError) as exc:
        parse("sin(")
    assert exc.value.offset == 4


def test_call_without_its_closing_parenthesis():
    with pytest.raises(ParseError) as exc:
        parse("sin(1 2)")
    assert (str(exc.value), exc.value.offset) == (
        "unbalanced parenthesis, expected ')' at byte 6", 6)


def test_eval_linear_arithmetic():
    assert evaluate(parse("x1+2"), {"x1": 3.0}) == 5.0


def test_eval_cot_at_half_pi():
    assert abs(evaluate(parse("cot(t)"), {"t": math.pi / 2})) < 1e-15


def test_eval_division_by_zero():
    with pytest.raises(NonFinite):
        evaluate(parse("1/x1"), {"x1": 0.0})


def test_division_by_zero_at_a_numpy_point():
    # numpy floats divide by zero to inf with a warning, Python floats raise
    f = ScalarField("1/x1", ("x1",))
    for zero in (0.0, -0.0, np.float64(0.0), np.float64(-0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="^division by zero$"):
                f((zero,))


def test_eval_strict_on_intermediates():
    # final value would be 0.0 if the intermediate overflow were allowed
    with pytest.raises(NonFinite):
        evaluate(parse("1/(1e308*1e308)"), {})


@pytest.mark.parametrize("source", [
    "ln(-1)", "sqrt(-4)", "exp(1000)", "pow(-2, 0.5)", "(-2)^0.5",
    "cot(0)", "0^-1", "1e308*1e308",
])
def test_eval_nonfinite_cases(source):
    with pytest.raises(NonFinite):
        evaluate(parse(source), {})


def test_function_that_returns_a_non_finite_value_names_it():
    # cos(x) / sin(x) overflows without raising: docs/grammar.md's example
    with pytest.raises(NonFinite) as info:
        evaluate(parse("cot(x1)"), {"x1": 1e-320})
    assert str(info.value) == "cot produced inf"


def test_eval_pow_corner_values():
    assert evaluate(parse("0^0"), {}) == 1.0
    assert evaluate(parse("pow(0, 0)"), {}) == 1.0
    assert evaluate(parse("(-2)^2"), {}) == 4.0


def test_unbound_variable_name():
    with pytest.raises(UnboundVariable) as exc:
        evaluate(parse("x1+y9"), {"x1": 1.0})
    assert exc.value.name == "y9"


def test_function_names_usable_as_variables():
    assert evaluate(parse("sin + 1"), {"sin": 2.0}) == 3.0


def test_field_reads_its_point_by_position():
    f = ScalarField("x1*u1 + t", ("x1", "u1", "t"))
    assert f((2.0, 3.0, 4.0)) == 10.0


def test_unbound_variable_fails_at_construction():
    with pytest.raises(UnboundVariable):
        ScalarField("x9", ("x1", "x2"))
    with pytest.raises(UnboundVariable):
        program([parse("x9")], ("x1", "x2"))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(a=_finite, b=_finite, op=st.sampled_from("+-*/^"))
def test_binop_matches_host_arithmetic(a, b, op):
    source = f"a {op} b"
    scope = {"a": a, "b": b}
    if op == "+":
        expected = a + b
    elif op == "-":
        expected = a - b
    elif op == "*":
        expected = a * b
    elif op == "/":
        expected = a / b if b != 0.0 else math.inf
    else:
        try:
            expected = math.pow(a, b)
        except (ValueError, OverflowError):
            expected = math.inf
    if math.isfinite(expected):
        got = evaluate(parse(source), scope)
        assert got == expected  # bit-exact
    else:
        with pytest.raises(NonFinite):
            evaluate(parse(source), scope)


_names = st.sampled_from(["x1", "x2", "u1", "u2", "t", "alpha_0"])


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, allow_nan=False,
                                   allow_infinity=False)),
        st.builds(Var, _names),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(lambda f, a: Call(f, (a,)),
                      st.sampled_from(["sin", "cos", "tan", "cot", "exp",
                                       "ln", "sqrt", "abs"]),
                      children),
            st.builds(lambda a, b: Call("pow", (a, b)), children, children),
        )
    return st.recursive(leaves, extend, max_leaves=12)


@given(ast=_ast_strategy())
def test_pretty_round_trip(ast):
    assert parse(pretty(ast)) == ast


@given(ast=_ast_strategy(),
       vals=st.lists(st.floats(min_value=-10, max_value=10,
                               allow_nan=False), min_size=6, max_size=6))
def test_eval_matches_oracle(ast, vals):
    source = pretty(ast)
    names = ["x1", "x2", "u1", "u2", "t", "alpha_0"]
    scope = dict(zip(names, vals))
    try:
        expected = oracle_eval(source, scope)
    except OracleNonFinite:
        with pytest.raises(NonFinite):
            evaluate(parse(source), scope)
        return
    assert evaluate(parse(source), scope) == expected


def test_whitespace_ignored():
    assert parse(" 1\t+\n2 ") == parse("1+2")


def test_scientific_literals():
    assert evaluate(parse("1.5e-3"), {}) == 1.5e-3
    assert evaluate(parse("2E+2"), {}) == 200.0


@pytest.mark.parametrize("source, offset", [
    ("²", 0), ("1²", 0), ("1.²", 0), ("x1 + 2³", 5), ("1e²", 0)])
def test_digits_that_float_rejects_are_a_malformed_number(source, offset):
    # str.isdigit admits them; float does not
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.reason, exc.value.offset) == ("malformed number", offset)


def test_decimal_digits_of_any_script_parse():
    assert parse("٣") == Const(3.0)
    assert parse("x1*١٢") == BinOp("*", Var("x1"), Const(12.0))


@pytest.mark.parametrize("source, offset", [
    ("é + $", 5), ("π*(x1", 6), ("日本 + 2²", 9), ("x1 + é)", 7)])
def test_error_offsets_count_utf8_bytes(source, offset):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.offset == offset
    assert str(exc.value).endswith(f" at byte {offset}")


# nesting at the limit parses; one level more is a ParseError at the byte
# where the level starts (a '(' or function name, a '-', '^' or operator)
DEPTH_CASES = {
    "parentheses": (lambda d: "(" * d + "x1" + ")" * d, MAX_DEPTH),
    "unary-minus": (lambda d: "-" * d + "x1", MAX_DEPTH),
    "plus-chain": (lambda d: "+".join(["x1"] * (d + 1)), 3 * MAX_DEPTH - 1),
    "times-chain": (lambda d: "*".join(["x1"] * (d + 1)), 3 * MAX_DEPTH - 1),
    "power-chain": (lambda d: "x1^" * d + "2", 3 * MAX_DEPTH + 2),
    "calls": (lambda d: "sin(" * d + "x1" + ")" * d, 4 * MAX_DEPTH),
}


@pytest.mark.parametrize("source, offset", DEPTH_CASES.values(),
                         ids=list(DEPTH_CASES))
def test_nesting_deeper_than_max_depth_is_a_parse_error(source, offset):
    parse(source(MAX_DEPTH - 1))
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as e:
        parse(source(MAX_DEPTH + 1))
    assert e.value.offset == offset


def test_nesting_far_past_the_limit_does_not_recurse():
    for source in ("(" * 200 + "x1" + ")" * 200, "-" * 1000 + "x1",
                   "+".join(["x1"] * 999), "x1^" * 5000 + "2"):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(source)


def test_registry_derivatives_are_not_reparsed():
    # pretty adds no parenthesis that precedence makes redundant, so a tree
    # within the nesting limit renders to source within it; the pure-gauge
    # coefficients, derivative trees of alpha, are still passed as trees
    alpha = "-" * 60 + "x1*x2"
    assert pretty(parse(alpha)) == "-" * 60 + "x1 * x2"
    assert parse(pretty(parse(alpha))) == parse(alpha)
    ex = make_pure_gauge(alpha)
    assert ex.g3((0.3, 0.5))[0, 0, 1] == 0.5


@pytest.mark.parametrize("source", [
    *(make(MAX_DEPTH - 1) for make, _ in DEPTH_CASES.values()),
    "a-(b-c)", "(a^b)^c", "a^b^c", "a^-b", "-a^2", "(-a)^2", "a*-b",
    "a/(b*c)", "-(a*b)", "--a", "a - -b", "x^(y*z)", "(x*y)^z", "1e400",
    "pow(a, b)^2", "((a + b)) + c"])
def test_pretty_round_trips_what_parse_accepts(source):
    ast = parse(source)
    assert parse(pretty(ast)) == ast


def test_unchecked_leaves_read_without_the_finiteness_test():
    # a compiled kernel reads its leaves unchecked: an infinite one reaches
    # the value, and the checked interpreter it falls back to names the leaf
    ast = parse("u1 + x1")
    with pytest.raises(NonFinite, match="variable u1 is inf"):
        ScalarField(ast, ("x1", "u1"))((1.0, math.inf))
    assert ssa_lines(program([ast], ("x1", "u1")), ["v0", "v1"]) == (
        ["t0 = v1 + v0"], ["t0"], [])
    # its compiled RK4 step of u1' = u1 + x1 (x1, v1 and v2 constant)
    field = ScalarField(ast, ("x1", "u1"))
    calls = []

    def checked(b, h, y):
        calls.append(y)
        return _checked_step(lambda k, y: [0.0, field.floats(y[:2])[0],
                                           0.0, 0.0])(b, h, y)

    step = field.kernel(lambda G, v: [0.0, G[0], 0.0, 0.0], checked)
    y = [1.0, 2.0, 0.0, 0.0]
    assert step(0, 1.0, y) == checked(0, 1.0, y) and len(calls) == 1
    assert step(0, 1.0, y)[:2] == [1.0, 2.0 + (3.0 + 9.0 + 10.5 + 8.25) / 6]
    with pytest.raises(NonFinite, match="^variable u1 is inf$"):
        step(0, 1.0, [1.0, math.inf, 0.0, 0.0])
    assert len(calls) == 2

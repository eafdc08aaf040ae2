"""Field containers, finite differences, and the Lie-calculus toolkit."""

import functools
import gc
import io
import math
import random
import re
import tokenize
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundleconn.calculus import curvature
from bundleconn.errors import (
    DomainExit,
    EngineError,
    NonFinite,
    SingularFrame,
)
from bundleconn import errors, fields
from bundleconn.exprlang import (FUNCTION_ARITY, MAX_DEPTH, BinOp, Call, Const,
                                 Neg, Var, evaluate, parse, program, ssa_lines)
from bundleconn.fields import (
    FD_STEP_FIRST,
    FD_STEP_NESTED,
    FrameField,
    MatrixField,
    Region,
    ScalarField,
    SectionField,
    TensorField,
    anholonomy,
    bundle_names,
    compose_frame,
    fd_partial,
    fd_partials,
    lie_derivative,
    lie_gamma,
    transform_anholonomy,
    transform_lie_gamma,
)
from bundleconn.morphism import BundleMorphism, jacobi_natural
from bundleconn.registry import make_sphere_lc
from bundleconn.transport import _checked_step, _contract

from _oracle_eval import OracleFailure, oracle_entries

XY = ("x1", "x2")


def richardson_partial(f, x, axis, h):
    """Independent FD oracle: Richardson extrapolation of the central
    difference, error O(h^4)."""
    def central(step):
        xp = [float(c) for c in x]
        xm = list(xp)
        xp[axis] += step
        xm[axis] -= step
        return (f(xp) - f(xm)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def test_region_membership():
    region = Region([(0.0, 1.0), (-math.inf, math.inf)])
    assert region.contains((0.5, 100.0))
    assert not region.contains((0.0, 0.0))  # open interval
    with pytest.raises(DomainExit):
        region.require((2.0, 0.0))


def test_region_membership_is_strict_and_nan_is_outside():
    region = Region([(0.0, 1.0), (-math.inf, math.inf)])
    assert region.lo == (0.0, -math.inf) and region.hi == (1.0, math.inf)
    for point in [(1.0, 0.0), (math.nan, 0.0), (0.5, math.nan),
                  (0.5, math.inf), (0.5,), (0.5, 0.0, 0.0)]:
        assert not region.contains(point), point
    assert region.contains((np.float64(0.5), -1e308))
    assert Region([]).contains(())


def test_region_rejects_empty_interval():
    with pytest.raises(ValueError):
        Region([(1.0, 1.0)])


def test_fd_partial_exact_on_quadratic():
    f = ScalarField("x1*x1", ("x1",))
    assert fd_partial(f, (1.0,), 0) == pytest.approx(2.0, abs=1e-9)


def test_fd_partial_bilinear():
    f = ScalarField("x1*x2", XY)
    assert fd_partial(f, (2.0, 3.0), 1) == pytest.approx(2.0, abs=1e-9)


def test_fd_partial_sin_against_richardson():
    f = ScalarField("sin(x1)", ("x1",))
    assert fd_partial(f, (0.0,), 0) == pytest.approx(1.0, abs=1e-10)
    for h in (1e-3, 1e-4):
        oracle = richardson_partial(f, (0.0,), 0, h)
        assert fd_partial(f, (0.0,), 0) == pytest.approx(oracle, abs=1e-9)


def test_fd_partial_second_order_convergence():
    f = ScalarField("sin(x1)", ("x1",))
    x, exact = (0.7,), math.cos(0.7)
    errors = [abs(fd_partial(f, x, 0, h) - exact) for h in (1e-3, 5e-4)]
    assert 3.6 <= errors[0] / errors[1] <= 4.4


def test_fd_partial_domain_exit_on_stencil():
    region = Region([(0.0, 1.0)])
    f = ScalarField("x1", ("x1",), region)
    with pytest.raises(DomainExit):
        fd_partial(f, (1e-7,), 0)


def test_scalar_field_from_callable_checks_finiteness():
    f = ScalarField(lambda x1: x1 and 1.0 / 0.0 if False else float("nan"),
                    ("x1",))
    with pytest.raises(NonFinite):
        f((0.0,))


def test_callable_entry_returning_an_int_gives_float64():
    field = SectionField([lambda x1, x2: 2, lambda x1, x2: -1], XY)
    value = field((0.5, 0.25))
    assert value.dtype == np.float64
    assert value.tolist() == [2.0, -1.0]
    assert all(type(c) is float for c in field.floats((0.5, 0.25)))
    assert field.values(np.array([(0.5, 0.25)])).dtype == np.float64
    scalar = ScalarField(lambda x1, x2: 3, XY)
    assert type(scalar((0.5, 0.25))) is float


def test_callable_entry_returning_nan_raises_the_array_message():
    field = SectionField(["x1", lambda x1, x2: math.nan], XY)
    for evaluate in (field, field.floats):
        with pytest.raises(NonFinite) as info:
            evaluate((0.5, 0.25))
        assert str(info.value) == "non-finite array value at (0.5, 0.25)"


def test_matrix_field_constant_template():
    M = MatrixField.from_exprs([["1", "0"], ["x1", "2"]], ("x1",))
    out = M((3.0,))
    assert np.allclose(out, [[1.0, 0.0], [3.0, 2.0]])


def test_matrix_field_constant_rejects_a_non_finite_entry():
    # the entry becomes a Const node, and building its program refuses it
    with pytest.raises(NonFinite, match="^constant inf$") as info:
        MatrixField.constant([[math.inf]], ("x1",))
    frames = [(entry.path.name, entry.name) for entry in info.traceback]
    assert ("exprlang.py", "program") in frames


def test_frame_field_singular_detection():
    frame = FrameField.from_exprs([["1", "0"], ["0", "x1"]], XY)
    with pytest.raises(SingularFrame):
        frame((0.0, 0.0))


def test_anholonomy_coordinate_frame_is_zero():
    frame = FrameField.identity(2, XY)
    assert np.allclose(anholonomy(frame, (0.3, -1.2)), 0.0, atol=1e-12)


def test_anholonomy_hand_commutator():
    # E1 = d_x, E2 = x1 d_y: [E1, E2] = d_y = (1/x1) E2
    frame = FrameField.from_exprs([["1", "0"], ["0", "x1"]], XY)
    C = anholonomy(frame, (2.0, 0.0))
    expected = np.zeros((2, 2, 2))
    expected[1, 0, 1] = 0.5
    expected[1, 1, 0] = -0.5
    assert np.allclose(C, expected, atol=1e-9)


def test_anholonomy_antisymmetry_exact():
    frame = FrameField.from_exprs(
        [["1", "sin(x2)"], ["x2*x1", "exp(x1/4)"]], XY)
    C = anholonomy(frame, (0.7, 0.4))
    assert np.array_equal(C, -C.transpose(0, 2, 1))


def counting_frame(x):
    """A callable frame and the list of its evaluations, True where at x."""
    at_x = []

    def matrix(x1, x2):
        at_x.append((x1, x2) == x)
        return [[1.0, math.sin(x2)], [x2 * x1, math.exp(x1 / 4)]]

    return FrameField.from_callable(matrix, 2, XY), at_x


def test_anholonomy_evaluates_the_frame_once_at_the_point():
    x = (0.7, 0.4)
    frame, at_x = counting_frame(x)
    anholonomy(frame, x)
    # the frame at x, then two central-difference points per axis
    assert at_x.count(True) == 1
    assert len(at_x) == 5


FRAME_CALLERS = {
    "lie_gamma": lambda frame, x: lie_gamma(frame, ["x1*x2", "1"], x),
    "lie_derivative": lambda frame, x: lie_derivative(
        frame, ["x1*x2", "1"],
        TensorField(1, 1, [["x1", "x2"], ["1", "x1*x2"]], XY), x),
    "transform_anholonomy": lambda frame, x: transform_anholonomy(
        frame, MatrixField.from_exprs([["2", "x1"], ["0", "1"]], XY), x),
    "transform_lie_gamma": lambda frame, x: transform_lie_gamma(
        frame, MatrixField.from_exprs([["2", "x1"], ["0", "1"]], XY),
        ["x1*x2", "1"], x),
    "curvature": lambda frame, x: curvature(
        make_sphere_lc().g3, x, base_frame=frame),
}


@pytest.mark.parametrize("caller", list(FRAME_CALLERS))
def test_anholonomy_callers_evaluate_the_frame_once_at_the_point(caller):
    x = (0.7, 0.4)
    frame, at_x = counting_frame(x)
    FRAME_CALLERS[caller](frame, x)
    assert at_x.count(True) == 1


def test_lie_gamma_constant_field_coordinate_frame():
    frame = FrameField.identity(2, XY)
    L = lie_gamma(frame, (1.0, -2.0), (0.3, 0.4))
    assert np.allclose(L, 0.0, atol=1e-12)


def test_lie_gamma_scaling_field_on_line():
    frame = FrameField.identity(1, ("x1",))
    L = lie_gamma(frame, ("x1",), (1.7,))
    assert L[0, 0] == pytest.approx(-1.0, abs=1e-9)


def test_lie_gamma_constant_change_conjugation():
    frame = FrameField.identity(2, XY)
    x = (0.4, -0.2)
    X = ("x2", "x1*x1")
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    L = lie_gamma(frame, X, x)
    changed = compose_frame(frame, MatrixField.constant(B, XY))
    Binv = np.linalg.inv(B)
    X_new = [(lambda x1, x2, i=i: float(
        (Binv @ [x2, x1 * x1])[i])) for i in range(2)]
    L_new = lie_gamma(changed, [ScalarField(c, XY) for c in X_new], x)
    assert np.allclose(L_new, Binv @ L @ B, atol=1e-8)


def test_lie_derivative_scalar_is_directional():
    frame = FrameField.identity(2, XY)
    S = TensorField(0, 0, np.array("x1*x1*x2", dtype=object)[()], XY)
    out = lie_derivative(frame, ("1", "x1"), S, (2.0, 3.0))
    # X(f) = d_1 f + x1 d_2 f = 2*x1*x2 + x1^3 = 12 + 8
    assert out == pytest.approx(20.0, abs=1e-6)


def test_lie_derivative_identity_tensor_vanishes():
    frame = FrameField.identity(2, XY)
    S = TensorField(1, 1, [["1", "0"], ["0", "1"]], XY)
    out = lie_derivative(frame, ("x2", "sin(x1)"), S, (0.5, 0.8))
    assert np.allclose(out, 0.0, atol=1e-8)


def test_lie_derivative_one_form_against_direct_formula():
    # (L_X theta)(Y) = X(theta(Y)) - theta([X, Y]) with X=(x2,1), Y=(1,x1),
    # theta=(x1^2, x1*x2); at (2,3) the right side is 52 - 10 = 42 by hand.
    frame = FrameField.identity(2, XY)
    theta = TensorField(0, 1, ["x1*x1", "x1*x2"], XY)
    x = (2.0, 3.0)
    out = lie_derivative(frame, ("x2", "1"), theta, x)
    Y = np.array([1.0, x[0]])
    assert float(out @ Y) == pytest.approx(42.0, abs=1e-6)


def _random_smooth_change(rng):
    a, b, c = (rng.uniform(-0.4, 0.4) for _ in range(3))
    return MatrixField.from_exprs(
        [[f"1 + {a!r}*x1*x1", f"{b!r}*sin(x2)"],
         ["0", f"exp({c!r}*x1)"]], XY)


def test_transform_anholonomy_law():
    rng = random.Random(7)
    frame = FrameField.from_exprs(
        [["1", "x2/4"], ["sin(x1)/2", "1"]], XY)
    for _ in range(6):
        B = _random_smooth_change(rng)
        x = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        predicted = transform_anholonomy(frame, B, x)
        direct = anholonomy(compose_frame(frame, B), x)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.allclose(predicted, direct, atol=1e-6 * scale)


def test_transform_lie_gamma_law():
    rng = random.Random(11)
    frame = FrameField.identity(2, XY)
    X = ("x2*x2", "x1")
    for _ in range(6):
        B = _random_smooth_change(rng)
        x = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        predicted = transform_lie_gamma(frame, B, X, x)
        changed = compose_frame(frame, B)

        def new_comp(i):
            def f(*pt):
                Xv = np.array([pt[1] * pt[1], pt[0]])
                return float(np.linalg.solve(B(pt), Xv)[i])
            return f
        direct = lie_gamma(changed, [ScalarField(new_comp(i), XY)
                                     for i in range(2)], x)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.allclose(predicted, direct, atol=1e-6 * scale)


def test_tensor_field_shape_validation():
    with pytest.raises(ValueError):
        TensorField(1, 0, ["x1", "x2", "x1"], XY)


# one array core: a whole vector computed at once carries the same bits as
# its components computed one at a time

SECTION = ["sin(x1)*x2", "x1^2 - 3*x2", "exp(0.3*x1*x2)"]


@pytest.mark.parametrize("h, rel", [(1e-3, FD_STEP_FIRST),
                                    (None, FD_STEP_FIRST),
                                    (None, FD_STEP_NESTED)])
def test_fd_partials_of_section_equals_per_component(h, rel):
    x = (2.3, -0.4)
    whole = fd_partials(SectionField(SECTION, XY), x, h, rel=rel)
    comps = [ScalarField(c, XY) for c in SECTION]
    by_component = np.array([[fd_partial(c, x, mu, h, rel) for c in comps]
                             for mu in range(2)])
    assert whole.shape == (2, 3)
    assert np.array_equal(whole, by_component)


def test_fd_partials_axes_subset():
    x = (0.5, 1.5)
    field = SectionField(SECTION, XY)
    assert np.array_equal(fd_partials(field, x, axes=[1]),
                          fd_partials(field, x)[1:])


def test_jacobi_natural_of_vector_morphism_is_elementwise():
    base = ["x1 + x2^2", "sin(x2)"]
    m = BundleMorphism.vector(base, [["cos(x1*x2)", "x1"],
                                     ["0.5*x2", "exp(x1)"]], 2, 2)
    p = (0.4, 0.9, -1.2, 0.7)
    names = bundle_names(2, 2)
    base = [ScalarField(c, names[:2]) for c in base]

    def fibre(a):
        return ScalarField(
            lambda *q: (m.matrix(q[:2]) @ np.asarray(q[2:]))[a], names)

    expected = np.zeros((4, 4))
    for nu in range(2):
        for mu in range(2):
            expected[nu, mu] = fd_partial(base[nu], p[:2], mu)
    for a in range(2):
        for t in range(4):
            expected[2 + a, t] = fd_partial(fibre(a), p, t)
    assert np.array_equal(jacobi_natural(m, p), expected)


def test_section_field_region_and_finiteness():
    region = Region([(0.0, 1.0), (0.0, 1.0)])
    section = SectionField(["x1", "x2"], XY, region)
    assert np.array_equal(section((0.25, 0.5)), [0.25, 0.5])
    with pytest.raises(DomainExit):
        section((1.5, 0.5))
    with pytest.raises(NonFinite):
        SectionField(["x1", lambda x1, x2: float("nan")], XY)((0.2, 0.3))


@pytest.mark.parametrize("components", ["x1", [["x1"], "x2"], [None, "x2"]])
def test_section_field_rejects_unusable_components(components):
    with pytest.raises(ValueError):
        SectionField(components, XY)


# --- batched evaluation: values(points) -------------------------------------------

# every grammar function and every operator, defined on (0.1, 2) x (0.1, 1.5)
ALL_OPS_ROWS = [
    ["sin(x1)*cos(x2) - tan(x1/3)", "cot(x2) + exp(x1 - x2)", "-x2"],
    ["ln(x1) / sqrt(x2)", "abs(x1 - x2)^1.5 + pow(x1, x2)", "2.5"],
]
ALL_OPS_REGION = Region([(0.1, 2.0), (0.1, 1.5)])


def batch_points(k=2000, seed=3):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0.1, 2.0, k),
                            rng.uniform(0.1, 1.5, k)])


def stacked(field, points):
    """The per-point reference: one __call__ per row, at plain floats."""
    return np.stack([field(tuple(p.tolist())) for p in points])


def first_error(fn):
    with pytest.raises(EngineError) as info:
        fn()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("region", [None, ALL_OPS_REGION])
def test_values_equals_stacked_calls_bitwise(region, monkeypatch):
    text = " ".join(e for row in ALL_OPS_ROWS for e in row)
    assert all(f"{name}(" in text for name in FUNCTION_ARITY)
    assert all(op in text for op in "+-*/^")
    field = MatrixField.from_exprs(ALL_OPS_ROWS, XY, region)
    points = batch_points()
    expected = stacked(field, points)

    def no_per_point_calls(self, point):
        raise AssertionError("the batch path evaluated a single point")

    monkeypatch.setattr(MatrixField, "__call__", no_per_point_calls)
    out = field.values(points)
    assert out.shape == (len(points), 2, 3)
    assert np.array_equal(out, expected)


def test_scalar_field_entries_take_the_batch_path(monkeypatch):
    comps = [ScalarField(e, XY) for e in ALL_OPS_ROWS[0]]
    assert isinstance(comps[0]((1.0, 1.0)), float)
    field = SectionField(comps, XY)
    points = batch_points()
    expected = stacked(field, points)

    def no_per_point_calls(self, point):
        raise AssertionError("the batch path evaluated a single point")

    monkeypatch.setattr(SectionField, "__call__", no_per_point_calls)
    assert np.array_equal(field.values(points), expected)


BAD_NODE_CASES = {
    # the entries of a 1 x 2 field, its region, and its one bad point
    "outside-region": (["x1", "x2"], ALL_OPS_REGION, (2.5, 0.5)),
    "division-by-zero": (["x2", "1/(x1 - 0.5)"], None, (0.5, 0.5)),
    "ln-negative": (["ln(x1 - 0.6)", "x2"], None, (0.5, 0.5)),
    "exp-overflow-in-finite-result": (["1/exp(800*x1)", "x2"], None,
                                      (1.0, 0.5)),
    "fractional-power-negative-base": (["x1", "(x1 - 0.6)^0.5"], None,
                                       (0.5, 0.5)),
    "cot-zero": (["cot(x2)", "x1"], None, (0.5, 0.0)),
}


@pytest.mark.parametrize("entries, region, bad", BAD_NODE_CASES.values(),
                         ids=list(BAD_NODE_CASES))
def test_values_raises_the_per_point_error(entries, region, bad):
    field = MatrixField.from_exprs([entries], XY, region)
    points = np.array([(1.0, 1.0), (1.2, 0.7), bad, (0.9, 1.1)])
    expected = first_error(lambda: stacked(field, points))
    assert first_error(lambda: field.values(points)) == expected


def raised(fn):
    """The type and message of any exception fn() raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


CALLABLE_ROWS = np.array([(1.0, 1.0), (1.2, 0.7), (0.5, 0.5), (0.9, 1.1)])
INNER = MatrixField.from_exprs([["x1 * x2"]], XY,
                               Region([(0.6, 2.0), (0.1, 1.5)]))
CALLABLE_ROW_CASES = {
    # a 1 x 2 callable field whose row 2 of CALLABLE_ROWS fails (every row,
    # where named), its region, and the per-point loop's first error
    "wrong-shape": (
        lambda x1, x2: [x1, x2] if x1 == 0.5 else [[x1, x2]], None,
        (ValueError, "callable returned shape (2,), expected (1, 2)")),
    "every-row-the-wrong-shape": (
        lambda x1, x2: [x1, x2], None,
        (ValueError, "callable returned shape (2,), expected (1, 2)")),
    "nan": (
        lambda x1, x2: [[math.nan if x1 == 0.5 else x1, x2]], None,
        (NonFinite, "non-finite array value at (0.5, 0.5)")),
    "nan-before-a-zero-division": (
        lambda x1, x2: [[math.nan if x1 == 0.5 else x1, x2 / (x1 - 0.9)]],
        None, (NonFinite, "non-finite array value at (0.5, 0.5)")),
    "nested-domain-exit": (
        lambda x1, x2: [[INNER((x1, x2))[0, 0], x2]], None,
        (DomainExit, "point (0.5, 0.5) outside region "
                     "((0.6, 2.0), (0.1, 1.5))")),
    "outside-region": (
        lambda x1, x2: [[x1, x2]], Region([(0.6, 2.0), (0.1, 1.5)]),
        (DomainExit, "point (0.5, 0.5) outside region "
                     "((0.6, 2.0), (0.1, 1.5))")),
}


@pytest.mark.parametrize("fn, region, expected", CALLABLE_ROW_CASES.values(),
                         ids=list(CALLABLE_ROW_CASES))
def test_callable_values_raise_the_per_point_error(fn, region, expected):
    field = MatrixField.from_callable(fn, (1, 2), XY, region)
    assert raised(lambda: stacked(field, CALLABLE_ROWS)) == expected
    assert raised(lambda: field.values(CALLABLE_ROWS)) == expected


def test_callable_values_take_one_pass(monkeypatch):
    calls = []

    def fn(x1, x2):
        calls.append((x1, x2))
        return np.array([[x1 * x2, math.exp(x1)], [1.0, x2]])

    field = MatrixField.from_callable(fn, (2, 2), XY, ALL_OPS_REGION)
    points = batch_points(40)
    want = stacked(field, points)
    calls.clear()
    monkeypatch.setattr(MatrixField, "floats", lambda self, p: 1 / 0)
    for rows in (points[:1], points):     # any row count takes the pass
        assert field.values(rows).tobytes() == want[:len(rows)].tobytes()
    assert calls == [tuple(p) for p in points[:1].tolist() + points.tolist()]


@pytest.mark.parametrize("cls, shape", [(ScalarField, ()),
                                        (SectionField, (2,)),
                                        (TensorField, (2, 2))])
def test_from_callable_is_refused_by_entry_classes(cls, shape):
    # these classes build from entries, a callable entry among them
    with pytest.raises(TypeError) as info:
        cls.from_callable(lambda x1, x2: np.zeros(shape), shape, XY)
    assert str(info.value) == (f"{cls.__name__} takes callables as entries; "
                               f"use MatrixField.from_callable")


def test_values_raises_at_the_first_bad_point_not_the_first_bad_entry():
    # the second entry fails at row 1, the first entry only at row 2
    field = MatrixField.from_exprs([["1/(x1 - 0.5)", "ln(x2)"]], XY)
    points = np.array([(1.0, 1.0), (0.8, -1.0), (0.5, 1.0)])
    kind, message = first_error(lambda: field.values(points))
    assert (kind, message) == first_error(lambda: stacked(field, points))
    assert kind is NonFinite and message.startswith("ln")


def test_values_fallback_errors_name_plain_floats():
    with pytest.raises(NonFinite) as info:
        MatrixField.from_exprs([["x1", "x2"]], XY).values(
            np.array([(1.0, 1.0), (math.inf, 0.5)]))
    assert str(info.value) == "variable x1 is inf"
    field = MatrixField.from_exprs([["x1", "x2"]], XY, ALL_OPS_REGION)
    with pytest.raises(DomainExit) as info:
        field.values(np.array([(1.0, 1.0), (2.5, 0.5)]))
    assert str(info.value).startswith("point (2.5, 0.5) outside region")


@pytest.mark.parametrize("field", [
    MatrixField.from_callable(lambda x1, x2: [[x1, x2, 1.0]] * 2, (2, 3), XY),
    MatrixField.from_exprs(ALL_OPS_ROWS, XY, ALL_OPS_REGION),
    ScalarField(lambda x1, x2: x1 * x2, XY),
], ids=["callable", "expressions", "scalar-callable"])
def test_values_of_no_points_is_empty(field):
    assert field.values(np.empty((0, 2))).shape == (0,) + field.shape


def test_fd_partial_rejects_a_non_finite_quotient():
    field = MatrixField.from_exprs([["1e307*sin(100*x1)", "x2"]], XY)
    with pytest.raises(NonFinite) as info, np.errstate(over="ignore"):
        fd_partial(field, (0.5, 0.25), 0)
    assert str(info.value) == ("non-finite difference quotient along axis 0 "
                               "at (0.5, 0.25)")
    assert np.isfinite(fd_partial(field, (0.5, 0.25), 1)).all()


def test_callable_fields_take_the_per_point_loop():
    calls = []

    def fn(x1, x2):
        calls.append((x1, x2))
        return [[x1 * x2, math.exp(x1)], [1.0, x2]]

    field = MatrixField.from_callable(fn, (2, 2), XY)
    points = batch_points(40)
    out = field.values(points)
    assert len(calls) == len(points)
    calls.clear()
    assert np.array_equal(out, stacked(field, points))
    # one callable entry sends the whole field down the same loop
    mixed = SectionField(["x1", lambda x1, x2: x1 + x2], XY)
    assert np.array_equal(mixed.values(points), stacked(mixed, points))
    nan_field = SectionField(["x1", lambda x1, x2: float("nan")], XY)
    assert (first_error(lambda: nan_field.values(points))
            == first_error(lambda: stacked(nan_field, points)))


# --- compiled kernels on a grid: kernel(contract, fallback, table) ------------

XU = bundle_names(2, 2)


def outcome(fn):
    """The float bits fn() returns, or the type and message it raises."""
    try:
        return np.array(fn()).tobytes()
    except EngineError as exc:
        return type(exc), str(exc)


def entry_trees():
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=3.0)),
        st.builds(Var, st.sampled_from(XU)))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(lambda f, a: Call(f, (a,)),
                      st.sampled_from(sorted(f for f, n in
                                             FUNCTION_ARITY.items()
                                             if n == 1)),
                      children),
            st.builds(lambda a, b: Call("pow", (a, b)), children, children))
    return st.recursive(leaves, extend, max_leaves=10)


coordinate = st.floats(min_value=-3.0, max_value=3.0)


def rhs_outcome(fn):
    """outcome() with every NaN the same NaN: the sign of NaN + NaN is
    either operand's, and CPython changes which once it specialises the
    addition, so no two runs need agree on it."""
    def canonical():
        values = np.array(fn())
        return np.where(np.isnan(values), np.nan, values)
    return outcome(canonical)


def summing(length):
    """A contract of `length` derivatives, as a state-dependent driver
    contracts (transport._contract): out[i] sums from 0 the products
    G[j] * v[j % len(v)] over the entries j = i (mod length)."""
    def contract(G, v):
        return _contract([[(None, [(j, j % len(v))
                                   for j in range(i, len(G), length)])]
                          for i in range(length)], G, v)
    return contract


def checked_rhs(field, contract, table=None):
    """The right-hand side that field.kernel compiles, through the checked
    field.floats: f(node, y) = contract(G, v) at point y[:m], v = y[m:]
    (m = len(y) // 2) without a table, else at point (*x, *y) with
    (*x, *v) = table[node]."""
    def rhs(node, y):
        if table is None:
            return contract(field.floats(y[:len(y) // 2]), y[len(y) // 2:])
        row = table[node].tolist()
        half = len(row) // 2
        return contract(field.floats((*row[:half], *y)), row[half:])
    return rhs


def compiled_step(field, contract, table=None, rhs=None):
    """(field.kernel's RK4 step of contract, the checked step over rhs,
    by default checked_rhs, and the list of the (b, h, y) the compiled step
    handed to the checked one)."""
    checked = _checked_step(rhs or checked_rhs(field, contract, table))
    fell_back = []

    def fallback(b, h, y):
        fell_back.append((b, h, y))
        return checked(b, h, y)
    return field.kernel(contract, fallback, table), checked, fell_back


def padded_table(xs, vs=None):
    """The (K + 2, 2n) table of the grid xs (K, n) and velocities vs (ones
    by default), rows cycled on by two, so a step may start at every row
    of xs."""
    xs = np.asarray(xs, dtype=float)
    vs = np.ones_like(xs) if vs is None else np.asarray(vs, dtype=float)
    rows = np.arange(len(xs) + 2) % len(xs)
    return np.column_stack([xs, vs])[rows]


# step widths: both signs, tiny and large
STEP_WIDTHS = [0.5, -0.25, 1e-3, 2.0]


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(entry_trees(), min_size=4, max_size=4),
       xs=st.lists(st.tuples(coordinate, coordinate), min_size=1,
                   max_size=6),
       v=st.tuples(coordinate, coordinate),
       rests=st.lists(st.lists(st.one_of(
           coordinate, st.sampled_from([math.inf, -math.inf, math.nan])),
           min_size=2, max_size=2), min_size=1, max_size=4),
       h=st.sampled_from(STEP_WIDTHS),
       region=st.sampled_from([None, Region([(-2.5, 2.5)] * 4)]))
def test_on_grid_equals_floats_bitwise(entries, xs, v, rests, h, region):
    # the compiled step of a two-index contraction on a grid table equals
    # the checked step over field.floats at every row
    field = MatrixField.from_exprs([entries[:2], entries[2:]], XU, region)
    table = padded_table(xs, [v] * len(xs))
    step, checked, _ = compiled_step(field, summing(2), table)
    for b in range(len(xs)):
        for rest in rests:
            assert rhs_outcome(lambda: step(b, h, list(rest))) == (
                rhs_outcome(lambda: checked(b, h, list(rest))))


BENCH_ROWS = [["-((0.1659*cos(x1 + x2))*u1 + (0.4901*x2)*u2)", "0.5*x1"],
              ["0.3*sin(u2)*x1", "u1*cos(x2) + 2"]]


@pytest.mark.parametrize("field", [
    MatrixField.from_callable(lambda *p: [[p[0] * p[2], 1.0]] * 2, (2, 2),
                              XU),
    MatrixField.from_exprs([[lambda *p: p[0] * p[2], "u2"], ["0", "x2"]], XU),
], ids=["callable", "callable-entry"])
def test_on_grid_falls_back_to_floats(field, monkeypatch):
    xs = batch_points(9)
    calls = []
    floats = MatrixField.floats
    monkeypatch.setattr(MatrixField, "floats",
                        lambda self, p: calls.append(p) or floats(self, p))
    table = padded_table(xs)
    step, checked, fell_back = compiled_step(field, summing(2), table)
    for b in range(len(xs)):
        assert outcome(lambda: step(b, 0.5, [0.7, -1.3])) == outcome(
            lambda: checked(b, 0.5, [0.7, -1.3]))
    # the kernel is the checked step itself, four evaluations per step
    assert len(fell_back) == len(xs)
    assert len(calls) == 2 * 4 * len(xs)


def test_on_grid_sends_a_non_finite_rest_to_floats():
    field = MatrixField.from_exprs(BENCH_ROWS, XU)
    step, _, fell_back = compiled_step(field, summing(2),
                                       padded_table(batch_points(3)))
    with pytest.raises(NonFinite, match="^variable u2 is nan$"):
        step(1, 0.5, [0.5, math.nan])
    assert len(fell_back) == 1
    # an unread coordinate raises nothing, as in floats
    field = MatrixField.from_exprs([["u1*x1", "x2"], ["1", "cos(x1)"]], XU)
    step, checked, fell_back = compiled_step(field, summing(2),
                                             padded_table(batch_points(3)))
    out = step(1, 0.5, [0.5, math.inf])
    assert out == checked(1, 0.5, [0.5, math.inf]) and out[1] == math.inf
    assert not fell_back


# --- repeated entries: evaluated once per point, then copied ------------------

POLE = "1/(x1 - 1.25)"


def test_repeated_entries_are_evaluated_once_and_copied():
    field = MatrixField.from_exprs([[POLE, "x2"], [POLE, POLE]], XY)
    # one output slot per distinct entry; the steps load x1, subtract,
    # divide and load x2, once each
    out = field._program.outputs
    assert out[0] == out[2] == out[3] != out[1]
    assert len(field._program.steps) == 4
    points = batch_points(6)
    want = np.array([[1.0 / (x1 - 1.25), x2, 1.0 / (x1 - 1.25),
                      1.0 / (x1 - 1.25)] for x1, x2 in points.tolist()])
    got = [field.floats(tuple(p)) for p in points.tolist()]
    assert np.array(got).tobytes() == want.tobytes()
    assert field.values(points).tobytes() == want.tobytes()


@pytest.mark.parametrize("evaluate", [
    lambda field, p: field.floats(p),
    lambda field, p: field.values(np.array([p])),
], ids=["floats", "values"])
def test_repeated_entry_fails_as_its_first_occurrence(evaluate):
    field = MatrixField.from_exprs([["x2", POLE], [POLE, "ln(x1 - 2)"]], XY)
    with pytest.raises(NonFinite, match="^division by zero$"):
        evaluate(field, (1.25, 0.5))
    with pytest.raises(NonFinite, match="^ln: math domain error$"):
        evaluate(field, (1.0, 0.5))


def test_signed_zero_constants_keep_entries_apart():
    plus, minus = (BinOp("*", Var("x1"), Const(z)) for z in (0.0, -0.0))
    assert plus == minus                    # 0.0 == -0.0 in the dataclass
    field = MatrixField.from_exprs([[plus, minus]], ("x1",))
    assert len(set(field._program.outputs)) == 2
    for row in (field.floats((1.0,)), field.values(np.array([[1.0]]))[0, 0]):
        assert [math.copysign(1.0, v) for v in row] == [1.0, -1.0]


def test_on_grid_copies_repeated_entries():
    entries = [["u1*sin(x1)", "u2 + x2"], ["u1*sin(x1)", "u2 + x2"]]
    field = MatrixField.from_exprs(entries, XU)
    out = field._program.outputs
    assert out[2] == out[0] != out[3] == out[1]
    table = padded_table(batch_points(7))

    def each_entry(node, y):
        # the checked right-hand side with every entry on its own
        point = (*table[node, :2].tolist(), *y)
        return summing(2)([ScalarField(e, XU)(point) for row in entries
                           for e in row], table[node, 2:].tolist())

    step, checked, fell_back = compiled_step(field, summing(2), table,
                                             each_entry)
    for b in range(len(table) - 2):
        assert np.array(step(b, 0.5, [0.7, -1.3])).tobytes() == np.array(
            checked(b, 0.5, [0.7, -1.3])).tobytes()
    assert not fell_back


# --- compiled per-point kernels: with and without a table ---------------------

# signed zeros, subnormals, huge and non-finite values, and the region
# bounds of KERNEL_REGIONS, which are outside (open intervals)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, math.inf,
           -math.inf, math.nan, 2.5, -2.5, 2.0, -1.0]
kernel_coordinate = st.one_of(coordinate, st.sampled_from(SPECIAL))


def kernel_trees(names=XU):
    """Trees over `names` with every grammar function, '^' and '/', and
    constants of both signs, tiny and huge."""
    leaves = st.one_of(
        st.builds(Const, st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e-320,
                                          1e308])),
        st.builds(Var, st.sampled_from(names)))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(lambda f, a: Call(f, (a,)),
                      st.sampled_from(sorted(f for f, n in
                                             FUNCTION_ARITY.items()
                                             if n == 1)),
                      children),
            st.builds(lambda a, b: Call("pow", (a, b)), children, children))
    return st.recursive(leaves, extend, max_leaves=12)


KERNEL_REGIONS = [
    None,
    Region([(-2.5, 2.5)] * 4),
    Region([(-math.inf, 2.0), (-1.0, math.inf), (-math.inf, math.inf),
            (-math.inf, math.inf)]),
    Region([(-3.0, 3.0)] * 3),          # wrong dimension: always outside
]


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(kernel_trees(), min_size=4, max_size=4),
       points=st.lists(st.lists(kernel_coordinate, min_size=4, max_size=4),
                       min_size=1, max_size=6),
       vel=st.one_of(st.just([1.0] * 4),
                     st.lists(kernel_coordinate, min_size=4, max_size=4)),
       h=st.sampled_from(STEP_WIDTHS),
       region=st.sampled_from(KERNEL_REGIONS))
def test_kernel_equals_floats_bitwise(entries, points, vel, h, region):
    # the compiled step equals the checked step over field.floats, without
    # a table (state: point and velocity) and with one (state: the fibre
    # point), and values equals floats
    field = MatrixField.from_exprs([entries[:2], [entries[0], entries[3]]],
                                   XU, region)
    step, checked, _ = compiled_step(field, summing(8))
    table = padded_table([p[:2] for p in points], [vel[:2]] * len(points))
    at, at_checked, _ = compiled_step(field, summing(2), table)
    for k, p in enumerate(points):
        assert rhs_outcome(lambda: step(k, h, p + vel)) == rhs_outcome(
            lambda: checked(k, h, p + vel))
        assert rhs_outcome(lambda: at(k, h, p[2:])) == rhs_outcome(
            lambda: at_checked(k, h, p[2:]))
        assert outcome(lambda: field.values(np.array([p]))) == outcome(
            lambda: field.floats(p))
    assert outcome(lambda: field.values(np.array(points))) == outcome(
        lambda: [field.floats(p) for p in points])


def oracle_outcome(trees, point):
    """outcome() of the reference evaluator tests/_oracle_eval.py."""
    try:
        return np.array(oracle_entries(trees, XU, point)).tobytes()
    except OracleFailure as exc:
        return getattr(errors, exc.kind), exc.message


# signed zeros, subnormals, huge values, NaN and infinities
ORACLE_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                      math.nan, math.inf, -math.inf, 0.5, -1.5, 2.0]


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(kernel_trees(), min_size=3, max_size=3),
       point=st.lists(st.one_of(coordinate,
                                st.sampled_from(ORACLE_COORDINATES)),
                      min_size=4, max_size=4))
def test_checked_evaluation_matches_the_oracle(entries, point):
    # a field with a repeated entry, and each tree on its own through the
    # public evaluate
    rows = [entries[:2], [entries[0], entries[2]]]
    field = MatrixField.from_exprs(rows, XU)
    assert outcome(lambda: field.floats(point)) == oracle_outcome(
        [tree for row in rows for tree in row], point)
    for tree in entries:
        assert outcome(lambda: [evaluate(tree, dict(zip(XU, point)))]) == (
            oracle_outcome([tree], point))


@pytest.mark.parametrize("source", [
    "x1/(u1*1e308*1e10)", "exp(-(u1*1e308*1e10))", "pow(u1*1e308*1e10, 0)",
    "(u1*1e308*1e10)^(-1)"])
def test_kernel_tests_the_operands_that_absorb_an_infinity(source):
    # unchecked, the overflow would end in 0.0 or 1.0: the kernel and the
    # batch test the divisor, the argument of exp and both of pow, so they
    # fall back
    field = ScalarField(source, XU)
    point = [0.5, 0.5, 2.0, 1.0]
    step = compiled_step(field, summing(8))[0]
    at = compiled_step(field, summing(2), padded_table([point[:2]]))[0]
    for evaluate in (field.floats, lambda p: step(0, 0.5, p + [1.0] * 4),
                     lambda p: at(0, 0.5, p[2:]),
                     lambda p: field.values(np.array([p]))):
        with pytest.raises(NonFinite, match="^overflow in '\\*'$"):
            evaluate(point)


@pytest.mark.parametrize("region", KERNEL_REGIONS[1:3])
def test_kernel_region_bounds_are_open(region):
    field = MatrixField.from_exprs([["x1*u1", "x2 + u2"]], XU, region)
    for axis, (lo, hi) in enumerate(region.bounds):
        for bound in (lo, hi):
            point = [0.5, 0.5, 0.5, 0.5]
            point[axis] = bound
            step = compiled_step(field, summing(8))[0]
            assert outcome(lambda: step(0, 0.5, point + [1.0] * 4)) == (
                outcome(lambda: field.floats(point))) == (
                DomainExit, f"point {tuple(point)} outside region "
                f"{region.bounds}")


def test_kernel_of_a_region_of_the_wrong_dimension_always_exits():
    field = MatrixField.from_exprs([["x1*u1", "2"]], XU,
                                   Region([(-3.0, 3.0)] * 3))
    with pytest.raises(DomainExit):
        field.floats([0.5, 0.5, 1.0, 1.0])
    # the kernel is the checked step itself
    step, _, fell_back = compiled_step(field, summing(8))
    with pytest.raises(DomainExit):
        step(0, 0.5, [0.5, 0.5, 1.0, 1.0] + [1.0] * 4)
    assert len(fell_back) == 1
    # a point as short as the region is inside, and u2 is never read
    assert field.floats([0.5, 0.5, 1.0]) == [0.5, 2.0]


# a point x moving with velocity v, v' = the acceleration, from x = 0 over
# one step of width 1: (v, acceleration, the x of the failing stage); the
# stages are at x = 0, 1.25, 0.25, 0.5 / 0, 0.5, 1.25, 0.5 / 0, 0.75,
# 0.75, 1.5, so only that stage meets x < 1 or overflows 1e308*x^4
LATE_STAGES = {2: (2.5, "-4", 1.25), 3: (1.0, "3 - 8*{x}", 1.25),
               4: (1.5, "0", 1.5)}


@pytest.mark.parametrize("stage", list(LATE_STAGES))
@pytest.mark.parametrize("fails", ["region", "overflow"])
@pytest.mark.parametrize("with_table", [False, True])
def test_step_falls_back_whole_when_only_a_later_stage_fails(
        stage, fails, with_table):
    # the state carries one more coordinate w' = g(x), read by no entry: x
    # leaves the region where g = x, or g = 1e308*x^4 overflows, at that
    # stage alone, so only the test of that stage can catch it
    v, acceleration, x_fail = LATE_STAGES[stage]
    g = "{x}" if fails == "region" else "1e308*{x}^4"
    inside = (-math.inf, 1.0) if fails == "region" else (-math.inf, math.inf)
    free = (-math.inf, math.inf)
    if with_table:          # state (u1, u2, u3) = (x, v, w)
        entries = ["u2", acceleration.format(x="u1"), g.format(x="u1")]
        field = MatrixField.from_exprs(
            [entries], bundle_names(2, 3),
            Region([free, free, inside, free, free]))
        step, checked, fell_back = compiled_step(
            field, lambda G, _: G, padded_table(batch_points(1)))
        y = [0.0, v, 0.0]
    else:                   # state (x1, x2, v1, v2) = (x, w, v, 0)
        entries = [acceleration.format(x="x1"), g.format(x="x1")]
        field = MatrixField.from_exprs([entries], XY, Region([inside, free]))
        step, checked, fell_back = compiled_step(
            field, lambda G, v: [v[0], G[1], G[0], v[1]])
        y = [0.0, 0.0, v, 0.0]
    got = outcome(lambda: step(0, 1.0, y))
    assert got == outcome(lambda: checked(0, 1.0, y))
    assert len(fell_back) == 1
    if fails == "region":
        assert got[0] is DomainExit
        assert re.match(rf"point \((\S+, ){{{2 * with_table}}}{x_fail}, ",
                        got[1]), got[1]
    else:
        assert got == (NonFinite, "overflow in '*'")


def test_kernel_without_a_region_ignores_an_unread_infinity():
    field = MatrixField.from_exprs([["2*x1", "sin(u1)"]], XU)
    point = [0.5, math.inf, 1.0, -math.inf]
    assert field.floats(point) == [1.0, math.sin(1.0)]
    step, checked, fell_back = compiled_step(field, summing(8))
    out = step(0, 0.5, point + [1.0] * 4)
    assert out == checked(0, 0.5, point + [1.0] * 4)
    assert out[1] == math.inf and out[3] == -math.inf and not fell_back


def kernel_source(field, monkeypatch):
    """The source text of field's compiled step without a table."""
    sources = []
    compile_ = compile
    monkeypatch.setattr(fields, "compile",
                        lambda text, *a: sources.append(text)
                        or compile_(text, *a), raising=False)
    compiled_step(field, summing(2 * len(field.names)))
    return sources[-1]


def batch_source(field):
    """The source text field.values compiles for its batch."""
    sources = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields, "compile", lambda text, *a: sources.append(text)
                      or compile(text, *a), raising=False)
        field._batch_values(np.ones((1, len(field.names))))
    return sources[-1]


SSA_NAME = re.compile(r"[tv]\d+")
BATCH_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                tokenize.ENDMARKER)


@settings(max_examples=100, deadline=None)
@given(tree=kernel_trees())
def test_kernel_statements_hold_only_generated_names(tree):
    lines, values, tested = ssa_lines(program([tree], XU),
                                      [f"v{i}" for i in range(len(XU))])
    assert set(values + tested) <= {
        *(line.split(" = ")[0] for line in lines),
        *(f"v{i}" for i in range(len(XU)))} | {
        v for v in values + tested if v.startswith("(")}
    # the statements, and the batch of a field around them
    source = batch_source(ScalarField(tree, XU))
    for line in lines + source.splitlines():
        for tok in tokenize.generate_tokens(io.StringIO(line).readline):
            if tok.type == tokenize.NAME:
                assert (SSA_NAME.fullmatch(tok.string)
                        or tok.string in FUNCTION_ARITY
                        or tok.string in ("def", "batch", "return")), line
            elif tok.type == tokenize.NUMBER:
                assert repr(float(tok.string)) == tok.string, line
            elif tok.type == tokenize.OP:
                assert tok.string in "+-*/(),=:[]", line
            else:
                assert tok.type in BATCH_LAYOUT, line


def test_values_compiles_the_batch_once(monkeypatch):
    # one batch per field, run on blocks of rows
    names = []
    monkeypatch.setattr(fields, "compile", lambda text, name, mode: (
        names.append(name) or compile(text, name, mode)), raising=False)
    field = MatrixField.from_exprs(ALL_OPS_ROWS, XY)
    points = batch_points(2 * fields._ROWS + 3)
    for rows in (points[:5], points):
        assert field.values(rows).tobytes() == stacked(field, rows).tobytes()
    points[-2] = (1.0, 0.0)            # cot(x2) fails in the last block
    assert first_error(lambda: field.values(points)) == first_error(
        lambda: stacked(field, points))
    assert len(names) == 1 and re.fullmatch(r"<batch \d+>", names[0])


def test_few_rows_run_point_by_point_without_a_compile(monkeypatch):
    # compiling costs more than a handful of rows run one at a time
    names = []
    monkeypatch.setattr(fields, "compile", lambda text, name, mode: (
        names.append(name) or compile(text, name, mode)), raising=False)
    field = MatrixField.from_exprs(ALL_OPS_ROWS, XY)
    points = batch_points(fields._BATCH_MIN)
    for rows in (points[:5], points[:fields._BATCH_MIN - 1]):
        assert field.values(rows).tobytes() == stacked(field, rows).tobytes()
    assert names == []
    assert field.values(points).tobytes() == stacked(field, points).tobytes()
    assert len(names) == 1 and re.fullmatch(r"<batch \d+>", names[0])


def test_batch_tests_each_column_not_their_sum(monkeypatch):
    # each entry is finite, their sum is not: the batch must not give up
    field = MatrixField.from_exprs([["1e308*x1", "1e308*x2"]], XY)
    points = np.full((20000, 2), 0.9)
    want = stacked(field, points).tobytes()
    monkeypatch.setattr(MatrixField, "floats", lambda self, p: 1 / 0)
    assert field.values(points).tobytes() == want


def test_kernel_source_names_no_variable_of_the_field(monkeypatch):
    names = ("__import__", "exec")
    field = MatrixField.from_exprs(
        [[BinOp("+", Var("__import__"), Var("exec")), "sin(exec)"]], names,
        Region([(-1.0, 1.0), (0.0, math.inf)]))
    source = kernel_source(field, monkeypatch)
    assert "import" not in source and "exec" not in source
    idents = {tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.NAME}
    fixed = {"def", "kernel", "b", "h", "y", "half", "sixth", "if", "not",
             "and", "raise", "try", "except", "ValueError", "OverflowError",
             "ZeroDivisionError", "pass", "return", "fallback", "isfinite",
             "inf"}
    # SSA names, and the state (c) and stage derivatives (p, q, r, s)
    assert idents - fixed <= set(FUNCTION_ARITY) | {
        i for i in idents if re.fullmatch(r"[tvcpqrs]\d+", i)}
    step, checked, fell_back = compiled_step(field, summing(4))
    y = [0.5, 2.0, 1.0, 1.0]
    assert step(0, 0.01, y) == checked(0, 0.01, y) and not fell_back


def tree_depth(node):
    kids = ((node.operand,) if isinstance(node, Neg) else
            (node.lhs, node.rhs) if isinstance(node, BinOp) else
            node.args if isinstance(node, Call) else ())
    return 1 + max(map(tree_depth, kids), default=0)


DEEP = {
    "unary-minus": "-" * 99 + "x1",
    "division": functools.reduce(lambda s, _: f"x1/({s} + 2)", range(49),
                                 "x1"),
    "calls": functools.reduce(
        lambda s, f: f"{f}({s})",
        ["sin", "cos", "exp", "ln", "abs", "sqrt", "tan", "cot"] * 12
        + ["sin", "cos", "exp"], "x1"),
    "power": "^".join(["x1"] * 100),
}


@pytest.mark.parametrize("case", list(DEEP))
def test_kernel_compiles_trees_max_depth_deep(case):
    # SSA form has one statement per node, so no nesting limit of the
    # Python compiler applies to a kernel or a batch
    ast = parse(DEEP[case])
    assert tree_depth(ast) in (MAX_DEPTH - 1, MAX_DEPTH)
    field = ScalarField(ast, ("x1",))
    step, checked, fell_back = compiled_step(field, summing(2))
    xs = np.array([[0.7], [1.1], [1.3]])
    for x in xs.tolist():
        assert outcome(lambda: step(0, 1e-3, [*x, 1.0])) == outcome(
            lambda: checked(0, 1e-3, [*x, 1.0]))
        assert outcome(lambda: field.values(np.array([x]))) == outcome(
            lambda: field.floats(x))
    assert not fell_back
    assert field._batch_values(xs) is not None
    assert outcome(lambda: field.values(xs)) == outcome(
        lambda: [field.floats(x) for x in xs.tolist()])


def test_each_kernel_has_a_file_name_of_its_own():
    # profiles key a function by file, line and name: kernels built from
    # the same field must not fold into one entry
    field = ScalarField("sin(x1)", ("x1",))
    names = {field.kernel(summing(2), None).__code__.co_filename
             for _ in range(2)}
    assert len(names) == 2
    assert all(re.fullmatch(r"<kernel \d+>", name) for name in names)


def test_kernel_is_freed_without_the_cycle_collector():
    # the table of a long path is large: the kernel must not keep it in a
    # reference cycle with its own namespace until a gc pass
    field = MatrixField.from_exprs([["u1*sin(x1)", "x2"]], XU)
    gc.disable()
    try:
        refs = [weakref.ref(field.kernel(summing(2), None,
                                         np.tile(batch_points(50), 2))),
                weakref.ref(field.kernel(summing(8), None))]
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()

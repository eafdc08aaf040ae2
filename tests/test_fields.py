"""Field containers, finite differences, and the Lie-calculus toolkit."""

import math
import random

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
from bundleconn.exprlang import FUNCTION_ARITY, BinOp, Call, Const, Neg, Var
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
    as_scalar_field,
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
    f = ScalarField.from_expr("x1*x1", ("x1",))
    assert fd_partial(f, (1.0,), 0) == pytest.approx(2.0, abs=1e-9)


def test_fd_partial_bilinear():
    f = ScalarField.from_expr("x1*x2", XY)
    assert fd_partial(f, (2.0, 3.0), 1) == pytest.approx(2.0, abs=1e-9)


def test_fd_partial_sin_against_richardson():
    f = ScalarField.from_expr("sin(x1)", ("x1",))
    assert fd_partial(f, (0.0,), 0) == pytest.approx(1.0, abs=1e-10)
    for h in (1e-3, 1e-4):
        oracle = richardson_partial(f, (0.0,), 0, h)
        assert fd_partial(f, (0.0,), 0) == pytest.approx(oracle, abs=1e-9)


def test_fd_partial_second_order_convergence():
    f = ScalarField.from_expr("sin(x1)", ("x1",))
    x, exact = (0.7,), math.cos(0.7)
    errors = [abs(fd_partial(f, x, 0, h) - exact) for h in (1e-3, 5e-4)]
    assert 3.6 <= errors[0] / errors[1] <= 4.4


def test_fd_partial_domain_exit_on_stencil():
    region = Region([(0.0, 1.0)])
    f = ScalarField.from_expr("x1", ("x1",), region)
    with pytest.raises(DomainExit):
        fd_partial(f, (1e-7,), 0)


def test_scalar_field_from_callable_checks_finiteness():
    f = ScalarField.from_callable(lambda x1: x1 and 1.0 / 0.0 if False else float("nan"), ("x1",))
    with pytest.raises(NonFinite):
        f((0.0,))


def test_callable_entry_returning_an_int_gives_float64():
    field = SectionField([lambda x1, x2: 2, lambda x1, x2: -1], XY)
    value = field((0.5, 0.25))
    assert value.dtype == np.float64
    assert value.tolist() == [2.0, -1.0]
    assert all(type(c) is float for c in field.floats((0.5, 0.25)))
    assert field.values(np.array([(0.5, 0.25)])).dtype == np.float64
    scalar = ScalarField.from_callable(lambda x1, x2: 3, XY)
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
    L_new = lie_gamma(changed, [as_scalar_field(c, XY) for c in X_new], x)
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
        direct = lie_gamma(changed, [as_scalar_field(new_comp(i), XY)
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
    comps = [ScalarField.from_expr(c, XY) for c in SECTION]
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
    base = [ScalarField.from_expr(c, names[:2]) for c in base]

    def fibre(a):
        return ScalarField.from_callable(
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
    comps = [ScalarField.from_expr(e, XY) for e in ALL_OPS_ROWS[0]]
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
    ScalarField.from_callable(lambda x1, x2: x1 * x2, XY),
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


# --- staged evaluation on a grid: on_grid(xs) -------------------------------

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


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(entry_trees(), min_size=4, max_size=4),
       xs=st.lists(st.tuples(coordinate, coordinate), min_size=1,
                   max_size=6),
       rests=st.lists(st.lists(st.one_of(
           coordinate, st.sampled_from([math.inf, -math.inf, math.nan])),
           min_size=2, max_size=2), min_size=1, max_size=4),
       region=st.sampled_from([None, Region([(-2.5, 2.5)] * 4)]))
def test_on_grid_equals_floats_bitwise(entries, xs, rests, region):
    field = MatrixField.from_exprs([entries[:2], entries[2:]], XU, region)
    xs = np.array(xs)
    at = field.on_grid(xs)
    for k in range(len(xs)):
        for rest in rests:
            assert outcome(lambda: at(k, list(rest))) == outcome(
                lambda: field.floats((*xs[k].tolist(), *rest)))


BENCH_ROWS = [["-((0.1659*cos(x1 + x2))*u1 + (0.4901*x2)*u2)", "0.5*x1"],
              ["0.3*sin(u2)*x1", "u1*cos(x2) + 2"]]


def test_on_grid_walks_only_the_spine(monkeypatch):
    field = MatrixField.from_exprs(BENCH_ROWS, XU)
    xs = batch_points(9)
    expected = [field.floats((*x.tolist(), 0.7, -1.3)) for x in xs]

    def no_per_point_calls(self, point):
        raise AssertionError("the staged path evaluated a whole entry")

    monkeypatch.setattr(MatrixField, "floats", no_per_point_calls)
    at = field.on_grid(xs)
    got = [at(k, [0.7, -1.3]) for k in range(len(xs))]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("field", [
    MatrixField.from_callable(lambda *p: [[p[0] * p[2], 1.0]] * 2, (2, 2),
                              XU),
    MatrixField.from_exprs([["ln(x1 - 0.5)*u1", "u2"], ["0", "x2"]], XU),
    MatrixField.from_exprs([[lambda *p: p[0] * p[2], "u2"], ["0", "x2"]], XU),
], ids=["callable", "failing-batch", "callable-entry"])
def test_on_grid_falls_back_to_floats(field, monkeypatch):
    xs = batch_points(9)
    calls = []
    floats = MatrixField.floats
    monkeypatch.setattr(MatrixField, "floats",
                        lambda self, p: calls.append(p) or floats(self, p))
    at = field.on_grid(xs)
    for k in range(len(xs)):
        assert outcome(lambda: at(k, [0.7, -1.3])) == outcome(
            lambda: floats(field, (*xs[k].tolist(), 0.7, -1.3)))
    assert len(calls) == len(xs)


def test_on_grid_sends_a_non_finite_rest_to_floats():
    field = MatrixField.from_exprs(BENCH_ROWS, XU)
    at = field.on_grid(batch_points(3))
    with pytest.raises(NonFinite, match="^variable u2 is nan$"):
        at(1, [0.5, math.nan])
    # an unread coordinate raises nothing, as in floats
    field = MatrixField.from_exprs([["u1*x1", "x2"], ["1", "cos(x1)"]], XU)
    xs = batch_points(3)
    assert (field.on_grid(xs)(1, [0.5, math.inf])
            == field.floats((*xs[1].tolist(), 0.5, math.inf)))


# --- repeated entries: evaluated once per point, then copied ------------------

POLE = "1/(x1 - 1.25)"


def test_repeated_entries_are_evaluated_once_and_copied():
    field = MatrixField.from_exprs([[POLE, "x2"], [POLE, POLE]], XY)
    assert [pos for pos, _, _ in field._dynamic] == [0, 1]
    assert field._copies == [(2, 0), (3, 0)]
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
    assert field._copies == []
    for row in (field.floats((1.0,)), field.values(np.array([[1.0]]))[0, 0]):
        assert [math.copysign(1.0, v) for v in row] == [1.0, -1.0]


def test_on_grid_copies_repeated_entries():
    entries = [["u1*sin(x1)", "u2 + x2"], ["u1*sin(x1)", "u2 + x2"]]
    field = MatrixField.from_exprs(entries, XU)
    assert field._copies == [(2, 0), (3, 1)]
    xs = batch_points(7)
    at = field.on_grid(xs)
    for k, x in enumerate(xs.tolist()):
        point = (*x, 0.7, -1.3)
        want = [ScalarField(e, XU)(point) for row in entries for e in row]
        assert np.array(at(k, [0.7, -1.3])).tobytes() == np.array(
            want).tobytes()

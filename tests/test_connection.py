"""Connection-coefficient types, transformation laws, and the example
registry."""

import math

import numpy as np
import pytest

from bundleconn import cli
from bundleconn.connection import (
    AffineCoefficients,
    CoefficientField3,
    FrameChange,
    TwoIndexField,
    base_names,
    fibre_coefficients,
    transform_inhomogeneous,
    transform_three_index,
    transform_two_index,
    two_index_from_affine,
    two_index_from_linear,
)
from bundleconn.errors import ConfigError, DomainExit, SingularJacobian
from bundleconn.exprlang import derivative, evaluate, parse, pretty
from bundleconn.fields import FrameField, MatrixField
from bundleconn.morphism import BundleMorphism, adapted_frame_matrix
from bundleconn.registry import (
    MAX_DIM,
    REGISTRY,
    _is_finite_number,
    make_cartan_flat,
    make_constant,
    make_pure_gauge,
    make_sphere_lc,
)

CONSTANT_STACK = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


# --- 2-index coefficients ---------------------------------------------------

def test_two_index_from_linear_zero():
    g3 = CoefficientField3.zero(2, 2)
    assert np.array_equal(two_index_from_linear(g3, (0.3, -1.0, 2.0, 5.0)),
                          np.zeros((2, 2)))


def test_two_index_from_linear_single_term():
    c = 3.0
    g3 = CoefficientField3.from_exprs([[[c]]])
    out = two_index_from_linear(g3, (0.0, 2.0))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(-2.0 * c, abs=1e-15)


def test_two_index_from_linear_sphere_point():
    ex = make_sphere_lc()
    out = two_index_from_linear(ex.g3, (math.pi / 3, 0.0, 1.0, 0.0))
    cot = 1.0 / math.tan(math.pi / 3)
    assert out[0, 0] == 0.0  # theta component along theta
    assert out[1, 0] == 0.0  # phi component along theta
    assert out[0, 1] == 0.0
    assert out[1, 1] == pytest.approx(-cot, abs=1e-12)


def test_from_linear_field_matches_op():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    g2 = TwoIndexField.from_linear(g3)
    p = (0.4, -0.2, 1.5, -2.5)
    assert np.array_equal(g2(p), two_index_from_linear(g3, p))


def test_two_index_from_affine_cartan():
    ex = make_cartan_flat(2)
    p = (0.4, -1.1, 2.0, 3.5)
    assert np.array_equal(two_index_from_affine(ex.affine, p), np.eye(2))
    assert np.array_equal(ex.g2(p), np.eye(2))


def test_affine_split_round_trip():
    linear = CoefficientField3.constant(CONSTANT_STACK)
    inhom = MatrixField.from_exprs([["x1", "2"], ["0", "x2"]], base_names(2))
    aff = AffineCoefficients(linear, inhom)
    g2 = TwoIndexField.from_affine(aff)
    x = (0.7, -0.3)
    p0 = x + (0.0, 0.0)
    # the u = 0 slice recovers the inhomogeneous part
    assert np.allclose(g2(p0), inhom(x), atol=1e-15)
    # the u-derivative recovers the linear part
    assert np.allclose(fibre_coefficients(g2, x + (1.0, -2.0)), linear(x),
                       atol=1e-9)


# --- 2-index transformation law ---------------------------------------------

def test_transform_two_index_identity():
    g2 = TwoIndexField.from_linear(CoefficientField3.constant(CONSTANT_STACK))
    cc = BundleMorphism.identity(2, 2)
    p = (0.3, 0.9, 1.0, -1.0)
    assert np.allclose(transform_two_index(g2, cc, p), g2(p), atol=1e-9)


def test_transform_two_index_shear():
    # utilde = u1 + x1 turns the zero connection into Gtilde = 1
    g2 = TwoIndexField.zero(1, 1)
    cc = BundleMorphism(["x1"], ["u1 + x1"], 1, 1)
    out = transform_two_index(g2, cc, (0.3, 0.7))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_transform_two_index_base_rescale():
    g2 = TwoIndexField.from_exprs([["5"]], 1, 1)
    cc = BundleMorphism(["2*x1"], ["u1"], 1, 1)
    out = transform_two_index(g2, cc, (0.4, 2.2))
    assert out[0, 0] == pytest.approx(2.5, abs=1e-9)


def test_transform_two_index_singular_jacobian():
    g2 = TwoIndexField.zero(1, 1)
    cc = BundleMorphism(["x1^2"], ["u1"], 1, 1)
    with pytest.raises(SingularJacobian):
        transform_two_index(g2, cc, (0.0, 1.0))


@pytest.mark.parametrize("base, fibre", [(["x1"], ["u1"]),
                                          (["x1", "x2"], ["u1", "u1"])])
def test_transform_two_index_rejects_a_dimension_change(base, fibre):
    g2 = TwoIndexField.zero(2, 1)
    change = BundleMorphism(base, fibre, 2, 1)
    with pytest.raises(ValueError, match="keeps the dimensions"):
        transform_two_index(g2, change, (0.3, 0.7, 1.0))


def test_two_index_law_consistent_with_three_index_law():
    # For a linear connection, transforming the 2-index field directly must
    # agree with contracting the transformed 3-index stack with the new
    # fibre coordinates.
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    g2 = TwoIndexField.from_linear(g3)

    def bf(x):
        return np.array([[1.0, x[0]], [0.0, 1.0]])

    fwd_jac = np.array([[2.0, 0.0], [1.0, 1.0]])   # d xtilde / d x
    bb = np.linalg.inv(fwd_jac)                    # base frame block

    fc = FrameChange(
        MatrixField.constant(bb, base_names(2)),
        MatrixField.from_callable(lambda *x: bf(x), (2, 2), base_names(2)))
    cc = BundleMorphism(
        ["2*x1", "x1 + x2"],
        ["u1 - x1*u2", "u2"],   # utilde = inv(bf) u
        2, 2)

    p = (0.37, -0.81, 1.3, -0.4)
    x, u = p[:2], np.asarray(p[2:])
    lhs = transform_two_index(g2, cc, p)
    g3t = transform_three_index(g3, fc, x)
    ut = np.linalg.solve(bf(x), u)
    rhs = -np.einsum("mab,b->am", g3t, ut)
    assert np.allclose(lhs, rhs, atol=1e-6)


# --- 3-index transformation law ---------------------------------------------

def test_transform_three_index_identity():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    fc = FrameChange.identity(2, 2)
    x = (0.5, 1.5)
    assert np.allclose(transform_three_index(g3, fc, x), g3(x), atol=1e-12)


def test_transform_three_index_exponential_gauge():
    # zero connection, fibre block exp(x1): Gtilde_1 = B^-1 dB/dx1 = 1
    g3 = CoefficientField3.zero(1, 1)
    fc = FrameChange.from_exprs([["1"]], [["exp(x1)"]], 1)
    out = transform_three_index(g3, fc, (0.8,))
    assert out[0, 0, 0] == pytest.approx(1.0, abs=1e-9)


def test_transform_three_index_group_law():
    # Applying two frame changes in sequence agrees with applying their
    # composition, provided the second step differentiates along the
    # intermediate frame.
    g3 = CoefficientField3.constant(CONSTANT_STACK)

    def c1(x):
        return np.array([[1.0, 0.0], [math.sin(x[0]), 1.0]])

    def b1(x):
        return np.array([[1.0, x[0]], [0.0, 1.0]])

    def c2(x):
        return np.array([[1.0, 0.2 * x[1]], [0.0, 1.0]])

    def b2(x):
        return np.array([[math.exp(0.3 * x[1]), 0.0], [0.0, 1.0]])

    names = base_names(2)

    def mf(fn):
        return MatrixField.from_callable(lambda *x: fn(x), (2, 2), names)

    fc1 = FrameChange(mf(c1), mf(b1))
    fc2 = FrameChange(mf(c2), mf(b2))
    fc12 = FrameChange(mf(lambda x: c1(x) @ c2(x)),
                       mf(lambda x: b1(x) @ b2(x)))

    g3t1 = CoefficientField3.from_callable(
        lambda *x: transform_three_index(g3, fc1, x), 2, 2)
    frame1 = FrameField.from_callable(lambda *x: c1(x), 2, names)

    x = (0.45, -0.65)
    lhs = transform_three_index(g3t1, fc2, x, base_frame=frame1)
    rhs = transform_three_index(g3, fc12, x)
    assert np.allclose(lhs, rhs, atol=1e-6)


# --- inhomogeneous-term law ---------------------------------------------------

def test_transform_inhomogeneous_scalar_example():
    fc = FrameChange.from_exprs([["5"]], [["0.5"]], 1)
    out = transform_inhomogeneous(np.array([[3.0]]), fc, (0.0,))
    assert out[0, 0] == pytest.approx(30.0, abs=1e-12)


def test_transform_inhomogeneous_identity_and_field():
    inhom = MatrixField.from_exprs([["x1", "2"], ["0", "x2"]], base_names(2))
    fc = FrameChange.identity(2, 2)
    x = (1.3, -0.2)
    assert np.allclose(transform_inhomogeneous(inhom, fc, x), inhom(x),
                       atol=1e-15)


# --- adapted frame -----------------------------------------------------------

def test_adapted_frame_matrix_blocks():
    g2 = TwoIndexField.from_exprs([["7"]], 1, 1)
    M, Minv = adapted_frame_matrix(g2, (0.0, 0.0))
    assert np.array_equal(M, np.array([[1.0, 0.0], [7.0, 1.0]]))
    assert np.array_equal(Minv, np.array([[1.0, 0.0], [-7.0, 1.0]]))
    assert np.array_equal(M @ Minv, np.eye(2))
    assert np.allclose(Minv, np.linalg.inv(M), atol=1e-14)


def test_two_index_from_exprs_rejects_the_wrong_shape():
    with pytest.raises(ValueError) as info:
        TwoIndexField.from_exprs([["0", "0"]], 2, 2)
    assert str(info.value) == "expected shape (2, 2), got (1, 2)"


def test_affine_coefficients_reject_an_inhomogeneous_part_of_the_wrong_shape():
    linear = CoefficientField3.constant(np.zeros((2, 2, 2)))
    inhom = MatrixField.constant(np.zeros((1, 3)), base_names(2))
    with pytest.raises(ValueError) as info:
        AffineCoefficients(linear, inhom)
    assert str(info.value) == ("inhomogeneous part must have shape (2, 2), "
                               "got (1, 3)")


@pytest.mark.parametrize("base, fibre", [(np.ones((1, 2)), np.eye(2)),
                                         (np.eye(2), np.ones((2, 1)))])
def test_frame_change_rejects_blocks_that_are_not_square(base, fibre):
    names = base_names(2)
    with pytest.raises(ValueError) as info:
        FrameChange(MatrixField.constant(base, names),
                    MatrixField.constant(fibre, names))
    assert str(info.value) == "frame-change blocks must be square"


def test_adapted_frame_matrix_shape():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    g2 = TwoIndexField.from_linear(g3)
    M, Minv = adapted_frame_matrix(g2, (0.1, 0.2, 1.0, 2.0))
    assert M.shape == (4, 4)
    assert np.allclose(M @ Minv, np.eye(4), atol=1e-15)


# --- fibre coefficients --------------------------------------------------------

def test_fibre_coefficients_linear_recovers_stack():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    g2 = TwoIndexField.from_linear(g3)
    x = (0.25, -0.5)
    assert np.allclose(fibre_coefficients(g2, x + (0.3, 0.9)), g3(x),
                       atol=1e-9)


def test_fibre_coefficients_u_independent_vanish():
    g2 = TwoIndexField.from_exprs([["x1", "sin(x2)"], ["x2", "0"]], 2, 2)
    out = fibre_coefficients(g2, (0.4, 0.6, 1.0, 2.0))
    assert np.allclose(out, 0.0, atol=1e-10)


# --- registry -----------------------------------------------------------------

def test_registry_names():
    assert REGISTRY.names() == ["cartan-flat", "constant", "flat",
                                "pure-gauge", "sphere-lc"]


def test_registry_unknown_and_bad_params():
    with pytest.raises(ConfigError):
        REGISTRY.build("moebius")
    with pytest.raises(ConfigError):
        REGISTRY.build("flat", bogus=3)
    with pytest.raises(ConfigError):
        REGISTRY.build("constant", matrices=[[0.0, 1.0]])


@pytest.mark.parametrize("name, params", [
    ("flat", {"n": "3"}), ("flat", {"n": 2.9}), ("flat", {"n": True}),
    ("flat", {"r": 0}), ("flat", {"n": MAX_DIM + 1}),
    ("flat", {"n": 10 ** 9, "r": 10 ** 9}), ("pure-gauge", {"n": 2.0}),
    ("cartan-flat", {"n": MAX_DIM + 1})])
def test_registry_size_parameters_are_bounded_integers(monkeypatch, name,
                                                       params):
    # rejected before the entry is built
    monkeypatch.setattr(REGISTRY, "_builders", {name: None})
    with pytest.raises(ConfigError, match=f"^registry parameter [nr] must "
                       f"be an integer from 1 to {MAX_DIM}$"):
        REGISTRY.build(name, **params)


@pytest.mark.parametrize("value, finite", [
    (0, True), (-2.5, True), (np.float64(0.1), True), (10 ** 308, True),
    (True, False), ("0.1", False), (None, False), (math.nan, False),
    (-math.inf, False), (np.float64("nan"), False), (10 ** 309, False)])
def test_one_finite_number_rule(value, finite):
    # configs and registry parameters share it
    assert cli._is_finite_number is _is_finite_number
    assert bool(_is_finite_number(value)) is finite


def test_registry_takes_numpy_floats():
    ex = REGISTRY.build("sphere-lc", margin=np.float64(0.1))
    assert ex.region.bounds == REGISTRY.build("sphere-lc",
                                              margin=0.1).region.bounds
    ex = REGISTRY.build("constant", matrices=[[[np.float64(2.0)]]])
    assert ex.g3((0.5,)).tolist() == [[[2.0]]]


def test_registry_size_ceiling_is_inclusive():
    ex = REGISTRY.build("flat", n=MAX_DIM, r=1)
    assert (ex.n, ex.r) == (MAX_DIM, 1)
    assert REGISTRY.build("cartan-flat", n=MAX_DIM).r == MAX_DIM
    assert REGISTRY.build("pure-gauge", n=MAX_DIM).g3.n == MAX_DIM


def test_registry_constant_default_matches_fixture():
    ex = make_constant()
    assert np.array_equal(ex.g3((.1, .2)), np.asarray(CONSTANT_STACK))


def test_sphere_region_rejects_pole_neighbourhood():
    ex = make_sphere_lc()
    with pytest.raises(DomainExit):
        ex.g2((0.01, 0.0, 1.0, 0.0))
    with pytest.raises(DomainExit):
        ex.g3((math.pi, 0.0))


def test_pure_gauge_default_stacks():
    ex = make_pure_gauge()
    x = (1.2, 0.7)
    stack = ex.g3(x)
    # Gamma_mu = d alpha/dx^mu * [[0, 1], [-1, 0]] with alpha = x1*x2
    assert stack[0, 0, 1] == pytest.approx(0.7, abs=1e-15)
    assert stack[0, 1, 0] == pytest.approx(-0.7, abs=1e-15)
    assert stack[1, 0, 1] == pytest.approx(1.2, abs=1e-15)
    assert np.allclose(stack[0] + stack[0].T, 0.0, atol=1e-15)
    alpha = 1.2 * 0.7
    B = ex.gauge(x)
    assert np.allclose(B, [[math.cos(alpha), -math.sin(alpha)],
                           [math.sin(alpha), math.cos(alpha)]], atol=1e-15)


def test_pure_gauge_is_pure_gauge():
    # Gamma_mu must equal -(d_mu B) B^-1 for the exposed gauge matrix
    from bundleconn.fields import fd_partial as fd_array_partial

    ex = make_pure_gauge("sin(x1) + x2^2")
    x = (0.35, -0.8)
    stack = ex.g3(x)
    B = ex.gauge(x)
    for mu in range(2):
        dB = fd_array_partial(ex.gauge, x, mu)
        assert np.allclose(stack[mu], -dB @ np.linalg.inv(B), atol=1e-8)


def test_pure_gauge_custom_alpha_closed_form():
    ex = make_pure_gauge("sin(x1) + x2^2")
    x = (0.35, -0.8)
    stack = ex.g3(x)
    assert stack[0, 0, 1] == pytest.approx(math.cos(0.35), abs=1e-14)
    assert stack[1, 0, 1] == pytest.approx(2.0 * (-0.8), abs=1e-14)


# --- exprlang.derivative, the exact derivative of a tree ---------------------

@pytest.mark.parametrize("source,var,point,expected", [
    ("x1^3", "x1", {"x1": 2.0}, 12.0),
    ("exp(2*x1)", "x1", {"x1": 0.4}, 2.0 * math.exp(0.8)),
    ("1/x1", "x1", {"x1": 4.0}, -1.0 / 16.0),
    ("cot(x1)", "x1", {"x1": 0.9}, -1.0 / math.sin(0.9) ** 2),
    ("pow(x1, 4)", "x1", {"x1": 1.5}, 4.0 * 1.5 ** 3),
    ("x1^x2", "x1", {"x1": 2.0, "x2": 3.0}, 12.0),
    ("sqrt(x1)", "x1", {"x1": 9.0}, 1.0 / 6.0),
    ("ln(x1*x2)", "x2", {"x1": 3.0, "x2": 5.0}, 0.2),
    ("x2", "x1", {"x1": 1.0, "x2": 1.0}, 0.0),
    ("2*x1 + 3*x1", "x1", {"x1": 0.7}, 5.0),
    ("x1 - 3", "x1", {"x1": 0.7}, 1.0),
    ("2*x1 - 3*x1", "x1", {"x1": 0.7}, -1.0),
    ("sin(x1) - x1^3", "x1", {"x1": 0.5}, math.cos(0.5) - 0.75),
    ("3*(2*x1)", "x1", {"x1": 0.7}, 6.0),
    ("x1/1", "x1", {"x1": 0.7}, 1.0),
    ("x1^1", "x1", {"x1": 0.7}, 1.0),
])
def test_symbolic_derivative_values(source, var, point, expected):
    d = derivative(parse(source), var)
    assert evaluate(d, point) == pytest.approx(expected, rel=1e-12)


def test_symbolic_derivative_refuses_a_non_node():
    with pytest.raises(TypeError, match="cannot differentiate object"):
        derivative(object(), "x1")


def test_symbolic_derivative_round_trips_through_parser():
    d = derivative(parse("sin(x1)*exp(x2/x1)"), "x1")
    rendered = pretty(d)
    scope = {"x1": 1.1, "x2": -0.3}
    assert evaluate(parse(rendered), scope) == pytest.approx(
        evaluate(d, scope), abs=0.0)


def test_frame_change_inverse_times_change_is_identity():
    fc = FrameChange.from_exprs(
        [["1 + 0.2*sin(x1)", "0.1*x2"], ["0", "1 - 0.1*cos(x2)"]],
        [["1", "0.3*x1"], ["0.2*x2", "1"]], 2)
    inv = fc.inverse()
    x = (0.7, 1.3)
    assert inv.base(x) @ fc.base(x) == pytest.approx(np.eye(2), abs=1e-14)
    assert inv.fibre(x) @ fc.fibre(x) == pytest.approx(np.eye(2), abs=1e-14)
    assert (inv.n, inv.r) == (fc.n, fc.r)

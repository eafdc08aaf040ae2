"""Transport, fundamental solutions, geodesics, and the limit covariant
derivative."""

import math

import numpy as np
import pytest
import scipy.linalg

from bundleconn.connection import (
    AffineCoefficients,
    CoefficientField3,
    TwoIndexField,
    base_names,
)
from bundleconn.errors import DomainExit, StepCountTooSmall
from bundleconn.fields import MatrixField, ScalarField
from bundleconn.registry import make_constant, make_pure_gauge, make_sphere_lc
from bundleconn.transport import (
    PathSpec,
    _grid,
    _linear_rhs_matrices,
    _transport_linear_system,
    covariant_derivative_limit,
    fundamental_solution,
    geodesic,
    transport_affine,
    transport_general,
    transport_linear,
)

CONSTANT_STACK = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def straight_expr_path(steps):
    return PathSpec.from_exprs(["t"], 0.0, 1.0, steps=steps)


# --- PathSpec -----------------------------------------------------------------

def test_pathspec_validation():
    with pytest.raises(ValueError):
        PathSpec(exprs=["t"], interval=(0.0, 1.0), points=[[0.0], [1.0]])
    with pytest.raises(ValueError):
        PathSpec(exprs=["t"], interval=(1.0, 1.0))
    with pytest.raises(ValueError):
        PathSpec(points=[[0.0, 1.0]])
    with pytest.raises(ValueError):
        PathSpec()


def test_step_count_too_small():
    g3 = CoefficientField3.zero(1, 1)
    with pytest.raises(StepCountTooSmall):
        transport_linear(g3, straight_expr_path(4), [1.0])
    with pytest.raises(StepCountTooSmall):
        geodesic(CoefficientField3.zero(2, 2), (0.0, 0.0), (1.0, 0.0),
                 1.0, 4)


def test_zero_length_path_returns_initial_value():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    path = PathSpec.from_points([[0.5, 0.5], [0.5, 0.5]], steps=100)
    out = transport_linear(g3, path, [1.0, -2.0])
    assert np.array_equal(out.final, [1.0, -2.0])
    assert out.max_residual == 0.0
    assert out.samples.shape == (1, 2)


# --- general transport ----------------------------------------------------------

def test_general_transport_flat_is_identity():
    g2 = TwoIndexField.zero(2, 2)
    path = PathSpec.from_exprs(["t", "sin(t)"], 0.0, 2.0, steps=50)
    out = transport_general(g2, path, [3.0, -1.0])
    assert np.array_equal(out.final, [3.0, -1.0])


def test_general_transport_scalar_exponential():
    # constant linear coefficient c: G(x, u) = -c u, so u(1) = e^{-c} u(0)
    g3 = CoefficientField3.constant([[[1.0]]])
    g2 = TwoIndexField.from_linear(g3)
    out = transport_general(g2, straight_expr_path(1000), [1.0])
    assert out.final[0] == pytest.approx(0.36787944117, abs=5e-10)
    assert out.max_residual < 1e-9


def test_general_transport_reversal():
    ex = make_pure_gauge()
    g2 = TwoIndexField.from_linear(ex.g3)
    path = PathSpec.from_exprs(["t", "0.3 + 0.5*t"], 0.0, 1.0, steps=500)
    x0 = [0.8, -0.4]
    there = transport_general(g2, path, x0)
    back = transport_general(g2, path.reverse(), there.final)
    assert np.allclose(back.final, x0, atol=1e-8)


def test_general_matches_linear_for_linear_connection():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    g2 = TwoIndexField.from_linear(g3)
    path = PathSpec.from_exprs(["t", "t*t"], 0.0, 1.0, steps=200)
    x0 = [0.7, 1.1]
    a = transport_general(g2, path, x0)
    b = transport_linear(g3, path, x0)
    assert np.allclose(a.final, b.final, atol=1e-10)


# --- linear transport -------------------------------------------------------------

def test_linear_transport_zero_connection():
    g3 = CoefficientField3.zero(2, 2)
    path = PathSpec.from_exprs(["t", "2*t"], 0.0, 1.0, steps=64)
    out = transport_linear(g3, path, [5.0, 6.0])
    assert np.array_equal(out.final, [5.0, 6.0])


def test_linear_transport_linearity():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    path = PathSpec.from_exprs(["t", "t*t"], 0.0, 1.0, steps=64)
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=2), rng.normal(size=2)
    a, b = 1.7, -0.45
    combo = transport_linear(g3, path, a * X + b * Y).final
    parts = (a * transport_linear(g3, path, X).final
             + b * transport_linear(g3, path, Y).final)
    assert np.allclose(combo, parts, atol=1e-9)


def test_linear_transport_pure_gauge_closed_form():
    ex = make_pure_gauge()
    path = PathSpec.from_exprs(["t", "0.3 + 0.5*t"], 0.0, 1.0, steps=1000)
    X0 = np.array([1.0, 2.0])
    out = transport_linear(ex.g3, path, X0)
    B1 = ex.gauge((1.0, 0.8))
    B0 = ex.gauge((0.0, 0.3))
    expected = B1 @ np.linalg.solve(B0, X0)
    assert np.allclose(out.final, expected, atol=1e-7)


def test_fundamental_solution_zero_and_consistency():
    assert np.array_equal(
        fundamental_solution(CoefficientField3.zero(2, 3),
                             straight_expr_path(16)),
        np.eye(3))
    ex = make_sphere_lc()
    path = PathSpec.from_exprs(["1.0 + 0.2*t", "0.5*t"], 0.0, 1.0, steps=128)
    W = fundamental_solution(ex.g3, path)
    rng = np.random.default_rng(11)
    X0 = rng.normal(size=2)
    assert np.allclose(W @ X0, transport_linear(ex.g3, path, X0).final,
                       atol=1e-10)


def test_fundamental_solution_matrix_exponential_oracle():
    K1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    K2 = 2.0 * K1  # commuting pair
    g3 = CoefficientField3.constant([K1.tolist(), K2.tolist()])
    path = PathSpec.from_points([[0.2, -0.1], [0.9, 0.5]], steps=400)
    W = fundamental_solution(g3, path)
    dx = np.array([0.7, 0.6])
    expected = scipy.linalg.expm(-(K1 * dx[0] + K2 * dx[1]))
    assert np.allclose(W, expected, atol=1e-8)


def test_transport_concatenation():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    exprs = ["t", "t*t"]
    whole = transport_linear(
        g3, PathSpec.from_exprs(exprs, 0.0, 1.0, steps=128), [1.0, -1.0])
    first = transport_linear(
        g3, PathSpec.from_exprs(exprs, 0.0, 0.5, steps=64), [1.0, -1.0])
    second = transport_linear(
        g3, PathSpec.from_exprs(exprs, 0.5, 1.0, steps=64), first.final)
    assert np.allclose(second.final, whole.final, atol=1e-9)


def test_rk4_fourth_order_convergence():
    g3 = CoefficientField3.constant([[[3.0]]])
    errs = []
    for N in (100, 200, 400, 800):
        path = PathSpec.from_points([[0.0], [1.0]], steps=N)
        out = transport_linear(g3, path, [1.0])
        errs.append(abs(out.final[0] - math.exp(-3.0)))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(3.7 <= s <= 4.3 for s in slopes), (errs, slopes)


def test_transport_samples_and_ts():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    path = PathSpec.from_exprs(["t", "0.5*t"], 2.0, 3.0, steps=32)
    out = transport_linear(g3, path, [1.0, 0.0])
    assert out.samples.shape == (33, 2)
    assert out.ts[0] == pytest.approx(2.0)
    assert out.ts[-1] == pytest.approx(3.0)
    assert np.array_equal(out.samples[-1], out.final)


# --- affine transport ---------------------------------------------------------------

def affine_fixture():
    linear = CoefficientField3.constant(CONSTANT_STACK)
    inhom = MatrixField.from_exprs([["x1", "0"], ["1", "x2"]], base_names(2))
    return AffineCoefficients(linear, inhom)


def test_affine_zero_inhom_matches_linear_bitwise():
    linear = CoefficientField3.constant(CONSTANT_STACK)
    zero_inhom = MatrixField.from_exprs([["0", "0"], ["0", "0"]],
                                        base_names(2))
    aff = AffineCoefficients(linear, zero_inhom)
    path = PathSpec.from_exprs(["t", "t*t"], 0.0, 1.0, steps=64)
    x0 = [0.3, -0.9]
    a = transport_affine(aff, path, x0)
    b = transport_linear(linear, path, x0)
    assert np.array_equal(a.final, b.final)
    assert np.array_equal(a.samples, b.samples)


def test_affine_constant_inhom_quadrature():
    G = np.array([[1.0, 2.0], [-0.5, 3.0]])
    aff = AffineCoefficients(
        CoefficientField3.zero(2, 2),
        MatrixField.constant(G, base_names(2)))
    path = PathSpec.from_points([[0.3, 0.4], [1.3, 0.2]], steps=16)
    p0 = np.array([4.0, -1.0])
    out = transport_affine(aff, path, p0)
    assert np.allclose(out.final, p0 + G @ np.array([1.0, -0.2]),
                       atol=1e-10)


def test_affine_affinity_property():
    aff = affine_fixture()
    path = PathSpec.from_exprs(["t", "t*t"], 0.0, 1.0, steps=128)
    rng = np.random.default_rng(3)
    X = rng.normal(size=2)
    rho = 0.37
    lhs = transport_affine(aff, path, rho * X).final
    rhs = (rho * transport_affine(aff, path, X).final
           + (1.0 - rho) * transport_affine(aff, path,
                                            np.zeros(2)).final)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_affine_decomposition():
    # affine result = (fundamental solution of the linear part) @ p0
    #                 + transport of zero
    aff = affine_fixture()
    path = PathSpec.from_exprs(["t", "t*t"], 0.0, 1.0, steps=128)
    p0 = np.array([0.6, 2.2])
    W = fundamental_solution(aff.linear, path)
    y = transport_affine(aff, path, np.zeros(2)).final
    out = transport_affine(aff, path, p0).final
    assert np.allclose(out, W @ p0 + y, atol=1e-10)


# --- geodesics ----------------------------------------------------------------------

def test_geodesic_flat_straight_line():
    g3 = CoefficientField3.zero(2, 2)
    out = geodesic(g3, (1.0, 2.0), (0.3, -0.7), 2.0, 16)
    expected = np.array([1.0, 2.0]) + np.outer(out.ts, [0.3, -0.7])
    assert np.allclose(out.samples[:, :2], expected, atol=1e-12)
    assert np.allclose(out.samples[:, 2:], [0.3, -0.7], atol=1e-12)


def test_geodesic_equator():
    ex = make_sphere_lc()
    out = geodesic(ex.g3, (math.pi / 2, 0.0), (0.0, 1.0), math.pi, 256)
    assert out.final[0] == pytest.approx(math.pi / 2, abs=1e-8)
    assert out.final[1] == pytest.approx(math.pi, abs=1e-8)


def test_geodesic_domain_exit():
    ex = make_sphere_lc()
    with pytest.raises(DomainExit):
        geodesic(ex.g3, (0.2, 0.0), (-1.0, 0.0), 1.0, 64)


# --- limit covariant derivative --------------------------------------------------------

def test_covd_limit_zero_connection_directional():
    g3 = CoefficientField3.zero(2, 2)
    out = covariant_derivative_limit(g3, (1.0, 2.0), ["x1^2", "x1*x2"],
                                     (3.0, 0.5))
    assert np.allclose(out, [6.0, 6.5], atol=1e-6)


def test_covd_limit_constant_section_zero_connection():
    g3 = CoefficientField3.zero(2, 2)
    out = covariant_derivative_limit(g3, (0.4, -1.0), ["2", "3"],
                                     (0.1, 0.2))
    assert np.allclose(out, 0.0, atol=1e-10)


def test_covd_limit_matches_hand_contraction():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    # nabla_1 Y = dY/dx1 + G_1 Y = (Y^2, 1); nabla_2 Y = (1, Y^1);
    # F = (1, 1) and Y(x) = (0.7, 0.4) give (1.4, 1.7)
    out = covariant_derivative_limit(g3, (1.0, 1.0), ["x2", "x1"],
                                     (0.4, 0.7))
    assert np.allclose(out, [1.4, 1.7], atol=1e-5)


# --- batched grids: equal to the per-node loops ----------------------------------

GRID_EXPRS = (["1.0 + 0.3*sin(t)", "0.2 + (t + 0.1)^1.5"], 0.0, 2.0)
GRID_POINTS = [[0.8, 0.1], [1.4, 0.9], [1.1, 2.0]]
SKEW3 = [
    [["0", "x1", "x2^2"], ["-x1", "0", "sin(x2)"],
     ["-x2^2", "-sin(x2)", "0"]],
    [["0", "exp(x1 - x2)", "0.5"], ["-exp(x1 - x2)", "0", "x1*x2"],
     ["-0.5", "-x1*x2", "0"]],
]
AFFINE_LINEAR = [[["0", "x2"], ["-x2", "0"]], [["0", "cot(x1)"], ["1", "0"]]]
AFFINE_INHOM = [["tan(x1/2)", "ln(1 + x2)"], ["sqrt(x1)", "-x1*x2"]]


def grid_paths(steps=200):
    exprs, t0, t1 = GRID_EXPRS
    return {"expr": PathSpec.from_exprs(exprs, t0, t1, steps=steps),
            "polyline": PathSpec.from_points(GRID_POINTS, steps=steps)}


def per_node_expr_grid(exprs, t0, t1, steps):
    """Positions and FD velocities evaluated one component at a time."""
    comps = [ScalarField.from_expr(c, ("t",)) for c in exprs]
    span = t1 - t0
    hv = span / (64.0 * steps)
    tgrid = t0 + span * np.arange(2 * steps + 1) / (2.0 * steps)
    pos = np.array([[c((t,)) for c in comps] for t in tgrid])
    vel = np.array([[(c((t + hv,)) - c((t - hv,))) / (2.0 * hv)
                     for c in comps] for t in tgrid])
    return pos, vel


def per_node_coefficients(g3, grid):
    return np.stack([
        -np.einsum("mab,m->ab", g3(tuple(grid.pos[k])), grid.vel[k])
        for k in range(len(grid.pos))])


def per_node_gvecs(aff, grid):
    return np.stack([aff.inhom(tuple(grid.pos[k])) @ grid.vel[k]
                     for k in range(len(grid.pos))])


def callable_stack(x1, x2):
    return [[[0.0, math.sin(x1 * x2)], [-math.sin(x1 * x2), 0.0]],
            [[0.0, math.exp(x1 / 3)], [-math.exp(x1 / 3), 0.0]]]


GRID_CONNECTIONS = {
    "sphere-lc": lambda: make_sphere_lc().g3,
    "pure-gauge": lambda: make_pure_gauge("x1*x2 + sin(x1)").g3,
    "skew-r3": lambda: CoefficientField3.from_exprs(SKEW3),
    "affine-linear": lambda: AffineCoefficients.from_exprs(
        AFFINE_LINEAR, AFFINE_INHOM).linear,
    "callable": lambda: CoefficientField3.from_callable(callable_stack, 2, 2),
}


def test_expr_path_grid_equals_per_node_loop():
    exprs, t0, t1 = GRID_EXPRS
    grid = _grid(grid_paths()["expr"])
    pos, vel = per_node_expr_grid(exprs, t0, t1, 200)
    assert np.array_equal(grid.pos, pos)
    assert np.array_equal(grid.vel, vel)


@pytest.mark.parametrize("path_kind", ["expr", "polyline"])
@pytest.mark.parametrize("name", list(GRID_CONNECTIONS))
def test_coefficient_grid_equals_per_node_loop(name, path_kind):
    g3 = GRID_CONNECTIONS[name]()
    grid = _grid(grid_paths()[path_kind])
    assert np.array_equal(_linear_rhs_matrices(g3, grid),
                          per_node_coefficients(g3, grid))


@pytest.mark.parametrize("path_kind", ["expr", "polyline"])
@pytest.mark.parametrize("inhom_kind", ["exprs", "callable"])
def test_affine_gvecs_equal_per_node_loop(path_kind, inhom_kind):
    aff = AffineCoefficients.from_exprs(AFFINE_LINEAR, AFFINE_INHOM)
    if inhom_kind == "callable":
        inhom = aff.inhom
        aff = AffineCoefficients(aff.linear, MatrixField.from_callable(
            lambda x1, x2: inhom((x1, x2)), (2, 2), base_names(2)))
    path = grid_paths()[path_kind]
    p0 = np.array([0.3, -0.2])
    got = transport_affine(aff, path, p0)
    grid = _grid(path)
    want = _transport_linear_system(aff.linear, grid, p0,
                                    per_node_gvecs(aff, grid))
    assert np.array_equal(got.samples, want.samples)
    assert got.max_residual == want.max_residual

"""Transport, fundamental solutions, geodesics, and the limit covariant
derivative."""

import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from bundleconn import cli, transport
from bundleconn.connection import (
    AffineCoefficients,
    CoefficientField3,
    TwoIndexField,
    base_names,
)
from bundleconn.errors import DomainExit, NonFinite, StepCountTooSmall
from bundleconn.fields import MatrixField, ScalarField, _FieldArray
from bundleconn.registry import make_constant, make_pure_gauge, make_sphere_lc
from bundleconn.transport import (
    PathSpec,
    _contract,
    _geodesic_acceleration,
    _geodesic_rows,
    _grid,
    _index_plan,
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


def _callable_zero_length_transports():
    g3 = CoefficientField3.from_callable(
        lambda x1, x2: np.array(CONSTANT_STACK) * x1, 2, 2)
    inhom = MatrixField.from_callable(lambda x1, x2: [[x1, 1.0], [0.0, x2]],
                                      (2, 2), base_names(2))
    g2 = TwoIndexField.from_callable(
        lambda x1, x2, u1, u2: [[u2, x1], [u1, 0.0]], 2, 2)
    return {"linear": lambda path, y0: transport_linear(g3, path, y0),
            "affine": lambda path, y0: transport_affine(
                AffineCoefficients(g3, inhom), path, y0),
            "general": lambda path, y0: transport_general(g2, path, y0)}


@pytest.mark.parametrize("kind", ["linear", "affine", "general"])
def test_zero_length_path_with_callable_fields_returns_initial_value(kind):
    path = PathSpec.from_points([[0.5, 0.5], [0.5, 0.5]], steps=100)
    out = _callable_zero_length_transports()[kind](path, [1.0, -2.0])
    assert np.array_equal(out.final, [1.0, -2.0])
    assert out.max_residual == 0.0
    assert out.samples.shape == (1, 2)
    assert np.array_equal(out.ts, [0.0])


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


# --- the batched right-hand sides of the midpoint defect ------------------------

NONLINEAR_G2 = [["u1*x1 + u2", "u2*u2 - x2"], ["cos(u1)", "x1*u2"]]
# constant zeros and a repeated entry
SPARSE_G2 = [["u1*x1 + u2", "0"], ["u1*x1 + u2", "cos(u1)"]]
SPARSE_STACK = [[["0", "0.3*x1*x2"], ["0.3*x1*x2", "0"]],
                [["0.1*x2", "0"], ["0", "0.3*x1*x2"]]]


def run_driver(case):
    """One run of a driver on a fixed config: its TransportResult."""
    expr_path, poly_path = grid_paths()["expr"], grid_paths()["polyline"]
    sphere = make_sphere_lc().g3
    affine = AffineCoefficients.from_exprs(AFFINE_LINEAR, AFFINE_INHOM)
    runs = {
        "linear-vector": lambda: transport_linear(sphere, expr_path,
                                                  [0.3, -0.2]),
        "linear-skew-r3": lambda: transport_linear(
            CoefficientField3.from_exprs(SKEW3), expr_path, [0.3, -0.2, 0.5]),
        "linear-matrix": lambda: transport_linear(sphere, poly_path,
                                                  np.eye(2)),
        "affine": lambda: transport_affine(affine, poly_path, [0.3, -0.2]),
        "general": lambda: transport_general(
            TwoIndexField.from_exprs(NONLINEAR_G2, 2, 2), expr_path,
            [0.3, 0.4]),
        "geodesic": lambda: geodesic(sphere, (1.0, 0.2), (0.3, 0.7), 2.0, 64),
        "general-sparse": lambda: transport_general(
            TwoIndexField.from_exprs(SPARSE_G2, 2, 2), expr_path, [0.3, 0.4]),
        "geodesic-sparse": lambda: geodesic(
            CoefficientField3.from_exprs(SPARSE_STACK), (1.0, 0.2),
            (0.3, 0.7), 2.0, 64),
    }
    return runs[case]()


@pytest.mark.parametrize("case", ["linear-vector", "linear-skew-r3",
                                  "linear-matrix", "affine", "general",
                                  "geodesic", "general-sparse",
                                  "geodesic-sparse"])
def test_batched_rhs_equals_per_step_rhs_bitwise(case, monkeypatch):
    calls = []
    rk4 = transport._rk4

    def spy(rhs, rhs_many, y0, grid):
        result = rk4(rhs, rhs_many, y0, grid)
        calls.append((rhs, rhs_many, result, grid))
        return result

    monkeypatch.setattr(transport, "_rk4", spy)
    run_driver(case)
    (rhs, rhs_many, result, grid), = calls
    rng = np.random.default_rng(7)
    rows = rng.integers(0, len(result.samples), 300)
    ys = result.samples[rows] * (1.0 + 0.01 * rng.standard_normal(
        (len(rows),) + result.samples.shape[1:]))
    nodes = 2 * grid.nsteps + 1 if grid.pos is None else len(grid.pos)
    ks = rng.integers(0, nodes, len(rows))
    many = rhs_many(ks, ys)
    for j, (k, y) in enumerate(zip(ks.tolist(), ys)):
        # the per-step right-hand side takes and returns flat float lists
        one = rhs(k, y.ravel().tolist())
        assert all(type(c) is float for c in one), (k, y)
        assert np.array(one).tobytes() == many[j].tobytes(), (k, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geodesic_acceleration_equals_einsum_bytewise(n):
    rng = np.random.default_rng(n)
    for trial in range(500):
        G = rng.standard_normal((n, n, n)) * 10.0 ** rng.integers(
            -3, 3, (n, n, n))
        if trial % 5 == 0:
            G[rng.random((n, n, n)) < 0.5] = 0.0    # signed-zero products
        v = rng.standard_normal(n)
        want = -np.einsum("nml,l,n->m", G, v, v)
        got = _geodesic_acceleration(_geodesic_rows(n), G.ravel().tolist(),
                                     v.tolist())
        assert np.array(got).tobytes() == want.tobytes(), (G, v)


# entries of the plan fields: constant zeros of both signs, constants, and
# expressions in x1 > 0, repeated across the array ("-0*x1" is a live -0.0)
PLAN_EXPRS = ["0.5*x1 - 1.25", "-0*x1", "x1*x1 + 1.5", "cos(x1)"]


def plan_field(rng, shape, zero_rows):
    """A field over x1..xn (n = shape[-1]) of random PLAN_EXPRS entries and
    constants, with each index slice in zero_rows set to the constant 0.0."""
    entries = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        scale = 10.0 ** rng.integers(-3, 3)
        pool = [0.0, -0.0, float(rng.standard_normal() * scale), *PLAN_EXPRS]
        entries[idx] = pool[rng.integers(len(pool))]
    for rows in zero_rows:
        entries[rows] = 0.0
    return _FieldArray(shape, base_names(shape[-1]), entries=entries.tolist())


def signed_zero_vectors(rng, k, n):
    v = rng.standard_normal((k, n))
    v[rng.random((k, n)) < 0.2] = 0.0
    v[rng.random((k, n)) < 0.2] = -0.0
    return v


def einsum_geodesic(G, v):
    return -np.einsum("nml,l,n->m", G, v, v)


def ordered_row_sums(G, v):
    """sum_mu G[a, mu] v[mu] from 0.0 in mu order (np.einsum sums these rows
    in another order for n >= 3)."""
    out = np.zeros(len(G))
    for a, row in enumerate(G):
        for g, vl in zip(row, v):
            out[a] = out[a] + g * vl
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_plan_equals_dense_plan_and_einsum_bytewise(n):
    # geodesic rows (against einsum) and general-transport rows (against
    # ordered row sums), with and without their constant-0.0 entries, on
    # floats and on numpy columns
    rng = np.random.default_rng(100 + n)
    general_rows = [[(None, [(a * n + mu, mu) for mu in range(n)])]
                    for a in range(n)]
    for trial in range(60):
        # output row m without entries; now and then every row
        m = int(rng.integers(n))
        geo, gen = (((slice(None), m),), (m,)) if trial % 3 == 0 else ((), ())
        if trial % 10 == 0:
            geo = gen = (Ellipsis,)
        fields = {
            "geodesic": (plan_field(rng, (n, n, n), geo), _geodesic_rows(n),
                         einsum_geodesic, _geodesic_acceleration),
            "general": (plan_field(rng, (n, n), gen), general_rows,
                        ordered_row_sums, _contract),
        }
        points = np.column_stack([0.2 + rng.random(8), rng.random((8, n - 1))])
        vs = signed_zero_vectors(rng, 8, n)
        for name, (field, dense, reference, contract) in fields.items():
            sparse = _index_plan(field, dense)
            G = field.values(points)
            columns = contract(sparse, G.reshape(8, -1).T, list(vs.T),
                               np.zeros(8))
            for j, (p, v) in enumerate(zip(points, vs)):
                flat = field.floats(tuple(p.tolist()))
                want = reference(np.reshape(flat, field.shape), v)
                for plan in (dense, sparse):
                    got = np.array(contract(plan, flat, v.tolist()))
                    assert got.tobytes() == want.tobytes(), (name, field, v)
                row = np.array([c[j] for c in columns])
                assert row.tobytes() == want.tobytes(), (name, field, v)


def test_index_plan_skips_only_constant_zeros():
    g3 = CoefficientField3.from_exprs([[["0", "x1"], ["2", "x1"]],
                                       [["-0*x1", "0.0"], ["0", "x2"]]])
    rows = _geodesic_rows(2)
    assert _index_plan(g3, rows) == [[(0, [(1, 1)]), (1, [(4, 0)])],
                                     [(0, [(2, 0), (3, 1)]), (1, [(7, 1)])]]
    assert _index_plan(None, rows) == rows
    callable_g3 = CoefficientField3.from_callable(
        lambda x1, x2: np.zeros((2, 2, 2)), 2, 2)
    assert _index_plan(callable_g3, rows) == rows


# final values and max_residual of each driver on a fixed config, as .17g
# strings: where the defect is evaluated must not move a last bit
PINNED = {
    "linear-vector": (["0.028265953095056515", "-0.3586246009380058"],
                      "1.0296796889186933e-07"),
    "linear-matrix": (["0.76289734031642775", "0.46378480342108297",
                       "-0.72544244071386599", "0.61407600336098289"],
                      "5.862360116272447e-08"),
    "affine": (["1.7444259392540098", "-4.8099931438672234"],
               "8.041553582055494e-08"),
    "general": (["197.19494043678034", "22.992161864154298"],
                "0.0007131705211378403"),
    "geodesic": (["1.8102008654857762", "1.2951858085273653",
                  "0.42029652875862211", "0.52518122029713654"],
                 "5.8848333340036363e-07"),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_final_and_max_residual_pinned(case):
    result = run_driver(case)
    final, residual = PINNED[case]
    assert [format(v, ".17g") for v in result.final.ravel()] == final
    assert format(result.max_residual, ".17g") == residual


def test_general_transport_nonfinite_names_plain_floats():
    g2 = TwoIndexField.from_callable(lambda x1, u1: [[math.inf]], 1, 1)
    path = PathSpec.from_points([[0.53125], [1.0]], steps=16)
    with pytest.raises(NonFinite) as info:
        transport_general(g2, path, [1.53125])
    assert str(info.value) == "non-finite array value at (0.53125, 1.53125)"


# --- two-index transport with staged base subtrees -------------------------------

STAGED_ROWS = [["-((0.1659*cos(x1 + x2))*u1 + (0.4901*x2)*u2)",
                "-((0.3*sin(x1))*u1 + (0.2*x1*x2)*u2)"],
               ["0.3*sin(u2)*x1", "0.5*u1*cos(x2)"]]


def staged_rows_callable(x1, x2, u1, u2):
    """STAGED_ROWS as Python arithmetic, in the same operation order."""
    return [[-((0.1659 * math.cos(x1 + x2)) * u1 + (0.4901 * x2) * u2),
             -((0.3 * math.sin(x1)) * u1 + (0.2 * x1 * x2) * u2)],
            [0.3 * math.sin(u2) * x1, 0.5 * u1 * math.cos(x2)]]


@pytest.mark.parametrize("path", [
    PathSpec.from_exprs(["0.3 + 0.5*t", "0.2 + sin(t)"], 0.0, 1.0, steps=300),
    PathSpec.from_points([[0.7, 0.5], [-0.9, -0.3], [0.2, -0.6]], steps=300),
], ids=["expr", "polyline"])
def test_callable_two_index_transport_equals_the_staged_one(path):
    staged = transport_general(TwoIndexField.from_exprs(STAGED_ROWS, 2, 2),
                               path, [1.1, 0.4])
    plain = transport_general(
        TwoIndexField.from_callable(staged_rows_callable, 2, 2), path,
        [1.1, 0.4])
    assert staged.samples.tobytes() == plain.samples.tobytes()
    assert staged.max_residual == plain.max_residual


def test_two_index_transport_memory_peak():
    # the staged table is one (K, n + P) float array: no grid-sized list
    g2 = TwoIndexField.from_exprs(STAGED_ROWS, 2, 2)
    path = PathSpec.from_exprs(["0.3 + 0.5*t", "0.2 + sin(t)"], 0.0, 1.0,
                               steps=4000)
    tracemalloc.start()
    try:
        transport_general(g2, path, [1.0, 0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_geodesic_memory_peak():
    # the index plans are built once per call: no step-sized list
    g3 = make_sphere_lc().g3
    tracemalloc.start()
    try:
        geodesic(g3, (1.0, 0.2), (0.3, 0.7), 2.0, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def two_index_config(entry, initial, points, region=None):
    cfg = {"base_dim": 2, "fibre_rank": 2, "initial": initial,
           "path": {"points": points, "steps": 200},
           "connection": {"kind": "two_index",
                          "matrix": [[entry, "0"], ["0", "u2"]]}}
    if region is not None:
        cfg["region"] = region
    return cfg


VERTEX_055 = [[1.0, 0.0], [0.55, 0.5], [0.2, 1.0]]

# the stdout of each config, recorded before the base-only subtrees were
# staged: the staged path must fail with the same bytes
TWO_INDEX_FAILURES = {
    "overflow-while-integrating": (
        two_index_config("u1*u1*30", [1.0, 0.0], [[0.0, 0.0], [1.0, 1.0]]),
        "NonFinite", "overflow in '*'"),
    "range-error": (
        two_index_config("exp(u1*400)*x1", [1.0, 0.0],
                         [[0.1, 0.0], [1.0, 1.0]]),
        "NonFinite", "exp: math range error"),
    "fibre-region-left-by-u": (
        two_index_config("u1", [1.0, 0.5], [[0.0, 0.0], [3.0, 2.0]],
                         [[-5.0, 5.0], [-5.0, 5.0], [-2.0, 2.0],
                          [-2.0, 2.0]]),
        "DomainExit", "point (0.6975, 0.465, 2.008668399164956, "
        "0.7959971774294673) outside region ((-5.0, 5.0), (-5.0, 5.0), "
        "(-2.0, 2.0), (-2.0, 2.0))"),
    "base-region-left-by-the-path": (
        two_index_config("0.5*u2*x1 + cos(x2)*u1", [1.0, 0.5],
                         [[0.1, 0.1], [1.0, 1.0]], [[0.0, 0.6], [0.0, 2.0]]),
        "DomainExit", "point (0.60175, 0.60175, 1.6651980273325535, "
        "0.8258024423145274) outside region ((0.0, 0.6), (0.0, 2.0), "
        "(-inf, inf), (-inf, inf))"),
    "failing-batch-falls-back": (
        two_index_config("ln(x1 - 0.5)*u1", [1.0, 0.5], VERTEX_055),
        "NonFinite", "ln: math domain error"),
    "zero-divisor-from-a-staged-part": (
        two_index_config("u1/(x1 - 0.55)", [1.0, 0.5], VERTEX_055),
        "NonFinite", "division by zero"),
    "division-in-the-spine": (
        two_index_config("cos(x1)/(u1 - 0.5)", [0.5, 0.5], VERTEX_055),
        "NonFinite", "division by zero"),
}


@pytest.mark.parametrize("cfg, kind, message", TWO_INDEX_FAILURES.values(),
                         ids=list(TWO_INDEX_FAILURES))
def test_two_index_transport_failures_keep_their_stdout(tmp_path, cfg, kind,
                                                        message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["transport", "--config", str(path)])
    assert code == 1
    assert out.getvalue() == ('{"command": "transport", "error": '
                              f'{{"message": {json.dumps(message)}, '
                              f'"type": "{kind}"}}}}\n')


GUARD_STACKS = [[["0", "0"], ["0", "1e200*x1"]], [["0", "0"], ["0", "0"]]]
REPEATED_POLE = "1/(x1 - 1.25)"

# stdout recorded before the constant-zero entries were skipped: a velocity
# that overflows to inf meets 0 * inf = NaN in the dense contraction, and
# the sparse one must not turn that into a different failure; a repeated
# entry fails where its first occurrence does
CONTRACTION_FAILURES = {
    "infinite-velocity": ("geodesic", {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "three_index", "stacks": GUARD_STACKS},
        "x0": [1.0, 0.5], "v0": [1e100, 1e100], "T": 1.0, "steps": 16},
        "NonFinite", "variable x1 is nan"),
    "infinite-velocity-in-a-region": ("geodesic", {
        "base_dim": 2, "fibre_rank": 2, "region": [[0.1, 3.0], None],
        "connection": {"kind": "three_index", "stacks": GUARD_STACKS},
        "x0": [1.0, 0.5], "v0": [1e100, 1e100], "T": 1.0, "steps": 16},
        "DomainExit", "point (3.125e+98, 3.125e+98) outside region "
        "((0.1, 3.0), (-inf, inf))"),
    "repeated-entry-at-its-pole": ("transport", {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "three_index", "stacks": [
            [["0", REPEATED_POLE], [REPEATED_POLE, "0"]],
            [["0", "0"], ["0", REPEATED_POLE]]]},
        "path": {"points": [[1.0, 0.0], [1.5, 0.5]], "steps": 8},
        "initial": [1.0, 0.5]},
        "NonFinite", "division by zero"),
}


@pytest.mark.parametrize("command, cfg, kind, message",
                         CONTRACTION_FAILURES.values(),
                         ids=list(CONTRACTION_FAILURES))
def test_contraction_failures_keep_their_stdout(tmp_path, command, cfg, kind,
                                                message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", str(path)])
    assert code == 1
    assert out.getvalue() == (f'{{"command": "{command}", "error": '
                              f'{{"message": {json.dumps(message)}, '
                              f'"type": "{kind}"}}}}\n')

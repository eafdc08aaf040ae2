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
from hypothesis import given, settings, strategies as st

from bundleconn import cli, fields, transport
from bundleconn.connection import (
    AffineCoefficients,
    CoefficientField3,
    TwoIndexField,
    base_names,
)
from bundleconn.errors import (ConfigError, DomainExit, NonFinite,
                               StepCountTooSmall)
from bundleconn.exprlang import Const
from bundleconn.fields import MatrixField, Region, ScalarField, _FieldArray
from bundleconn.registry import make_pure_gauge, make_sphere_lc
from bundleconn.transport import (
    PathSpec,
    _checked_step,
    _contract,
    _geodesic_rows,
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

from test_fields import STEP_WIDTHS, XU, kernel_trees, rhs_outcome

CONSTANT_STACK = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def straight_expr_path(steps):
    return PathSpec(exprs=["t"], interval=(0.0, 1.0), steps=steps)


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


@pytest.mark.parametrize("build, message", [
    (lambda: PathSpec(exprs=["t"]), "expression paths need an interval"),
    (lambda: geodesic(CoefficientField3.zero(2, 1), (0.0, 0.0), (1.0, 0.0),
                      1.0, 16),
     "geodesics need tangent-bundle coefficients (r = n)"),
], ids=["expr-path-without-interval", "geodesic-r-not-n"])
def test_rejected_inputs_name_their_fault(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_step_count_too_small():
    g3 = CoefficientField3.zero(1, 1)
    with pytest.raises(StepCountTooSmall):
        transport_linear(g3, straight_expr_path(4), [1.0])
    with pytest.raises(StepCountTooSmall):
        geodesic(CoefficientField3.zero(2, 2), (0.0, 0.0), (1.0, 0.0),
                 1.0, 4)


def test_zero_length_path_returns_initial_value():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    path = PathSpec(points=[[0.5, 0.5], [0.5, 0.5]], steps=100)
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
    path = PathSpec(points=[[0.5, 0.5], [0.5, 0.5]], steps=100)
    out = _callable_zero_length_transports()[kind](path, [1.0, -2.0])
    assert np.array_equal(out.final, [1.0, -2.0])
    assert out.max_residual == 0.0
    assert out.samples.shape == (1, 2)
    assert np.array_equal(out.ts, [0.0])


# --- general transport ----------------------------------------------------------

def test_general_transport_flat_is_identity():
    g2 = TwoIndexField.zero(2, 2)
    path = PathSpec(exprs=["t", "sin(t)"], interval=(0.0, 2.0), steps=50)
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
    path = PathSpec(exprs=["t", "0.3 + 0.5*t"], interval=(0.0, 1.0), steps=500)
    x0 = [0.8, -0.4]
    there = transport_general(g2, path, x0)
    back = transport_general(g2, path.reverse(), there.final)
    assert np.allclose(back.final, x0, atol=1e-8)


def test_polyline_reverse_walks_the_points_backwards():
    pts = [[0.3, 0.4], [1.1, 0.2], [0.9, 1.0]]
    path = PathSpec(points=pts, steps=300)
    back = path.reverse()
    assert back.kind == "polyline" and back.steps == 300
    assert back.points.tolist() == pts[::-1]
    assert path.points.tolist() == pts     # the original is left as it was
    g3 = make_pure_gauge().g3
    there = transport_linear(g3, path, [0.8, -0.4])
    assert np.allclose(transport_linear(g3, back, there.final).final,
                       [0.8, -0.4], atol=1e-8)


def test_general_matches_linear_for_linear_connection():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    g2 = TwoIndexField.from_linear(g3)
    path = PathSpec(exprs=["t", "t*t"], interval=(0.0, 1.0), steps=200)
    x0 = [0.7, 1.1]
    a = transport_general(g2, path, x0)
    b = transport_linear(g3, path, x0)
    assert np.allclose(a.final, b.final, atol=1e-10)


# --- linear transport -------------------------------------------------------------

SHAPE_IDS = {(): "0-d", (3,): "r+1", (3, 2): "r+1-by-r", (2, 3): "r-by-r+1",
             (2, 2): "r-by-r"}
WRONG_SHAPES = ([("linear", shape) for shape in [(), (3,), (3, 2), (2, 3)]]
                + [("affine", shape) for shape in SHAPE_IDS])


@pytest.mark.parametrize("kind, shape", WRONG_SHAPES,
                         ids=[f"{kind}-{SHAPE_IDS[shape]}"
                              for kind, shape in WRONG_SHAPES])
def test_initial_value_of_the_wrong_shape_is_refused(kind, shape,
                                                     monkeypatch):
    # r = 2: linear transport takes (2,) or (2, 2), affine transport (2,)
    # only, checked once before the first step
    monkeypatch.setattr(transport, "_rk4", None)
    path = PathSpec(points=[[0.3, 0.4], [1.1, 0.2]], steps=16)
    y0 = np.ones(shape)
    with pytest.raises(ValueError) as info:
        if kind == "linear":
            transport_linear(CoefficientField3.constant(CONSTANT_STACK), path,
                             y0)
        else:
            transport_affine(affine_fixture(), path, y0)
    expected = "(2,) or (2, 2)" if kind == "linear" else "(2,)"
    assert str(info.value) == (f"initial value of shape {shape}, expected "
                               f"{expected}")


def test_dot_is_the_bits_of_matmul():
    # the linear stages take A[j].dot(state) for A[j] @ state: the same BLAS
    # product for a row of a C-contiguous (K, r, r) block times a float list,
    # a vector or an r x r matrix built from a float list
    rng = np.random.default_rng(2028)
    for r in range(1, 7):
        for _ in range(300):
            A = -np.einsum("kmab,km->kab", rng.standard_normal((4, 2, r, r)),
                           rng.standard_normal((4, 2)))
            y = (rng.standard_normal(r) * 10.0 ** rng.integers(-3, 4)).tolist()
            Y = np.array((rng.standard_normal(r * r)
                          * 10.0 ** rng.integers(-3, 4)).tolist()).reshape(r, r)
            for M in A:
                vector = (M @ np.array(y)).tobytes()
                assert M.dot(y).tobytes() == vector
                assert M.dot(np.array(y)).tobytes() == vector
                assert M.dot(Y).tobytes() == (M @ Y).tobytes()


def test_linear_transport_zero_connection():
    g3 = CoefficientField3.zero(2, 2)
    path = PathSpec(exprs=["t", "2*t"], interval=(0.0, 1.0), steps=64)
    out = transport_linear(g3, path, [5.0, 6.0])
    assert np.array_equal(out.final, [5.0, 6.0])


def test_linear_transport_linearity():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    path = PathSpec(exprs=["t", "t*t"], interval=(0.0, 1.0), steps=64)
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=2), rng.normal(size=2)
    a, b = 1.7, -0.45
    combo = transport_linear(g3, path, a * X + b * Y).final
    parts = (a * transport_linear(g3, path, X).final
             + b * transport_linear(g3, path, Y).final)
    assert np.allclose(combo, parts, atol=1e-9)


def test_linear_transport_pure_gauge_closed_form():
    ex = make_pure_gauge()
    path = PathSpec(exprs=["t", "0.3 + 0.5*t"], interval=(0.0, 1.0),
                    steps=1000)
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
    path = PathSpec(exprs=["1.0 + 0.2*t", "0.5*t"], interval=(0.0, 1.0),
                    steps=128)
    W = fundamental_solution(ex.g3, path)
    rng = np.random.default_rng(11)
    X0 = rng.normal(size=2)
    assert np.allclose(W @ X0, transport_linear(ex.g3, path, X0).final,
                       atol=1e-10)


def test_fundamental_solution_matrix_exponential_oracle():
    K1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    K2 = 2.0 * K1  # commuting pair
    g3 = CoefficientField3.constant([K1.tolist(), K2.tolist()])
    path = PathSpec(points=[[0.2, -0.1], [0.9, 0.5]], steps=400)
    W = fundamental_solution(g3, path)
    dx = np.array([0.7, 0.6])
    expected = scipy.linalg.expm(-(K1 * dx[0] + K2 * dx[1]))
    assert np.allclose(W, expected, atol=1e-8)


def test_transport_concatenation():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    exprs = ["t", "t*t"]
    whole = transport_linear(
        g3, PathSpec(exprs=exprs, interval=(0.0, 1.0), steps=128), [1.0, -1.0])
    first = transport_linear(
        g3, PathSpec(exprs=exprs, interval=(0.0, 0.5), steps=64), [1.0, -1.0])
    second = transport_linear(
        g3, PathSpec(exprs=exprs, interval=(0.5, 1.0), steps=64), first.final)
    assert np.allclose(second.final, whole.final, atol=1e-9)


def test_rk4_fourth_order_convergence():
    g3 = CoefficientField3.constant([[[3.0]]])
    errs = []
    for N in (100, 200, 400, 800):
        path = PathSpec(points=[[0.0], [1.0]], steps=N)
        out = transport_linear(g3, path, [1.0])
        errs.append(abs(out.final[0] - math.exp(-3.0)))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(3.7 <= s <= 4.3 for s in slopes), (errs, slopes)


def test_transport_samples_and_ts():
    g3 = CoefficientField3.constant(CONSTANT_STACK)
    path = PathSpec(exprs=["t", "0.5*t"], interval=(2.0, 3.0), steps=32)
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
    path = PathSpec(exprs=["t", "t*t"], interval=(0.0, 1.0), steps=64)
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
    path = PathSpec(points=[[0.3, 0.4], [1.3, 0.2]], steps=16)
    p0 = np.array([4.0, -1.0])
    out = transport_affine(aff, path, p0)
    assert np.allclose(out.final, p0 + G @ np.array([1.0, -0.2]),
                       atol=1e-10)


def test_affine_affinity_property():
    aff = affine_fixture()
    path = PathSpec(exprs=["t", "t*t"], interval=(0.0, 1.0), steps=128)
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
    path = PathSpec(exprs=["t", "t*t"], interval=(0.0, 1.0), steps=128)
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
    return {"expr": PathSpec(exprs=exprs, interval=(t0, t1), steps=steps),
            "polyline": PathSpec(points=GRID_POINTS, steps=steps)}


def per_node_expr_grid(exprs, t0, t1, steps):
    """Positions and FD velocities evaluated one component at a time."""
    comps = [ScalarField(c, ("t",)) for c in exprs]
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
    # velocities are taken in runs of at most 2 * _BLOCK nodes: 2 * steps + 1
    # nodes make one run, one, two and five
    exprs, t0, t1 = GRID_EXPRS
    for steps in (200, transport._BLOCK - 1, transport._BLOCK, 2500):
        grid = _grid(grid_paths(steps)["expr"])
        pos, vel = per_node_expr_grid(exprs, t0, t1, steps)
        assert np.array_equal(grid.pos, pos)
        assert np.array_equal(grid.vel, vel)


@pytest.mark.parametrize("pole, log_zero, message", [
    (2500, 3500, "division by zero"),
    (3500, 2500, "ln: math domain error"),
    (3001, 3500, "division by zero"),
])
def test_expr_path_velocity_fails_at_its_first_failing_node(pole, log_zero,
                                                            message):
    # each singularity sits on a shifted stencil point, never on a node; the
    # node first visited raises, whichever run of nodes it falls in
    steps = 2000
    hv = 1.0 / (64.0 * steps)
    nodes = np.arange(2 * steps + 1) / (2.0 * steps)
    c = float(nodes[pole] - hv)
    d = float(nodes[log_zero] + hv)
    path = PathSpec(exprs=[f"ln(abs(t - {d!r})) + 1/(t - {c!r})", "t"],
                    interval=(0.0, 1.0), steps=steps)
    path.exprs.values(nodes[:, None])           # every node is fine
    with pytest.raises(NonFinite, match=f"^{message}$"):
        _grid(path)


@pytest.mark.parametrize("t0, span, first", [
    (1e15, 1.0, "t = 1000000000000000.0"),
    # below 2^42 the step is above half the float spacing, from 2^42 below
    (2.0 ** 42 - 0.75, 1.5, "t = 4398046511104.0"),
])
def test_expr_path_velocity_step_that_rounds_away_is_refused(t0, span,
                                                             first):
    # t +- hv == t would make every velocity there 0, and transport would
    # stand still; the first such node is named
    hv = span / (64.0 * 64)
    path = PathSpec(exprs=["1.0 + 0.3*sin(t)", "t"],
                    interval=(t0, t0 + span), steps=64)
    with pytest.raises(ConfigError, match=(
            f"^path velocity step {hv!r} vanishes at {first}: t \\+ h or "
            "t - h rounds to t$")):
        transport_linear(make_sphere_lc().g3, path, [1.0, 0.0])


def test_expr_path_grid_memory_peak():
    # velocities are built in runs of nodes, so the grid's build holds
    # little beyond the grid itself
    path = PathSpec(exprs=["0.3 + 0.5*t", "0.2 + sin(t)"], interval=(0.0, 1.0),
                    steps=20_000)
    tracemalloc.start()
    try:
        grid = _grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in (grid.pos, grid.vel, grid.bases, grid.hs,
                                  grid.ts))
    assert peak < 2 * size


def per_segment_polyline_grid(path):
    """The polyline grid built one segment at a time (the reference)."""
    pts = path.points
    diffs = pts[1:] - pts[:-1]
    lengths = np.sqrt((diffs ** 2).sum(axis=1))
    total = float(lengths.sum())
    if total == 0.0:
        return transport._Grid(
            np.empty((0, path.dim)), np.empty((0, path.dim)),
            np.empty(0, dtype=int), np.empty(0), np.zeros(1))
    pos_parts, vel_parts, bases, hs = [], [], [], []
    offset = 0
    for start, d, seg_len in zip(pts[:-1], diffs, lengths):
        if seg_len == 0.0:
            continue
        nk = max(2, int(round(path.steps * seg_len / total)))
        s = np.arange(2 * nk + 1) / (2.0 * nk)
        pos_parts.append(start + s[:, None] * d)
        vel_parts.append(np.broadcast_to(d, (2 * nk + 1, path.dim)).copy())
        bases.extend(offset + 2 * np.arange(nk))
        hs.extend([1.0 / nk] * nk)
        offset += 2 * nk + 1
    hs = np.asarray(hs)
    ts = np.concatenate([[0.0], np.cumsum(hs)])
    return transport._Grid(np.concatenate(pos_parts),
                           np.concatenate(vel_parts),
                           np.asarray(bases, dtype=int), hs, ts)


def random_polylines(count, seed=2020):
    """1-3-D polylines of 2-60 points, some with repeated points, and
    8-5,000 steps (so some segments round to the 2-step minimum)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pts = rng.uniform(-2.0, 2.0, size=(rng.integers(2, 61),
                                           rng.integers(1, 4)))
        repeat = rng.random(len(pts)) < 0.2
        pts[1:][repeat[1:]] = pts[:-1][repeat[1:]]
        yield PathSpec(points=pts, steps=int(rng.integers(8, 5001)))
    # one segment; steps / 2 = 4.5 and 5.5 on two equal segments, which
    # round half to even; a repeated point only; one repeated at each end
    yield PathSpec(points=[[0.1, 0.2], [0.4, -0.3]], steps=8)
    yield PathSpec(points=[[0.0], [1.0], [2.0]], steps=9)
    yield PathSpec(points=[[0.0], [1.0], [2.0]], steps=11)
    yield PathSpec(points=[[0.5], [0.5], [0.5]], steps=20)
    yield PathSpec(points=[[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
                   steps=101)


def test_polyline_grid_equals_per_segment_loop():
    for path in random_polylines(300):
        got, want = _grid(path), per_segment_polyline_grid(path)
        for name in ("pos", "vel", "bases", "hs", "ts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype.kind == b.dtype.kind, name
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def block_nodes(grid, size):
    """For each block of steps of at most `size` (_blocks), the slice of its
    nodes, as the linear driver evaluates them."""
    for lo, hi in transport._blocks(grid.nsteps, size):
        yield slice(grid.bases[lo], grid.bases[hi - 1] + 3)


def test_blocks_split_in_order_into_near_equal_runs():
    assert transport._blocks(0, 512) == []
    assert transport._blocks(5, 512) == [(0, 5)]
    assert transport._blocks(1024, 512) == [(0, 512), (512, 1024)]
    assert transport._blocks(1025, 512) == [(0, 341), (341, 683), (683, 1025)]
    for count in range(1, 300):
        for size in (1, 7, 64):
            blocks = transport._blocks(count, size)
            assert len(blocks) == -(-count // size)
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in
                                                      blocks[:-1]]
            assert blocks[-1][1] == count
            lengths = [hi - lo for lo, hi in blocks]
            assert max(lengths) <= size and max(lengths) - min(lengths) <= 1


@pytest.mark.parametrize("path_kind", ["expr", "polyline"])
@pytest.mark.parametrize("name", list(GRID_CONNECTIONS))
def test_coefficient_grid_equals_per_node_loop(name, path_kind):
    # on each block's nodes: one block of the 200 steps, and blocks of 37
    # steps, whose node slices share their end nodes and run point by point
    # (fewer than _BATCH_MIN nodes)
    g3 = GRID_CONNECTIONS[name]()
    grid = _grid(grid_paths()[path_kind])
    want = per_node_coefficients(g3, grid)
    for size in (transport._BLOCK, 37):
        for nodes in block_nodes(grid, size):
            assert np.array_equal(_linear_rhs_matrices(g3, grid, nodes),
                                  want[nodes])


def in_blocks(cases):
    """Each case (a tuple) as it is and in blocks of 60 steps (block None
    or 60), with the ids "a-b" and "a-b-in-blocks"."""
    return pytest.mark.parametrize(
        "case, block", [(c, b) for b in (None, 60) for c in cases],
        ids=["-".join(c) + ("-in-blocks" if b else "")
             for b in (None, 60) for c in cases])


@in_blocks([(inhom_kind, path_kind) for path_kind in ("expr", "polyline")
            for inhom_kind in ("exprs", "callable")])
def test_affine_gvecs_equal_per_node_loop(case, block, monkeypatch):
    # in blocks of 60 steps: four blocks of 50, the inhomogeneous part in
    # four runs of 100 or 101 nodes
    inhom_kind, path_kind = case
    if block is not None:
        monkeypatch.setattr(transport, "_BLOCK", block)
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


DRIVER_CASES = ["linear-vector", "linear-skew-r3", "linear-matrix", "affine",
                "general", "geodesic", "general-sparse", "geodesic-sparse"]


@in_blocks([(case,) for case in DRIVER_CASES])
def test_batched_rhs_equals_per_step_rhs_bitwise(case, block, monkeypatch):
    # the per-step right-hand side is the one the driver's checked step
    # runs (the fallback of a compiled step): a linear driver builds it and
    # the batched one of the defect per block of steps, on that block's
    # nodes, and a state-dependent driver one pair for every node; blocks of
    # 60 split the 200 steps into four, whose node ranges share their end
    # nodes (the 64-step geodesics into two)
    case, = case
    if block is not None:
        monkeypatch.setattr(transport, "_BLOCK", block)
    calls, rhss, pairs = [], [], []
    rk4, checked_step = transport._rk4, transport._checked_step

    def spy(build, y0, grid, **late):
        def spied(lo, hi):
            step, many = build(lo, hi)
            pairs.append((lo, hi, rhss[-1], many))
            return step, many
        result = rk4(spied, y0, grid, **late)
        calls.append((result, grid))
        return result

    monkeypatch.setattr(transport, "_rk4", spy)
    monkeypatch.setattr(transport, "_checked_step",
                        lambda rhs: rhss.append(rhs) or checked_step(rhs))
    run_driver(case)
    (result, grid), = calls
    blocks = transport._blocks(grid.nsteps, transport._BLOCK)
    assert [(lo, hi) for lo, hi, _, _ in pairs] == blocks
    assert len(blocks) == (1 if block is None else 4 if grid.pos is not None
                           else 2)
    if case.startswith(("general", "geodesic")):
        nodes = 2 * grid.nsteps + 1 if grid.pos is None else len(grid.pos)
        assert len(rhss) == 1
        ranges = [(rhs, many, 0, nodes) for _, _, rhs, many in pairs[:1]]
    else:
        assert len(rhss) == len(blocks)
        ranges = [(rhs, many, grid.bases[lo], grid.bases[hi - 1] + 3)
                  for lo, hi, rhs, many in pairs]
    rng = np.random.default_rng(7)
    for rhs, rhs_many, first, stop in ranges:
        rows = rng.integers(0, len(result.samples), 300)
        ys = result.samples[rows] * (1.0 + 0.01 * rng.standard_normal(
            (len(rows),) + result.samples.shape[1:]))
        ks = np.concatenate([[first, stop - 1],
                             rng.integers(first, stop, len(rows) - 2)])
        many = rhs_many(ks, ys)
        for j, (k, y) in enumerate(zip(ks.tolist(), ys)):
            # the per-step right-hand side takes and returns flat float lists
            one = rhs(k, y.ravel().tolist())
            assert all(type(c) is float for c in one), (k, y)
            assert np.array(one).tobytes() == many[j].tobytes(), (k, y)


@pytest.mark.parametrize("case", DRIVER_CASES)
def test_block_size_moves_no_bit(case, monkeypatch):
    # one block of all steps (the whole-path coefficient grid and defect),
    # blocks of 7 steps and of one step give the same samples and defect
    results = []
    for block in (10 ** 6, 7, 1):
        monkeypatch.setattr(transport, "_BLOCK", block)
        results.append(run_driver(case))
    for result in results[1:]:
        assert result.samples.tobytes() == results[0].samples.tobytes()
        assert result.final.tobytes() == results[0].final.tobytes()
        assert result.max_residual == results[0].max_residual


def state_contractions(run):
    """The two contractions of the state-dependent driver `run` calls, each
    f(G, v) on floats or numpy columns: the dense one of its checked step
    and batched defect, tail(v, _contract(plan, G, v)), and the one its
    compiled step compiles, without the constant zeros."""
    captured, state_rk4 = {}, transport._state_rk4

    def spy(field, plan, tail, *rest):
        captured.update(plan=plan, tail=tail)
        return state_rk4(field, plan, tail, *rest)

    def kernel(self, contract, fallback, table=None):
        captured["sparse"] = contract
        return fallback

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_state_rk4", spy)
        patch.setattr(transport, "_rk4", lambda *_, **__: None)
        patch.setattr(_FieldArray, "kernel", kernel)
        run()
    plan, tail = captured["plan"], captured["tail"]
    return (lambda G, v: tail(v, _contract(plan, G, v)), captured["sparse"])


def geodesic_contractions(g3):
    n = g3.n
    dense, sparse = state_contractions(
        lambda: geodesic(g3, [0.5] * n, [0.5] * n, 1.0, 8))
    # the acceleration: the state's derivative after its velocity
    return (lambda G, v: dense(G, v)[n:], lambda G, v: sparse(G, v)[n:])


def general_contractions(g2):
    path = PathSpec(points=[[0.5] * g2.n, [0.7] * g2.n], steps=8)
    return state_contractions(
        lambda: transport_general(g2, path, [0.5] * g2.r))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geodesic_acceleration_equals_einsum_bytewise(n):
    dense, sparse = geodesic_contractions(CoefficientField3.from_exprs(
        np.full((n, n, n), "x1").tolist()))
    rng = np.random.default_rng(n)
    for trial in range(500):
        G = rng.standard_normal((n, n, n)) * 10.0 ** rng.integers(
            -3, 3, (n, n, n))
        if trial % 5 == 0:
            G[rng.random((n, n, n)) < 0.5] = 0.0    # signed-zero products
        v = rng.standard_normal(n)
        want = -np.einsum("nml,l,n->m", G, v, v)
        for contract in (dense, sparse):
            got = contract(G.ravel().tolist(), v.tolist())
            assert np.array(got).tobytes() == want.tobytes(), (G, v)


# entries of the plan fields: constant zeros of both signs, constants, and
# expressions in x1 > 0, repeated across the array ("-0*x1" is a live -0.0)
PLAN_EXPRS = ["0.5*x1 - 1.25", "-0*x1", "x1*x1 + 1.5", "cos(x1)"]


def plan_entries(rng, shape, zero_rows):
    """Entries over x1 of random PLAN_EXPRS and constants, with each index
    slice in zero_rows set to the constant 0.0."""
    entries = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        scale = 10.0 ** rng.integers(-3, 3)
        pool = [0.0, -0.0, float(rng.standard_normal() * scale), *PLAN_EXPRS]
        entries[idx] = pool[rng.integers(len(pool))]
    for rows in zero_rows:
        entries[rows] = 0.0
    return entries.tolist()


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
    # the geodesic's contraction (against einsum) and general transport's
    # (against ordered row sums), over every entry and without the
    # constant-0.0 ones, on floats and on numpy columns
    rng = np.random.default_rng(100 + n)
    for trial in range(60):
        # output row m without entries; now and then every row
        m = int(rng.integers(n))
        geo, gen = (((slice(None), m),), (m,)) if trial % 3 == 0 else ((), ())
        if trial % 10 == 0:
            geo = gen = (Ellipsis,)
        g3 = CoefficientField3.from_exprs(plan_entries(rng, (n, n, n), geo))
        g2 = TwoIndexField.from_exprs(plan_entries(rng, (n, n), gen), n, n)
        fields = {
            "geodesic": (g3, geodesic_contractions(g3), einsum_geodesic),
            "general": (g2, general_contractions(g2), ordered_row_sums),
        }
        points = np.column_stack([0.2 + rng.random(8), rng.random((8, n - 1)),
                                  np.zeros((8, n))])
        vs = signed_zero_vectors(rng, 8, n)
        for name, (field, contractions, reference) in fields.items():
            at = points[:, :len(field.names)]
            G = field.values(at).reshape(8, -1).T
            for contract in contractions:
                # a column sum from 0.0 is the one from a zero column
                columns = contract(G, list(vs.T))
                for j, (p, v) in enumerate(zip(at, vs)):
                    flat = field.floats(tuple(p.tolist()))
                    want = reference(np.reshape(flat, field.shape), v)
                    got = np.array(contract(flat, v.tolist()))
                    assert got.tobytes() == want.tobytes(), (name, field, v)
                    row = np.array([np.broadcast_to(c, 8)[j]
                                    for c in columns])
                    assert row.tobytes() == want.tobytes(), (name, field, v)


def live_entries(contract, size, n):
    """The entries contract reads: a NaN there reaches its output."""
    return {p for p in range(size) if not np.isfinite(contract(
        [math.nan if q == p else 1.0 for q in range(size)], [1.0] * n)).all()}


def test_compiled_step_skips_only_constant_zeros():
    # 0 and 0.0 are skipped, "-0*x1" is a live -0.0; the checked step and
    # the defect read every entry, and a whole-array callable's compiled
    # step too
    g3 = CoefficientField3.from_exprs([[["0", "x1"], ["2", "x1"]],
                                       [["-0*x1", "0.0"], ["0", "x2"]]])
    assert g3._zeros == {0, 5, 6}
    dense, sparse = geodesic_contractions(g3)
    assert live_entries(dense, 8, 2) == set(range(8))
    assert live_entries(sparse, 8, 2) == {1, 2, 3, 4, 7}
    callable_g3 = CoefficientField3.from_callable(
        lambda x1, x2: np.zeros((2, 2, 2)), 2, 2)
    for contract in geodesic_contractions(callable_g3):
        assert live_entries(contract, 8, 2) == set(range(8))
    g2 = TwoIndexField.from_exprs([["0", "u1"], ["-0*x1", "0.0"]], 2, 2)
    dense, sparse = general_contractions(g2)
    assert live_entries(dense, 4, 2) == set(range(4))
    assert live_entries(sparse, 4, 2) == {1, 2}


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
    path = PathSpec(points=[[0.53125], [1.0]], steps=16)
    with pytest.raises(NonFinite) as info:
        transport_general(g2, path, [1.53125])
    assert str(info.value) == "non-finite array value at (0.53125, 1.53125)"


@pytest.mark.parametrize("path, message", [
    (PathSpec(points=[[0.0, 0.0], [1e200, 0.0]]), "length"),
    (PathSpec(points=[[0.0, -1e308], [0.0, 1e308]]), "length"),
    (PathSpec(exprs=["1e308*sin(1e5*t)", "t"], interval=(0.0, 1.0),
              steps=20), "velocity"),
], ids=["squares-overflow", "difference-overflows", "expression-velocity"])
def test_path_data_that_overflows_names_the_path(path, message):
    # numpy's overflow warnings are off, as in the CLI
    with np.errstate(all="ignore"), pytest.raises(
            NonFinite, match=f"^non-finite path {message}$"):
        _grid(path)


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
    PathSpec(exprs=["0.3 + 0.5*t", "0.2 + sin(t)"], interval=(0.0, 1.0),
             steps=300),
    PathSpec(points=[[0.7, 0.5], [-0.9, -0.3], [0.2, -0.6]], steps=300),
], ids=["expr", "polyline"])
def test_callable_two_index_transport_equals_the_staged_one(path):
    staged = transport_general(TwoIndexField.from_exprs(STAGED_ROWS, 2, 2),
                               path, [1.1, 0.4])
    plain = transport_general(
        TwoIndexField.from_callable(staged_rows_callable, 2, 2), path,
        [1.1, 0.4])
    assert staged.samples.tobytes() == plain.samples.tobytes()
    assert staged.max_residual == plain.max_residual


def linear_stack(n, r):
    """An n x r x r stack of distinct expression entries in every base
    coordinate."""
    return [[[f"{0.05 * ((m + 2 * a + 3 * b) % 7 - 3)}"
              f"*sin(x{m + 1} + x{(a + b) % n + 1})"
              for b in range(r)] for a in range(r)] for m in range(n)]


def test_linear_transport_memory_peak():
    # the coefficient matrices of one block at a time: a grid of all
    # 20,001 nodes would hold 20,001 x 6 x 6 x 6 doubles (33 MB) at once;
    # the batch frees its temporaries, and a linear transport's zero
    # inhomogeneous part is one row (7.28 MiB with neither)
    g3 = CoefficientField3.from_exprs(linear_stack(6, 6))
    path = PathSpec(exprs=[f"0.3*sin(t + {i})" for i in range(6)],
                    interval=(0.0, 1.0), steps=10_000)
    tracemalloc.start()
    try:
        transport_linear(g3, path, [0.1] * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.4 * 2 ** 20


def test_batch_values_free_their_temporaries():
    # each temporary column of the compiled batch is dropped after its last
    # read, so 1,025 rows of the n = r = 6 stack (216 entries) hold little
    # beyond the result (2.13x its bytes when every column lived to the end)
    g3 = CoefficientField3.from_exprs(linear_stack(6, 6))
    points = np.random.default_rng(11).uniform(-0.3, 0.3, (1025, 6))
    g3.values(points[:fields._BATCH_MIN])      # compile outside the trace
    tracemalloc.start()
    try:
        out = g3.values(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes
    assert out.tobytes() == np.stack(
        [g3(tuple(p)) for p in points.tolist()]).tobytes()


def test_two_index_transport_memory_peak():
    # the grid table is one (K, 2n) float array: no grid-sized list, and
    # the defect of one block at a time
    g2 = TwoIndexField.from_exprs(STAGED_ROWS, 2, 2)
    path = PathSpec(exprs=["0.3 + 0.5*t", "0.2 + sin(t)"], interval=(0.0, 1.0),
                    steps=4000)
    tracemalloc.start()
    try:
        transport_general(g2, path, [1.0, 0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6


def test_geodesic_memory_peak():
    # the index plans are built once per call: no step-sized list, and the
    # defect of one block at a time
    g3 = make_sphere_lc().g3
    tracemalloc.start()
    try:
        geodesic(g3, (1.0, 0.2), (0.3, 0.7), 2.0, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8e6


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
    # the sphere's pole: theta falls at unit speed towards the bound 0.05 of
    # sphere-lc's region; the last step leaves it at stage 4, or at stage 2
    "sphere-pole-at-stage-4": ("geodesic", {
        "connection": "registry:sphere-lc", "x0": [0.2, 0.5],
        "v0": [-1, 0], "T": 1.0, "steps": 64},
        "DomainExit", "point (0.04375000000000001, 0.5) outside region "
        "((0.05, 3.0915926535897933), (-inf, inf))"),
    "sphere-pole-at-stage-2": ("geodesic", {
        "connection": "registry:sphere-lc", "x0": [0.2, 0.5],
        "v0": [-1, 0], "T": 0.3, "steps": 16},
        "DomainExit", "point (0.04062500000000004, 0.5) outside region "
        "((0.05, 3.0915926535897933), (-inf, inf))"),
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


def line_config(connection, steps, region=None, initial=0.5):
    """A transport of one fibre coordinate along x1 from 0 to 1."""
    cfg = {"base_dim": 1, "fibre_rank": 1, "initial": [initial],
           "connection": connection,
           "path": {"points": [[0.0], [1.0]], "steps": steps}}
    if region is not None:
        cfg["region"] = region
    return cfg


# stdout recorded before transport ran in blocks of steps: the first error
# is the one of the whole-path grid, coefficients and defect
BLOCK_FAILURES = {
    # u' = exp(8000 (x1 - 0.5)) x1' steepens inside step 511, the last of
    # the first block: its four stages stay below the bound 0.25005 but its
    # end (0.250176) and its midpoint (0.250088) do not, so step 512 leaves
    # the region before any defect is evaluated
    "two-index-leaves-on-the-last-step-of-a-block": (
        line_config({"kind": "two_index",
                     "matrix": [["exp(8000*(x1 - 0.5))"]]}, 1024,
                    [[-1.0, 2.0], [-1.0, 0.25005]], 0.25),
        "DomainExit", "point (0.5, 0.25017599371195787) outside region "
        "((-1.0, 2.0), (-1.0, 0.25005))"),
    # the linear stack fails from node 0; the inhomogeneous part only at
    # node 1800 (x1 = 0.9), in its second run of nodes
    "affine-inhom-fails-in-a-later-block": (
        line_config({"kind": "affine", "linear": [[["ln(x1 - 0.1)"]]],
                     "inhom": [["1/(x1 - 0.9)"]]}, 1000),
        "NonFinite", "division by zero"),
    # 61 nodes, fewer than _BATCH_MIN: evaluated point by point
    "coefficient-exit-in-a-short-transport": (
        line_config({"kind": "three_index", "stacks": [[["x1"]]]}, 30,
                    [[-1.0, 0.9]]),
        "DomainExit", "point (0.9,) outside region ((-1.0, 0.9),)"),
    # node 2090 (x1 = 0.95), in the last of three blocks
    "coefficient-exit-in-the-last-block": (
        line_config({"kind": "three_index", "stacks": [[["x1"]]]}, 1100,
                    [[-1.0, 0.95]]),
        "DomainExit", "point (0.95,) outside region ((-1.0, 0.95),)"),
}


def test_block_failures_sit_where_they_claim():
    blocks = transport._blocks
    assert 512 in [hi for _, hi in blocks(1024, transport._BLOCK)][:-1]
    assert len(blocks(2001, 2 * transport._BLOCK)) > 1
    assert blocks(2001, 2 * transport._BLOCK)[0][1] <= 1800
    assert 2 * 30 + 1 < fields._BATCH_MIN
    last = blocks(1100, transport._BLOCK)
    assert len(last) > 1 and 2 * last[-1][0] <= 2090


@pytest.mark.parametrize("cfg, kind, message", BLOCK_FAILURES.values(),
                         ids=list(BLOCK_FAILURES))
def test_block_failures_keep_their_stdout(tmp_path, cfg, kind, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["transport", "--config", str(path)])
    assert code == 1
    assert out.getvalue() == ('{"command": "transport", "error": '
                              f'{{"message": {json.dumps(message)}, '
                              f'"type": "{kind}"}}}}\n')


# --- the fused right-hand side: the kernel returns the derivative -------------

def entries(names):
    """Trees, zeros of both signs, cot (its pole is x1 = 0), an overflow
    that raises nothing and the absorbing operands it can meet."""
    big = f"{names[-1]}*1e308*1e10"
    return st.one_of(kernel_trees(names), st.sampled_from(
        [Const(0.0), Const(-0.0), "cot(x1)", big, f"x1/({big})",
         f"exp(-({big}))", f"pow({big}, 0)"]))


# zeros of both signs, huge and non-finite values, the pole of cot, and the
# bounds of the regions, which are outside
values = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                   st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300,
                                    math.inf, -math.inf, math.nan, 2.5, -1.0]))


def driver_step(run, grid=None):
    """The RK4 step of the first block of steps that a driver hands to
    _rk4 (on `grid`); a state-dependent driver's step serves every block."""
    captured = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_rk4",
                      lambda block, *_, **__: captured.append(block))
        if grid is not None:
            patch.setattr(transport, "_grid", lambda path: grid)
        run()
    step, _ = captured[0](0, 1)
    return step


def dense_geodesic_step(g3):
    """The RK4 step over the acceleration -G3[nu, m, lam] v^lam v^nu of the
    checked entries, every entry summed in einsum("nml,l,n->m") order."""
    n = g3.n
    return _checked_step(lambda _, s: s[n:] + [-a for a in _contract(
        _geodesic_rows(n), g3.floats(s[:n]), s[n:])])


widths = st.sampled_from(STEP_WIDTHS)


@settings(max_examples=150, deadline=None)
@given(flat=st.lists(entries(XU), min_size=4, max_size=4),
       repeat=st.booleans(),
       nodes=st.lists(st.lists(values, min_size=4, max_size=4), min_size=1,
                      max_size=4),
       us=st.lists(st.lists(values, min_size=2, max_size=2), max_size=3),
       h=widths,
       region=st.sampled_from([None, [(-2.5, 2.5), (-1.0, math.inf),
                                      (-2.5, 2.5), (-math.inf, 2.5)]]))
def test_fused_two_index_rhs_equals_contract_of_floats(flat, repeat, nodes,
                                                      us, h, region):
    # the compiled step equals the RK4 step over the dense contraction of
    # the checked entries, which the sparse one equals while the grid
    # velocity is finite (0 * inf is NaN)
    flat[3] = flat[0] if repeat else flat[3]
    g2 = TwoIndexField.from_exprs([flat[:2], flat[2:]], 2, 2,
                                  region and Region(region))
    nodes = np.array(nodes)[np.arange(len(nodes) + 2) % len(nodes)]
    pos, vel = nodes[:, :2], nodes[:, 2:]
    grid = transport._Grid(pos, vel, None, None, None)
    step = driver_step(lambda: transport_general(g2, None, [0, 0]), grid)
    plan = [[(None, [(0, 0), (1, 1)])], [(None, [(2, 0), (3, 1)])]]
    checked = _checked_step(lambda k, u: _contract(
        plan, g2.floats((*pos[k].tolist(), *u)), vel[k].tolist()))
    for b in range(len(nodes) - 2):
        for u in us + [[0.5, -1.5], [0.0, math.inf], [math.nan, 0.5]]:
            assert rhs_outcome(lambda: step(b, h, u)) == rhs_outcome(
                lambda: checked(b, h, u)), (b, u)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3), data=st.data(), h=widths,
       region=st.sampled_from([None, (-2.5, 2.5)]))
def test_fused_geodesic_rhs_equals_contract_of_floats(n, data, h, region):
    # the compiled step equals the RK4 step over the dense acceleration of
    # the checked entries
    names = base_names(n)
    stacks = data.draw(st.lists(entries(names), min_size=n ** 3,
                                max_size=n ** 3))
    g3 = CoefficientField3.from_exprs(
        np.array(stacks, dtype=object).reshape(n, n, n).tolist(),
        region and Region([region] * n))
    step = driver_step(lambda: geodesic(g3, [0.5] * n, [0.5] * n, 1.0, 8))
    checked = dense_geodesic_step(g3)
    # infinite and NaN velocities, cot's pole, a region bound
    fixed = [[0.5] * n + [math.inf] * n, [0.5] * n + [math.nan] + [0.5] * (
        n - 1), [0.0] * n + [0.3] * n, [2.5] * n + [0.3] * n]
    for s in data.draw(st.lists(st.lists(values, min_size=2 * n,
                                         max_size=2 * n), max_size=4)) + fixed:
        assert rhs_outcome(lambda: step(0, h, s)) == rhs_outcome(
            lambda: checked(0, h, s)), s


def test_fused_rhs_runs_without_fallback(monkeypatch):
    # a finite state never reaches the checked interpreter
    g3 = make_sphere_lc().g3
    g2 = TwoIndexField.from_exprs(STAGED_ROWS, 2, 2)
    path = PathSpec(points=[[0.7, 0.5], [-0.9, -0.3]], steps=8)
    x, v, u = [1.0, 0.2], [0.3, 0.7], [1.1, 0.4]
    grid = _grid(path)
    dense = [[(None, [(0, 0), (1, 1)])], [(None, [(2, 0), (3, 1)])]]
    want_geo = dense_geodesic_step(g3)(0, 0.125, x + v)
    want_general = _checked_step(lambda k, u: _contract(
        dense, g2.floats((*grid.pos[k].tolist(), *u)),
        grid.vel[k].tolist()))(2, 0.25, u)
    geo = driver_step(lambda: geodesic(g3, x, v, 1.0, 8))
    general = driver_step(lambda: transport_general(g2, path, u))
    monkeypatch.setattr(_FieldArray, "floats", lambda self, p: 1 / 0)
    assert geo(0, 0.125, x + v) == want_geo
    assert general(2, 0.25, u) == want_general

"""Covariant derivatives, curvature in all four forms, lifts, and the
flatness certifier, checked against hand values and independent oracles."""

import math
import re

import numpy as np
import pytest
import scipy.linalg

from bundleconn import fields
from bundleconn.calculus import (
    covariant_derivative,
    curvature,
    curvature_commutator_oracle,
    curvatures,
    dual_covariant_derivative,
    fibre_curvature_general,
    flat_fundamental_matrix,
    horizontal_lift,
    is_flat,
    nabla_hat_oracle,
    vertical_lift,
)
from bundleconn.connection import (
    CoefficientField3,
    FrameChange,
    TwoIndexField,
    bundle_names,
    transform_three_index,
)
from bundleconn.errors import ConfigError, DomainExit, NonFinite, NotFlat
from bundleconn.fields import (
    FD_STEP_NESTED,
    FrameField,
    MatrixField,
    Region,
    SectionField,
    fd_partial,
)
from bundleconn.registry import make_constant, make_pure_gauge, make_sphere_lc
from bundleconn.transport import (
    PathSpec,
    fundamental_solution,
    transport_general,
    transport_linear,
)

CONSTANT_STACK = np.array([
    [[0.0, 1.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0]],
])


def g3_zero(n=2, r=2):
    return CoefficientField3.zero(n, r)


def g3_constant():
    return CoefficientField3.constant(CONSTANT_STACK)


# ---------------------------------------------------------------------------
# covariant_derivative and its dual


def test_covd_flat_is_directional_derivative():
    g3 = CoefficientField3.zero(1, 1)
    out = covariant_derivative(g3, [1.0], ["x1^2"], (3.0,))
    assert out == pytest.approx([6.0], abs=1e-8)


def test_covd_constant_section_picks_up_gamma():
    g3 = CoefficientField3.constant(np.array([[[2.5]]]))
    out = covariant_derivative(g3, [1.0], ["4"], (0.7,))
    assert out == pytest.approx([10.0], abs=1e-9)


def test_covd_accepts_section_field_objects():
    g3 = g3_constant()
    Y = SectionField.from_exprs(["x2", "x1"], 2)
    direct = covariant_derivative(g3, ["1", "x1"], Y, (0.4, 0.7))
    again = covariant_derivative(g3, ["1", "x1"], ["x2", "x1"], (0.4, 0.7))
    assert direct == pytest.approx(again, abs=1e-12)


def test_covd_axioms():
    g3 = make_pure_gauge().g3
    x = (0.4, 0.7)
    F = ["0.7", "x1"]
    G = ["x2", "-0.4"]
    Y = ["sin(x1)", "x1*x2"]
    Z = ["x2^2", "cos(x1)"]

    # additivity in the direction argument
    lhs = covariant_derivative(g3, ["0.7 + x2", "x1 - 0.4"], Y, x)
    rhs = covariant_derivative(g3, F, Y, x) + covariant_derivative(g3, G, Y, x)
    assert lhs == pytest.approx(rhs, abs=1e-9)

    # function-linearity in the direction argument
    f = "1 + 0.3*x1*x2"
    lhs = covariant_derivative(g3, [f"({f})*0.7", f"({f})*x1"], Y, x)
    fval = 1 + 0.3 * x[0] * x[1]
    assert lhs == pytest.approx(fval * covariant_derivative(g3, F, Y, x),
                                abs=1e-9)

    # additivity in the section argument
    lhs = covariant_derivative(g3, F, ["sin(x1) + x2^2", "x1*x2 + cos(x1)"], x)
    rhs = covariant_derivative(g3, F, Y, x) + covariant_derivative(g3, F, Z, x)
    assert lhs == pytest.approx(rhs, abs=1e-9)

    # Leibniz rule over scalar multiplication of the section
    lhs = covariant_derivative(
        g3, F, ["(1 + 0.3*x1*x2)*sin(x1)", "(1 + 0.3*x1*x2)*(x1*x2)"], x)
    from bundleconn.fields import ScalarField
    ffield = ScalarField(f, ("x1", "x2"))
    Ff = 0.7 * fd_partial(ffield, x, 0) + x[0] * fd_partial(ffield, x, 1)
    Yv = np.array([math.sin(x[0]), x[0] * x[1]])
    rhs = Ff * Yv + fval * covariant_derivative(g3, F, Y, x)
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_dual_covd_flat_is_directional_derivative():
    g3 = CoefficientField3.zero(1, 1)
    out = dual_covariant_derivative(g3, [1.0], ["x1^3"], (2.0,))
    assert out == pytest.approx([12.0], abs=1e-7)


def test_dual_covd_constant_form_constant_stack():
    # constant omega, so only -F^mu G3[mu, b, a] omega_b survives
    g3 = g3_constant()
    out = dual_covariant_derivative(g3, [1.0, 0.0], ["1", "2"], (0.3, 0.8))
    # G3[0].T @ omega = [[0,0],[1,0]] @ (1,2) = (0,1)
    assert out == pytest.approx([0.0, -1.0], abs=1e-10)


def test_dual_pairing_rule():
    # F(<omega, Y>) = <nabla* omega, Y> + <omega, nabla Y>
    g3 = make_pure_gauge().g3
    x = (0.5, 0.3)
    F = ["0.4", "x1"]
    Yc = ["sin(x1)", "x1*x2"]
    wc = ["x2^2", "cos(x1) + 2"]
    Y = SectionField.from_exprs(Yc, 2)
    w = SectionField.from_exprs(wc, 2)

    from bundleconn.fields import ScalarField
    pairing = ScalarField(
        lambda x1, x2: float(w((x1, x2)) @ Y((x1, x2))), ("x1", "x2"))
    Fv = np.array([0.4, x[0]])
    lhs = Fv @ np.array([fd_partial(pairing, x, mu) for mu in range(2)])
    rhs = (dual_covariant_derivative(g3, F, w, x) @ Y(x)
           + w(x) @ covariant_derivative(g3, F, Y, x))
    assert lhs == pytest.approx(rhs, abs=1e-7)


# ---------------------------------------------------------------------------
# curvature


def test_curvature_zero_for_flat():
    R = curvature(g3_zero(), (0.3, 0.4))
    assert np.max(np.abs(R)) < 1e-12


def test_curvature_constant_stack_is_commutator():
    R = curvature(g3_constant(), (0.1, 0.2))
    expected = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert R[:, :, 0, 1] == pytest.approx(expected, abs=1e-10)
    assert R[:, :, 1, 0] == pytest.approx(-expected, abs=1e-10)


def test_curvature_sphere_value():
    g3 = make_sphere_lc().g3
    theta = math.pi / 3
    R = curvature(g3, (theta, 0.4))
    assert R[0, 1, 0, 1] == pytest.approx(math.sin(theta) ** 2, abs=1e-6)


def test_curvature_exactly_antisymmetric():
    R = curvature(make_sphere_lc().g3, (1.1, 0.7))
    assert np.array_equal(R, -R.transpose(0, 1, 3, 2))


def test_curvature_pure_gauge_vanishes():
    R = curvature(make_pure_gauge().g3, (0.6, 0.9))
    assert np.max(np.abs(R)) < 1e-7


# ---------------------------------------------------------------------------
# commutator oracle


def test_commutator_oracle_matches_curvature_contraction():
    g3 = g3_constant()
    x = (0.25, 0.5)
    F = ["1", "0"]
    G = ["0", "1"]
    Y = ["x1 + 1", "x2"]
    out = curvature_commutator_oracle(g3, F, G, Y, x)
    R = curvature(g3, x)
    Yv = np.array([x[0] + 1, x[1]])
    expected = np.einsum("abmn,b,m,n->a", R, Yv,
                         np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert out == pytest.approx(expected, abs=1e-5)


def test_commutator_oracle_sphere():
    g3 = make_sphere_lc().g3
    x = (1.1, 0.3)
    F = ["0.8", "x2"]
    G = ["x1", "-0.5"]
    Y = ["sin(x2)", "x1"]
    out = curvature_commutator_oracle(g3, F, G, Y, x)
    R = curvature(g3, x)
    Fv = np.array([0.8, x[1]])
    Gv = np.array([x[0], -0.5])
    Yv = np.array([math.sin(x[1]), x[0]])
    expected = np.einsum("abmn,b,m,n->a", R, Yv, Fv, Gv)
    assert out == pytest.approx(expected, abs=1e-5)


def test_commutator_oracle_equal_arguments_vanishes():
    g3 = make_pure_gauge().g3
    out = curvature_commutator_oracle(
        g3, ["x2", "x1"], ["x2", "x1"], ["x1", "1"], (0.4, 0.8))
    assert np.max(np.abs(out)) < 1e-9


def test_commutator_oracle_flat_vanishes():
    out = curvature_commutator_oracle(
        g3_zero(), ["1", "x1"], ["x2", "1"], ["x1*x2", "x1"], (0.3, 0.6))
    assert np.max(np.abs(out)) < 1e-6


# ---------------------------------------------------------------------------
# curvature in a general base frame


def test_general_frame_reduces_to_coordinate_case():
    g3 = make_sphere_lc().g3
    x = (1.2, 0.5)
    frame = FrameField.identity(2, ("x1", "x2"))
    direct = curvature(g3, x)
    framed = curvature(g3, x, base_frame=frame)
    assert framed == pytest.approx(direct, abs=1e-8)


def test_general_frame_constant_rescaling():
    # E_1 = 2 d_1 doubles the mu=0 slot of the curvature
    g3 = make_sphere_lc().g3
    x = (1.0, 0.6)
    B = MatrixField.constant(np.array([[2.0, 0.0], [0.0, 1.0]]),
                             ("x1", "x2"))
    fc = FrameChange(B, MatrixField.constant(np.eye(2), ("x1", "x2")))
    g3t = CoefficientField3.from_callable(
        lambda *xx: transform_three_index(g3, fc, xx), 2, 2, g3.region)
    frame = FrameField(B)
    Rt = curvature(g3t, x, base_frame=frame)
    R = curvature(g3, x)
    assert Rt[:, :, 0, 1] == pytest.approx(2.0 * R[:, :, 0, 1], rel=1e-5)


def test_general_frame_anholonomic_flat_stays_flat():
    # E_2 = x1 d_2 has nonzero anholonomy; a flat connection re-expressed
    # in that frame must still certify flat, which requires the C term
    pg = make_pure_gauge()
    x = (0.7, 0.4)
    B = MatrixField.from_exprs([["1", "0"], ["0", "x1"]], ("x1", "x2"))
    fc = FrameChange(B, MatrixField.constant(np.eye(2), ("x1", "x2")))
    g3t = CoefficientField3.from_callable(
        lambda *xx: transform_three_index(pg.g3, fc, xx), 2, 2)
    Rt = curvature(g3t, x, base_frame=FrameField(B))
    assert np.max(np.abs(Rt)) < 1e-6


# ---------------------------------------------------------------------------
# fibre curvature for general connections


def test_fibre_curvature_linear_natural_frame():
    ex = make_constant()
    g2 = TwoIndexField.from_linear(ex.g3)
    x = (0.5, 0.25)
    u = np.array([1.0, 0.0])
    p = (0.5, 0.25, 1.0, 0.0)
    R2, S, coeffs = fibre_curvature_general(g2, None, p)
    R3 = curvature(ex.g3, x)
    expected = -np.einsum("abmn,b->amn", R3, u)
    assert R2 == pytest.approx(expected, abs=1e-6)
    assert np.array_equal(S, np.zeros((2, 2, 2)))
    assert coeffs == pytest.approx(CONSTANT_STACK, abs=1e-6)


def test_fibre_curvature_identity_frame_matches_natural():
    g2 = TwoIndexField.from_linear(make_sphere_lc().g3)
    p = (1.0, 0.5, 0.3, -0.2)
    frame = FrameField.identity(4, bundle_names(2, 2))
    R2a, Sa, Ca = fibre_curvature_general(g2, None, p)
    R2b, Sb, Cb = fibre_curvature_general(g2, frame, p)
    assert R2b == pytest.approx(R2a, abs=1e-9)
    assert Sb == pytest.approx(Sa, abs=1e-12)
    assert Cb == pytest.approx(Ca, abs=1e-9)


def test_fibre_curvature_zero_connection():
    g2 = TwoIndexField.zero(2, 2)
    R2, S, coeffs = fibre_curvature_general(g2, None, (0.3, 0.4, 1.0, 2.0))
    assert np.max(np.abs(R2)) < 1e-12
    assert np.max(np.abs(coeffs)) < 1e-12


def test_fibre_curvature_general_frame_flat_and_anholonomy():
    # flat linear connection written in a frame on the total space with
    # vertical admixtures and an anholonomic base block
    pg = make_pure_gauge()
    g2lin = TwoIndexField.from_linear(pg.g3)
    names = bundle_names(2, 2)

    rows = [
        ["1", "0", "0", "0"],
        ["0", "x1", "0", "0"],
        ["u1", "0", "1", "u1"],
        ["0", "0", "0", "1"],
    ]
    frame = FrameField.from_exprs(rows, names)

    def in_frame(*p):
        E = frame(p)
        Eb = E[:2, :2]
        V = E[2:, :2]
        W = E[2:, 2:]
        return np.linalg.solve(W, g2lin(p) @ Eb - V)

    g2t = TwoIndexField.from_callable(in_frame, 2, 2)
    p = (0.5, 0.8, 0.4, -0.6)
    R2, S, _ = fibre_curvature_general(g2t, frame, p)
    # flatness is frame independent
    assert np.max(np.abs(R2)) < 1e-5
    # [e_1, e_2] = [d_1, x1 d_2] = (1/x1) e_2 is the only base bracket
    assert S[1, 0, 1] == pytest.approx(1.0 / p[0], abs=1e-6)
    assert S[0, 0, 1] == pytest.approx(0.0, abs=1e-6)


def test_fibre_curvature_rejects_nonvertical_fibre_block():
    g2 = TwoIndexField.zero(1, 1)
    rows = [["1", "0"], ["0.5", "1"]]
    bad = [["1", "0.5"], ["0", "1"]]
    frame = FrameField.from_exprs(bad, bundle_names(1, 1))
    with pytest.raises(ValueError):
        fibre_curvature_general(g2, frame, (0.1, 0.2))
    ok = FrameField.from_exprs(rows, bundle_names(1, 1))
    fibre_curvature_general(g2, ok, (0.1, 0.2))


# ---------------------------------------------------------------------------
# lifts and the hatted derivative oracle


def test_vertical_lift_values():
    Y = SectionField.from_exprs(["x1"], 1)
    out = vertical_lift(Y, (2.0, 5.0))
    assert out == pytest.approx([0.0, 2.0], abs=0)


def test_horizontal_lift_values():
    g2 = TwoIndexField.from_exprs([["4"]], 1, 1)
    out = horizontal_lift([3.0], g2, (1.0, 2.0))
    assert out == pytest.approx([3.0, 12.0], abs=0)
    flat = TwoIndexField.zero(2, 2)
    out = horizontal_lift([1.0, -2.0], flat, (0.1, 0.2, 0.3, 0.4))
    assert out == pytest.approx([1.0, -2.0, 0.0, 0.0], abs=0)


def test_nabla_hat_flat_constant_section_vanishes():
    g2 = TwoIndexField.zero(2, 2)
    out = nabla_hat_oracle(g2, ["1", "2"], ["3", "-4"], (0.1, 0.2, 3.0, -4.0))
    assert np.max(np.abs(out)) < 1e-12


def test_nabla_hat_matches_covariant_derivative():
    # lifted fields: hatted derivative of Y^v along F^h equals (nabla_F Y)^v
    ex = make_constant()
    g2 = TwoIndexField.from_linear(ex.g3)
    x = (0.4, 0.9)
    Yc = ["x2", "x1"]
    p = (x[0], x[1], 0.7, -0.3)
    out = nabla_hat_oracle(g2, ["1", "1"], Yc, p)
    expected = covariant_derivative(ex.g3, [1.0, 1.0], Yc, x)
    assert out == pytest.approx(expected, abs=1e-5)


def test_nabla_hat_linear_result_u_independent():
    g2 = TwoIndexField.from_linear(make_pure_gauge().g3)
    zbar = ["1", "0.5"]
    zhat = ["x2 + 1", "x1"]
    a = nabla_hat_oracle(g2, zbar, zhat, (0.4, 0.7, 0.2, 0.9))
    b = nabla_hat_oracle(g2, zbar, zhat, (0.4, 0.7, -1.5, 0.3))
    assert a == pytest.approx(b, abs=1e-6)


# ---------------------------------------------------------------------------
# covariantly constant sections (integrability both ways)


def test_pure_gauge_sections_are_covariantly_constant():
    pg = make_pure_gauge()
    B = pg.gauge
    c = np.array([0.8, -0.5])

    def comp(a):
        return lambda x1, x2: float((B((x1, x2)) @ c)[a])

    Y = SectionField([comp(0), comp(1)], ("x1", "x2"))
    for x in [(0.2, 0.4), (0.7, 0.1), (1.1, 0.9)]:
        for mu in range(2):
            F = [1.0 if k == mu else 0.0 for k in range(2)]
            out = covariant_derivative(pg.g3, F, Y, x)
            assert np.max(np.abs(out)) < 1e-6


def test_transported_pairing_is_constant():
    # a section and a dual section carried along the same path keep a
    # constant pairing when the dual uses the negative-transpose stack
    g3 = make_sphere_lc().g3
    g3d = CoefficientField3.from_callable(
        lambda *x: -np.transpose(g3(x), (0, 2, 1)), 2, 2, g3.region)
    path = PathSpec(points=[(1.0, 0.2), (1.3, 0.8), (0.9, 1.4)], steps=400)
    Y0 = np.array([0.3, -0.7])
    w0 = np.array([1.2, 0.4])
    ry = transport_linear(g3, path, Y0)
    rw = transport_linear(g3d, path, w0)
    pairings = np.einsum("ka,ka->k", rw.samples, ry.samples)
    assert np.max(np.abs(pairings - w0 @ Y0)) < 1e-6


# ---------------------------------------------------------------------------
# flatness certification


def test_is_flat_zero():
    flat, worst = is_flat(g3_zero(), [(0.1, 0.2), (0.5, 0.5)])
    assert flat and worst == 0.0


def test_is_flat_pure_gauge():
    pts = [(a, b) for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8)]
    flat, worst = is_flat(make_pure_gauge().g3, pts)
    assert flat
    assert worst <= 1e-6


def test_is_flat_rejects_sphere():
    pts = [(t, p) for t in (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
           for p in (0.5, 1.0)]
    flat, worst = is_flat(make_sphere_lc().g3, pts)
    assert not flat
    assert worst >= 0.1


def test_is_flat_does_not_fold_away_a_nan():
    # [G_1, G_2] overflows to inf - inf at the first sample only
    g3 = CoefficientField3.from_exprs(
        [[["0", "1e200"], ["1e200", "0"]],
         [["1e200", "0"], ["0", "-1e200"]]])
    with np.errstate(all="ignore"):
        flat, worst = is_flat(g3, [(0.5, 0.5), (0.2, 0.3)])
    assert not flat
    assert math.isnan(worst)


# ---------------------------------------------------------------------------
# curvature on a lattice: one batch of stencils for every point


def per_point_curvature(g3, x, h=None):
    """curvature(g3, x, h) as one point computes it alone: fd_partial
    along each axis, then the stack at x."""
    D = np.stack([fd_partial(g3, x, axis, h, rel=FD_STEP_NESTED)
                  for axis in range(g3.n)])
    stack = g3(x)
    T = D + np.einsum("mac,ncb->mnab", stack, stack)
    return (T - T.transpose(1, 0, 2, 3)).transpose(2, 3, 0, 1)


def seeded_stacks(n, r, seed):
    """A CoefficientField3 of random entries a*f(xi) + b*xj*xk (f one of
    sin, cos, exp) over (-3, 3)^n, and 30 points inside."""
    rng = np.random.default_rng(seed)
    funcs = ("sin", "cos", "exp")

    def entry():
        i, j, k = rng.integers(1, n + 1, 3)
        return (f"{rng.uniform(-1, 1):.4f}*{funcs[rng.integers(3)]}(x{i}) "
                f"+ {rng.uniform(-1, 1):.4f}*x{j}*x{k}")
    stacks = [[[entry() for _ in range(r)] for _ in range(r)]
              for _ in range(n)]
    return (CoefficientField3.from_exprs(stacks, Region([(-3.0, 3.0)] * n)),
            rng.uniform(-1.0, 1.0, (30, n)))


def lattice(lo, hi, k):
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(lo), -1).T


LATTICES = {
    "sphere-lc": lambda: (make_sphere_lc().g3,
                          lattice([0.4, -1.0], [2.7, 1.5], 6)),
    "pure-gauge": lambda: (make_pure_gauge("sin(x1)*x2 + x1^2").g3,
                           lattice([-0.8, -0.6], [0.7, 0.9], 5)),
    "seeded-3-3": lambda: seeded_stacks(3, 3, 1),
    "seeded-3-2": lambda: seeded_stacks(3, 2, 2),
    "seeded-2-4": lambda: seeded_stacks(2, 4, 3),
}


@pytest.mark.parametrize("h", [None, 3e-4])
@pytest.mark.parametrize("case", list(LATTICES))
def test_curvatures_equal_per_point_curvature_bitwise(case, h):
    g3, points = LATTICES[case]()
    # enough stencil rows for the compiled batch
    assert len(points) * (2 * g3.n + 1) >= fields._BATCH_MIN
    many = curvatures(g3, points, h)
    assert many.shape == (len(points), g3.r, g3.r, g3.n, g3.n)
    for x, R in zip(points.tolist(), many):
        alone = curvature(g3, x, h)
        assert np.array_equal(R, alone)
        assert R.tobytes() == per_point_curvature(g3, x, h).tobytes()
    worst = float(np.max(np.abs(many)))
    assert is_flat(g3, points, worst, h) == (True, worst)


def test_curvatures_of_no_points():
    g3 = make_sphere_lc().g3
    assert curvatures(g3, [], None).shape == (0, 2, 2, 2, 2)
    assert is_flat(g3, []) == (True, 0.0)


SPHERE_EXIT = ("point (3.09180915, 0.1) outside region "
               "((0.05, 3.0915926535897933), (-inf, inf))")


@pytest.mark.parametrize("good", [2, 30])
def test_lattice_stencil_leaving_the_region_is_the_per_point_error(good):
    # the +h stencil along x1 of (3.0915, 0.1) leaves the region, before
    # the point (3.5, 0.0) outside it: with 2 points ahead the rows run
    # point by point, with 30 they run as a compiled batch first
    points = [(1.0 + 0.02 * i, 0.3) for i in range(good)] + [
        (3.0915, 0.1), (3.5, 0.0)]
    with pytest.raises(DomainExit, match=f"^{re.escape(SPHERE_EXIT)}$"):
        curvatures(make_sphere_lc().g3, points)
    with pytest.raises(DomainExit, match=f"^{re.escape(SPHERE_EXIT)}$"):
        is_flat(make_sphere_lc().g3, points)


@pytest.mark.parametrize("good", [1, 30])
def test_lattice_quotient_overflow_comes_before_a_later_stencil(good):
    # at (0.5, 0.99995) the d/dx1 quotient overflows and the +h stencil
    # along x2 leaves the region: one point alone checks the quotient
    # first (with 30 points ahead, the rows run as a compiled batch)
    g3 = CoefficientField3.from_exprs([[["1e308*sin(1e4*x1)*x2^2"]],
                                       [["0"]]],
                                      Region([(-1.0, 1.0), (-1.0, 1.0)]))
    points = [(0.5, 0.0)] * good + [(0.5, 0.99995), (0.5, 2.0)]
    message = ("non-finite difference quotient along axis 0 at "
               "(0.5, 0.99995)")
    with np.errstate(all="ignore"):
        with pytest.raises(NonFinite, match=f"^{re.escape(message)}$"):
            curvatures(g3, points)


@pytest.mark.parametrize("good", [2, 30])
def test_lattice_step_that_rounds_away_is_the_per_point_error(good):
    # at phi = 1e12 the step 1e-5 is below half the float spacing, so
    # phi +- h == phi: a zero quotient, refused at that point and axis
    # (with 30 points ahead, the rows run as a compiled batch first)
    points = [(1.0 + 0.02 * i, 0.3) for i in range(good)] + [
        (1.0, 1e12), (3.5, 0.0)]
    message = ("finite-difference step 1e-05 vanishes along axis 1 at "
               "(1.0, 1000000000000.0): x + h or x - h rounds to x")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        curvatures(make_sphere_lc().g3, points, 1e-5)


def test_flat_fundamental_zero():
    W, residual = flat_fundamental_matrix(g3_zero(), (0.0, 0.0), (1.0, 2.0))
    assert np.array_equal(W, np.eye(2))
    assert residual == 0.0


def test_flat_fundamental_pure_gauge():
    pg = make_pure_gauge()
    x0, x1 = (0.2, 0.1), (0.9, 0.8)
    W, residual = flat_fundamental_matrix(pg.g3, x0, x1)
    expected = pg.gauge(x1) @ np.linalg.inv(pg.gauge(x0))
    assert W == pytest.approx(expected, abs=1e-7)
    assert residual <= 1e-7


def test_flat_fundamental_skips_a_leg_of_zero_length():
    # x0 and x1 share x2: each staircase has one leg of zero length, which
    # is skipped, so both integrate the same x1 leg
    pg = make_pure_gauge()
    x0, x1 = (0.2, 0.1), (0.9, 0.1)
    W, residual = flat_fundamental_matrix(pg.g3, x0, x1, steps_per_leg=64)
    leg = fundamental_solution(pg.g3, PathSpec(points=[x0, x1], steps=64))
    assert W.tobytes() == leg.tobytes()
    assert residual == 0.0
    expected = pg.gauge(x1) @ np.linalg.inv(pg.gauge(x0))
    assert W == pytest.approx(expected, abs=1e-7)


def test_flat_fundamental_constant_commuting():
    K = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g3 = CoefficientField3.constant(np.stack([K, 2.0 * K]))
    x0, x1 = (0.3, -0.2), (1.0, 0.5)
    W, residual = flat_fundamental_matrix(g3, x0, x1)
    expected = scipy.linalg.expm(-(K * (x1[0] - x0[0])
                                   + 2.0 * K * (x1[1] - x0[1])))
    assert W == pytest.approx(expected, abs=1e-7)
    assert residual <= 1e-7


def test_flat_fundamental_rejects_sphere():
    g3 = make_sphere_lc().g3
    with pytest.raises(NotFlat):
        flat_fundamental_matrix(g3, (1.0, 0.5), (1.4, 1.2))


def test_curvature_returns_its_array():
    # R[a, b, mu, nu] at one point, as curvatures() gives it at each
    g3 = make_sphere_lc().g3
    R = curvature(g3, (1.1, 0.3))
    assert type(R) is np.ndarray and R.shape == (2, 2, 2, 2)
    assert np.array_equal(R, curvatures(g3, [(1.1, 0.3)])[0])


# ---------------------------------------------------------------------------
# small-loop holonomy: transport around a coordinate parallelogram with
# corner x and sides eps e_mu, eps e_nu is W = I - eps^2 R_(mu nu)(x) + O(eps^3)
# for a linear connection (4.18/4.20 against 4.27), and moves u by
# +eps^2 R2[:, mu, nu](x, u) + O(eps^3) for a general one (3.26 against
# 3.24a; Kobayashi & Nomizu, Foundations of Differential Geometry I, II.8):
# identities that take no finite difference of the coefficients


def small_loop(x, mu, nu, eps, steps=400):
    x = np.asarray(x, dtype=float)
    e_mu, e_nu = eps * np.eye(len(x))[mu], eps * np.eye(len(x))[nu]
    corners = [x, x + e_mu, x + e_mu + e_nu, x + e_nu, x]
    return PathSpec(points=corners, steps=steps)


def richardson_loop_curvature(around, start, x, mu, nu, eps=1e-2, steps=400):
    """The limit of (around(loop) - start) / eps^2 from the loops of sides
    eps and eps/2, plus its error bound. The loop starts at a corner, so
    A(eps) = (around(loop) - start)/eps^2 is the limit + c eps + O(eps^2):
    2 A(eps/2) - A(eps) cancels the first-order term, and
    |A(eps/2) - A(eps)| (= |c| eps/2 to leading order) bounds what is left,
    plus the rounding of `steps` RK4 steps scaled by 1/(eps/2)^2."""
    A1, A2 = ((around(small_loop(x, mu, nu, e, steps)) - start) / e ** 2
              for e in (eps, eps / 2.0))
    rounding = 3.0 * steps * np.finfo(float).eps / (eps / 2.0) ** 2
    return 2.0 * A2 - A1, float(np.max(np.abs(A2 - A1))) + rounding


LOOP_CASES = {
    "sphere-lc": (make_sphere_lc().g3, (1.0, 0.5), True),
    "pure-gauge": (make_pure_gauge().g3, (0.4, 0.7), False),
    "constant-noncommuting": (CoefficientField3.constant(CONSTANT_STACK),
                              (0.3, 0.6), True),
}


@pytest.mark.parametrize("mu, nu", [(0, 1), (1, 0)])
@pytest.mark.parametrize("g3, x, curved", LOOP_CASES.values(),
                         ids=list(LOOP_CASES))
def test_small_loop_holonomy_is_minus_curvature(g3, x, curved, mu, nu):
    R = curvature(g3, x)[:, :, mu, nu]
    minus_R, tol = richardson_loop_curvature(
        lambda path: fundamental_solution(g3, path), np.eye(g3.r), x, mu, nu)
    assert np.max(np.abs(minus_R + R)) <= tol
    if curved:
        # the opposite sign convention misses by about 2 |R|
        assert np.max(np.abs(minus_R - R)) > tol


GENERAL_LOOP_CASES = {
    "nonlinear": (TwoIndexField.from_exprs(
        [["u1*u2*x2 + sin(x1)", "u1^2*x1"], ["cos(u1)*x2", "u2*x1*x1 - u1"]],
        2, 2), (0.3, 0.7), (0.4, -0.2)),
    # a whole-array callable: the checked step throughout
    "sphere-lc": (TwoIndexField.from_linear(make_sphere_lc().g3), (1.0, 0.5),
                  (0.4, -0.2)),
}


@pytest.mark.parametrize("mu, nu", [(0, 1), (1, 0)])
@pytest.mark.parametrize("g2, x, u", GENERAL_LOOP_CASES.values(),
                         ids=list(GENERAL_LOOP_CASES))
def test_small_loop_transport_is_fibre_curvature(g2, x, u, mu, nu):
    R2 = fibre_curvature_general(g2, None, (*x, *u))[0][:, mu, nu]
    moved, tol = richardson_loop_curvature(
        lambda path: transport_general(g2, path, u).final, np.array(u), x,
        mu, nu)
    assert np.max(np.abs(moved - R2)) <= tol
    # the opposite sign convention misses by about 2 |R2|
    assert np.max(np.abs(moved + R2)) > tol


"""Bundle morphisms: Jacobi matrices, adapted blocks, connection
preservation, and the induced coefficient arrays."""

import numpy as np
import pytest

from bundleconn.connection import CoefficientField3, TwoIndexField
from bundleconn.morphism import (
    BundleMorphism,
    compose,
    jacobi_adapted,
    jacobi_natural,
    preserves_connection,
    tangent_map_second_order,
    vb_morphism_coeffs,
)
from bundleconn.registry import make_pure_gauge, make_sphere_lc

GAUGE_INV_ROWS = [["cos(x1*x2)", "sin(x1*x2)"],
                  ["-sin(x1*x2)", "cos(x1*x2)"]]


def test_jacobi_natural_identity():
    m = BundleMorphism.identity(2, 2)
    J = jacobi_natural(m, (0.3, 0.7, 1.0, -2.0))
    assert J == pytest.approx(np.eye(4), abs=1e-9)


def test_jacobi_natural_constant_vector_blocks():
    F = [["2", "1"], ["0", "3"]]
    m = BundleMorphism.vector(["x1", "x2"], F, 2, 2)
    J = jacobi_natural(m, (0.4, 0.9, 0.5, -0.5))
    assert J[2:, 2:] == pytest.approx(np.array([[2.0, 1.0], [0.0, 3.0]]),
                                      abs=1e-9)
    assert np.max(np.abs(J[2:, :2])) < 1e-9
    assert np.array_equal(J[:2, 2:], np.zeros((2, 2)))


def test_jacobi_natural_dimension_change():
    # one base dimension and two fibre ranks into two and one
    m = BundleMorphism(["x1", "x1^2"], ["u1 + 2*u2"], 1, 2)
    J = jacobi_natural(m, (0.5, 1.0, -1.0))
    assert J.shape == (3, 3)
    assert J[:2, 0] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert J[2, 1:] == pytest.approx([1.0, 2.0], abs=1e-9)


def test_jacobi_natural_chain_rule():
    m1 = BundleMorphism.vector(["x1 + 0.3*x2", "x2"],
                               [["1", "x1"], ["0", "1"]], 2, 2)
    m2 = BundleMorphism.vector(["x1^2", "x1 + x2"],
                               [["exp(0.1*x2)", "0"], ["0", "1"]], 2, 2)
    m21 = compose(m2, m1)
    p = (0.4, 0.8, 0.6, -0.2)
    left = jacobi_natural(m21, p)
    right = jacobi_natural(m2, m1.apply(p)) @ jacobi_natural(m1, p)
    assert left == pytest.approx(right, abs=1e-6)


def test_compose_dimension_mismatch():
    m1 = BundleMorphism.identity(1, 2)
    m2 = BundleMorphism.identity(2, 2)
    with pytest.raises(ValueError):
        compose(m2, m1)


def test_jacobi_adapted_identity_same_connection():
    g2 = TwoIndexField.from_linear(make_sphere_lc().g3)
    m = BundleMorphism.identity(2, 2)
    p = (1.0, 0.5, 0.3, -0.2)
    Jad, block = jacobi_adapted(m, g2, g2, p)
    assert Jad == pytest.approx(np.eye(4), abs=1e-7)
    assert np.max(np.abs(block)) < 1e-7


def test_jacobi_adapted_flat_constant_vector():
    g2 = TwoIndexField.zero(2, 2)
    m = BundleMorphism.vector(["x1", "x2"], [["2", "1"], ["0", "3"]], 2, 2)
    _, block = jacobi_adapted(m, g2, g2, (0.3, 0.6, 1.0, 1.0))
    assert np.max(np.abs(block)) < 1e-8


def test_jacobi_adapted_upper_right_is_exactly_zero():
    g2 = TwoIndexField.from_linear(make_pure_gauge().g3)
    m = BundleMorphism.vector(["x1", "x2"], [["1", "x2"], ["x1", "2"]], 2, 2)
    Jad, _ = jacobi_adapted(m, g2, g2, (0.4, 0.7, 0.2, 0.9))
    assert np.array_equal(Jad[:2, 2:], np.zeros((2, 2)))


def gauge_pair():
    pg = make_pure_gauge()
    src = TwoIndexField.from_linear(pg.g3)
    tgt = TwoIndexField.zero(2, 2)
    m = BundleMorphism.vector(["x1", "x2"], GAUGE_INV_ROWS, 2, 2)
    return m, src, tgt


def test_gauge_morphism_is_connection_preserving():
    m, src, tgt = gauge_pair()
    for p in [(0.3, 0.5, 1.0, 0.0), (0.8, 0.2, -0.4, 0.7),
              (1.2, 0.9, 0.1, 0.1)]:
        _, block = jacobi_adapted(m, src, tgt, p)
        assert np.max(np.abs(block)) < 1e-6


def test_preserves_connection_verdicts():
    g2 = TwoIndexField.from_linear(make_sphere_lc().g3)
    ident = BundleMorphism.identity(2, 2)
    pts = [(0.8, 0.3, 1.0, 0.0), (1.0, 0.6, 0.0, 1.0), (1.2, 0.9, 0.5, 0.5)]
    ok, worst = preserves_connection(ident, g2, g2, pts)
    assert ok and worst < 1e-7

    zero = TwoIndexField.zero(2, 2)
    ok, worst = preserves_connection(ident, zero, g2, pts)
    assert not ok
    assert worst >= 0.1

    m, src, tgt = gauge_pair()
    ok, worst = preserves_connection(m, src, tgt, pts)
    assert ok


def test_preserves_connection_does_not_fold_away_a_nan():
    # the target coframe times the 1e200 base Jacobian overflows, and the
    # source frame's zero multiplies that inf into a NaN block entry
    m = BundleMorphism(["x1", "1e200*x2"], ["u1"], 2, 1)
    tgt = TwoIndexField.from_exprs([["0", "1e200"]], 2, 1)
    pts = [(0.5, 1.0, 2.0), (0.1, 0.2, 0.3)]
    with np.errstate(all="ignore"):
        ok, worst = preserves_connection(m, TwoIndexField.zero(2, 1), tgt,
                                         pts)
    assert not ok
    assert np.isnan(worst)


def test_vb_coeffs_constant_flat():
    g3 = CoefficientField3.zero(2, 2)
    m = BundleMorphism.vector(["x1", "x2"], [["2", "1"], ["0", "3"]], 2, 2)
    D = vb_morphism_coeffs(m, g3, g3, (0.4, 0.6))
    assert np.max(np.abs(D)) < 1e-12


def test_vb_coeffs_gauge_fixture():
    pg = make_pure_gauge()
    tgt = CoefficientField3.zero(2, 2)
    m = BundleMorphism.vector(["x1", "x2"], GAUGE_INV_ROWS, 2, 2)
    D = vb_morphism_coeffs(m, pg.g3, tgt, (0.7, 0.4))
    assert np.max(np.abs(D)) < 1e-6


def test_vb_coeffs_contraction_matches_adapted_block():
    g3s = make_sphere_lc().g3
    g3t = make_pure_gauge().g3
    m = BundleMorphism.vector(["x1", "x2"], [["1", "x1"], ["x2", "2"]], 2, 2)
    x = (1.1, 0.6)
    D = vb_morphism_coeffs(m, g3s, g3t, x)
    g2s = TwoIndexField.from_linear(g3s)
    g2t = TwoIndexField.from_linear(g3t)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.uniform(-2, 2, size=2)
        _, block = jacobi_adapted(m, g2s, g2t, (*x, *u))
        assert block == pytest.approx(np.einsum("bam,a->bm", D, u), abs=1e-6)


def test_vb_coeffs_requires_vector_form():
    g3 = CoefficientField3.zero(1, 1)
    m = BundleMorphism(["x1"], ["u1^2"], 1, 1)
    with pytest.raises(ValueError):
        vb_morphism_coeffs(m, g3, g3, (0.5,))


def test_tangent_second_order_identity_cancels():
    g3 = make_sphere_lc().g3
    T = tangent_map_second_order(["x1", "x2"], g3, g3, (1.0, 0.7))
    assert np.max(np.abs(T)) < 1e-6


def test_tangent_second_order_linear_flat():
    g3 = CoefficientField3.zero(2, 2)
    T = tangent_map_second_order(["2*x1 - x2", "x1 + 3*x2"], g3, g3,
                                 (0.3, 0.4))
    assert np.max(np.abs(T)) < 1e-8


def test_tangent_second_order_quadratic_flat_is_second_derivative():
    g3 = CoefficientField3.zero(2, 2)
    T = tangent_map_second_order(["x1^2 + x2", "x1*x2"], g3, g3, (0.5, 0.2))
    expected = np.array([
        [[2.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0], [1.0, 0.0]],
    ])
    assert T == pytest.approx(expected, abs=1e-6)

"""Deterministic property suites: the thirteen acceptance checks that both
the test battery and the command-line `check` command run.

Each suite function returns a JSON-friendly dict:
    {"criterion": k, "suite": name, "passed": bool, "checks": [...]}
with one entry per numeric verdict. A check is
    {"name", "eq", "value", "bound", "kind", "passed"}
where kind "le" means value must stay at or below bound and "ge" means at
or above.

The random fixtures are uniform draws `low + (high - low) * random()` on the
stream of the standard library's `random.Random(seed)`, one fixed integer
seed per suite, made by `_Rng` in row-major order.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .calculus import (
    covariant_derivative,
    curvature,
    curvature_commutator_oracle,
    curvature_law,
    fibre_curvature_general,
    flat_fundamental_matrix,
    is_flat,
    nabla_hat_oracle,
)
from .connection import (
    AffineCoefficients,
    CoefficientField3,
    FrameChange,
    TwoIndexField,
    three_index_round_trip,
    transform_inhomogeneous,
    transform_three_index,
    transformed_three_index,
    two_index_round_trip,
)
from .errors import ConfigError, ParseError
from .exprlang import BinOp, Call, Const, Neg, Var, parse
from .fields import (
    FrameField,
    MatrixField,
    _FieldArray,
    anholonomy_law,
    as_section,
    compose_frame,
    fd_partials,
    lie_gamma_law,
)
from .morphism import (
    BundleMorphism,
    compose,
    jacobi_adapted,
    jacobi_natural,
    preserves_connection,
    vb_morphism_coeffs,
)
from .registry import make_pure_gauge, make_sphere_lc
from .transport import (
    PathSpec,
    covariant_derivative_limit,
    geodesic,
    transport_affine,
    transport_linear,
)

BASE_NAMES = ("x1", "x2")

CONSTANT_STACK = np.array([
    [[0.0, 1.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0]],
])


def _check(name, eq, value, bound, kind="le"):
    value = float(value)
    bound = float(bound)
    passed = value <= bound if kind == "le" else value >= bound
    return {"name": name, "eq": eq, "value": value, "bound": bound,
            "kind": kind, "passed": bool(passed)}


def _result(criterion, name, checks):
    return {"criterion": criterion, "suite": name,
            "passed": all(c["passed"] for c in checks), "checks": checks}


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# random smooth fixtures (all suite randomness is seeded and deterministic)

class _Rng(random.Random):
    """Seeded uniform draws built on `random()`, whose stream Python keeps
    the same for an integer seed (`Random.uniform` has no such promise)."""

    def uniform(self, low, high, size=None):
        u = [low + (high - low) * self.random()
             for _ in range(1 if size is None else int(np.prod(size)))]
        return u[0] if size is None else np.reshape(u, size)


def _rand_point(rng):
    return tuple(rng.uniform(0.3, 1.0, size=2))


def _rand_unitriangular(rng, names):
    lo = rng.uniform(-0.5, 0.5, size=3)
    up = rng.uniform(-0.5, 0.5, size=3)

    def fn(x1, x2):
        a = lo[0] * math.sin(x1) + lo[1] * x2 + lo[2]
        b = up[0] * math.cos(x2) + up[1] * x1 + up[2]
        return np.array([[1.0, 0.0], [a, 1.0]]) @ np.array([[1.0, b],
                                                            [0.0, 1.0]])

    return MatrixField.from_callable(fn, (2, 2), names)


def _rand_g3(rng):
    coef = rng.uniform(-0.8, 0.8, size=(2, 2, 2, 4))

    def fn(x1, x2):
        return coef @ np.array([math.sin(x1), math.cos(x2), x1 * x2, 1.0])

    return CoefficientField3.from_callable(fn, 2, 2)


def _rand_g2(rng):
    coef = rng.uniform(-0.6, 0.6, size=(2, 2, 5))

    def fn(x1, x2, u1, u2):
        return coef @ np.array([math.sin(x1) * u1, x2 * u2, u1, u2, 1.0])

    return TwoIndexField.from_callable(fn, 2, 2)


def _rand_inhom(rng):
    coef = rng.uniform(-0.7, 0.7, size=(2, 2, 4))

    def fn(x1, x2):
        return coef @ np.array([math.sin(x2), x1, math.cos(x1), 1.0])

    return MatrixField.from_callable(fn, (2, 2), BASE_NAMES)


def _rand_section(rng):
    coef = rng.uniform(-1.0, 1.0, size=(2, 4))

    def comp(a):
        return lambda x1, x2: float(
            coef[a] @ np.array([math.sin(x1), x2, x1 * x2, 1.0]))

    return [comp(0), comp(1)]


# ---------------------------------------------------------------------------
# criterion 1: transformation laws, both sides


def transformation_laws_suite():
    rng = _Rng(101)
    worst = {"3.22": 0.0, "4.25": 0.0, "6.33": 0.0, "4.63": 0.0,
             "2.7-1": 0.0, "2.7-3": 0.0}
    for _ in range(20):
        x = _rand_point(rng)
        u = rng.uniform(-1.0, 1.0, size=2)
        p = (*x, *u)

        Bb = _rand_unitriangular(rng, BASE_NAMES)
        Bf = _rand_unitriangular(rng, BASE_NAMES)
        fc = FrameChange(Bb, Bf)

        # two-index law under a coordinate change: transform, then invert
        g2 = _rand_g2(rng)
        M = np.eye(2) + rng.uniform(-0.4, 0.4, size=(2, 2))
        shift = rng.uniform(-0.5, 0.5, size=2)
        S = _rand_unitriangular(rng, BASE_NAMES)
        Minv = np.linalg.inv(M)
        fwd_base = [lambda x1, x2, mu=mu:
                    float(M[mu] @ (x1, x2) + shift[mu]) for mu in range(2)]
        back_base = [lambda y1, y2, mu=mu:
                     float(Minv[mu] @ (np.array((y1, y2)) - shift))
                     for mu in range(2)]
        change = BundleMorphism.vector(fwd_base, S, 2, 2)
        S_inv = MatrixField.from_callable(
            lambda y1, y2: np.linalg.inv(
                S(tuple(Minv @ (np.array((y1, y2)) - shift)))),
            (2, 2), BASE_NAMES)
        change_inv = BundleMorphism.vector(back_base, S_inv, 2, 2)
        _, back = two_index_round_trip(g2, change, change_inv, p)
        worst["3.22"] = max(worst["3.22"], _rel(back, g2(p)))

        # three-index law: forward in the coordinate frame, back with the
        # general (frame-aware) form along the changed frame
        g3 = _rand_g3(rng)
        _, back3 = three_index_round_trip(g3, fc, x)
        worst["4.25"] = max(worst["4.25"], _rel(back3, g3(x)))

        # general-frame law: two successive changes equal the composed one
        Bb2 = _rand_unitriangular(rng, BASE_NAMES)
        Bf2 = _rand_unitriangular(rng, BASE_NAMES)
        two_step = transform_three_index(transformed_three_index(g3, fc),
                                         FrameChange(Bb2, Bf2), x,
                                         base_frame=FrameField(Bb))
        one_step = transform_three_index(g3, FrameChange(
            compose_frame(FrameField(Bb), Bb2).matrix,
            compose_frame(FrameField(Bf), Bf2).matrix), x)
        worst["6.33"] = max(worst["6.33"], _rel(two_step, one_step))

        # inhomogeneous-term law round trip
        G = _rand_inhom(rng)
        Gt = transform_inhomogeneous(G, fc, x)
        backG = transform_inhomogeneous(Gt, fc.inverse(), x)
        worst["4.63"] = max(worst["4.63"], _rel(backG, G(x)))

        # anholonomy law: predicted components vs the changed frame's own
        E = FrameField(_rand_unitriangular(rng, BASE_NAMES))
        predicted, direct = anholonomy_law(E, Bb, x)
        worst["2.7-1"] = max(worst["2.7-1"], _rel(predicted, direct))

        # Lie-coefficient law: same comparison for L
        predictedL, directL = lie_gamma_law(E, Bb, _rand_section(rng), x)
        worst["2.7-3"] = max(worst["2.7-3"], _rel(predictedL, directL))

    checks = [_check(f"law-{eq}", eq, err, 1e-6)
              for eq, err in worst.items()]
    return _result(1, "transformation-laws", checks)


# ---------------------------------------------------------------------------
# criterion 2: curvature transforms tensorially


def curvature_tensoriality_suite():
    rng = _Rng(202)
    worst = 0.0
    for _ in range(20):
        x = _rand_point(rng)
        g3 = _rand_g3(rng)
        Bb = _rand_unitriangular(rng, BASE_NAMES)
        Bf = _rand_unitriangular(rng, BASE_NAMES)
        predicted, direct = curvature_law(g3, FrameChange(Bb, Bf), x)
        worst = max(worst, _rel(direct, predicted))
    checks = [_check("curvature-sandwich", "4.28", worst, 1e-5)]
    return _result(2, "curvature-tensoriality", checks)


# ---------------------------------------------------------------------------
# criterion 3: the three covariant-derivative definitions agree


def _triangle(g3, g2, rng):
    x = _rand_point(rng)
    Y = _rand_section(rng)
    F = rng.uniform(-1.0, 1.0, size=2)
    u = rng.uniform(-1.0, 1.0, size=2)
    a = covariant_derivative(g3, F, Y, x)
    b = covariant_derivative_limit(g3, F, Y, x)
    Yb = [lambda x1, x2, u1, u2, c=c: c(x1, x2) for c in Y]
    c = nabla_hat_oracle(g2, list(F), Yb, (*x, *u))
    return _rel(a, b), _rel(a, c), _rel(b, c)


def covd_triangle_suite():
    rng = _Rng(303)
    eqs = {"4.37-vs-4.38": "4.38", "4.37-vs-4.32": "4.32, 4.36",
           "4.38-vs-4.32": "4.32, 4.36"}
    worst = {}
    for kind in ("lin",) * 10 + ("aff",) * 10:
        g3 = _rand_g3(rng)
        # the hatted route runs on the affine connection itself; the other
        # two run on its linear part, which carries the same derivative
        g2 = (TwoIndexField.from_linear(g3) if kind == "lin" else
              TwoIndexField.from_affine(
                  AffineCoefficients(g3, _rand_inhom(rng))))
        for pair, err in zip(eqs, _triangle(g3, g2, rng)):
            key = f"{kind}-{pair}"
            worst[key] = max(worst.get(key, 0.0), err)
    checks = [_check(name, eqs[name.split("-", 1)[1]], err, 1e-5)
              for name, err in worst.items()]
    return _result(3, "covd-oracle-triangle", checks)


# ---------------------------------------------------------------------------
# criterion 4: curvature against the commutator definition


def curvature_commutator_suite():
    checks = []
    for name, g3, x, F, G, Y, bound in [
            ("constant-stack-exact",
             CoefficientField3.constant(CONSTANT_STACK), (0.3, 0.6),
             [1.0, 0.0], [0.0, 1.0], ["x1", "x2"], 1e-10),
            ("sphere", make_sphere_lc().g3, (1.1, 0.4), ["0.8", "x2"],
             ["x1", "-0.5"], ["sin(x2)", "x1"], 1e-5)]:
        oracle = curvature_commutator_oracle(g3, F, G, Y, x)
        Yv, Fv, Gv = (as_section(V, BASE_NAMES)(x) for V in (Y, F, G))
        contraction = np.einsum("abmn,b,m,n->a", curvature(g3, x), Yv, Fv, Gv)
        err = float(np.max(np.abs(oracle - contraction)))
        checks.append(_check(name, "4.44, 4.45", err, bound))
    return _result(4, "curvature-commutator", checks)


# ---------------------------------------------------------------------------
# criterion 5: transport is linear / affine in the initial value


def transport_linearity_suite():
    rng = _Rng(505)
    g3 = make_sphere_lc().g3
    path = PathSpec(points=[(1.0, 0.3), (1.3, 1.0), (0.8, 1.6)], steps=1000)
    X = rng.uniform(-1.0, 1.0, size=2)
    Y = rng.uniform(-1.0, 1.0, size=2)
    al, be = rng.uniform(-2.0, 2.0, size=2)
    mixed = transport_linear(g3, path, al * X + be * Y).final
    split = (al * transport_linear(g3, path, X).final
             + be * transport_linear(g3, path, Y).final)
    lin_err = float(np.max(np.abs(mixed - split)))

    aff = AffineCoefficients(_rand_g3(rng), _rand_inhom(rng))
    apath = PathSpec(points=[(0.2, 0.3), (0.6, 0.8), (0.9, 0.4)],
                     steps=1000)

    def P(v):
        return transport_affine(aff, apath, v).final

    rho = float(rng.uniform(-1.5, 1.5))
    zero, PX = P(np.zeros(2)), P(X)
    err_a = float(np.max(np.abs(P(rho * X) - rho * PX - (1 - rho) * zero)))
    err_b = float(np.max(np.abs(P(X + Y) - PX - P(Y) + zero)))

    checks = [
        _check("linearity", "4.18", lin_err, 1e-9),
        _check("affinity-scaling", "4.64", err_a, 1e-9),
        _check("affinity-addition", "4.64", err_b, 1e-9),
    ]
    return _result(5, "transport-linearity", checks)


# ---------------------------------------------------------------------------
# criterion 6: holonomy of the spherical octant loop


def sphere_holonomy_suite():
    eps = 1e-4
    half_pi = math.pi / 2.0
    hp = "1.5707963267948966"
    g3 = make_sphere_lc(margin=1e-5).g3
    legs = [
        PathSpec(exprs=[hp, "t"], interval=(0.0, half_pi), steps=4000),
        PathSpec(exprs=[f"{eps} + {half_pi - eps}*(1-t)^2", hp],
                 interval=(0.0, 1.0), steps=4000),
        PathSpec(exprs=[f"{eps}", f"{hp}*(1-t)"], interval=(0.0, 1.0),
                 steps=4000),
        PathSpec(exprs=[f"{eps} + {half_pi - eps}*t^2", "0"],
                 interval=(0.0, 1.0), steps=4000),
    ]
    u = np.array([1.0, 0.0])
    for leg in legs:
        u = transport_linear(g3, leg, u).final
    angle = math.atan2(float(u[1]), float(u[0]))
    err = abs(abs(angle) - half_pi)
    checks = [_check("octant-rotation-angle", "4.18", err, 1e-5)]
    return _result(6, "sphere-holonomy", checks)


# ---------------------------------------------------------------------------
# criterion 7: geodesics


def _embed(theta, phi):
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


def geodesic_suite():
    flat = CoefficientField3.zero(2, 2)
    x0 = np.array([0.2, 0.3])
    v0 = np.array([0.7, -0.4])
    res = geodesic(flat, x0, v0, 2.0, 100)
    straight_err = max(
        float(np.max(np.abs(res.final[:2] - (x0 + 2.0 * v0)))),
        float(np.max(np.abs(res.final[2:] - v0))))

    g3 = make_sphere_lc().g3
    th0, ph0 = 1.0, 0.5
    vg = (0.3, 0.9)
    res = geodesic(g3, (th0, ph0), vg, 3.0, 4000)
    p0 = _embed(th0, ph0)
    dth = np.array([math.cos(th0) * math.cos(ph0),
                    math.cos(th0) * math.sin(ph0), -math.sin(th0)])
    dph = np.array([-math.sin(th0) * math.sin(ph0),
                    math.sin(th0) * math.cos(ph0), 0.0])
    normal = np.cross(p0, vg[0] * dth + vg[1] * dph)
    normal /= np.linalg.norm(normal)
    pts = _embed(res.samples[:, 0], res.samples[:, 1])
    plane_err = float(np.max(np.abs(pts @ normal)))

    path = PathSpec(points=res.samples[:, :2], steps=2 * 4000)
    transported = transport_linear(g3, path, np.array(vg)).final
    self_err = float(np.max(np.abs(transported - res.final[2:])))

    checks = [
        _check("flat-straight-line", "3.27, 4.29", straight_err, 1e-12),
        _check("great-circle-plane", "3.27, 4.29", plane_err, 1e-6),
        _check("velocity-self-transport", "4.18", self_err, 1e-6),
    ]
    return _result(7, "geodesics", checks)


# ---------------------------------------------------------------------------
# criterion 8: flatness certification both ways


def flatness_suite():
    pg = make_pure_gauge()
    pts = [(a, b) for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8)]
    flat, worst_flat = is_flat(pg.g3, pts)
    x0, x1 = (0.2, 0.1), (0.9, 0.8)
    W, residual = flat_fundamental_matrix(pg.g3, x0, x1)
    expected = pg.gauge(x1) @ np.linalg.inv(pg.gauge(x0))
    gauge_err = float(np.max(np.abs(W - expected)))

    sphere_pts = [(t, p)
                  for t in (math.pi / 4, math.pi / 2, 3 * math.pi / 4)
                  for p in (0.5, 1.0)]
    sphere_flat, sphere_worst = is_flat(make_sphere_lc().g3, sphere_pts)

    checks = [
        _check("pure-gauge-max-R", "4.27", worst_flat, 1e-6),
        _check("staircase-residual", "4.54", residual, 1e-7),
        _check("fundamental-vs-gauge", "4.55", gauge_err, 1e-7),
        _check("sphere-max-R", "4.27", sphere_worst, 0.1, kind="ge"),
    ]
    if not flat or sphere_flat:
        checks.append(_check("verdicts", "4.27", 1.0, 0.0))
    return _result(8, "flatness", checks)


# ---------------------------------------------------------------------------
# criterion 9: RK4 convergence order


def rk4_order_suite():
    g3 = CoefficientField3.constant(np.array([[[3.0]]]))
    exact = math.exp(-3.0)
    sizes = (100, 200, 400, 800)
    errs = []
    for N in sizes:
        path = PathSpec(points=[(0.0,), (1.0,)], steps=N)
        final = transport_linear(g3, path, np.array([1.0])).final[0]
        errs.append(abs(final - exact))
    slope = -float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])
    checks = [
        _check("rk4-slope-lower", "4.18", slope, 3.7, kind="ge"),
        _check("rk4-slope-upper", "4.18", slope, 4.3),
    ]
    return _result(9, "rk4-order", checks)


# ---------------------------------------------------------------------------
# criterion 10: covariantly constant sections, three ways


def covariantly_constant_suite():
    pg = make_pure_gauge()
    B = pg.gauge
    const = np.array([0.8, -0.5])
    Y = _FieldArray.from_callable(lambda *x: B(x) @ const, (2,), BASE_NAMES)
    pts = [(0.25, 0.35), (0.6, 0.2), (0.45, 0.75), (0.8, 0.6)]

    worst_i = 0.0
    for x in pts:
        for mu in range(2):
            F = [1.0 if k == mu else 0.0 for k in range(2)]
            out = covariant_derivative(pg.g3, F, Y, x)
            worst_i = max(worst_i, float(np.max(np.abs(out))))

    worst_ii = 0.0
    for x in pts:
        dY = fd_partials(Y, x).T
        gv = pg.g2((*x, *Y(x)))
        worst_ii = max(worst_ii, float(np.max(np.abs(dY - gv))))

    path = PathSpec(points=[(0.3, 0.2), (0.7, 0.5), (0.4, 0.8)], steps=1000)
    moved = transport_linear(pg.g3, path, Y(path.points[0])).final
    worst_iii = float(np.max(np.abs(moved - Y(path.points[-1]))))

    checks = [
        _check("covd-vanishes", "4.37", worst_i, 1e-6),
        _check("image-of-section-horizontal", "4.16", worst_ii, 1e-6),
        _check("transport-invariance", "4.18", worst_iii, 1e-6),
    ]
    return _result(10, "covariantly-constant", checks)


# ---------------------------------------------------------------------------
# criterion 11: affine vs linear curvature gap


def affine_gap_suite():
    rng = _Rng(1111)
    lin = _rand_g3(rng)
    G = _rand_inhom(rng)
    aff = AffineCoefficients(lin, G)
    x = (0.5, 0.7)
    u = rng.uniform(-1.0, 1.0, size=2)
    p = (*x, *u)
    AR, _, _ = fibre_curvature_general(TwoIndexField.from_affine(aff),
                                       None, p)
    LR, _, _ = fibre_curvature_general(TwoIndexField.from_linear(lin),
                                       None, p)
    stack = lin(x)
    Gv = G(x)
    dG = fd_partials(G, x)
    T = np.empty((2, 2, 2))
    for mu in range(2):
        for nu in range(2):
            T[:, mu, nu] = (-dG[mu][:, nu] + dG[nu][:, mu]
                            + stack[nu] @ Gv[:, mu] - stack[mu] @ Gv[:, nu])
    gap_err = _rel(AR - LR, -T)
    checks = [_check("gap-equals-torsion-term", "4.68", gap_err, 1e-5)]
    return _result(11, "affine-curvature-gap", checks)


# ---------------------------------------------------------------------------
# criterion 12: morphism suite


def morphism_suite():
    sphere = make_sphere_lc()
    g2 = sphere.g2
    pts = [(0.8, 0.3, 1.0, 0.0), (1.0, 0.6, 0.0, 1.0), (1.2, 0.9, 0.5, 0.5)]
    ident = BundleMorphism.identity(2, 2)
    _, worst_id = preserves_connection(ident, g2, g2, pts)

    pg = make_pure_gauge()
    src = pg.g2
    tgt = TwoIndexField.zero(2, 2)
    gauge_rows = [["cos(x1*x2)", "sin(x1*x2)"],
                  ["-sin(x1*x2)", "cos(x1*x2)"]]
    gauge_m = BundleMorphism.vector(["x1", "x2"], gauge_rows, 2, 2)
    _, worst_gauge = preserves_connection(gauge_m, src, tgt, pts)

    g3s = sphere.g3
    g3t = pg.g3
    m = BundleMorphism.vector(["x1", "x2"], [["1", "x1"], ["x2", "2"]], 2, 2)
    x = (1.1, 0.6)
    D = vb_morphism_coeffs(m, g3s, g3t, x)
    rng = _Rng(1212)
    worst_contract = 0.0
    for _ in range(5):
        u = rng.uniform(-2.0, 2.0, size=2)
        _, block = jacobi_adapted(m, g2, src, (*x, *u))
        worst_contract = max(worst_contract, float(np.max(np.abs(
            block - np.einsum("bam,a->bm", D, u)))))

    m1 = BundleMorphism.vector(["x1 + 0.3*x2", "x2"],
                               [["1", "x1"], ["0", "1"]], 2, 2)
    m2 = BundleMorphism.vector(["x1^2", "x1 + x2"],
                               [["exp(0.1*x2)", "0"], ["0", "1"]], 2, 2)
    p = (0.4, 0.8, 0.6, -0.2)
    chain_err = float(np.max(np.abs(
        jacobi_natural(compose(m2, m1), p)
        - jacobi_natural(m2, m1.apply(p)) @ jacobi_natural(m1, p))))

    checks = [
        _check("identity-preserves", "5.10", worst_id, 1e-7),
        _check("gauge-preserves", "5.10", worst_gauge, 1e-6),
        _check("linear-defect-contraction", "5.15", worst_contract, 1e-6),
        _check("jacobi-chain-rule", "5.4", chain_err, 1e-6),
    ]
    return _result(12, "morphisms", checks)


# ---------------------------------------------------------------------------
# criterion 13: parser against the frozen grammar table


def _sexpr(ast):
    if isinstance(ast, Const):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(neg {_sexpr(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({ast.op} {_sexpr(ast.lhs)} {_sexpr(ast.rhs)})"
    if isinstance(ast, Call):
        args = " ".join(_sexpr(a) for a in ast.args)
        return f"(call {ast.func} {args})"


# Hand-derived from the published grammar; the test battery cross-checks
# this table against an independently written oracle parser.
PARSER_CASES = [
    ("x1", "x1"),
    ("2", "2.0"),
    ("2.5", "2.5"),
    (".5", "0.5"),
    ("2.", "2.0"),
    ("1e3", "1000.0"),
    ("1.5e-3", "0.0015"),
    ("2E+2", "200.0"),
    ("-x1", "(neg x1)"),
    ("--x1", "(neg (neg x1))"),
    ("1+2", "(+ 1.0 2.0)"),
    ("1-2", "(- 1.0 2.0)"),
    ("1+2+3", "(+ (+ 1.0 2.0) 3.0)"),
    ("1-2-3", "(- (- 1.0 2.0) 3.0)"),
    ("1-2+3", "(+ (- 1.0 2.0) 3.0)"),
    ("1+2*3", "(+ 1.0 (* 2.0 3.0))"),
    ("1*2+3", "(+ (* 1.0 2.0) 3.0)"),
    ("1*2*3", "(* (* 1.0 2.0) 3.0)"),
    ("1/2/3", "(/ (/ 1.0 2.0) 3.0)"),
    ("1/2*3", "(* (/ 1.0 2.0) 3.0)"),
    ("1+2/3-4", "(- (+ 1.0 (/ 2.0 3.0)) 4.0)"),
    ("2^3", "(^ 2.0 3.0)"),
    ("2^3^2", "(^ 2.0 (^ 3.0 2.0))"),
    ("2^3*4", "(* (^ 2.0 3.0) 4.0)"),
    ("2*3^4", "(* 2.0 (^ 3.0 4.0))"),
    ("-x1^2", "(neg (^ x1 2.0))"),
    ("(-x1)^2", "(^ (neg x1) 2.0)"),
    ("-x1*x2", "(* (neg x1) x2)"),
    ("-(x1*x2)", "(neg (* x1 x2))"),
    ("2^-3", "(^ 2.0 (neg 3.0))"),
    ("2^-3^2", "(^ 2.0 (neg (^ 3.0 2.0)))"),
    ("-2^-3", "(neg (^ 2.0 (neg 3.0)))"),
    ("2*-3", "(* 2.0 (neg 3.0))"),
    ("2--3", "(- 2.0 (neg 3.0))"),
    ("2+-3", "(+ 2.0 (neg 3.0))"),
    ("sin(x1)", "(call sin x1)"),
    ("sin(x1)^2", "(^ (call sin x1) 2.0)"),
    ("-sin(x1)*cos(x1)", "(* (neg (call sin x1)) (call cos x1))"),
    ("cot(x1)", "(call cot x1)"),
    ("pow(x1, 2)", "(call pow x1 2.0)"),
    ("sqrt(abs(x1))", "(call sqrt (call abs x1))"),
    ("exp(-x1^2/2)", "(call exp (/ (neg (^ x1 2.0)) 2.0))"),
    ("ln(x1/x2)", "(call ln (/ x1 x2))"),
    ("(1+2)*3", "(* (+ 1.0 2.0) 3.0)"),
    ("((x1))", "x1"),
    ("tan(x1+x2*x3)", "(call tan (+ x1 (* x2 x3)))"),
    ("x1 * ( x2 + 3 ) ^ 2", "(* x1 (^ (+ x2 3.0) 2.0))"),
    ("u1-u2^2*t", "(- u1 (* (^ u2 2.0) t))"),
    ("pow(2, pow(2, 3))", "(call pow 2.0 (call pow 2.0 3.0))"),
    ("1e2^.5", "(^ 100.0 0.5)"),
]

PARSER_ERROR_CASES = [
    ("", 0),
    ("sin(", 4),
    ("(1+2", 4),
    ("1 + ", 4),
    ("2 +* 3", 3),
    ("foo(1)", 0),
    ("pow(1)", 0),
    ("sin(1, 2)", 0),
    ("pow(1,)", 6),
    ("1.2.3", 3),
    ("1e+", 0),
    ("x1 x2", 3),
    (")", 0),
    ("1 + )", 4),
    ("sin 1", 4),
    ("2^", 2),
    ("1,2", 1),
    ("1 # 2", 2),
    (".", 0),
]


def parser_suite():
    mismatches = 0
    for src, expected in PARSER_CASES:
        try:
            got = _sexpr(parse(src))
        except ParseError:
            got = None
        if got != expected:
            mismatches += 1
    bad_errors = 0
    for src, offset in PARSER_ERROR_CASES:
        try:
            parse(src)
        except ParseError as exc:
            if exc.offset != offset:
                bad_errors += 1
        else:
            bad_errors += 1
    checks = [
        _check("precedence-mismatches", "grammar", mismatches, 0),
        _check("error-offset-mismatches", "grammar", bad_errors, 0),
    ]
    return _result(13, "parser", checks)


# ---------------------------------------------------------------------------

SUITES = {
    "transformation-laws": transformation_laws_suite,
    "curvature-tensoriality": curvature_tensoriality_suite,
    "covd-oracle-triangle": covd_triangle_suite,
    "curvature-commutator": curvature_commutator_suite,
    "transport-linearity": transport_linearity_suite,
    "sphere-holonomy": sphere_holonomy_suite,
    "geodesics": geodesic_suite,
    "flatness": flatness_suite,
    "rk4-order": rk4_order_suite,
    "covariantly-constant": covariantly_constant_suite,
    "affine-curvature-gap": affine_gap_suite,
    "morphisms": morphism_suite,
    "parser": parser_suite,
}


def suite_names():
    return list(SUITES)


def run_suite(name):
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; "
                          f"choose from {', '.join(SUITES)}")
    return SUITES[name]()


def run_all():
    return [fn() for fn in SUITES.values()]

"""Algebraic covariant derivatives, duals, lifts, curvature in component,
commutator, general-frame, and fibre forms, and the flatness toolkit.

Index conventions: curvature arrays are R[a, b, mu, nu] with rows the upper
fibre index, antisymmetric in (mu, nu) exactly by construction; fibre
coefficient stacks are [mu, a, b] as in the connection module.
"""

from __future__ import annotations

import numpy as np

from .connection import transformed_three_index
from .errors import NotFlat
from .fields import (
    FD_STEP_FIRST,
    FD_STEP_NESTED,
    FrameField,
    _anholonomy,
    as_section,
    base_names,
    bundle_names,
    fd_partials,
    fd_partials_at,
    frame_partials,
)
from .transport import PathSpec, fundamental_solution


def covariant_derivative(g3, F, Y, x, h=None):
    """nabla_F Y at x: F^mu (dY^a/dx^mu + G3[mu, a, b] Y^b)."""
    names = base_names(g3.n)
    Y = as_section(Y, names, g3.region)
    Fv = as_section(F, names, g3.region)(x)
    dY = fd_partials(Y, x, h)
    Yv = Y(x)
    return Fv @ (dY + np.einsum("mab,b->ma", g3(x), Yv))


def dual_covariant_derivative(g3, F, omega, x, h=None):
    """Dual derivative: F^mu (d omega_a/dx^mu - G3[mu, b, a] omega_b)."""
    names = base_names(g3.n)
    omega = as_section(omega, names, g3.region)
    Fv = as_section(F, names, g3.region)(x)
    dw = fd_partials(omega, x, h)
    wv = omega(x)
    return Fv @ (dw - np.einsum("mba,b->ma", g3(x), wv))


def curvature(g3, x, h=None, base_frame=None):
    """Curvature components R[a, b, mu, nu] from the coefficient stack,
    given in a (possibly anholonomic) base frame E:
    R_{mu nu} = E_mu(G_nu) - E_nu(G_mu) + [G_mu, G_nu] - G_lam C^lam_{mu nu},
    with FD partials at a 1e-4 relative step. Without a frame E_mu = d_mu
    and C = 0; then this is curvatures() at one point."""
    E = None if base_frame is None else base_frame(x)
    Rmn, stack = _curvature_forms(g3, [x], h, E)
    Rmn, stack = Rmn[0], stack[0]
    if base_frame is not None:
        C = _anholonomy(base_frame, E, x, h)        # C[lam, mu, nu]
        Rmn = Rmn - np.einsum("lab,lmn->mnab", stack, C)
    return Rmn.transpose(2, 3, 0, 1)


def curvatures(g3, points, h=None):
    """curvature(g3, x, h) at every x of K points, as one array
    R[k, a, b, mu, nu], from one batch of stencils."""
    return _curvature_forms(g3, points, h)[0].transpose(0, 3, 4, 1, 2)


def _curvature_forms(g3, points, h, E=None):
    """Rmn[k, mu, nu] = E_mu(G_nu) - E_nu(G_mu) + [G_mu, G_nu] at K points
    (E the frame matrix at the one point, None for E_mu = d_mu) and the
    stacks G[k], from fields.fd_partials_at."""
    points = np.asarray(points, dtype=float).reshape(len(points), g3.n)
    D, stack = fd_partials_at(g3, points, h, rel=FD_STEP_NESTED)
    if E is not None:
        D = np.einsum("nm,kn...->km...", E, D)       # E_mu(G_nu)
    T = D + np.einsum("kmac,kncb->kmnab", stack, stack)
    return T - T.transpose(0, 2, 1, 3, 4), stack


def curvature_commutator_oracle(g3, F, G, Y, x, h=None):
    """The curvature operator evaluated from its definition
    R(F, G)Y = nabla_F nabla_G Y - nabla_G nabla_F Y - nabla_{[F,G]} Y,
    with nested finite differences. This is the independent oracle for
    contracting curvature() with Y, F, G."""
    names = base_names(g3.n)
    F, G, Y = (as_section(V, names, g3.region) for V in (F, G, Y))

    def covd_values(vv, yfun, xx, step=h, rel=FD_STEP_FIRST):
        dY = fd_partials(yfun, xx, step, rel=rel)
        return vv @ (dY + np.einsum("mab,b->ma", g3(tuple(xx)), yfun(xx)))

    def nab(V):
        return lambda xx: covd_values(V(xx), Y, xx)

    Fv = F(x)
    Gv = G(x)
    bracket = Fv @ fd_partials(G, x, h) - Gv @ fd_partials(F, x, h)
    # h sets the inner stencils only; the outer one takes the nested step
    first = covd_values(Fv, nab(G), x, None, FD_STEP_NESTED)
    second = covd_values(Gv, nab(F), x, None, FD_STEP_NESTED)
    third = covd_values(bracket, Y, x)
    return first - second - third


def curvature_law(g3, change, x, h=None):
    """Both sides of the curvature law for a frame change (Bb, Bf):
    (the sandwich inv(Bf) R_(lam rho) Bf Bb[lam, mu] Bb[rho, nu] of the old
    curvature, the curvature of the transformed coefficients computed
    directly in the changed base frame)."""
    direct = curvature(transformed_three_index(g3, change, h=h), x, h,
                       FrameField(change.base))
    R = curvature(g3, x, h)
    Bb, Bf = change.base_at(x), change.fibre_at(x)
    predicted = np.einsum("ac,cdlr,db,lm,rn->abmn",
                          np.linalg.inv(Bf), R, Bf, Bb, Bb)
    return predicted, direct


def fibre_curvature_general(g2, frame, p, h=None):
    """Fibre curvature components and frame data for a general connection
    in a frame on the total space whose fibre block spans the vertical
    distribution. Returns (R[a, mu, nu], S[lam, mu, nu],
    fibre coefficients [mu, a, b]).

    With frame=None the natural frame is used: the outputs reduce to
    R^a_{mu nu} = X_mu(G^a_nu) - X_nu(G^a_mu) with X_mu = d_mu + G^b_mu d_b,
    S = 0, and fibre coefficients -d_b G^a_mu."""
    n, r = g2.n, g2.r
    G = g2(p)
    E = None if frame is None else frame(p)
    if E is not None and np.max(np.abs(E[:n, n:])) > 1e-12:
        raise ValueError("the frame's fibre block must be vertical")
    eG = frame_partials(E, g2, p, h)          # e_I(G)[I, a, nu]
    XG = eG[:n] + np.einsum("bm,ban->man", G, eG[n:])   # X_mu(G)[mu,a,nu]
    R2 = np.einsum("man->amn", XG) - np.einsum("nam->amn", XG)
    coeffs = -np.einsum("bam->mab", eG[n:])              # [mu, a, b]
    if frame is None:
        return R2, np.zeros((n, n, n)), coeffs

    C = _anholonomy(frame, E, p, h)
    Cb = C[:n, :n, :n]        # C^lam_{mu nu}
    Cf_bb = C[n:, :n, :n]     # C^a_{mu nu}
    Cf_mix = C[n:, :n, n:]    # C^a_{mu b}
    Cb_mix = C[:n, :n, n:]    # C^lam_{mu b}
    Cf_ff = C[n:, n:, n:]     # C^a_{b d}

    t1 = -Cf_bb
    mixed = np.einsum("bm,anb->amn", G, Cf_mix)   # G^b_mu C^a_{nu b}
    t2 = -mixed + mixed.transpose(0, 2, 1)
    base_mixed = np.einsum("bm,lnb->lmn", G, Cb_mix)
    S = Cb + base_mixed - base_mixed.transpose(0, 2, 1)
    paren = -Cb + base_mixed - base_mixed.transpose(0, 2, 1)
    t3 = np.einsum("al,lmn->amn", G, paren)
    t4 = np.einsum("bm,dn,abd->amn", G, G, Cf_ff)
    R2 = R2 + t1 + t2 + t3 + t4

    coeffs = (coeffs
              - np.einsum("amb->mab", Cf_mix)
              + np.einsum("dm,adb->mab", G, Cf_ff)
              - np.einsum("al,lmb->mab", G, Cb_mix))
    return R2, S, coeffs


def vertical_lift(Y, p):
    """Tangent components on the total space of the vertical lift of a
    section: (0, ..., 0, Y^a at the base point of p)."""
    n = len(Y.names)
    vals = Y(tuple(p[:n]))
    return np.concatenate([np.zeros(n), vals])


def horizontal_lift(F, g2, p):
    """Tangent components on the total space of the horizontal lift of a
    base vector: (F^mu, G[a, mu](p) F^mu)."""
    Fv = np.asarray(F, dtype=float)
    return np.concatenate([Fv, g2(p) @ Fv])


def nabla_hat_oracle(g2, zbar, zhat, p, h=None):
    """Vertical components of the hatted derivative
    Zbar^mu {X_mu(Zhat^a) - Zhat^b d_b(G^a_mu)} for vector fields given by
    horizontal components Zbar^mu and vertical components Zhat^a, both
    fields on the total space."""
    n, r = g2.n, g2.r
    names = bundle_names(n, r)
    zb = as_section(zbar, names, g2.region)(p)
    zhat = as_section(zhat, names, g2.region)
    zv = zhat(p)
    G = g2(p)
    dZ = fd_partials(zhat, p, h, axes=range(n + r))    # [t, a]
    XZ = dZ[:n] + np.einsum("bm,ba->ma", G, dZ[n:])  # X_mu(Zhat)[mu, a]
    dG_fib = fd_partials(g2, p, h, axes=range(n, n + r))   # [b, a, mu]
    drag = np.einsum("b,bam->ma", zv, dG_fib)
    return zb @ (XZ - drag)


def is_flat(g3, sample_points, tol=1e-6, h=None):
    """True plus the max |R| over the samples when the connection is flat
    to within tol there; h is curvature()'s finite-difference step."""
    # np.max, unlike max(), carries a NaN through to the verdict
    worst = float(np.max(np.abs(curvatures(g3, sample_points, h)),
                         initial=0.0))
    return worst <= tol, worst


def _staircase(x0, x1, order):
    pts = [np.asarray(x0, dtype=float).copy()]
    for axis in order:
        nxt = pts[-1].copy()
        nxt[axis] = x1[axis]
        pts.append(nxt)
    return pts


def flat_fundamental_matrix(g3, x0, x1, tol=1e-6, steps_per_leg=256):
    """Integrating matrix of a flat connection: solves
    dB/dx^mu = -G_mu B, B(x0) = identity, along two axis-ordered staircase
    paths from x0 to x1. Returns the first result together with the
    path-independence residual max |B_A - B_B|; raises NotFlat when the
    residual exceeds 100 * tol."""

    def integrate(order):
        W = np.eye(g3.r)
        pts = _staircase(x0, x1, order)
        for a, b in zip(pts[:-1], pts[1:]):
            if np.array_equal(a, b):
                continue
            leg = PathSpec(points=[a, b], steps=steps_per_leg)
            W = fundamental_solution(g3, leg) @ W
        return W

    WA = integrate(range(g3.n))
    WB = integrate(range(g3.n - 1, -1, -1))
    residual = float(np.max(np.abs(WA - WB)))
    if residual > 100.0 * tol:
        raise NotFlat(
            f"staircase integrals differ by {residual:.3e} "
            f"(tolerance {100.0 * tol:.3e}); the connection is not flat "
            "on this rectangle")
    return WA, residual

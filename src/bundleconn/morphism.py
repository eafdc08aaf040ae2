"""Bundle morphisms (a fibre map over a base map), their Jacobi matrices in
natural and adapted frames, connection preservation, and the induced
coefficient arrays for vector-bundle morphisms and base maps."""

from __future__ import annotations

import numpy as np

from .fields import (
    FD_STEP_NESTED,
    MatrixField,
    _FieldArray,
    as_section,
    base_names,
    bundle_names,
    fd_partials,
)


class BundleMorphism:
    """A pair of maps: fibre components F^{a'}(x, u) over base components
    f^{mu'}(x). The target base point of any bundle point is always computed
    as f of the source base point, so the projections intertwine by
    construction. Dimensions may differ between source and target; a
    fibre-preserving coordinate change (xtilde(x), utilde(x, u)) keeps them."""

    def __init__(self, base_components, fibre_components, n, r,
                 region=None, base_region=None, matrix=None):
        self.n = int(n)
        self.r = int(r)
        self.base = as_section(base_components, base_names(n), base_region)
        self.fibre = as_section(fibre_components, bundle_names(n, r), region)
        self.n_out = self.base.shape[0]
        self.r_out = self.fibre.shape[0]
        self.matrix = matrix

    @classmethod
    def from_exprs(cls, base_components, fibre_components, n, r,
                   region=None, base_region=None):
        return cls(base_components, fibre_components, n, r,
                   region, base_region)

    @classmethod
    def vector(cls, base_components, matrix, n, r,
               region=None, base_region=None):
        """Vector-bundle morphism: F^{a'} = matrix[a', b](x) u^b."""
        if not isinstance(matrix, MatrixField):
            matrix = MatrixField.from_exprs(matrix, base_names(n),
                                            base_region)
        fibre = _FieldArray.from_callable(
            lambda *p: matrix(p[:n]) @ np.asarray(p[n:], dtype=float),
            matrix.shape[:1], bundle_names(n, r), region)
        return cls(base_components, fibre, n, r, region, base_region,
                   matrix=matrix)

    @classmethod
    def identity(cls, n, r):
        return cls(base_names(n), bundle_names(n, r)[n:], n, r)

    def apply(self, p):
        """Target bundle point of a source bundle point, as plain floats."""
        return tuple(self.base.floats(p[:self.n]) + self.fibre.floats(p))


def compose(outer, inner):
    """The morphism outer after inner (dimensions must chain)."""
    if inner.n_out != outer.n or inner.r_out != outer.r:
        raise ValueError(
            f"cannot compose: inner maps into ({inner.n_out}, {inner.r_out}) "
            f"but outer expects ({outer.n}, {outer.r})")
    return BundleMorphism(
        _FieldArray.from_callable(lambda *x: outer.base(inner.base(x)),
                                  (outer.n_out,), base_names(inner.n)),
        _FieldArray.from_callable(lambda *p: outer.fibre(inner.apply(p)),
                                  (outer.r_out,),
                                  bundle_names(inner.n, inner.r)),
        inner.n, inner.r)


def jacobi_natural(m, p, h=None):
    """Jacobi matrix of the morphism at a bundle point, in natural frames:
    blocks [[df, 0], [d_x F, d_u F]]. The upper-right block is exactly zero
    because base components never depend on the fibre coordinates."""
    n, r = m.n, m.r
    J = np.zeros((m.n_out + m.r_out, n + r))
    J[:m.n_out, :n] = fd_partials(m.base, tuple(p[:n]), h).T
    J[m.n_out:] = fd_partials(m.fibre, p, h, axes=range(n + r)).T
    return J


def adapted_frame_matrix(g2, p):
    """Adapted frame block matrix [[I, 0], [G, I]] at p and its closed-form
    inverse [[I, 0], [-G, I]] (the adapted coframe)."""
    G = g2(p)
    n, r = g2.n, g2.r
    M = np.eye(n + r)
    M[n:, :n] = G
    Minv = np.eye(n + r)
    Minv[n:, :n] = -G
    return M, Minv


def jacobi_adapted(m, g2_src, g2_tgt, p, h=None):
    """Jacobi matrix in the adapted frames of the two connections, plus the
    lower-left block separately. That block measures how far the morphism is
    from sending horizontal vectors to horizontal vectors; it vanishes iff
    the morphism preserves the connection at p."""
    Jnat = jacobi_natural(m, p, h)
    Fp = m.apply(p)
    Msrc, _ = adapted_frame_matrix(g2_src, p)
    _, Mtgt_inv = adapted_frame_matrix(g2_tgt, Fp)
    Jad = Mtgt_inv @ Jnat @ Msrc
    return Jad, Jad[m.n_out:, :m.n].copy()


def preserves_connection(m, g2_src, g2_tgt, sample_points, tol=1e-6):
    """True plus the max |lower-left adapted block| over the samples when
    the morphism carries the first connection into the second there."""
    blocks = (jacobi_adapted(m, g2_src, g2_tgt, p)[1] for p in sample_points)
    # np.max, unlike max(), carries a NaN through to the verdict
    worst = float(np.max([np.abs(b).max() for b in blocks], initial=0.0))
    return worst <= tol, worst


def vb_morphism_coeffs(m, g3_src, g3_tgt, x, h=None):
    """Coefficient array D[b', a, mu] of a vector-bundle morphism:
    d_mu(matrix) - matrix G_mu + f^{lam'}_mu (G'_{lam'} o f) matrix.
    Contracting with u^a reproduces the lower-left adapted block."""
    if m.matrix is None:
        raise ValueError("a vector-form morphism (with a coefficient "
                         "matrix) is required")
    F = m.matrix
    n = m.n
    Fx = F(x)
    stack = g3_src(x)
    stackp = g3_tgt(tuple(m.base(x)))
    fjac = fd_partials(m.base, x, h, axes=range(n)).T
    dF = fd_partials(F, x, h, axes=range(n))
    slices = [dF[mu] - Fx @ stack[mu]
              + np.einsum("l,lbc,ca->ba", fjac[:, mu], stackp, Fx)
              for mu in range(n)]
    return np.stack(slices).transpose(1, 2, 0)


def tangent_map_second_order(f, g3_src, g3_tgt, x, h=None):
    """Second-order coefficient array T[lam', mu, nu] of a base map between
    manifolds carrying connections on their tangent bundles:
    d_nu(jac[lam', mu]) - jac[lam', sig] G^sig_{mu nu}
    + (G'^{lam'}_{sig' tau'} o f) jac[sig', mu] jac[tau', nu]."""
    n = g3_src.n
    f = as_section(f, base_names(n), g3_src.region)

    def jac(xx):
        return fd_partials(f, xx, h, axes=range(n)).T

    # h sets the inner stencil only; the outer one takes the nested step
    d2 = fd_partials(jac, x, axes=range(n),
                     rel=FD_STEP_NESTED)              # [nu, lam', mu]
    J = jac(x)
    stack = g3_src(x)
    stackp = g3_tgt(tuple(f(x).tolist()))
    term2 = np.einsum("ls,nsm->lmn", J, stack)
    term3 = np.einsum("tls,sm,tn->lmn", stackp, J, J)
    return d2.transpose(1, 2, 0) - term2 + term3

"""Connection coefficient types (2-index, 3-index, affine) and the
coefficient transformation laws.

Storage conventions (docs/conventions.md): 2-index coefficients are an
(r, n) array G[a, mu] over bundle coordinates x1..xn,u1..ur; 3-index
coefficients are an (n, r, r) stack G3[mu, a, b] over the base; the
inhomogeneous part of an affine connection is an (r, n) array over the base.
A FrameChange holds frame matrices: Etilde_mu = B[nu, mu] E_nu on the base
and Etilde_a = B[b, a] E_b on the fibres.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularFrame, SingularJacobian
from .fields import (
    FrameField,
    MatrixField,
    Region,
    _FieldArray,
    base_names,
    bundle_names,
    compose_frame,
    fd_partials,
    frame_partials,
    nonsingular,
)
from .morphism import jacobi_natural


def bundle_region(base, r):
    """Extend a base region by unbounded fibre axes (None stays None)."""
    if base is None:
        return None
    return Region(list(base.bounds) + [(-np.inf, np.inf)] * r)


class TwoIndexField(MatrixField):
    """2-index coefficients G[a, mu](x, u) of a general connection, an
    (r, n) matrix field over the bundle region."""

    @property
    def n(self):
        return self.shape[1]

    @property
    def r(self):
        return self.shape[0]

    @classmethod
    def from_exprs(cls, rows, n, r, region=None):
        field = super().from_exprs(rows, bundle_names(n, r), region)
        if field.shape != (r, n):
            raise ValueError(f"expected shape {(r, n)}, got {field.shape}")
        return field

    @classmethod
    def from_callable(cls, fn, n, r, region=None):
        return super().from_callable(fn, (r, n), bundle_names(n, r), region)

    @classmethod
    def zero(cls, n, r, region=None):
        return cls.from_exprs([["0"] * n] * r, n, r, region)

    @classmethod
    def from_linear(cls, g3):
        return cls.from_callable(lambda *p: two_index_from_linear(g3, p),
                                 g3.n, g3.r, bundle_region(g3.region, g3.r))

    @classmethod
    def from_affine(cls, aff):
        g3 = aff.linear
        return cls.from_callable(lambda *p: two_index_from_affine(aff, p),
                                 g3.n, g3.r, bundle_region(g3.region, g3.r))


class CoefficientField3(_FieldArray):
    """3-index coefficients of a linear connection: an (n, r, r) stack
    G3[mu, a, b](x) of fields over the base region only."""

    @property
    def n(self):
        return self.shape[0]

    @property
    def r(self):
        return self.shape[1]

    @classmethod
    def from_exprs(cls, stacks, region=None):
        grid = np.array(stacks, dtype=object)
        if grid.ndim != 3 or grid.shape[1] != grid.shape[2]:
            raise ValueError("stacks must list n square r x r matrices of "
                             "expression rows")
        return cls(grid.shape, base_names(grid.shape[0]), region,
                   entries=grid)

    @classmethod
    def from_callable(cls, fn, n, r, region=None):
        return super().from_callable(fn, (n, r, r), base_names(n), region)

    @classmethod
    def constant(cls, matrices, region=None):
        return cls.from_exprs(np.asarray(matrices, dtype=float).tolist(),
                              region)

    @classmethod
    def zero(cls, n, r, region=None):
        return cls.from_exprs([[["0"] * r] * r] * n, region)


class AffineCoefficients:
    """Affine connection data: a linear part (3-index stack) plus an (r, n)
    inhomogeneous term over the base."""

    def __init__(self, linear, inhom):
        if inhom.shape != (linear.r, linear.n):
            raise ValueError(f"inhomogeneous part must have shape "
                             f"{(linear.r, linear.n)}, got {inhom.shape}")
        self.linear = linear
        self.inhom = inhom
        self.n = linear.n
        self.r = linear.r
        self.region = linear.region

    @classmethod
    def from_exprs(cls, stacks, inhom_rows, region=None):
        linear = CoefficientField3.from_exprs(stacks, region)
        inhom = MatrixField.from_exprs(inhom_rows, base_names(linear.n), region)
        return cls(linear, inhom)


class FrameChange:
    """A pair of invertible matrix fields over the base: the base block
    B[nu, mu] and the fibre block B[b, a], both frame matrices."""

    def __init__(self, base, fibre):
        if base.shape[0] != base.shape[1] or fibre.shape[0] != fibre.shape[1]:
            raise ValueError("frame-change blocks must be square")
        self.base = base
        self.fibre = fibre
        self.n = base.shape[0]
        self.r = fibre.shape[0]

    @classmethod
    def from_exprs(cls, base_rows, fibre_rows, n, region=None):
        names = base_names(n)
        return cls(MatrixField.from_exprs(base_rows, names, region),
                   MatrixField.from_exprs(fibre_rows, names, region))

    @classmethod
    def identity(cls, n, r, region=None):
        names = base_names(n)
        return cls(MatrixField.constant(np.eye(n), names, region),
                   MatrixField.constant(np.eye(r), names, region))

    def base_at(self, x):
        return nonsingular(self.base(x), SingularFrame,
                           f"singular base block at {tuple(x)}")

    def fibre_at(self, x):
        return nonsingular(self.fibre(x), SingularFrame,
                           f"singular fibre block at {tuple(x)}")

    def inverse(self):
        """The inverse change: both blocks inverted pointwise, each checked
        for invertibility first."""
        return FrameChange(*(MatrixField.from_callable(
            lambda *x, block=block: np.linalg.inv(block(x)), M.shape, M.names)
            for M, block in ((self.base, self.base_at),
                             (self.fibre, self.fibre_at))))


def two_index_from_linear(g3, p):
    """G[a, mu](x, u) = -G3[mu, a, b](x) u^b."""
    x = tuple(p[:g3.n])
    u = np.asarray(p[g3.n:], dtype=float)
    return -np.einsum("mab,b->am", g3(x), u)


def two_index_from_affine(aff, p):
    """G[a, mu](x, u) = -G3[mu, a, b](x) u^b + Ginh[a, mu](x)."""
    x = tuple(p[:aff.n])
    return two_index_from_linear(aff.linear, p) + aff.inhom(x)


def transform_two_index(g2, change, p):
    """2-index law under a fibre-preserving coordinate change (a
    BundleMorphism), evaluated at the point p given in the old coordinates
    with the blocks of jacobi_natural:
    Gtilde[a, mu] = (d utilde^a/d u^b G[b, nu] + d utilde^a/d x^nu)
                    * (d x^nu / d xtilde^mu)."""
    n, r = change.n, change.r
    if (change.n_out, change.r_out) != (n, r):
        raise ValueError(f"a coordinate change keeps the dimensions "
                         f"({n}, {r}), not ({change.n_out}, {change.r_out})")
    G = g2(p)
    J = jacobi_natural(change, p)
    base = nonsingular(J[:n, :n], SingularJacobian,
                       f"singular base Jacobian at {tuple(p)}")
    return (J[n:, n:] @ G + J[n:, :n]) @ np.linalg.inv(base)


def transform_three_index(g3, change, x, base_frame=None, h=None):
    """3-index law, one matrix per new base direction:
    Gtilde_mu = B[nu, mu] inv(Bf) (G_nu Bf + E_nu(Bf)),
    with E_nu the coordinate frame by default (then E_nu(Bf) = d_nu Bf)."""
    stack = g3(x)
    Bf = change.fibre_at(x)
    Bb = change.base_at(x)
    E = None if base_frame is None else base_frame(x)
    dBf = frame_partials(E, change.fibre, x, h)
    core = np.stack([np.linalg.solve(Bf, stack[nu] @ Bf + dBf[nu])
                     for nu in range(g3.n)])
    return np.einsum("nm,nab->mab", Bb, core)


def transformed_three_index(g3, change, base_frame=None, h=None):
    """The 3-index coefficients in the changed frame as a coefficient field
    of their own (transform_three_index at every point)."""
    return CoefficientField3.from_callable(
        lambda *x: transform_three_index(g3, change, x, base_frame, h),
        g3.n, g3.r, g3.region)


def three_index_round_trip(g3, change, x, base_frame=None, h=None):
    """The 3-index law there and back: (the transformed coefficients at x,
    those transformed back by the inverse change along the changed base
    frame), the latter to compare with g3(x)."""
    g3t = transformed_three_index(g3, change, base_frame, h)
    changed = (FrameField(change.base) if base_frame is None
               else compose_frame(base_frame, change.base))
    return g3t(x), transform_three_index(g3t, change.inverse(), x,
                                         base_frame=changed, h=h)


def two_index_round_trip(g2, change, change_inv, p):
    """The 2-index law there and back: (the transformed coefficients at
    the old-coordinate point p, those transformed back by change_inv at
    the new-coordinate image of p), the latter to compare with g2(p)."""
    g2t = TwoIndexField.from_callable(
        lambda *q: transform_two_index(g2, change, change_inv.apply(q)),
        g2.n, g2.r)
    return (transform_two_index(g2, change, p),
            transform_two_index(g2t, change_inv, change.apply(p)))


def transform_inhomogeneous(G, change, x):
    """Inhomogeneous-term law: Gtilde = inv(Bf) G Bb (purely algebraic)."""
    Gv = G(x) if isinstance(G, MatrixField) else np.asarray(G, dtype=float)
    return np.linalg.solve(change.fibre_at(x), Gv) @ change.base_at(x)


def fibre_coefficients(g2, p, h=None):
    """Fibre coefficients in the adapted frame: C0[mu, a, b] =
    -d G[a, mu] / d u^b. For a linear connection this equals
    G3[mu, a, b] at the base point."""
    D = fd_partials(g2, p, h, axes=range(g2.n, g2.n + g2.r))
    return -D.transpose(2, 1, 0)

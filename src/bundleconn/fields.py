"""Coordinate regions, expression-backed fields, finite-difference
derivatives, and the Lie-calculus toolkit: anholonomy objects, Lie
derivatives, and their frame-change laws.

Conventions (see docs/conventions.md): points are dense coordinate tuples;
frame matrices hold frame vectors in their columns, E_mu = E[nu, mu] d_nu;
the anholonomy array is C[lam, mu, nu] with [E_mu, E_nu] = C[lam, mu, nu]
E_lam; the Lie-coefficient matrix is L[nu, mu], row = upper index.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainExit, NonFinite, SingularFrame
from .exprlang import Const, ExprAst, compile_batch, compile_fn, parse

SINGULAR_DET = 1e-12
FD_STEP_FIRST = 1e-5
FD_STEP_NESTED = 1e-4


class Region:
    """Open box: per-axis open intervals, possibly infinite."""

    def __init__(self, bounds):
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty interval ({lo}, {hi})")

    @classmethod
    def unbounded(cls, dim):
        return cls([(-math.inf, math.inf)] * dim)

    @property
    def dim(self):
        return len(self.bounds)

    def contains(self, point):
        if len(point) != self.dim:
            return False
        return all(lo < float(c) < hi
                   for c, (lo, hi) in zip(point, self.bounds))

    def require(self, point):
        if not self.contains(point):
            raise DomainExit(f"point {tuple(point)} outside region {self.bounds}")

    def __repr__(self):
        return f"Region({list(self.bounds)})"


def base_names(n):
    return tuple(f"x{i + 1}" for i in range(n))


def bundle_names(n, r):
    return base_names(n) + tuple(f"u{a + 1}" for a in range(r))


def _compile_entry(source, names):
    """Normalize an entry (number, source text, AST, ScalarField, callable)
    to (closure over a positional point, constant value or None, the
    expression AST or None)."""
    if isinstance(source, ScalarField):
        return source.raw, source.const, None
    if isinstance(source, (int, float)):
        value = float(source)
        if not math.isfinite(value):
            raise NonFinite(f"constant {source!r}")
        return (lambda point: value), value, None
    if isinstance(source, (str, ExprAst)):
        ast = parse(source) if isinstance(source, str) else source
        fn = compile_fn(ast, names)
        const = float(ast.value) if isinstance(ast, Const) else None
        return fn, const, ast
    if callable(source):
        return (lambda point: source(*point)), None, None
    raise ValueError(f"cannot build a field from {type(source).__name__}")


class ScalarField:
    """Real-valued field of named coordinates (x1..xn for base fields,
    x1..xn,u1..ur for bundle fields, t for paths), backed by an expression
    or a callable. Evaluation checks the region and strict finiteness."""

    def __init__(self, names, raw, region=None, const=None):
        self.names = tuple(names)
        self.raw = raw
        self.region = region
        self.const = const

    @classmethod
    def from_expr(cls, source, names, region=None):
        fn, const, _ = _compile_entry(source, tuple(names))
        return cls(names, fn, region, const)

    @classmethod
    def from_callable(cls, fn, names, region=None):
        return cls(names, lambda point: fn(*point), region)

    def __call__(self, point):
        if self.region is not None:
            self.region.require(point)
        value = float(self.raw(point))
        if not math.isfinite(value):
            raise NonFinite(f"field value {value!r} at {tuple(point)}")
        return value


def as_scalar_field(source, names, region=None):
    if isinstance(source, ScalarField):
        return source
    return ScalarField.from_expr(source, names, region)


class _FieldArray:
    """Array-valued field: a fixed-shape array of scalar entries (constants
    folded into a template) or one whole-array callable. `values` evaluates
    many points at once; expression entries are compiled for it on first
    use."""

    def __init__(self, shape, names, region=None, entries=None, array_fn=None):
        self.shape = tuple(shape)
        self.names = tuple(names)
        self.region = region
        self._array_fn = array_fn
        self._batch = None
        if array_fn is None:
            grid = np.array(entries, dtype=object)
            if grid.shape != self.shape:
                raise ValueError(f"expected entries of shape {self.shape}, "
                                 f"got shape {grid.shape}")
            template = np.zeros(self.shape)
            dynamic = []
            for idx in np.ndindex(self.shape):
                fn, const, ast = _compile_entry(grid[idx], self.names)
                if const is not None:
                    template[idx] = const
                else:
                    dynamic.append((idx, fn, ast))
            self._template = template
            self._dynamic = dynamic

    @classmethod
    def from_callable(cls, fn, shape, names, region=None):
        return cls(shape, names, region,
                   array_fn=lambda point: fn(*point))

    def __call__(self, point):
        if self.region is not None:
            self.region.require(point)
        if self._array_fn is not None:
            out = np.asarray(self._array_fn(point), dtype=float)
            if out.shape != self.shape:
                raise ValueError(f"callable returned shape {out.shape}, "
                                 f"expected {self.shape}")
        else:
            out = self._template.copy()
            for idx, fn, _ in self._dynamic:
                out[idx] = fn(point)
        if not np.isfinite(out).all():
            raise NonFinite(f"non-finite array value at {tuple(point)}")
        return out

    def values(self, points):
        """The field at every row of a (K, dim) point array, shape
        (K,) + shape, equal to stacking self(tuple(p)) over the rows. A
        callable field, a non-expression entry, a point outside the region
        or a non-finite node falls back to that per-point loop, so errors
        and their messages are the per-point ones."""
        points = np.asarray(points, dtype=float)
        out = self._batch_values(points)
        if out is None:
            out = np.stack([self(tuple(p)) for p in points])
        return out

    def _batch_values(self, points):
        if (self._array_fn is not None or points.shape[1] != len(self.names)
                or any(ast is None for _, _, ast in self._dynamic)):
            return None
        if self.region is not None:
            lo, hi = np.array(self.region.bounds).T
            if len(lo) != points.shape[1] or not (
                    (lo < points) & (points < hi)).all():
                return None
        if self._batch is None:
            self._batch = [(idx, compile_batch(ast, self.names))
                           for idx, _, ast in self._dynamic]
        out = np.empty((len(points),) + self.shape)
        out[:] = self._template
        cols = points.T
        try:
            for idx, fn in self._batch:
                out[(slice(None),) + idx] = fn(*cols)
        except NonFinite:
            return None
        return out


class SectionField(_FieldArray):
    """A section of the vector bundle, or any vector-valued field: r
    component entries evaluated as one array."""

    def __init__(self, components, names, region=None):
        super().__init__((len(components),), names, region,
                         entries=components)

    @classmethod
    def from_exprs(cls, components, n, region=None):
        return cls(components, base_names(n), region)

    @property
    def r(self):
        return self.shape[0]


def as_section(source, names, region=None):
    """A vector-valued field: an array field as it is, or a SectionField
    built from a list of component entries."""
    if isinstance(source, _FieldArray):
        return source
    return SectionField(source, names, region)


class MatrixField(_FieldArray):
    """Matrix-valued field; rows of entries or a whole-matrix callable."""

    @classmethod
    def from_exprs(cls, rows, names, region=None):
        grid = np.array(rows, dtype=object)
        if grid.ndim != 2:
            raise ValueError("matrix entries must be rows (lists) of one "
                             "length")
        return cls(grid.shape, names, region, entries=grid)

    @classmethod
    def constant(cls, array, names=(), region=None):
        array = np.asarray(array, dtype=float)
        return cls(array.shape, names, region, entries=array.tolist())


class FrameField:
    """Square matrix field whose columns are the frame vectors:
    E_mu = E[nu, mu] d/dx^nu. Every evaluation checks invertibility."""

    def __init__(self, matrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"frame matrix must be square, got {matrix.shape}")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.names = matrix.names
        self.region = matrix.region

    @classmethod
    def from_exprs(cls, rows, names, region=None):
        return cls(MatrixField.from_exprs(rows, names, region))

    @classmethod
    def from_callable(cls, fn, dim, names, region=None):
        return cls(MatrixField.from_callable(fn, (dim, dim), names, region))

    @classmethod
    def identity(cls, dim, names=None, region=None):
        if names is None:
            names = base_names(dim)
        return cls(MatrixField.constant(np.eye(dim), names, region))

    def __call__(self, point):
        out = self.matrix(point)
        if abs(np.linalg.det(out)) < SINGULAR_DET:
            raise SingularFrame(f"frame singular at {tuple(point)}")
        return out


def compose_frame(frame, change):
    """Frame changed by a matrix field: Etilde_mu = B[nu, mu] E_nu, so the
    new frame matrix is E(x) @ B(x)."""
    return FrameField.from_callable(lambda *pt: frame(pt) @ change(pt),
                                    frame.dim, frame.names, frame.region)


class TensorField(_FieldArray):
    """Tensor field of type (r, s) over an m-dimensional patch; component
    entries indexed with the r upper indices first."""

    def __init__(self, r, s, components, names, region=None):
        self.r = int(r)
        self.s = int(s)
        m = len(tuple(names))
        super().__init__((m,) * (self.r + self.s), names, region,
                         entries=components)


def fd_partial(f, x, axis, h=None, rel=FD_STEP_FIRST):
    """Central difference (f(x + h e) - f(x - h e)) / 2h of a scalar or
    array field along one coordinate axis. Default step
    h = rel * max(1, |x_axis|): FD_STEP_FIRST for first derivatives,
    FD_STEP_NESTED for the outer derivative of a nested stencil."""
    if h is None:
        h = rel * max(1.0, abs(float(x[axis])))
    xp = [float(c) for c in x]
    xm = list(xp)
    xp[axis] += h
    xm[axis] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def fd_partials(f, x, h=None, axes=None, rel=FD_STEP_FIRST):
    """fd_partial stacked along `axes` (every axis of x by default):
    out[i] = d f / d x^axes[i]."""
    if axes is None:
        axes = range(len(x))
    return np.stack([fd_partial(f, x, axis, h, rel) for axis in axes])


def anholonomy(frame, x, h=None):
    """Anholonomy components C[lam, mu, nu] of a frame at a point, from
    finite-difference commutators solved against the frame matrix. Exactly
    antisymmetric in (mu, nu) by construction."""
    m = frame.dim
    E = frame(x)
    dE = fd_partials(frame, x, h, axes=range(m))   # dE[sig, rho, nu]
    # bracket[rho, mu, nu] = E^sig_mu d_sig E^rho_nu - E^sig_nu d_sig E^rho_mu
    term = np.einsum("sm,srn->rmn", E, dE)
    bracket = term - term.transpose(0, 2, 1)
    C = np.linalg.solve(E, bracket.reshape(m, m * m)).reshape(m, m, m)
    return (C - C.transpose(0, 2, 1)) / 2.0


def lie_gamma(frame, X, x, h=None):
    """Lie coefficients of the field X = X^mu E_mu in the frame:
    L[nu, mu] = -E_mu(X^nu) - C[nu, mu, lam] X^lam."""
    X = as_section(X, frame.names, frame.region)
    E = frame(x)
    dX = fd_partials(X, x, h, axes=range(frame.dim))
    Xv = X(x)
    C = anholonomy(frame, x, h)
    # E_mu(X^nu) = E^sig_mu d_sig X^nu
    EdX = np.einsum("sm,sn->nm", E, dX)
    return -EdX - np.einsum("nml,l->nm", C, Xv)


def lie_derivative(frame, X, S, x, h=None):
    """Components of the Lie derivative of a type-(r, s) tensor along
    X = X^mu E_mu: the directional derivative X(S) plus one +L contraction
    per upper slot and one -L contraction per lower slot."""
    X = as_section(X, frame.names, frame.region)
    E = frame(x)
    coord_vec = E @ X(x)
    dS = fd_partials(S, x, h, axes=range(frame.dim))
    out = np.tensordot(coord_vec, dS, axes=([0], [0]))
    L = lie_gamma(frame, X, x, h)
    Sval = S(x)
    for i in range(S.r):
        term = np.tensordot(L, Sval, axes=([1], [i]))
        out = out + np.moveaxis(term, 0, i)
    for j in range(S.r, S.r + S.s):
        term = np.tensordot(L, Sval, axes=([0], [j]))
        out = out - np.moveaxis(term, 0, j)
    return out


def _directional_matrix_partials(frame, B, x, h=None):
    """dirB[sigma, i, j] = E_sigma(B[i, j]): directional derivatives of a
    matrix field along the frame vectors."""
    E = frame(x)
    dB = fd_partials(B, x, h, axes=range(frame.dim))
    return np.einsum("ts,tij->sij", E, dB)


def _require_invertible(M, where):
    if abs(np.linalg.det(M)) < SINGULAR_DET:
        raise SingularFrame(f"singular change matrix at {where}")


def transform_anholonomy(frame, B, x, h=None):
    """Anholonomy of the changed frame Etilde_mu = B[nu, mu] E_nu, predicted
    from the original frame's anholonomy by the transformation law
    Cbar[lam, mu, nu] = inv(B)[lam, rho] (B[sig, mu] E_sig(B[rho, nu])
    - B[sig, nu] E_sig(B[rho, mu]) + B[sig, mu] B[tau, nu] C[rho, sig, tau])."""
    m = frame.dim
    Bv = B(x)
    _require_invertible(Bv, tuple(x))
    dirB = _directional_matrix_partials(frame, B, x, h)
    C = anholonomy(frame, x, h)
    term = np.einsum("sm,srn->rmn", Bv, dirB)
    inner = (term - term.transpose(0, 2, 1)
             + np.einsum("sm,tn,rst->rmn", Bv, Bv, C))
    return np.linalg.solve(Bv, inner.reshape(m, m * m)).reshape(m, m, m)


def transform_lie_gamma(frame, B, X, x, h=None):
    """Lie coefficients in the changed frame, predicted by the law
    Ltilde_X = inv(B) (L_X B + X(B)) with X(B) = X^mu E_mu(B)."""
    X = as_section(X, frame.names, frame.region)
    Bv = B(x)
    _require_invertible(Bv, tuple(x))
    Xv = X(x)
    dirB = _directional_matrix_partials(frame, B, x, h)
    XB = np.tensordot(Xv, dirB, axes=([0], [0]))
    L = lie_gamma(frame, X, x, h)
    return np.linalg.solve(Bv, L @ Bv + XB)


def anholonomy_law(frame, B, x, h=None):
    """Both sides of the anholonomy law for Etilde_mu = B[nu, mu] E_nu:
    (predicted from the old frame, computed from the changed frame)."""
    return (transform_anholonomy(frame, B, x, h),
            anholonomy(compose_frame(frame, B), x, h))


def lie_gamma_law(frame, B, X, x, h=None):
    """Both sides of the Lie-coefficient law for X = X^mu E_mu: (predicted
    by transform_lie_gamma, computed in the changed frame from the
    components inv(B) X of the same field)."""
    X = as_section(X, frame.names, frame.region)
    X_new = _FieldArray.from_callable(
        lambda *y: np.linalg.solve(B(y), X(y)), (frame.dim,), frame.names,
        frame.region)
    return (transform_lie_gamma(frame, B, X, x, h),
            lie_gamma(compose_frame(frame, B), X_new, x, h))

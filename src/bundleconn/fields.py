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
import operator

import numpy as np

from .errors import DomainExit, NonFinite, SingularFrame
from .exprlang import (Const, ExprAst, compile_batch, compile_fn, parse,
                       stage)

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
        self.lo, self.hi = tuple(zip(*self.bounds)) or ((), ())

    @property
    def dim(self):
        return len(self.bounds)

    def contains(self, point):
        return (len(point) == self.dim
                and all(map(operator.lt, self.lo, point))
                and all(map(operator.lt, point, self.hi)))

    def require(self, point):
        if not self.contains(point):
            raise DomainExit(f"point {tuple(float(c) for c in point)} "
                             f"outside region {self.bounds}")

    def __repr__(self):
        return f"Region({list(self.bounds)})"


def base_names(n):
    return tuple(f"x{i + 1}" for i in range(n))


def bundle_names(n, r):
    return base_names(n) + tuple(f"u{a + 1}" for a in range(r))


def nonsingular(M, error, message):
    """M itself, once |det M| >= SINGULAR_DET; else raise error(message).
    The one invertibility test of frames, frame changes and Jacobians."""
    if abs(np.linalg.det(M)) < SINGULAR_DET:
        raise error(message)
    return M


def _compile_entry(source, names):
    """Normalize an entry (number, source text, AST, ScalarField, callable)
    to (closure over a positional point, constant value or None, the
    expression AST or None). A ScalarField lends its own entry; its AST
    only over the same names, as the closure reads positions."""
    if isinstance(source, ScalarField):
        if not source._dynamic:
            return _compile_entry(source._template[0], names)
        _, fn, ast = source._dynamic[0]
        return fn, None, (ast if source.names == names else None)
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


class _FieldArray:
    """Array-valued field: a fixed-shape array of scalar entries (constants
    folded into a flat row-major template) or one whole-array callable.
    `values` evaluates many points at once; expression entries are compiled
    for it on first use. A repeated expression (same AST repr: 0.0 is not
    -0.0) is evaluated once and copied, _copies[i] = (to, from); compiled
    expressions check their values, so only callables need a final scan."""

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
            compiled = [_compile_entry(e, self.names) for e in grid.flat]
            self._template = [0.0 if const is None else const
                              for _, const, _ in compiled]
            first, self._dynamic, self._copies = {}, [], []
            for pos, (fn, const, ast) in enumerate(compiled):
                key = pos if ast is None else repr(ast)
                if const is None and first.setdefault(key, pos) == pos:
                    self._dynamic.append((pos, fn, ast))
                elif const is None:
                    self._copies.append((pos, first[key]))
            self._zeros = {p for p, c in enumerate(compiled) if c[1] == 0.0}
            self._ast_only = all(ast is not None for *_, ast in self._dynamic)

    @classmethod
    def from_callable(cls, fn, shape, names, region=None):
        return cls(shape, names, region,
                   array_fn=lambda point: fn(*point))

    def __call__(self, point):
        return np.array(self.floats(point)).reshape(self.shape)

    def floats(self, point):
        """The field at one point as a flat row-major list of Python floats:
        the per-point core, with the region and finiteness checks."""
        if self.region is not None:
            self.region.require(point)
        if self._array_fn is None:
            out = self._template.copy()
            for pos, fn, _ in self._dynamic:
                out[pos] = float(fn(point))
            for pos, src in self._copies:
                out[pos] = out[src]
            if self._ast_only:
                return out
        else:
            array = np.asarray(self._array_fn(point), dtype=float)
            if array.shape != self.shape:
                raise ValueError(f"callable returned shape {array.shape}, "
                                 f"expected {self.shape}")
            out = array.ravel().tolist()
        if not all(map(math.isfinite, out)):
            raise NonFinite(f"non-finite array value at {tuple(point)}")
        return out

    def on_grid(self, xs):
        """at(k, rest) == self.floats((*xs[k].tolist(), *rest)) bitwise, for
        a (K, n) grid over the first n names and a float list rest: at()
        walks only the spines of the entries (exprlang.stage), on one row
        of their base-only parts, evaluated for all K rows at once. A
        callable, a failing batch or a non-finite rest takes floats."""
        def plain(k, rest):
            return self.floats((*xs[k].tolist(), *rest))

        if self._array_fn is not None or not self._ast_only:
            return plain
        n, parts = xs.shape[1], []
        spines = [(pos, stage(ast, self.names[:n], parts)[0])
                  for pos, _, ast in self._dynamic]
        try:
            table = np.column_stack([xs] + [
                compile_batch(part, self.names[:n])(*xs.T) for part in parts])
        except NonFinite:
            return plain
        names = (self.names[:n] + tuple(f"@{i}" for i in range(len(parts)))
                 + self.names[n:])
        spines = [(pos, compile_fn(spine, names, checked=False))
                  for pos, spine in spines]

        def at(k, rest):
            if not all(map(math.isfinite, rest)):
                return plain(k, rest)
            row = table[k].tolist()
            if self.region is not None:
                self.region.require((*row[:n], *rest))
            out, env = self._template.copy(), row + rest
            for pos, fn in spines:
                out[pos] = fn(env)
            for pos, src in self._copies:
                out[pos] = out[src]
            return out
        return at

    def values(self, points):
        """The field at every row of a (K, dim) point array, shape
        (K,) + shape, equal to stacking self(tuple(p)) over the rows. A
        callable field, a non-expression entry, a point outside the region
        or a non-finite node falls back to that per-point loop, so errors
        and their messages are the per-point ones."""
        points = np.asarray(points, dtype=float)
        out = self._batch_values(points)
        if out is None:
            out = np.array([self.floats(tuple(p.tolist())) for p in points])
        return out.reshape((len(points),) + self.shape)

    def _batch_values(self, points):
        if (self._array_fn is not None or not self._ast_only
                or points.shape[1] != len(self.names)):
            return None
        if self.region is not None:
            lo, hi = np.array(self.region.bounds).T
            if len(lo) != points.shape[1] or not (
                    (lo < points) & (points < hi)).all():
                return None
        if self._batch is None:
            self._batch = [(pos, compile_batch(ast, self.names))
                           for pos, _, ast in self._dynamic]
        out = np.tile(self._template, (len(points), 1))
        cols = points.T
        try:
            for pos, fn in self._batch:
                out[:, pos] = fn(*cols)
        except NonFinite:
            return None
        for pos, src in self._copies:
            out[:, pos] = out[:, src]
        return out


class ScalarField(_FieldArray):
    """Real-valued field of named coordinates (x1..xn for base fields,
    x1..xn,u1..ur for bundle fields, t for paths): the shape-() array field
    of one entry, evaluated to a float."""

    def __init__(self, source, names, region=None):
        super().__init__((), names, region, entries=source)

    @classmethod
    def from_expr(cls, source, names, region=None):
        return cls(source, names, region)

    @classmethod
    def from_callable(cls, fn, names, region=None):
        return cls(fn, names, region)

    def __call__(self, point):
        return self.floats(point)[0]


def as_scalar_field(source, names, region=None):
    if isinstance(source, ScalarField):
        return source
    return ScalarField.from_expr(source, names, region)


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
        return nonsingular(self.matrix(point), SingularFrame,
                           f"frame singular at {tuple(point)}")


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
    array field along one axis, NonFinite unless finite. Default step
    h = rel * max(1, |x_axis|): FD_STEP_FIRST for first derivatives,
    FD_STEP_NESTED for the outer derivative of a nested stencil."""
    if h is None:
        h = rel * max(1.0, abs(float(x[axis])))
    xp = [float(c) for c in x]
    xm = list(xp)
    xp[axis] += h
    xm[axis] -= h
    quotient = (f(xp) - f(xm)) / (2.0 * h)
    if not np.isfinite(quotient).all():
        raise NonFinite(f"non-finite difference quotient along axis {axis} "
                        f"at {tuple(float(c) for c in x)}")
    return quotient


def fd_partials(f, x, h=None, axes=None, rel=FD_STEP_FIRST):
    """fd_partial stacked along `axes` (every axis of x by default):
    out[i] = d f / d x^axes[i]."""
    if axes is None:
        axes = range(len(x))
    return np.stack([fd_partial(f, x, axis, h, rel) for axis in axes])


def frame_partials(E, f, x, h=None, rel=FD_STEP_FIRST):
    """Frame derivatives out[mu] = E_mu(f) = E[nu, mu] d_nu f of a scalar or
    array field at x, from fd_partials and the frame matrix E at x; with E
    None (the coordinate frame E_mu = d_mu) the coordinate partials."""
    if E is None:
        return fd_partials(f, x, h, rel=rel)
    return np.einsum("nm,n...->m...", E, fd_partials(f, x, h, rel=rel))


def anholonomy(frame, x, h=None):
    """Anholonomy components C[lam, mu, nu] of a frame at a point, from
    finite-difference commutators solved against the frame matrix. Exactly
    antisymmetric in (mu, nu) by construction."""
    return _anholonomy(frame, frame(x), x, h)


def _anholonomy(frame, E, x, h=None):
    """anholonomy() from the frame matrix E already evaluated at x."""
    m = frame.dim
    # term[rho, mu, nu] = E_mu(E^rho_nu), so the bracket is
    # [E_mu, E_nu]^rho = term[rho, mu, nu] - term[rho, nu, mu]
    term = frame_partials(E, frame, x, h).transpose(1, 0, 2)
    bracket = term - term.transpose(0, 2, 1)
    C = np.linalg.solve(E, bracket.reshape(m, m * m)).reshape(m, m, m)
    return (C - C.transpose(0, 2, 1)) / 2.0


def lie_gamma(frame, X, x, h=None):
    """Lie coefficients of the field X = X^mu E_mu in the frame:
    L[nu, mu] = -E_mu(X^nu) - C[nu, mu, lam] X^lam."""
    return _lie_gamma(frame, frame(x), X, x, h)


def _lie_gamma(frame, E, X, x, h=None):
    """lie_gamma() from the frame matrix E already evaluated at x."""
    X = as_section(X, frame.names, frame.region)
    EX = frame_partials(E, X, x, h)                 # EX[mu, nu] = E_mu(X^nu)
    Xv = X(x)
    C = _anholonomy(frame, E, x, h)
    return -EX.T - np.einsum("nml,l->nm", C, Xv)


def lie_derivative(frame, X, S, x, h=None):
    """Components of the Lie derivative of a type-(r, s) tensor along
    X = X^mu E_mu: the directional derivative X(S) plus one +L contraction
    per upper slot and one -L contraction per lower slot."""
    X = as_section(X, frame.names, frame.region)
    E = frame(x)
    coord_vec = E @ X(x)
    dS = fd_partials(S, x, h, axes=range(frame.dim))
    out = np.tensordot(coord_vec, dS, axes=([0], [0]))
    L = _lie_gamma(frame, E, X, x, h)
    Sval = S(x)
    for i in range(S.r):
        term = np.tensordot(L, Sval, axes=([1], [i]))
        out = out + np.moveaxis(term, 0, i)
    for j in range(S.r, S.r + S.s):
        term = np.tensordot(L, Sval, axes=([0], [j]))
        out = out - np.moveaxis(term, 0, j)
    return out


def transform_anholonomy(frame, B, x, h=None):
    """Anholonomy of the changed frame Etilde_mu = B[nu, mu] E_nu, predicted
    from the original frame's anholonomy by the transformation law
    Cbar[lam, mu, nu] = inv(B)[lam, rho] (B[sig, mu] E_sig(B[rho, nu])
    - B[sig, nu] E_sig(B[rho, mu]) + B[sig, mu] B[tau, nu] C[rho, sig, tau])."""
    m = frame.dim
    Bv = nonsingular(B(x), SingularFrame,
                     f"singular change matrix at {tuple(x)}")
    E = frame(x)
    dirB = frame_partials(E, B, x, h)               # dirB[sig] = E_sig(B)
    C = _anholonomy(frame, E, x, h)
    term = np.einsum("sm,srn->rmn", Bv, dirB)
    inner = (term - term.transpose(0, 2, 1)
             + np.einsum("sm,tn,rst->rmn", Bv, Bv, C))
    return np.linalg.solve(Bv, inner.reshape(m, m * m)).reshape(m, m, m)


def transform_lie_gamma(frame, B, X, x, h=None):
    """Lie coefficients in the changed frame, predicted by the law
    Ltilde_X = inv(B) (L_X B + X(B)) with X(B) = X^mu E_mu(B)."""
    X = as_section(X, frame.names, frame.region)
    Bv = nonsingular(B(x), SingularFrame,
                     f"singular change matrix at {tuple(x)}")
    Xv, E = X(x), frame(x)
    XB = np.tensordot(Xv, frame_partials(E, B, x, h), axes=([0], [0]))
    L = _lie_gamma(frame, E, X, x, h)
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

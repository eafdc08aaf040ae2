"""Coordinate regions, expression-backed fields, finite-difference
derivatives, and the Lie-calculus toolkit: anholonomy objects, Lie
derivatives, and their frame-change laws.

Conventions (see docs/conventions.md): points are dense coordinate tuples;
frame matrices hold frame vectors in their columns, E_mu = E[nu, mu] d_nu;
the anholonomy array is C[lam, mu, nu] with [E_mu, E_nu] = C[lam, mu, nu]
E_lam; the Lie-coefficient matrix is L[nu, mu], row = upper index.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

import numpy as np

from .errors import (ConfigError, DomainExit, EngineError, NonFinite,
                     SingularFrame)
from .exprlang import (BATCH_GLOBALS, KERNEL_GLOBALS, Code, Const, ExprAst,
                       parse, program, run, ssa_lines)

SINGULAR_DET = 1e-12
FD_STEP_FIRST = 1e-5
FD_STEP_NESTED = 1e-4
_DEFINED = itertools.count()    # numbers the file names of compiled code
_ROWS = 4096    # rows per batch call: a batch holds its live temporary columns
# fewer rows run point by point: compiling a batch costs as much as ~80 rows
_BATCH_MIN = 80


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


def _define(name, lines, namespace):
    """The function `name` the source lines define, run in namespace under
    a file name of its own, <name N>, so profiles and tracebacks tell
    compiled functions apart; popped out, so it holds no cycle through its
    globals. The one place that compiles generated code."""
    exec(compile("\n".join(lines), f"<{name} {next(_DEFINED)}>", "exec"),
         namespace)
    return namespace.pop(name)


def _entry(source, names):
    """An entry (number, text, AST, ScalarField, callable) as an AST or a
    callable of the point, for exprlang.program. A ScalarField lends its
    own: a non-constant AST only over the same names (read by position)."""
    if isinstance(source, ScalarField):
        entry = _entry(source._source, source.names)
        if (source.names != names and isinstance(entry, ExprAst)
                and not isinstance(entry, Const)):
            return lambda *point: run(source._program, point)[0]
        return entry
    if isinstance(source, (int, float)):
        return Const(source)
    if isinstance(source, str):
        return parse(source)
    if isinstance(source, ExprAst) or callable(source):
        return source
    raise ValueError(f"cannot build a field from {type(source).__name__}")


class _FieldArray:
    """Array-valued field: a fixed-shape array of scalar entries, one
    exprlang.Program over the flat row-major entries, or one whole-array
    callable. A repeated expression (0.0 is not -0.0) is one slot of the
    program, evaluated once; `values` runs the program printed as a batch.
    The program checks its values, so only callables need a final scan."""

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
            self._program = program(
                (_entry(e, self.names) for e in grid.flat), self.names)
            self._zeros = {pos for pos, s in enumerate(self._program.outputs)
                           if self._program.init[s] == 0.0}

    @classmethod
    def from_callable(cls, fn, shape, names, region=None):
        # a class with a constructor of its own has no whole-array form
        if cls.__init__ is not _FieldArray.__init__:
            raise TypeError(f"{cls.__name__} takes callables as entries; "
                            f"use MatrixField.from_callable")
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
            out = run(self._program, point)
            if not self._program.callables:
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

    def kernel(self, contract, fallback, table=None):
        """Compile kernel(b, h, y), one classical RK4 step of
        y' = contract(G, v), a list as long as y: G the flat entries of
        self.floats(point), v the velocity of the point's first n
        coordinates. Without a table, y = (*point, *v) and n counts every
        name; with a (K, 2n) table, (*x, *v) = table[node].tolist() and
        point = (*x, *y). The stages run inline at the nodes b, b + 1,
        b + 1, b + 2 in transport._rk4's order, each testing the region
        bounds as Region.contains does and running the printed program
        (exprlang.ssa_lines) and contract, run once on its exprlang.Code.
        A libm error, a zero divisor, a point outside, or a non-finite
        value, tested operand or v in any stage sends the whole step to
        fallback(b, h, y), the checked step, so every value and error is
        fallback's. Worth its ~0.6 ms only to a solver of thousands of
        steps. A callable field gets fallback itself."""
        if self._array_fn is not None or self._program.callables or (
                self.region is not None
                and self.region.dim != len(self.names)):
            return fallback
        n, head = ((len(self.names), 0) if table is None
                   else (table.shape[1] // 2, table.shape[1]))
        v = [f"v{i}" for i in range(len(self.names) + n)]
        vel, coords, state = v[n:2 * n], v[:n] + v[2 * n:], v[head:]
        lines, values, tested = ssa_lines(self._program, coords)
        out = contract(list(map(Code, values)), list(map(Code, vel)))
        checks = [t for t in dict.fromkeys(values + tested + vel)
                  if t[0] != "("]
        test = " and ".join([f"{lo!r} < {x} < {hi!r}" for x, (lo, hi) in zip(
            coords, self.region.bounds if self.region else ())]
            + [f"isfinite({' + '.join(checks) or '0.0'})"])
        c, p, q, r, s = ([f"{x}{i}" for i in range(len(state))]
                         for x in "cpqrs")
        body = [f"[{', '.join(c)}] = [{', '.join(state)}] = y",
                "half, sixth = 0.5 * h, h / 6.0"]
        for node, w, k, ks in [("b", "", [], p), ("b + 1", "half", p, q),
                               ("", "half", q, r), ("b + 2", "h", r, s)]:
            if head and node:       # stage 3 reads the row of stage 2
                body.append(f"[{', '.join(v[:head])}] = "
                            f"table[{node}].tolist()")
            body += [*(f"{x} = {ci} + {w} * {ki}"
                       for x, ci, ki in zip(state, c, k)), *lines,
                     f"if not ({test}):", "    raise ValueError",
                     *map("{} = {}".format, ks, out)]
        return _define("kernel", [
            "def kernel(b, h, y):",
            "    try:",
            *(f"        {line}" for line in body),
            "        return [" + ", ".join(
                f"{ci} + sixth * ((({pi} + 2.0 * {qi}) + 2.0 * {ri}) + {si})"
                for ci, pi, qi, ri, si in zip(c, p, q, r, s)) + "]",
            "    except (ValueError, OverflowError, ZeroDivisionError):",
            "        pass",
            "    return fallback(b, h, y)"],
            dict(KERNEL_GLOBALS, fallback=fallback, table=table))

    def values(self, points):
        """The field at every row of a (K, dim) point array, shape
        (K,) + shape, equal to stacking self(tuple(p)) over the rows. The
        program runs as one compiled batch, the kernel's statements
        (exprlang.ssa_lines) on float columns of _ROWS rows; a whole-array
        callable is called once per row, in order, and its (K,) + shape
        array built and tested once. An exception, a wrong shape, a callable
        entry, a point outside the region, a libm error or a non-finite
        value or tested operand falls back to that per-point loop, from the
        first row, so errors and their messages are the per-point ones.
        Below _BATCH_MIN rows a program runs the loop at once, with no
        compile."""
        points = np.asarray(points, dtype=float)
        if self._array_fn is not None:
            out = self._callable_values(points)
        elif len(points) >= _BATCH_MIN:
            out = self._batch_values(points)
        else:
            out = None
        if out is None:
            out = np.array([self.floats(tuple(p.tolist())) for p in points])
        return out.reshape((len(points),) + self.shape)

    def _inside(self, points):
        """Whether every row lies in the region, as Region.contains tests."""
        return self.region is None or (
            points.shape[1] == self.region.dim
            and bool(((self.region.lo < points)
                      & (points < self.region.hi)).all()))

    def _callable_values(self, points):
        try:
            if not self._inside(points):
                return None
            rows = map(tuple, points.tolist())
            out = np.array([self._array_fn(p) for p in rows], dtype=float)
        except Exception:   # noqa: BLE001 - the loop raises it in its order
            return None
        if out.shape == (len(points),) + self.shape and np.isfinite(out).all():
            return out
        return None

    def _batch_values(self, points):
        if (self._program.callables or points.shape[1] != len(self.names)
                or not self._inside(points)):
            return None
        if self._batch is None:
            v = [f"v{i}" for i in range(len(self.names))]
            lines, values, tested = ssa_lines(self._program, v)
            self._batch = _define("batch", [
                f"def batch({', '.join(v)}):",
                *(f"    {line}" for line in _freeing(lines, values + tested)),
                f"    return [{', '.join(values + tested)}]"],
                dict(BATCH_GLOBALS))
        out = np.empty((len(points), len(self._program.outputs)))
        with np.errstate(all="ignore"):
            for start in range(0, len(points), _ROWS):
                try:
                    checks = self._batch(*points[start:start + _ROWS].T)
                except (ValueError, OverflowError, ZeroDivisionError):
                    return None
                # column by column: a sum of finite columns may overflow
                if not all(np.isfinite(c).all() for c in checks):
                    return None
                for pos, value in enumerate(checks[:out.shape[1]]):
                    out[start:start + _ROWS, pos] = value
        return out


def _freeing(lines, kept):
    """The statements t{j} = ... of ssa_lines, each followed by a `del` of
    the temporaries it reads last, except those in kept: a batch then holds
    only the columns it still reads."""
    last, kept = {}, set(kept)
    for i, line in enumerate(lines):
        for name in re.findall(r"\bt\d+\b", line.partition(" = ")[2]):
            last[name] = i
    dead = [[] for _ in lines]
    for name, i in last.items():
        if name not in kept:
            dead[i].append(name)
    for line, names in zip(lines, dead):
        yield line
        if names:
            yield f"del {', '.join(names)}"


class ScalarField(_FieldArray):
    """Real-valued field of named coordinates (x1..xn for base fields,
    x1..xn,u1..ur for bundle fields, t for paths): the shape-() array field
    of one entry, evaluated to a float."""

    def __init__(self, source, names, region=None):
        super().__init__((), names, region, entries=source)
        self._source = np.array(source, dtype=object).item()

    def __call__(self, point):
        return self.floats(point)[0]


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
    array field along one axis, NonFinite unless finite, ConfigError if
    x + h or x - h rounds to x. Default step h = rel * max(1, |x_axis|)
    (never rounds away): FD_STEP_FIRST for first derivatives,
    FD_STEP_NESTED for the outer derivative of a nested stencil."""
    if h is None:
        h = rel * max(1.0, abs(float(x[axis])))
    xp = [float(c) for c in x]
    xm = list(xp)
    xp[axis] += h
    xm[axis] -= h
    quotient = (f(xp) - f(xm)) / (2.0 * h)
    point = tuple(float(c) for c in x)
    if not np.isfinite(quotient).all():
        raise NonFinite(f"non-finite difference quotient along axis {axis} "
                        f"at {point}")
    if point[axis] in (xp[axis], xm[axis]):
        raise ConfigError(f"finite-difference step {h!r} vanishes along "
                          f"axis {axis} at {point}: x + h or x - h rounds "
                          "to x")
    return quotient


def fd_partials(f, x, h=None, axes=None, rel=FD_STEP_FIRST):
    """fd_partial stacked along `axes` (every axis of x by default):
    out[i] = d f / d x^axes[i]."""
    if axes is None:
        axes = range(len(x))
    return np.stack([fd_partial(f, x, axis, h, rel) for axis in axes])


def fd_partials_at(f, points, h=None, rel=FD_STEP_FIRST):
    """fd_partials of an array field at every row of a (K, n) point array,
    and the field there: (D[k, i] = d f / d x^i, f at points[k]). One
    f.values call takes every stencil row, each point's in fd_partial's
    order (+h e_0, -h e_0, ..., then the point) with its own steps, so the
    numbers are fd_partials' bit for bit. On an EngineError, a non-finite
    quotient or a step that rounds away the per-point loop runs instead,
    so the first error and its message are the per-point ones."""
    K, n = points.shape
    steps = (rel * np.maximum(1.0, np.abs(points)) if h is None
             else np.full(points.shape, float(h)))
    rows = np.repeat(points[:, None], 2 * n + 1, axis=1)
    axes = np.arange(n)
    rows[:, 2 * axes, axes] += steps
    rows[:, 2 * axes + 1, axes] -= steps
    vanished = ((points + steps == points) | (points - steps == points)).any()
    try:
        vals = f.values(rows.reshape(-1, n)).reshape(
            (K, 2 * n + 1) + f.shape)
        with np.errstate(all="ignore"):
            D = (vals[:, :-1:2] - vals[:, 1::2]) / (2.0 * steps).reshape(
                (K, n) + (1,) * len(f.shape))
        if np.isfinite(D).all() and not vanished:
            return D, vals[:, -1]
    except EngineError:     # the loop below raises the first in its order
        pass
    D, vals = zip(*[(fd_partials(f, x, h, rel=rel), f(x))
                    for x in points.tolist()])
    return np.stack(D), np.stack(vals)


def frame_partials(E, f, x, h=None):
    """Frame derivatives out[mu] = E_mu(f) = E[nu, mu] d_nu f of a scalar or
    array field at x, from fd_partials and the frame matrix E at x; with E
    None (the coordinate frame E_mu = d_mu) the coordinate partials."""
    if E is None:
        return fd_partials(f, x, h)
    return np.einsum("nm,n...->m...", E, fd_partials(f, x, h))


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

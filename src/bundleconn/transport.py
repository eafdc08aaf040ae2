"""Fixed-step RK4 integration of the transport equations: general parallel
transport, linear and affine transport, fundamental solutions, geodesics,
and the limit-definition covariant derivative.

Paths are integrated on a precomputed half-step grid: positions and
velocities are evaluated once at every step boundary and midpoint, so the
right-hand sides of the linear equations become cheap matrix evaluations.
RK4 runs on the state as a flat list of floats; the right-hand sides that
depend on it (general transport, geodesics) contract float field entries
through one index plan per driver call (_contract), in np.einsum order and
without the entries that are the constant 0.0, which their batched forms
repeat on numpy columns. The two-index entries are staged on the grid
(_FieldArray.on_grid): their base-only subtrees are evaluated at every
node first, so a step evaluates only the fibre-dependent spine.
The step diagnostic recorded in TransportResult.max_residual is the
midpoint defect |y_{i+1} - y_i - h f(t_mid, (y_i + y_{i+1})/2)|, which is
O(h^3) per step for smooth data; it is evaluated after the RK4 loop, for
every step in one batched right-hand-side call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, StepCountTooSmall
from .fields import _FieldArray, as_section, base_names

MIN_STEPS = 8


class PathSpec:
    """A base-space path: either expression components x^mu(t) on an
    interval [t0, t1], evaluated as one vector field over ("t",), or a
    piecewise-linear path through the given points (integrated with exact
    segment velocities, steps allocated per segment proportionally to
    length, minimum 2, never straddling a vertex). `steps` is the total
    RK4 step count."""

    def __init__(self, exprs=None, interval=None, points=None, steps=100):
        self.steps = int(steps)
        if (exprs is None) == (points is None):
            raise ValueError("provide exactly one of exprs or points")
        if exprs is not None:
            if interval is None:
                raise ValueError("expression paths need an interval")
            t0, t1 = float(interval[0]), float(interval[1])
            if not t0 < t1:
                raise ValueError(f"empty parameter interval [{t0}, {t1}]")
            self.kind = "expr"
            self.exprs = as_section(exprs, ("t",))
            self.interval = (t0, t1)
            self.dim = self.exprs.shape[0]
        else:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2 or pts.shape[0] < 2:
                raise ValueError("a polyline needs at least 2 points")
            self.kind = "polyline"
            self.points = pts
            self.dim = pts.shape[1]

    @classmethod
    def from_exprs(cls, exprs, t0, t1, steps=100):
        return cls(exprs=exprs, interval=(t0, t1), steps=steps)

    @classmethod
    def from_points(cls, points, steps=100):
        return cls(points=points, steps=steps)

    def reverse(self):
        """The same image traversed backwards (reversed parametrization)."""
        if self.kind == "expr":
            t0, t1 = self.interval
            flipped = _FieldArray.from_callable(
                lambda t: self.exprs((t0 + t1 - t,)), (self.dim,), ("t",))
            return PathSpec(exprs=flipped, interval=self.interval,
                            steps=self.steps)
        return PathSpec(points=self.points[::-1].copy(), steps=self.steps)


@dataclass
class TransportResult:
    """Final transported values, per-step samples, step-boundary parameter
    values, and the worst midpoint-defect diagnostic."""

    final: np.ndarray
    samples: np.ndarray | None = None
    ts: np.ndarray | None = None
    max_residual: float = 0.0


class _Grid:
    """Sampled path data: `pos`/`vel` at every node of the half-step grid,
    `bases[i]` the node index where step i starts (its nodes are bases[i],
    bases[i]+1, bases[i]+2), `hs[i]` the step widths, `ts` the step-boundary
    parameter values."""

    def __init__(self, pos, vel, bases, hs, ts):
        self.pos = pos
        self.vel = vel
        self.bases = bases
        self.hs = hs
        self.ts = ts

    @property
    def nsteps(self):
        return len(self.hs)


def _expr_grid(path):
    t0, t1 = path.interval
    N = path.steps
    span = t1 - t0
    hv = span / (64.0 * N)
    tgrid = t0 + span * np.arange(2 * N + 1) / (2.0 * N)
    pos = path.exprs.values(tgrid[:, None])
    # t + hv and t - hv interleaved node by node, so a failing batch
    # re-runs in the order the stencil visits the points
    shifted = path.exprs.values(
        np.stack([tgrid + hv, tgrid - hv], axis=1).reshape(-1, 1))
    vel = (shifted[0::2] - shifted[1::2]) / (2.0 * hv)
    bases = 2 * np.arange(N)
    hs = np.full(N, span / N)
    ts = t0 + span * np.arange(N + 1) / N
    return _Grid(pos, vel, bases, hs, ts)


def _polyline_grid(path):
    pts = path.points
    diffs = pts[1:] - pts[:-1]
    lengths = np.sqrt((diffs ** 2).sum(axis=1))
    total = float(lengths.sum())
    if total == 0.0:
        return _Grid(np.empty((0, path.dim)), np.empty((0, path.dim)),
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
    return _Grid(np.concatenate(pos_parts), np.concatenate(vel_parts),
                 np.asarray(bases, dtype=int), hs, ts)


def _grid(path):
    if path.steps < MIN_STEPS:
        raise StepCountTooSmall(
            f"N = {path.steps} < {MIN_STEPS} RK4 steps")
    return _expr_grid(path) if path.kind == "expr" else _polyline_grid(path)


def _check_finite(samples):
    if not np.isfinite(samples).all():
        raise NonFinite("transport produced non-finite values")


def _rk4(rhs, rhs_many, y0, grid):
    """Classical RK4 over the grid; rhs(node_index, y) evaluates the
    right-hand side at a half-step grid node on a flat float list,
    rhs_many(node_indices, ys) at many nodes on arrays, row for row. The
    stages run elementwise on float lists; every step's midpoint defect comes
    after the loop, from one rhs_many call. Returns the TransportResult."""
    y0 = np.array(y0, dtype=float)
    samples = np.empty((grid.nsteps + 1,) + y0.shape)
    rows = samples.reshape(grid.nsteps + 1, -1)
    y = rows[0] = y0.ravel().tolist()
    for i, (b, h) in enumerate(zip(grid.bases, map(float, grid.hs)), 1):
        k1 = rhs(b, y)
        k2 = rhs(b + 1, [c + 0.5 * h * k for c, k in zip(y, k1)])
        k3 = rhs(b + 1, [c + 0.5 * h * k for c, k in zip(y, k2)])
        k4 = rhs(b + 2, [c + h * k for c, k in zip(y, k3)])
        y = rows[i] = [c + h / 6.0 * (((p + 2.0 * q) + 2.0 * r) + s)
                       for c, p, q, r, s in zip(y, k1, k2, k3, k4)]
    start, end = samples[:-1], samples[1:]
    hs = grid.hs.reshape((-1,) + (1,) * y0.ndim)
    defect = end - start - hs * rhs_many(grid.bases + 1, 0.5 * (start + end))
    _check_finite(samples)
    return TransportResult(samples[-1].copy(), samples, grid.ts,
                           float(np.abs(defect).max(initial=0.0)))


def _index_plan(field, rows):
    """The rows of _contract without the pairs whose entry of field is the
    constant 0.0 (every pair for field None or a whole-array callable). Same
    bits while v is finite: a sum from +0.0 is never -0.0, so adding +-0.0
    leaves it as it is."""
    zeros = () if field is None or field._array_fn else field._zeros
    return [[(k, [(p, l) for p, l in pairs if p not in zeros])
             for k, pairs in row] for row in rows]


def _contract(plan, G, v, zero=0.0):
    """out[i] sums from 0 the inner sums (k, pairs) of plan[i], each the sum
    from zero of G[p] * v[l] (times v[k] unless k is None) over its pairs,
    on floats or on numpy columns (zero a zero column) with the same bits."""
    out = []
    for row in plan:
        acc = 0
        for k, pairs in row:
            total = zero
            if k is None:
                for p, l in pairs:
                    total = total + G[p] * v[l]
            else:
                vk = v[k]
                for p, l in pairs:
                    total = total + G[p] * v[l] * vk
            acc = acc + total
        out.append(acc)
    return out


def transport_general(g2, path, p0):
    """Parallel transport for a general connection:
    du^a/dt = +G[a, mu](x(t), u) dx^mu/dt."""
    grid = _grid(path)
    n, at = g2.n, g2.on_grid(grid.pos)
    plan = _index_plan(g2 if np.isfinite(grid.vel).all() else None,
                       [[(None, [(a * n + mu, mu) for mu in range(n)])]
                        for a in range(g2.r)])

    def rhs(k, u):
        return _contract(plan, at(k, u), grid.vel[k].tolist())

    def rhs_many(ks, us):
        G = g2.values(np.concatenate([grid.pos[ks], us], axis=1))
        return np.stack(_contract(plan, G.reshape(len(ks), g2.r * n).T,
                                  grid.vel[ks].T, np.zeros(len(ks))), axis=1)

    return _rk4(rhs, rhs_many, p0, grid)


def _linear_rhs_matrices(g3, grid):
    """A[k] = -G3[mu, a, b](x_k) v_k^mu at every grid node."""
    return -np.einsum("kmab,km->kab", g3.values(grid.pos), grid.vel)


def _transport_linear_system(g3, grid, y0, gvecs=None):
    A = _linear_rhs_matrices(g3, grid)
    if gvecs is None:
        gvecs = np.zeros((len(grid.pos), g3.r))
    shape = np.shape(y0)

    def rhs(k, y):
        return (A[k] @ np.array(y).reshape(shape) + gvecs[k]).ravel().tolist()

    def rhs_many(ks, ys):
        if ys.ndim == 2:            # vector states, as r x 1 columns
            return (A[ks] @ ys[:, :, None])[:, :, 0] + gvecs[ks]
        return A[ks] @ ys + gvecs[ks][:, None, :]

    return _rk4(rhs, rhs_many, y0, grid)


def transport_linear(g3, path, X0):
    """Linear parallel transport: dY^a/dt = -G3[mu, a, b] Y^b dx^mu/dt."""
    return _transport_linear_system(g3, _grid(path), X0)


def fundamental_solution(g3, path):
    """The r x r fundamental solution W of the linear transport equation
    with W = identity at the path start; transport_linear(X0) = W @ X0."""
    return transport_linear(g3, path, np.eye(g3.r)).final


def transport_affine(aff, path, p0):
    """Affine transport: dY^a/dt = -G3[mu, a, b] Y^b dx^mu/dt
    + Ginh[a, mu] dx^mu/dt. With a zero inhomogeneous part this follows
    the exact step sequence of transport_linear."""
    grid = _grid(path)
    gvecs = (aff.inhom.values(grid.pos) @ grid.vel[:, :, None])[:, :, 0]
    return _transport_linear_system(aff.linear, grid, p0, gvecs)


def _geodesic_rows(n):
    """The dense plan of -G3[nu, m, lam] v^lam v^nu, in einsum("nml,l,n->m")
    order: row m sums over nu the sums over lam of (G v[lam]) v[nu]."""
    return [[(nu, [((nu * n + m) * n + lam, lam) for lam in range(n)])
             for nu in range(n)] for m in range(n)]


def _geodesic_acceleration(plan, G, v, zero=0.0):
    """-G3[nu, m, lam] v^lam v^nu over a plan of _geodesic_rows(n)."""
    return [-a for a in _contract(plan, G, v, zero)]


def geodesic(g3, x0, v0, T, steps):
    """Geodesic trajectory of a linear connection on the tangent bundle
    (r = n): RK4 on the first-order system (x' = v,
    v'^m = -G3[nu, m, lam] v^lam v^nu). Samples hold (x, v) rows. A
    non-finite velocity takes the dense plan, as 0 * inf is NaN."""
    if int(steps) < MIN_STEPS:
        raise StepCountTooSmall(f"N = {steps} < {MIN_STEPS} RK4 steps")
    steps = int(steps)
    n = g3.n
    if g3.r != n:
        raise ValueError("geodesics need tangent-bundle coefficients (r = n)")
    # constant steps; the right-hand side depends on the state alone
    grid = _Grid(None, None, 2 * np.arange(steps),
                 np.full(steps, float(T) / steps),
                 float(T) * np.arange(steps + 1) / steps)
    dense = _geodesic_rows(n)
    sparse = _index_plan(g3, dense)

    def rhs(_, s):
        v = s[n:]
        plan = sparse if all(map(math.isfinite, v)) else dense
        return v + _geodesic_acceleration(plan, g3.floats(s[:n]), v)

    def rhs_many(_, ss):
        G = g3.values(ss[:, :n]).reshape(len(ss), -1).T
        vs = list(ss[:, n:].T)
        plan = sparse if np.isfinite(ss[:, n:]).all() else dense
        acc = _geodesic_acceleration(plan, G, vs, np.zeros(len(ss)))
        return np.stack(vs + acc, axis=1)

    return _rk4(rhs, rhs_many, [*x0, *v0], grid)


def covariant_derivative_limit(g3, F, Y, x, eps=None):
    """Covariant derivative as the parallel-transport limit: pull the
    section values at x + eps*F and x - eps*F back to x with inverse
    fundamental solutions and take the symmetric difference quotient."""
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    if eps is None:
        scale = max(1.0, float(np.max(np.abs(x))))
        fscale = max(1.0, float(np.max(np.abs(F))))
        eps = 1e-4 * scale / fscale
    Y = as_section(Y, base_names(g3.n), g3.region)

    def pulled(sign):
        target = x + sign * eps * F
        path = PathSpec(points=[x, target], steps=MIN_STEPS)
        W = fundamental_solution(g3, path)
        return np.linalg.solve(W, Y(tuple(target)))

    return (pulled(+1.0) - pulled(-1.0)) / (2.0 * eps)

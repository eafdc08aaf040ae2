"""Fixed-step RK4 integration of the transport equations: general parallel
transport, linear and affine transport, fundamental solutions, geodesics,
and the limit-definition covariant derivative.

Paths are integrated on a half-step grid: positions and velocities are
computed once at every step boundary and midpoint. RK4 walks the steps in
blocks of at most _BLOCK steps, and the linear right-hand sides evaluate
their coefficients on one block's nodes at a time, so a transport holds its
samples, the path grid and one block. RK4 runs on the state as a flat list
of floats, one step per call of a step function (_checked_step over a
right-hand side). A linear stage is A.dot(state) + g on the node's
coefficient matrix A: for a matrix times a vector or a matrix, the BLAS
product of A @ state without its dispatch, taking a vector state's float
list as it is. The right-hand sides that depend on the state (general
transport, geodesics) come from one helper, _state_rk4: an index plan
contracted (_contract, np.einsum order) by the checked step and the
batched defect over every entry, and by one compiled RK4 step per driver
call (_FieldArray.kernel) without the entries that are the constant 0.0;
a failed compiled step is taken again checked. The step diagnostic
recorded in TransportResult.max_residual is the midpoint defect
|y_{i+1} - y_i - h f(t_mid, (y_i + y_{i+1})/2)|, which is O(h^3) per step
for smooth data; it is evaluated with one batched right-hand-side call per
block: right after the block's steps, or, where it evaluates a field at new
points, after the last step, so that a step's error comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFinite, StepCountTooSmall
from .fields import _FieldArray, as_section, base_names

MIN_STEPS = 8
# steps per block: n = r = 6 over 10^4 steps peaks at 7.3 MiB (11 MiB at
# 1024); blocks of 64-256 steps cost 3-6% more per step, larger ones no less
_BLOCK = 512


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
    if not np.isfinite(span):
        raise NonFinite("non-finite path parameter span")
    hv = span / (64.0 * N)
    tgrid = t0 + span * np.arange(2 * N + 1) / (2.0 * N)
    collapsed = np.flatnonzero((tgrid + hv == tgrid) | (tgrid - hv == tgrid))
    if collapsed.size:
        raise ConfigError(f"path velocity step {hv!r} vanishes at t = "
                          f"{float(tgrid[collapsed[0]])!r}: t + h or t - h "
                          "rounds to t")
    pos = path.exprs.values(tgrid[:, None])
    vel = np.empty_like(pos)
    # in runs of nodes, t + hv and t - hv interleaved node by node, so a
    # failing run re-runs in the order the stencil visits the points
    for lo, hi in _blocks(len(tgrid), 2 * _BLOCK):
        t = tgrid[lo:hi]
        shifted = path.exprs.values(
            np.stack([t + hv, t - hv], axis=1).reshape(-1, 1))
        vel[lo:hi] = (shifted[0::2] - shifted[1::2]) / (2.0 * hv)
    if not np.isfinite(vel).all():
        raise NonFinite("non-finite path velocity")
    bases = 2 * np.arange(N)
    hs = np.full(N, span / N)
    ts = t0 + span * np.arange(N + 1) / N
    return _Grid(pos, vel, bases, hs, ts)


def _polyline_grid(path):
    pts = path.points
    diffs = pts[1:] - pts[:-1]
    lengths = np.sqrt((diffs ** 2).sum(axis=1))
    total = float(lengths.sum())
    if not np.isfinite(total):
        raise NonFinite("non-finite path length")
    if total == 0.0:
        return _Grid(np.empty((0, path.dim)), np.empty((0, path.dim)),
                     np.empty(0, dtype=int), np.empty(0), np.zeros(1))
    # segments of zero length are dropped; segment k gets nk[k] steps on
    # 2 nk[k] + 1 nodes of its own, numbered from first[k]
    keep = lengths != 0.0
    start, d = pts[:-1][keep], diffs[keep]
    nk = np.maximum(2, np.round(path.steps * lengths[keep] / total)
                    .astype(int))
    nodes = 2 * nk + 1
    first = np.cumsum(nodes) - nodes
    seg = np.repeat(np.arange(len(nk)), nodes)
    s = (np.arange(len(seg)) - first[seg]) / (2.0 * nk[seg])
    vel, pos = d[seg], start[seg]
    for column, dcol in zip(pos.T, vel.T):   # no (nodes, dim) temporary
        column += s * dcol
    # step i, in segment k, starts at node 2 i + k: each segment before
    # it has one more node than twice its steps
    step_seg = np.repeat(np.arange(len(nk)), nk)
    hs = 1.0 / nk[step_seg]
    ts = np.concatenate([[0.0], np.cumsum(hs)])
    return _Grid(pos, vel, 2 * np.arange(len(hs)) + step_seg, hs, ts)


def _grid(path):
    if path.steps < MIN_STEPS:
        raise StepCountTooSmall(
            f"N = {path.steps} < {MIN_STEPS} RK4 steps")
    return _expr_grid(path) if path.kind == "expr" else _polyline_grid(path)


def _checked_step(rhs):
    """The classical RK4 step(b, h, y) over rhs(node, y), on flat float
    lists at the half-step grid nodes b, b + 1, b + 1, b + 2: the step of the
    linear drivers and callable fields, and a compiled step's fallback."""
    def step(b, h, y):
        half, sixth = 0.5 * h, h / 6.0
        k1 = rhs(b, y)
        k2 = rhs(b + 1, [c + half * k for c, k in zip(y, k1)])
        k3 = rhs(b + 1, [c + half * k for c, k in zip(y, k2)])
        k4 = rhs(b + 2, [c + h * k for c, k in zip(y, k3)])
        return [c + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                for c, p, q, r, s in zip(y, k1, k2, k3, k4)]
    return step


def _blocks(count, size):
    """[lo, hi) bounds of ceil(count / size) runs of near-equal length
    that split range(count) in order."""
    parts = -(-count // size)
    cuts = [count * j // parts for j in range(1, parts + 1)]
    return list(zip([0] + cuts, cuts))


def _rk4(block, y0, grid, late=False):
    """Classical RK4 over the grid, block by block (_blocks): block(lo, hi)
    builds the data of steps lo..hi-1 and returns their step, run as
    y = step(b, h, y) on a flat float list for each start node b and width
    h (_checked_step, or a compiled _FieldArray.kernel), and many(nodes, ys),
    the right-hand side on arrays, row for row, of their midpoint defects.
    A block's defects follow its steps, or with `late` (many may raise) the
    last step. Returns the TransportResult."""
    y0 = np.array(y0, dtype=float)
    samples = np.empty((grid.nsteps + 1,) + y0.shape)
    rows = samples.reshape(grid.nsteps + 1, -1)
    y = rows[0] = y0.ravel().tolist()
    worst, waiting = 0.0, []
    for lo, hi in _blocks(grid.nsteps, _BLOCK):
        step, many = block(lo, hi)
        for i, b, h in zip(range(lo + 1, hi + 1), grid.bases[lo:hi].tolist(),
                           grid.hs[lo:hi].tolist()):
            y = rows[i] = step(b, h, y)
        waiting.append((lo, hi, many))
        if late and hi < grid.nsteps:
            continue
        for first, last, rhs_many in waiting:
            start, end = samples[first:last], samples[first + 1:last + 1]
            hs = grid.hs[first:last].reshape((-1,) + (1,) * y0.ndim)
            defect = end - start - hs * rhs_many(grid.bases[first:last] + 1,
                                                 0.5 * (start + end))
            # np.maximum, unlike max(), carries a NaN defect through
            worst = np.maximum(worst, np.abs(defect).max())
        waiting = []
    if not np.isfinite(samples).all():
        raise NonFinite("transport produced non-finite values")
    return TransportResult(samples[-1].copy(), samples, grid.ts,
                           float(worst))


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


def _state_rk4(field, plan, tail, y0, grid, table=None):
    """RK4 of y' = tail(v, _contract(plan, G, v)), G the flat entries of
    field at the point and v the velocity, laid out as _FieldArray.kernel
    lays them out: y = (*point, *v), or with a (K, 2n) table
    (*x, *v) = table[node] and point = (*x, *y). The checked step and the
    batched defect sum every pair; the compiled step skips the constant
    0.0 entries of field, the same bits while v is finite (0 * inf is NaN)."""
    n = len(field.names) if table is None else table.shape[1] // 2
    zeros = () if field._array_fn else field._zeros
    sparse = [[(k, [(p, l) for p, l in pairs if p not in zeros])
               for k, pairs in row] for row in plan]

    def rhs(k, y):
        row = y if table is None else table[k].tolist() + y
        v = row[n:2 * n]
        G = field.floats(row[:n] + row[2 * n:])
        return tail(v, _contract(plan, G, v))

    def rhs_many(ks, ys):
        rows = ys if table is None else np.concatenate([table[ks], ys], 1)
        v = list(rows[:, n:2 * n].T)
        G = field.values(np.concatenate([rows[:, :n], rows[:, 2 * n:]], 1))
        G = G.reshape(len(ys), math.prod(field.shape)).T
        return np.stack(tail(v, _contract(plan, G, v, np.zeros(len(ys)))), 1)

    step = field.kernel(lambda G, v: tail(v, _contract(sparse, G, v)),
                        _checked_step(rhs), table)
    return _rk4(lambda lo, hi: (step, rhs_many), y0, grid, late=True)


def transport_general(g2, path, p0):
    """Parallel transport for a general connection:
    du^a/dt = +G[a, mu](x(t), u) dx^mu/dt."""
    grid = _grid(path)
    plan = [[(None, [(a * g2.n + mu, mu) for mu in range(g2.n)])]
            for a in range(g2.r)]
    return _state_rk4(g2, plan, lambda v, out: out, p0, grid,
                      np.column_stack([grid.pos, grid.vel]))


def _linear_rhs_matrices(g3, grid, nodes):
    """A[j] = -G3[mu, a, b](x_k) v_k^mu at the grid nodes k of the slice
    nodes."""
    return -np.einsum("kmab,km->kab", g3.values(grid.pos[nodes]),
                      grid.vel[nodes])


def _transport_linear_system(g3, grid, y0, gvecs=None):
    # a matrix state is the fundamental solution, so it needs gvecs = 0
    r, shape = g3.r, np.shape(y0)
    shapes = ((r,),) if gvecs is not None else ((r,), (r, r))
    if shape not in shapes:
        raise ValueError(f"initial value of shape {shape}, expected "
                         + " or ".join(map(str, shapes)))
    if gvecs is None:       # one zero row, read at every node
        gvecs = np.broadcast_to(np.zeros(r), (len(grid.pos), r))

    def block(lo, hi):
        # steps lo..hi-1 span the nodes bases[lo] to bases[hi - 1] + 2; the
        # defect reads their matrices, so it evaluates nothing and cannot raise
        first = int(grid.bases[lo])
        A = _linear_rhs_matrices(g3, grid,
                                 slice(first, int(grid.bases[hi - 1]) + 3))

        # ndarray.dot runs the BLAS product of @ without its dispatch, and
        # takes the float list of a vector state as it is
        if len(shape) == 1:
            def rhs(k, y):
                return (A[k - first].dot(y) + gvecs[k]).tolist()
        else:
            def rhs(k, y):
                return (A[k - first].dot(np.array(y).reshape(shape))
                        + gvecs[k]).ravel().tolist()

        def rhs_many(ks, ys):
            Ak = A[ks - first]
            if ys.ndim == 2:            # vector states, as r x 1 columns
                return (Ak @ ys[:, :, None])[:, :, 0] + gvecs[ks]
            return Ak @ ys + gvecs[ks][:, None, :]

        return _checked_step(rhs), rhs_many

    return _rk4(block, y0, grid)


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
    # the inhomogeneous part on every node, block by block, before any
    # coefficient of the linear part
    gvecs = np.empty((len(grid.pos), aff.inhom.shape[0]))
    for lo, hi in _blocks(len(grid.pos), 2 * _BLOCK):
        gvecs[lo:hi] = (aff.inhom.values(grid.pos[lo:hi])
                        @ grid.vel[lo:hi, :, None])[:, :, 0]
    return _transport_linear_system(aff.linear, grid, p0, gvecs)


def _geodesic_rows(n):
    """The dense plan of -G3[nu, m, lam] v^lam v^nu, in einsum("nml,l,n->m")
    order: row m sums over nu the sums over lam of (G v[lam]) v[nu]."""
    return [[(nu, [((nu * n + m) * n + lam, lam) for lam in range(n)])
             for nu in range(n)] for m in range(n)]


def geodesic(g3, x0, v0, T, steps):
    """Geodesic trajectory of a linear connection on the tangent bundle
    (r = n): RK4 on the first-order system (x' = v,
    v'^m = -G3[nu, m, lam] v^lam v^nu). Samples hold (x, v) rows."""
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
    return _state_rk4(g3, _geodesic_rows(n),
                      lambda v, out: v + [-a for a in out], [*x0, *v0], grid)


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

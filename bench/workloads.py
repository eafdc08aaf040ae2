"""Seeded job generators for the benchmark workloads.

A workload is an endless sequence of rounds. Round r of a run with seed s
is drawn from random.Random(f"{workload}:{s}:{r}"), so the same seed gives
the same configs and rounds can be generated on demand. Job sizes follow a
fixed plan per slot of a round (step counts, grid sizes); the seed draws the
coefficients, expressions, paths and points, so no two jobs of a run share a
config and the job-time distribution does not depend on the seed.

Every job carries its paper identity as an oracle: `check(payload, memo)`
returns None when the CLI output satisfies it, else a message. `memo` is
shared by the jobs of one round, for identities that compare two jobs.
Tolerances are the ladder of docs/conventions.md (1e-8 algebraic, 1e-6 one
finite difference, 1e-5 nested finite differences) or the bound of the
acceptance suite that checks the same identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

TOL_ALGEBRAIC = 1e-8
TOL_FD = 1e-6
TOL_NESTED_FD = 1e-5
TOL_GAUGE = 1e-7        # flatness suite: staircase-residual, eq 4.55
TOL_PLANE = 1e-6        # geodesics suite: great-circle-plane

TWO_PI = 6.283185307179586
PI_TEXT = "3.141592653589793"

SUITES = ("transformation-laws", "curvature-tensoriality",
          "covd-oracle-triangle", "curvature-commutator",
          "transport-linearity", "sphere-holonomy", "geodesics", "flatness",
          "rk4-order", "covariantly-constant", "affine-curvature-gap",
          "morphisms", "parser")


@dataclass
class Job:
    kind: str
    command: str
    config: dict | None
    check: Callable[[dict, dict], str | None]
    suite: str | None = None
    path: str | None = None     # the written config file

    def argv(self):
        if self.command == "check":
            return ["check", "--suite", self.suite]
        return [self.command, "--config", self.path]


# ---------------------------------------------------------------------------
# random pieces


def _c(rng, lo, hi, signed=False):
    """A coefficient with four decimals, so its text and its double agree."""
    value = round(rng.uniform(lo, hi), 4)
    return -value if signed and rng.random() < 0.5 else value


def _lit(x):
    return f"({x!r})" if x < 0 else repr(x)


def _vec(rng, dim, lo=0.3, hi=1.2):
    return [_c(rng, lo, hi, signed=True) for _ in range(dim)]


def _rel_gap(a, b):
    scale = max(1.0, max(abs(v) for v in b))
    return max(abs(x - y) for x, y in zip(a, b)) / scale


# paths: (config block, start point, end point)

def _loop_path(rng, steps, c1=(0.9, 2.2)):
    x1, a = _c(rng, *c1), _c(rng, 0.1, 0.4)
    x2, b = _c(rng, -1.0, 1.0), _c(rng, 0.2, 0.8)
    spec = {"exprs": [f"{_lit(x1)} + {a!r}*cos(t)",
                      f"{_lit(x2)} + {b!r}*sin(t)"],
            "t0": 0.0, "t1": TWO_PI, "steps": steps}
    start = (x1 + a, x2)
    end = (x1 + a * math.cos(TWO_PI), x2 + b * math.sin(TWO_PI))
    return spec, start, end


def _open_path(rng, steps, box=1.0):
    coeffs = [(_c(rng, -box, box), _c(rng, 0.2, 0.8, True),
               _c(rng, 0.1, 0.4, True)) for _ in range(2)]
    spec = {"exprs": [f"{_lit(p)} + {_lit(q)}*t + {_lit(w)}*t^2"
                      for p, q, w in coeffs],
            "t0": 0.0, "t1": 1.0, "steps": steps}
    start = tuple(p for p, _, _ in coeffs)
    end = tuple(p + q + w for p, q, w in coeffs)
    return spec, start, end


def _poly_path(rng, steps, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    pts = [[_c(rng, lo[0], hi[0]), _c(rng, lo[1], hi[1])]
           for _ in range(rng.randint(3, 5))]
    return {"points": pts, "steps": steps}, tuple(pts[0]), tuple(pts[-1])


def _out_and_back_path(rng, steps):
    """x(t) = p + q s + w s^2 with s = sin(pi t) on [0, 1]: the path runs
    out and retraces itself, so transport along it must return the start
    vector (a path followed by its reverse)."""
    s = f"sin({PI_TEXT}*t)"
    exprs = []
    for _ in range(2):
        p, q, w = (_c(rng, -0.5, 0.5), _c(rng, 0.3, 0.9, True),
                   _c(rng, 0.1, 0.4, True))
        exprs.append(f"{_lit(p)} + {_lit(q)}*{s} + {_lit(w)}*{s}^2")
    return {"exprs": exprs, "t0": 0.0, "t1": 1.0, "steps": steps}


# pure-gauge alpha: (expression text, the same function in Python)

def _alpha(rng):
    a, b = _c(rng, 0.3, 1.2), _c(rng, 0.2, 0.9)
    return rng.choice([
        (f"{a!r}*x1*x2", lambda x: a * x[0] * x[1]),
        (f"{a!r}*sin(x1) + {b!r}*x2",
         lambda x: a * math.sin(x[0]) + b * x[1]),
        (f"{a!r}*x1^2 - {b!r}*x2", lambda x: a * x[0] ** 2 - b * x[1]),
        (f"{a!r}*cos(x2) + {b!r}*x1*x1",
         lambda x: a * math.cos(x[1]) + b * x[0] * x[0]),
    ])


def _rotate(delta, u):
    c, s = math.cos(delta), math.sin(delta)
    return [c * u[0] - s * u[1], s * u[0] + c * u[1]]


def _entry(rng, lo=0.2, hi=1.0):
    a = _c(rng, lo, hi, signed=True)
    return rng.choice([f"{_lit(a)}*sin(x1)", f"{_lit(a)}*x2",
                       f"{_lit(a)}*x1*x2", f"{_lit(a)}*cos(x1 + x2)",
                       f"{_lit(a)}", f"{_lit(a)}*x1^2"])


def _skew_stacks(rng, r, n=2):
    stacks = []
    for _ in range(n):
        m = [["0"] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                e = _entry(rng)
                m[i][j], m[j][i] = e, f"-({e})"
        stacks.append(m)
    return stacks


def _final(payload):
    return payload["result"]["final"]["value"]


def _sphere_norm(theta, u):
    return u[0] ** 2 + math.sin(theta) ** 2 * u[1] ** 2


def _bound(name, value, tol):
    return None if value <= tol else f"{name} {value:.3e} > {tol:.0e}"


# ---------------------------------------------------------------------------
# transport-linear: linear and affine transport along long paths


def _tl_sphere(rng, steps, style):
    if style == "expr":
        path, start, end = _loop_path(rng, steps)
    else:
        path, start, end = _poly_path(rng, steps, (0.6, -1.5), (2.5, 1.5))
    u0 = _vec(rng, 2)
    cfg = {"connection": "registry:sphere-lc", "path": path, "initial": u0}

    def check(payload, memo):
        n0 = _sphere_norm(start[0], u0)
        n1 = _sphere_norm(end[0], _final(payload))
        return _bound("metric-norm drift", abs(n1 - n0) / n0, TOL_ALGEBRAIC)
    return Job("sphere-lc", "transport", cfg, check)


def _tl_gauge(rng, steps, style):
    alpha, fn = _alpha(rng)
    if style == "expr":
        path, start, end = _open_path(rng, steps)
    else:
        path, start, end = _poly_path(rng, steps)
    u0 = _vec(rng, 2)
    cfg = {"connection": {"kind": "registry:pure-gauge",
                          "params": {"alpha": alpha}},
           "path": path, "initial": u0}

    def check(payload, memo):
        want = _rotate(fn(end) - fn(start), u0)
        return _bound("W(x1) W(x0)^-1 gap", _rel_gap(_final(payload), want),
                      TOL_GAUGE)
    return Job("pure-gauge", "transport", cfg, check)


def _tl_skew(rng, steps, style):
    r = rng.choice((2, 3))
    if style == "expr":
        path, _, _ = _open_path(rng, steps)
    else:
        path, _, _ = _poly_path(rng, steps)
    u0 = _vec(rng, r)
    cfg = {"base_dim": 2, "fibre_rank": r,
           "connection": {"kind": "three_index",
                          "stacks": _skew_stacks(rng, r)},
           "path": path, "initial": u0}

    def check(payload, memo):
        n0 = math.sqrt(sum(v * v for v in u0))
        n1 = math.sqrt(sum(v * v for v in _final(payload)))
        return _bound("Euclidean-norm drift", abs(n1 - n0) / n0,
                      TOL_ALGEBRAIC)
    return Job("skew-stack", "transport", cfg, check)


def _tl_affine(rng, steps, style):
    u0 = _vec(rng, 2)
    if style == "expr":
        path, start, end = _open_path(rng, steps)
        M = [[_c(rng, 0.2, 1.5, True) for _ in range(2)] for _ in range(2)]
        zero = [["0", "0"], ["0", "0"]]
        conn = {"kind": "affine", "linear": [zero, zero],
                "inhom": [[repr(v) for v in row] for row in M]}
        cfg = {"base_dim": 2, "fibre_rank": 2, "connection": conn}
        kind = "affine"
    else:
        path, start, end = _poly_path(rng, steps)
        M = [[1.0, 0.0], [0.0, 1.0]]
        cfg = {"connection": "registry:cartan-flat"}
        kind = "cartan-flat"
    cfg.update(path=path, initial=u0)

    def check(payload, memo):
        dx = [e - s for s, e in zip(start, end)]
        want = [u0[a] + sum(M[a][m] * dx[m] for m in range(2))
                for a in range(2)]
        return _bound("displacement gap", _rel_gap(_final(payload), want),
                      TOL_ALGEBRAIC)
    return Job(kind, "transport", cfg, check)


_TL_KINDS = (_tl_sphere, _tl_gauge, _tl_skew, _tl_affine)


# RK4 steps per slot. Five slots share the middle size and five the top
# size, so the median and the 90th percentile each fall inside a cluster of
# like jobs rather than between two sizes.
TL_STEPS = (1000, 1250, 1500, 1750, 2000, 2500, 2500, 2500, 2500, 2500,
            4000, 4000, 4000, 4000, 4000)


def transport_linear_round(rng):
    """15 transports of 1000 to 4000 RK4 steps, the four connection kinds
    in turn, expression paths and polylines mixed within every size."""
    return [_TL_KINDS[i % 4](rng, steps,
                             ("expr", "poly")[(i + i // 4) % 2])
            for i, steps in enumerate(TL_STEPS)]


# ---------------------------------------------------------------------------
# transport-state: right-hand sides that depend on the evolving state


def _embed(theta, phi):
    return (math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi), math.cos(theta))


def _ts_geodesic(rng, steps):
    while True:
        th, ph = _c(rng, 0.9, 2.2), _c(rng, -1.0, 1.0)
        psi, speed = rng.uniform(0.0, TWO_PI), _c(rng, 0.5, 1.5)
        v = [round(speed * math.cos(psi), 4),
             round(speed * math.sin(psi) / math.sin(th), 4)]
        p0 = _embed(th, ph)
        dth = (math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph),
               -math.sin(th))
        dph = (-math.sin(th) * math.sin(ph), math.sin(th) * math.cos(ph),
               0.0)
        t = [v[0] * a + v[1] * b for a, b in zip(dth, dph)]
        nrm = (p0[1] * t[2] - p0[2] * t[1], p0[2] * t[0] - p0[0] * t[2],
               p0[0] * t[1] - p0[1] * t[0])
        size = math.sqrt(sum(c * c for c in nrm))
        # the great circle keeps a polar distance of asin(|n_z|) >= 0.4
        if size > 0.1 and abs(nrm[2]) / size >= math.sin(0.4):
            break
    nrm = [c / size for c in nrm]
    T = round(_c(rng, 1.0, 2.5) / math.sqrt(_sphere_norm(th, v)), 4)
    cfg = {"connection": "registry:sphere-lc", "x0": [th, ph], "v0": v,
           "T": T, "steps": steps}

    def check(payload, memo):
        x = payload["result"]["final_position"]["value"]
        w = payload["result"]["final_velocity"]["value"]
        plane = abs(sum(a * b for a, b in zip(_embed(*x), nrm)))
        s0, s1 = _sphere_norm(th, v), _sphere_norm(x[0], w)
        return (_bound("great-circle-plane", plane, TOL_PLANE)
                or _bound("speed drift", abs(s1 - s0) / s0, TOL_FD))
    return Job("geodesic", "geodesic", cfg, check)


def _ts_pair(rng, steps, pair_id):
    """The same linear connection as a two-index block linear in u and as
    a three-index stack (eqs 3.26 vs 4.18, SIGN-LINEAR)."""
    E = [[[_entry(rng, 0.1, 0.8) for _ in range(2)] for _ in range(2)]
         for _ in range(2)]
    matrix = [[f"-(({E[mu][a][0]})*u1 + ({E[mu][a][1]})*u2)"
               for mu in range(2)] for a in range(2)]
    path = (_open_path(rng, steps) if pair_id % 2 else
            _poly_path(rng, steps))[0]
    shared = {"base_dim": 2, "fibre_rank": 2, "path": path,
              "initial": _vec(rng, 2)}
    two = dict(shared, connection={"kind": "two_index", "matrix": matrix})
    three = dict(shared, connection={"kind": "three_index", "stacks": E})

    def check(role):
        def run(payload, memo):
            memo[(pair_id, role)] = _final(payload)
            other = memo.get((pair_id, 1 - role))
            if other is None:
                return None if role == 0 else "partner job missing"
            return _bound("two-index vs three-index gap",
                          _rel_gap(_final(payload), other), TOL_ALGEBRAIC)
        return run
    return [Job("two-index-linear", "transport", two, check(0)),
            Job("three-index-linear", "transport", three, check(1))]


def _ts_out_and_back(rng, steps):
    terms = ["{c}*sin(u2)*x1", "{c}*cos(u1)", "{c}*u1*x2",
             "{c}*sin(u1 + x1)", "{c}*u2", "{c}*u1*cos(x2)"]
    matrix = [[rng.choice(terms).format(c=_lit(_c(rng, 0.2, 0.8, True)))
               for _ in range(2)] for _ in range(2)]
    u0 = _vec(rng, 2)
    cfg = {"base_dim": 2, "fibre_rank": 2,
           "connection": {"kind": "two_index", "matrix": matrix},
           "path": _out_and_back_path(rng, steps), "initial": u0}

    def check(payload, memo):
        return _bound("out-and-back gap", _rel_gap(_final(payload), u0),
                      TOL_ALGEBRAIC)
    return Job("two-index-nonlinear", "transport", cfg, check)


def transport_state_round(rng):
    """5 geodesics, 3 two-index/three-index pairs and 4 nonlinear
    out-and-back transports of 1000 to 4000 RK4 steps: six jobs of 2500
    steps hold the median and five of 4000 the 90th percentile."""
    return [_ts_geodesic(rng, 1000), *_ts_pair(rng, 2500, 0),
            _ts_out_and_back(rng, 1000), _ts_geodesic(rng, 4000),
            _ts_out_and_back(rng, 2500), *_ts_pair(rng, 4000, 1),
            _ts_geodesic(rng, 1500), _ts_geodesic(rng, 2500),
            *_ts_pair(rng, 2500, 2), _ts_out_and_back(rng, 1500),
            _ts_out_and_back(rng, 4000), _ts_geodesic(rng, 4000)]


# ---------------------------------------------------------------------------
# pointwise: finite-difference stencils, laws, validation and emission


def _sphere_point(rng):
    return [_c(rng, 0.5, 2.6), _c(rng, -2.0, 2.0)]


def _pw_curvature_point(rng):
    x = _sphere_point(rng)
    cfg = {"connection": "registry:sphere-lc", "point": x}

    def check(payload, memo):
        R = payload["result"]["R"]["value"]
        return _bound("|R[0,1,0,1]| - sin^2 x1",
                      abs(abs(R[0][1][0][1]) - math.sin(x[0]) ** 2),
                      TOL_NESTED_FD)
    return Job("curvature-point", "curvature", cfg, check)


def _pw_curvature_grid_sphere(rng):
    lo = [_c(rng, 0.5, 1.2), _c(rng, -2.0, 0.0)]
    hi = [_c(rng, 1.8, 2.6), _c(rng, 0.5, 2.0)]
    cfg = {"connection": "registry:sphere-lc", "grid": {"lo": lo, "hi": hi},
           "samples": rng.randint(5, 12)}

    def check(payload, memo):
        worst = max(abs(abs(e["R"][0][1][0][1])
                        - math.sin(e["point"][0]) ** 2)
                    for e in payload["result"]["grid"])
        return _bound("|R[0,1,0,1]| - sin^2 x1", worst, TOL_NESTED_FD)
    return Job("curvature-grid-sphere", "curvature", cfg, check)


def _gauge_grid(rng):
    return {"lo": [_c(rng, -1.0, -0.2), _c(rng, -1.0, -0.2)],
            "hi": [_c(rng, 0.2, 1.0), _c(rng, 0.2, 1.0)]}


def _pw_curvature_grid_gauge(rng):
    alpha, _ = _alpha(rng)
    cfg = {"connection": {"kind": "registry:pure-gauge",
                          "params": {"alpha": alpha}},
           "grid": _gauge_grid(rng), "samples": rng.randint(12, 20)}

    def check(payload, memo):
        return _bound("pure-gauge max |R|",
                      payload["diagnostics"]["max_abs"]["value"],
                      TOL_NESTED_FD)
    return Job("curvature-grid-gauge", "curvature", cfg, check)


def _pw_flatness_sphere(rng):
    lo = [_c(rng, 0.5, 1.2), _c(rng, -2.0, 0.0)]
    hi = [_c(rng, 1.8, 2.6), _c(rng, 0.5, 2.0)]
    cfg = {"connection": "registry:sphere-lc", "grid": {"lo": lo, "hi": hi}}

    def check(payload, memo):
        if payload["result"]["flat"] is not False:
            return "sphere-lc certified flat"
        return None
    return Job("flatness-sphere", "flatness", cfg, check)


def _pw_flatness_gauge(rng):
    alpha, fn = _alpha(rng)
    x0 = [_c(rng, -0.9, -0.1), _c(rng, -0.9, -0.1)]
    x1 = [_c(rng, 0.1, 0.9), _c(rng, 0.1, 0.9)]
    cfg = {"connection": {"kind": "registry:pure-gauge",
                          "params": {"alpha": alpha}},
           "grid": _gauge_grid(rng), "x0": x0, "x1": x1}

    def check(payload, memo):
        res = payload["result"]
        if res["flat"] is not True:
            return "pure gauge not certified flat"
        W = res["fundamental"]["matrix"]
        got = [W[0][0], W[0][1], W[1][0], W[1][1]]
        c, s = math.cos(fn(x1) - fn(x0)), math.sin(fn(x1) - fn(x0))
        return (_bound("staircase residual", res["fundamental"]["residual"],
                       TOL_GAUGE)
                or _bound("W vs B(x1) B(x0)^-1",
                          _rel_gap(got, [c, -s, s, c]), TOL_GAUGE))
    return Job("flatness-gauge", "flatness", cfg, check)


def _covd_check(payload, memo):
    d = payload["diagnostics"]
    return (_bound("limit vs direct", d["limit_vs_direct"]["value"], TOL_FD)
            or _bound("operator vs direct", d["operator_vs_direct"]["value"],
                      TOL_FD))


def _pw_covd(rng, connection):
    cfg = {"point": _sphere_point(rng) if connection == "sphere" else
           [_c(rng, -1.0, 1.0), _c(rng, -1.0, 1.0)],
           "direction": _vec(rng, 2),
           "section": [_entry(rng), _entry(rng)]}
    if connection == "sphere":
        cfg["connection"] = "registry:sphere-lc"
    else:
        cfg.update(base_dim=2, fibre_rank=2,
                   connection={"kind": "three_index",
                               "stacks": _skew_stacks(rng, 2)})
    return Job(f"covd-{connection}", "covd", cfg, _covd_check)


def _frame_change(rng):
    a, b, c, d, e, f = (_c(rng, 0.05, 0.2) for _ in range(6))
    return {"base": [[f"1 + {a!r}*sin(x1)", f"{b!r}*x2"],
                     [f"{c!r}*x1", f"1 - {d!r}*cos(x2)"]],
            "fibre": [["1", f"{e!r}*x1"], [f"{f!r}*x2", "1"]]}


def _pw_frames(rng, law):
    cfg = {"law": law, "frame_change": _frame_change(rng)}
    if law in ("three-index", "curvature"):
        cfg.update(connection="registry:sphere-lc", point=_sphere_point(rng))
    elif law == "two-index":
        cfg.update(connection="registry:sphere-lc",
                   point=_sphere_point(rng) + _vec(rng, 2))
    elif law == "inhomogeneous":
        zero = [["0", "0"], ["0", "0"]]
        cfg.update(base_dim=2, fibre_rank=2, point=_vec(rng, 2, 0.1, 1.0),
                   connection={"kind": "affine", "linear": [zero, zero],
                               "inhom": [[_entry(rng) for _ in range(2)]
                                         for _ in range(2)]})
    else:
        cfg.update(connection="registry:flat",
                   point=[_c(rng, 1.5, 2.5), _c(rng, 0.2, 1.0)],
                   frame=[["1", f"{_c(rng, 0.1, 0.5)!r}*x2"], ["0", "x1"]])
        if law == "lie":
            cfg["vector_field"] = [_entry(rng), _entry(rng)]
    round_trip = law in ("three-index", "two-index", "inhomogeneous")
    tol = TOL_ALGEBRAIC if round_trip else TOL_FD

    def check(payload, memo):
        d = payload["diagnostics"]
        name = "round_trip_error" if round_trip else "agreement"
        return _bound(name, d[name]["value"], tol)
    return Job(f"frames-{law}", "frames", cfg, check)


def _pw_morphism(rng):
    """The gauge B(x)^-1 maps a pure-gauge connection onto the zero
    connection, so it preserves the connection (eq 5.11)."""
    alpha, _ = _alpha(rng)
    a = f"({alpha})"
    zero = [["0", "0"], ["0", "0"]]
    cfg = {"connection": {"kind": "registry:pure-gauge",
                          "params": {"alpha": alpha}},
           "target": {"base_dim": 2, "fibre_rank": 2,
                      "connection": {"kind": "three_index",
                                     "stacks": [zero, zero]}},
           "morphism": {"base": ["x1", "x2"],
                        "matrix": [[f"cos{a}", f"sin{a}"],
                                   [f"-sin{a}", f"cos{a}"]]},
           "point": _vec(rng, 2, 0.1, 0.9) + _vec(rng, 2),
           "sample_points": [_vec(rng, 2, 0.1, 0.9) + _vec(rng, 2)
                             for _ in range(3)]}

    def check(payload, memo):
        res = payload["result"]
        if res["preserves"]["verdict"] is not True:
            return "gauge morphism not preserving"
        worst = max(abs(v) for row in res["linear_defect"]["value"]
                    for col in row for v in col)
        return (_bound("max_defect", res["preserves"]["max_defect"], TOL_FD)
                or _bound("linear defect", worst, TOL_FD))
    return Job("morphism-gauge", "morphism", cfg, check)


LAWS = ("three-index", "two-index", "inhomogeneous", "curvature",
        "anholonomy", "lie")


def pointwise_round(rng):
    """Curvature at a point and on two grids, two flatness staircases and
    one negative verdict, two covd triangles, the six frame laws and a
    morphism."""
    return ([_pw_curvature_point(rng), _pw_curvature_grid_sphere(rng),
             _pw_curvature_grid_gauge(rng), _pw_flatness_sphere(rng),
             _pw_flatness_gauge(rng), _pw_flatness_gauge(rng),
             _pw_covd(rng, "sphere"), _pw_covd(rng, "skew")]
            + [_pw_frames(rng, law) for law in LAWS]
            + [_pw_morphism(rng)])


# ---------------------------------------------------------------------------
# check-all: the acceptance suites


def _suite_check(payload, memo):
    return None if payload["result"]["passed"] is True else "suite failed"


def _suite_job(name):
    return Job(name, "check", None, _suite_check, suite=name)


def check_all_round(rng):
    """All 13 suites in a seeded order."""
    order = list(SUITES)
    rng.shuffle(order)
    return [_suite_job(name) for name in order]


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    make_round: Callable
    warmup: Callable            # rng -> one job of each command
    trace_rounds: int           # rounds in a traced run
    determinism_jobs: int       # jobs re-run by the determinism gate

    def round(self, seed, index):
        return self.make_round(random.Random(f"{self.name}:{seed}:{index}"))

    def warmup_jobs(self, seed):
        return self.warmup(random.Random(f"{self.name}:{seed}:warmup"))


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("transport-linear", transport_linear_round,
             lambda rng: [_tl_sphere(rng, 1000, "expr")],
             trace_rounds=1, determinism_jobs=3),
    Workload("transport-state", transport_state_round,
             lambda rng: [_ts_geodesic(rng, 1000),
                          _ts_out_and_back(rng, 1000)],
             trace_rounds=1, determinism_jobs=3),
    Workload("pointwise", pointwise_round,
             lambda rng: [_pw_curvature_point(rng), _pw_flatness_gauge(rng),
                          _pw_covd(rng, "sphere"),
                          _pw_frames(rng, "three-index"),
                          _pw_morphism(rng)],
             trace_rounds=4, determinism_jobs=8),
    Workload("check-all", check_all_round,
             lambda rng: [_suite_job("transformation-laws")],
             trace_rounds=1, determinism_jobs=2),
)}

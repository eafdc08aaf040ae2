"""Command-line front-end: JSON problem configs in, JSON results out.

Commands: transport, geodesic, curvature, flatness, covd, frames, morphism,
check. Results go to standard output as deterministic JSON (sorted keys,
floats at 17 significant digits), logs go to standard error. Exit codes:
0 success, 1 numerical failure, 2 configuration or parse failure. Every
numeric result object carries an "eq" field naming the formula it came
from; docs/equations.md is the index of those tags.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import suites
from .calculus import (
    covariant_derivative,
    curvature,
    curvature_general_frame,
    curvature_law,
    fibre_curvature_general,
    flat_fundamental_matrix,
    is_flat,
    nabla_hat_oracle,
)
from .connection import (
    AffineCoefficients,
    CoefficientField3,
    CoordinateChange,
    FrameChange,
    TwoIndexField,
    bundle_region,
    three_index_round_trip,
    transform_inhomogeneous,
    two_index_round_trip,
)
from .errors import (
    ConfigError,
    EngineError,
    NotFlat,
    ParseError,
    StepCountTooSmall,
    UnboundVariable,
)
from .fields import (
    FrameField,
    MatrixField,
    Region,
    SectionField,
    anholonomy_law,
    base_names,
    lie_gamma_law,
)
from .morphism import (
    BundleMorphism,
    jacobi_adapted,
    jacobi_natural,
    preserves_connection,
    vb_morphism_coeffs,
)
from .registry import REGISTRY
from .transport import (
    PathSpec,
    covariant_derivative_limit,
    geodesic,
    transport_affine,
    transport_general,
    transport_linear,
)

log = logging.getLogger("bundleconn.cli")

DEFAULT_STEPS = 400
DEFAULT_TOL = 1e-6
DEFAULT_SAMPLES = 3


# ---------------------------------------------------------------------------
# deterministic JSON writer


def _format_float(value):
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return format(value, ".17g")


def _emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    parts = []
    _emit(obj, parts)
    return "".join(parts)


# ---------------------------------------------------------------------------
# config loading and validation helpers


def load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} at byte {exc.pos}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("the top-level config must be a JSON object")
    return cfg


def _require(cfg, key, what):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}: {what}")
    return cfg[key]


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float_list(value, length, what):
    if (not isinstance(value, (list, tuple)) or len(value) != length
            or not all(_is_number(v) for v in value)):
        raise ConfigError(f"{what} must be a list of {length} numbers")
    return tuple(float(v) for v in value)


def _square_rows(rows, size, what):
    if (not isinstance(rows, list) or len(rows) != size
            or not all(isinstance(row, list) and len(row) == size
                       for row in rows)):
        raise ConfigError(f"{what} must be {size} rows of {size} entries")
    return rows


def _build(fn, *args, **kwargs):
    """Run a field constructor, converting shape complaints to ConfigError
    (ParseError passes through and keeps its byte offset)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class Problem:
    """A validated problem config plus the effective numeric parameters
    (command-line flags override config values)."""

    def __init__(self, cfg, args):
        self.cfg = cfg
        self.region = self._build_region(cfg.get("region"))
        self._build_connection(_require(cfg, "connection",
                                        "a connection block or registry name"))
        self._flag_steps = getattr(args, "steps", None)
        self.steps = self._effective(args, "steps", cfg, int, DEFAULT_STEPS)
        self.fd_step = self._effective(args, "fd_step", cfg, float, None)
        self.tol = self._effective(args, "tol", cfg, float, DEFAULT_TOL)
        self.samples = self._effective(args, "samples", cfg, int,
                                       DEFAULT_SAMPLES)
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.samples < 1:
            raise ConfigError(f"samples must be positive, got {self.samples}")

    @staticmethod
    def _effective(args, name, cfg, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in cfg:
            value = cfg[name]
            if not _is_number(value):
                raise ConfigError(f"config {name!r} must be a number")
            return cast(value)
        return default

    def _build_region(self, spec):
        if spec is None:
            return None
        if not isinstance(spec, list):
            raise ConfigError("region must be a list of per-axis bounds")
        bounds = []
        for axis in spec:
            if axis is None:
                bounds.append((-math.inf, math.inf))
                continue
            lo, hi = _float_list(axis, 2, "a region axis")
            bounds.append((lo, hi))
        try:
            return Region(bounds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _declared_dims(self, required):
        cfg = self.cfg
        if required and ("base_dim" not in cfg or "fibre_rank" not in cfg):
            raise ConfigError("base_dim and fibre_rank are required for "
                              "explicit connection blocks")
        n = cfg.get("base_dim")
        r = cfg.get("fibre_rank")
        for name, v in (("base_dim", n), ("fibre_rank", r)):
            if v is not None and (not isinstance(v, int)
                                  or isinstance(v, bool) or v < 1):
                raise ConfigError(f"{name} must be a positive integer")
        return n, r

    def _build_connection(self, conn):
        if isinstance(conn, str):
            conn = {"kind": conn}
        if not isinstance(conn, dict):
            raise ConfigError("connection must be an object or a string")
        kind = conn.get("kind")
        if not isinstance(kind, str):
            raise ConfigError("connection.kind must be a string")
        self.aff = None
        self.example = None
        if kind.startswith("registry:"):
            params = conn.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError("connection.params must be an object")
            ex = REGISTRY.build(kind[len("registry:"):], **params)
            n, r = self._declared_dims(required=False)
            if (n is not None and n != ex.n) or (r is not None and r != ex.r):
                raise ConfigError(
                    f"registry entry {ex.name!r} has base_dim {ex.n}, "
                    f"fibre_rank {ex.r}; the config declares {n}, {r}")
            if self.region is not None:
                log.warning("registry entry %r manages its own region; "
                            "the config region is ignored", ex.name)
            self.example = ex
            self.kind = ex.kind
            self.n, self.r = ex.n, ex.r
            self.g3, self.g2, self.aff = ex.g3, ex.g2, ex.affine
            self.region = ex.region
            return
        n, r = self._declared_dims(required=True)
        self.n, self.r = n, r
        # the config region is over the base; general connections extend it
        # with unbounded fibre axes unless the config bounds them explicitly
        if self.region is not None and self.region.dim not in (n, n + r):
            raise ConfigError(
                f"region must list {n} per-axis bounds (base only) or "
                f"{n + r} (base plus fibre), got {self.region.dim}")
        if self.region is not None and self.region.dim == n + r:
            full_region = self.region
            self.region = Region(self.region.bounds[:n])
        else:
            full_region = bundle_region(self.region, r)
        if kind == "three_index":
            stacks = _require(conn, "stacks",
                              "n entries of r x r expression rows")
            self.g3 = _build(CoefficientField3.from_exprs, stacks,
                             self.region)
            self.g2 = TwoIndexField.from_linear(self.g3)
            self.kind = "linear"
        elif kind == "two_index":
            rows = _require(conn, "matrix",
                            "r x n expression rows over x1..xn, u1..ur")
            self.g2 = _build(TwoIndexField.from_exprs, rows, n, r,
                             full_region)
            self.g3 = None
            self.kind = "general"
        elif kind == "affine":
            stacks = _require(conn, "linear",
                              "n entries of r x r expression rows")
            inhom = _require(conn, "inhom", "r x n expression rows")
            self.aff = _build(AffineCoefficients.from_exprs, stacks, inhom,
                              self.region)
            self.g3 = self.aff.linear
            self.g2 = TwoIndexField.from_affine(self.aff)
            self.kind = "affine"
        else:
            raise ConfigError(
                f"unknown connection kind {kind!r}; expected three_index, "
                "two_index, affine, or registry:<name>")
        if self.g3 is not None and (self.g3.n != n or self.g3.r != r):
            raise ConfigError(
                f"connection dimensions ({self.g3.n}, {self.g3.r}) do not "
                f"match base_dim {n}, fibre_rank {r}")

    # -- derived requirements ------------------------------------------------

    def need_g3(self, why):
        if self.g3 is None:
            raise ConfigError(f"{why} needs three-index (linear or affine) "
                              "coefficients; this connection is two-index")
        return self.g3

    def build_path(self):
        spec = _require(self.cfg, "path", "a path block")
        if not isinstance(spec, dict):
            raise ConfigError("path must be an object")
        steps = spec.get("steps", self.steps)
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise ConfigError("path.steps must be a positive integer")
        if self._flag_steps is not None:
            steps = self._flag_steps
        if "exprs" in spec:
            exprs = spec["exprs"]
            if not isinstance(exprs, list) or len(exprs) != self.n:
                raise ConfigError(f"path.exprs must list {self.n} "
                                  "expressions in t")
            t0 = spec.get("t0", 0.0)
            t1 = spec.get("t1", 1.0)
            if not (_is_number(t0) and _is_number(t1)):
                raise ConfigError("path.t0 and path.t1 must be numbers")
            return _build(PathSpec.from_exprs, exprs, float(t0), float(t1),
                          steps=steps)
        if "points" in spec:
            pts = spec["points"]
            if not isinstance(pts, list) or len(pts) < 2:
                raise ConfigError("path.points must list at least 2 points")
            pts = [_float_list(p, self.n, "a path point") for p in pts]
            return _build(PathSpec.from_points, pts, steps=steps)
        raise ConfigError("path needs either exprs (with t0, t1) or points")

    def base_point(self, key="point"):
        return _float_list(_require(self.cfg, key, "a base point"),
                           self.n, f"{key}")

    def bundle_point(self, key="point"):
        return _float_list(_require(self.cfg, key, "a bundle point"),
                           self.n + self.r, f"{key}")

    def frame_change(self):
        spec = _require(self.cfg, "frame_change",
                        "an object with base and fibre expression rows")
        if not isinstance(spec, dict):
            raise ConfigError("frame_change must be an object")
        base_rows = _square_rows(
            _require(spec, "base", "n x n expression rows"), self.n,
            "frame_change.base")
        fibre_rows = _square_rows(
            _require(spec, "fibre", "r x r expression rows"), self.r,
            "frame_change.fibre")
        return _build(FrameChange.from_exprs, base_rows, fibre_rows, self.n,
                      self.region)

    def frame(self, key):
        """The base frame given as n x n expression rows under key, or
        None when the config has no such key."""
        if key not in self.cfg:
            return None
        rows = _square_rows(self.cfg[key], self.n, key)
        return _build(FrameField.from_exprs, rows, base_names(self.n),
                      self.region)

    def effective(self):
        return {"steps": self.steps, "fd_step": self.fd_step,
                "tol": self.tol, "samples": self.samples}


def _payload(command, prob, result, diagnostics):
    return {"command": command,
            "inputs": {"config": prob.cfg, "effective": prob.effective()},
            "result": result,
            "diagnostics": diagnostics}


def _grid_points(prob):
    """Sample lattice for grid commands: explicit points win, else a
    samples^n lattice over the config grid box."""
    cfg = prob.cfg
    if "points" in cfg:
        pts = cfg["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("points must be a non-empty list")
        return [_float_list(p, prob.n, "a sample point") for p in pts]
    grid = _require(cfg, "grid", "an object with lo and hi corner points "
                                 "(or an explicit points list)")
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    lo = _float_list(_require(grid, "lo", "grid corner"), prob.n, "grid.lo")
    hi = _float_list(_require(grid, "hi", "grid corner"), prob.n, "grid.hi")
    k = prob.samples
    axes = [np.linspace(lo[i], hi[i], k) for i in range(prob.n)]
    return [tuple(float(axes[i][idx[i]]) for i in range(prob.n))
            for idx in np.ndindex(*([k] * prob.n))]


# ---------------------------------------------------------------------------
# commands


def cmd_transport(args):
    prob = Problem(load_config(args.config), args)
    path = prob.build_path()
    init = _float_list(_require(prob.cfg, "initial",
                                "the fibre vector to transport"),
                       prob.r, "initial")
    if prob.kind == "general":
        res = transport_general(prob.g2, path, init)
        eq = "3.26"
    elif prob.kind == "affine":
        res = transport_affine(prob.aff, path, init)
        eq = "4.66"
    else:
        res = transport_linear(prob.g3, path, init)
        eq = "4.18"
    result = {"final": {"value": res.final, "eq": eq}}
    diagnostics = {"transport_kind": prob.kind,
                   "max_residual": {"value": res.max_residual, "eq": eq}}
    return _payload("transport", prob, result, diagnostics), 0


def cmd_geodesic(args):
    prob = Problem(load_config(args.config), args)
    g3 = prob.need_g3("geodesic integration")
    if g3.r != g3.n:
        raise ConfigError("geodesics need tangent-bundle coefficients "
                          f"(fibre_rank == base_dim, got {g3.r} != {g3.n})")
    x0 = prob.base_point("x0")
    v0 = _float_list(_require(prob.cfg, "v0", "the initial velocity"),
                     prob.n, "v0")
    T = _require(prob.cfg, "T", "the parameter span")
    if not _is_number(T) or float(T) <= 0.0:
        raise ConfigError("T must be a positive number")
    res = geodesic(g3, x0, v0, float(T), prob.steps)
    eq = "3.27, 4.29"
    result = {"final_position": {"value": res.final[:prob.n], "eq": eq},
              "final_velocity": {"value": res.final[prob.n:], "eq": eq}}
    diagnostics = {"max_residual": {"value": res.max_residual, "eq": eq}}
    return _payload("geodesic", prob, result, diagnostics), 0


def cmd_curvature(args):
    prob = Problem(load_config(args.config), args)
    cfg = prob.cfg
    if prob.kind == "general":
        # two-index connections: fibre curvature at one bundle point
        p = prob.bundle_point()
        R2, _, _ = fibre_curvature_general(prob.g2, None, p, prob.fd_step)
        result = {"R2": {"value": R2, "eq": "3.24a"}}
        diagnostics = {"max_abs": {"value": float(np.max(np.abs(R2))),
                                   "eq": "3.24a"}}
        return _payload("curvature", prob, result, diagnostics), 0
    g3 = prob.g3
    if "grid" in cfg or ("points" in cfg and "point" not in cfg):
        pts = _grid_points(prob)
        entries = []
        worst = 0.0
        for x in pts:
            R = curvature(g3, x, prob.fd_step).R
            m = float(np.max(np.abs(R)))
            worst = max(worst, m)
            entries.append({"point": list(x), "R": R, "max_abs": m,
                            "eq": "4.27"})
        result = {"grid": entries}
        diagnostics = {"max_abs": {"value": worst, "eq": "4.27"}}
        return _payload("curvature", prob, result, diagnostics), 0
    x = prob.base_point()
    frame = prob.frame("base_frame")
    if frame is not None:
        R = curvature_general_frame(g3, frame, x, prob.fd_step).R
        eq = "6.40"
    else:
        R = curvature(g3, x, prob.fd_step).R
        eq = "4.27"
    result = {"R": {"value": R, "eq": eq}}
    diagnostics = {"max_abs": {"value": float(np.max(np.abs(R))), "eq": eq}}
    return _payload("curvature", prob, result, diagnostics), 0


def cmd_flatness(args):
    prob = Problem(load_config(args.config), args)
    g3 = prob.need_g3("flatness certification")
    pts = _grid_points(prob)
    flat, worst = is_flat(g3, pts, prob.tol)
    result = {"flat": flat, "max_R": worst, "eq": "4.27"}
    diagnostics = {"sampled": {"value": len(pts), "eq": "4.27"}}
    if "x0" in prob.cfg and "x1" in prob.cfg:
        if not flat:
            raise NotFlat(
                f"cannot integrate the fundamental matrix: max |R| = "
                f"{worst:.3e} exceeds tol {prob.tol:.1e} on the sample grid")
        x0 = prob.base_point("x0")
        x1 = prob.base_point("x1")
        W, residual = flat_fundamental_matrix(g3, x0, x1, prob.tol,
                                              steps_per_leg=prob.steps)
        result["fundamental"] = {"matrix": W, "residual": residual,
                                 "eq": "4.54"}
    return _payload("flatness", prob, result, diagnostics), 0


def cmd_covd(args):
    prob = Problem(load_config(args.config), args)
    g3 = prob.need_g3("the covariant-derivative triangle")
    x = prob.base_point()
    direction = _float_list(_require(prob.cfg, "direction",
                                     "n numeric vector components"),
                            prob.n, "direction")
    section = _require(prob.cfg, "section",
                       "r section expressions over the base")
    if not isinstance(section, list) or len(section) != prob.r:
        raise ConfigError(f"section must list {prob.r} expressions")
    Y = _build(SectionField, section, base_names(prob.n), g3.region)
    direct = covariant_derivative(g3, direction, Y, x, prob.fd_step)
    limit = covariant_derivative_limit(g3, direction, Y, x, prob.fd_step)
    # the base-only section expressions are also valid over the bundle
    # variables, constant in the fibre, so the hatted operator can take
    # them as they are at the zero-section point
    p = tuple(x) + (0.0,) * prob.r
    hatted = nabla_hat_oracle(prob.g2, list(direction), list(section), p,
                              prob.fd_step)
    result = {"definitions": {
        "direct": {"value": direct, "eq": "4.37"},
        "transport_limit": {"value": limit, "eq": "4.38"},
        "bundle_operator": {"value": hatted, "eq": "4.32, 4.36"},
    }}
    diagnostics = {
        "limit_vs_direct": {"value": float(np.max(np.abs(limit - direct))),
                            "eq": "4.38"},
        "operator_vs_direct": {"value": float(np.max(np.abs(hatted
                                                            - direct))),
                               "eq": "4.32, 4.36"},
    }
    return _payload("covd", prob, result, diagnostics), 0


def _law_three_index(prob, fc):
    g3 = prob.need_g3("the three-index law")
    x = prob.base_point()
    base_frame = prob.frame("base_frame")
    forward, back = three_index_round_trip(g3, fc, x, base_frame,
                                           prob.fd_step)
    return ("4.25" if base_frame is None else "6.33"), (forward, back, g3(x))


def _law_two_index(prob, fc):
    p = prob.bundle_point()
    change, change_inv = (
        CoordinateChange.vector_bundle(base_names(prob.n), fibre, prob.n,
                                       prob.r)
        for fibre in (fc.fibre, fc.inverse().fibre))
    forward, back = two_index_round_trip(prob.g2, change, change_inv, p)
    return "3.22", (forward, back, prob.g2(p))


def _law_inhomogeneous(prob, fc):
    if prob.aff is None:
        raise ConfigError("the inhomogeneous-term law needs an affine "
                          "connection")
    x = prob.base_point()
    forward = transform_inhomogeneous(prob.aff.inhom, fc, x)
    back = transform_inhomogeneous(forward, fc.inverse(), x)
    return "4.63", (forward, back, prob.aff.inhom(x))


def _law_curvature(prob, fc):
    g3 = prob.need_g3("the curvature law")
    return "4.28", curvature_law(g3, fc, prob.base_point(), prob.fd_step)


def _config_frame(prob):
    return (prob.frame("frame")
            or FrameField.identity(prob.n, base_names(prob.n), prob.region))


def _law_anholonomy(prob, fc):
    x = prob.base_point()
    return "2.7-1", anholonomy_law(_config_frame(prob), fc.base, x,
                                   prob.fd_step)


def _law_lie(prob, fc):
    x = prob.base_point()
    frame = _config_frame(prob)
    comps = _require(prob.cfg, "vector_field",
                     "n components in the chosen frame")
    if not isinstance(comps, list) or len(comps) != prob.n:
        raise ConfigError(f"vector_field must list {prob.n} components")
    X = _build(SectionField, comps, frame.names, frame.region)
    return "2.7-3", lie_gamma_law(frame, fc.base, X, x, prob.fd_step)


# the result keys of the two kinds of law, and the diagnostic comparing the
# last two values
_ROUND_TRIP = ("round_trip_error", ("transformed", "round_trip", "original"))
_BOTH_SIDES = ("agreement", ("predicted", "direct"))

FRAME_LAWS = {
    "three-index": (_law_three_index, _ROUND_TRIP),
    "two-index": (_law_two_index, _ROUND_TRIP),
    "inhomogeneous": (_law_inhomogeneous, _ROUND_TRIP),
    "curvature": (_law_curvature, _BOTH_SIDES),
    "anholonomy": (_law_anholonomy, _BOTH_SIDES),
    "lie": (_law_lie, _BOTH_SIDES),
}


def cmd_frames(args):
    prob = Problem(load_config(args.config), args)
    law = _require(prob.cfg, "law", "one of " + ", ".join(FRAME_LAWS))
    if not isinstance(law, str) or law not in FRAME_LAWS:
        raise ConfigError(f"unknown law {law!r}; expected one of "
                          + ", ".join(FRAME_LAWS))
    fn, (diagnostic, keys) = FRAME_LAWS[law]
    eq, values = fn(prob, prob.frame_change())
    result = {key: {"value": value, "eq": eq}
              for key, value in zip(keys, values)}
    result["law"] = law
    gap = float(np.max(np.abs(np.asarray(values[-2])
                              - np.asarray(values[-1]))))
    return _payload("frames", prob, result,
                    {diagnostic: {"value": gap, "eq": eq}}), 0


def _target_problem(prob, args):
    spec = prob.cfg.get("target")
    if spec is None:
        return prob
    if not isinstance(spec, dict):
        raise ConfigError("target must be an object with its own "
                          "connection block")
    return Problem(spec, args)


def cmd_morphism(args):
    prob = Problem(load_config(args.config), args)
    target = _target_problem(prob, args)
    spec = _require(prob.cfg, "morphism",
                    "an object with base components and a fibre block")
    if not isinstance(spec, dict):
        raise ConfigError("morphism must be an object")
    base = _require(spec, "base", "n' base-map expressions")
    if not isinstance(base, list) or len(base) != target.n:
        raise ConfigError(f"morphism.base must list {target.n} expressions")
    full_region = bundle_region(prob.region, prob.r)
    if "matrix" in spec:
        rows = spec["matrix"]
        matrix = _build(MatrixField.from_exprs, rows, base_names(prob.n),
                        prob.region)
        if matrix.shape != (target.r, prob.r):
            raise ConfigError(f"morphism.matrix must be {target.r} rows of "
                              f"{prob.r} entries")
        m = _build(BundleMorphism.vector, base, matrix, prob.n, prob.r,
                   region=full_region, base_region=prob.region)
    elif "fibre" in spec:
        fibre = spec["fibre"]
        if not isinstance(fibre, list) or len(fibre) != target.r:
            raise ConfigError(f"morphism.fibre must list {target.r} "
                              "expressions")
        m = _build(BundleMorphism.from_exprs, base, fibre, prob.n,
                   prob.r, region=full_region, base_region=prob.region)
    else:
        raise ConfigError("morphism needs either matrix (vector-bundle "
                          "form) or fibre (general components)")
    p = prob.bundle_point()
    J = jacobi_natural(m, p, prob.fd_step)
    Jad, block = jacobi_adapted(m, prob.g2, target.g2, p, prob.fd_step)
    if "sample_points" in prob.cfg:
        pts = prob.cfg["sample_points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError("sample_points must be a non-empty list")
        pts = [_float_list(q, prob.n + prob.r, "a sample point")
               for q in pts]
    else:
        pts = [p]
    ok, worst = preserves_connection(m, prob.g2, target.g2, pts, prob.tol)
    result = {
        "jacobi_natural": {"value": J, "eq": "5.4"},
        "jacobi_adapted": {"value": Jad, "eq": "5.8"},
        "defect_block": {"value": block, "eq": "5.10"},
        "preserves": {"verdict": ok, "max_defect": worst, "eq": "5.11"},
    }
    if m.matrix is not None and prob.g3 is not None and target.g3 is not None:
        D = vb_morphism_coeffs(m, prob.g3, target.g3, p[:prob.n],
                               prob.fd_step)
        result["linear_defect"] = {"value": D, "eq": "5.14"}
    diagnostics = {"samples": {"value": len(pts), "eq": "5.11"}}
    return _payload("morphism", prob, result, diagnostics), 0


def cmd_check(args):
    if args.suite is not None:
        results = [suites.run_suite(args.suite)]
        inputs = {"suite": args.suite}
    else:
        results = suites.run_all()
        inputs = {"suite": "all"}
    passed = all(res["passed"] for res in results)
    payload = {"command": "check",
               "inputs": inputs,
               "result": {"suites": results, "passed": passed},
               "diagnostics": {}}
    return payload, 0 if passed else 1


COMMANDS = {
    "transport": (cmd_transport, "parallel transport along a path"),
    "geodesic": (cmd_geodesic, "integrate a geodesic"),
    "curvature": (cmd_curvature, "curvature at a point or over a grid"),
    "flatness": (cmd_flatness,
                 "certify flatness; with x0/x1, integrate the fundamental "
                 "matrix"),
    "covd": (cmd_covd,
             "all three covariant-derivative definitions side by side"),
    "frames": (cmd_frames,
               "apply a transformation law and report both sides"),
    "morphism": (cmd_morphism, "Jacobi blocks and preservation verdict"),
    "check": (cmd_check, "run the property suites"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bundleconn",
        description="numerical engine for connections on fibre bundles "
                    "over coordinate patches (JSON in, JSON out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "check":
            sp.add_argument("--suite", choices=suites.suite_names(),
                            help="run one named suite instead of all")
        else:
            sp.add_argument("--config", required=True,
                            help="path to the JSON problem config")
            sp.add_argument("--steps", type=int,
                            help="integration step count (overrides config)")
            sp.add_argument("--fd-step", type=float, dest="fd_step",
                            help="finite-difference step (overrides config)")
            sp.add_argument("--tol", type=float,
                            help="tolerance (overrides config)")
            sp.add_argument("--samples", type=int,
                            help="grid density per axis (overrides config)")
        sp.set_defaults(fn=fn)
    return parser


def _emit_error(command, exc):
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        error["offset"] = exc.offset
    sys.stdout.write(dumps({"command": command, "error": error}) + "\n")
    sys.stdout.flush()


def main(argv=None):
    logging.basicConfig(stream=sys.stderr,
                        level=os.environ.get("BUNDLECONN_LOG", "WARNING"),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        payload, code = args.fn(args)
    except (ConfigError, ParseError, UnboundVariable,
            StepCountTooSmall) as exc:
        log.error("%s failed: %s", args.command, exc)
        _emit_error(args.command, exc)
        return 2
    except EngineError as exc:
        log.error("%s failed: %s", args.command, exc)
        _emit_error(args.command, exc)
        return 1
    log.info("%s finished in %.3fs", args.command,
             time.perf_counter() - t0)
    sys.stdout.write(dumps(payload) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

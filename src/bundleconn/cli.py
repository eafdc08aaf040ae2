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
    curvature_law,
    curvatures,
    fibre_curvature_general,
    flat_fundamental_matrix,
    is_flat,
    nabla_hat_oracle,
)
from .connection import (
    AffineCoefficients,
    CoefficientField3,
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
    NonFinite,
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
from .registry import REGISTRY, _is_finite_number
from .transport import (
    PathSpec,
    covariant_derivative_limit,
    geodesic,
    transport_affine,
    transport_general,
    transport_linear,
)


class _StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is at each record, redirected or not."""
    stream = property(lambda self: sys.stderr, lambda self, value: None)


# the CLI's own stderr channel, whatever handlers the host process set up
_handler = _StderrHandler()
_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
log = logging.getLogger("bundleconn.cli")
log.addHandler(_handler)
log.propagate = False

DEFAULT_STEPS = 400
DEFAULT_TOL = 1e-6
DEFAULT_SAMPLES = 3
# ceilings on the work one config can ask for, checked before anything is
# allocated: RK4 steps of a path or geodesic, and points of a grid lattice
MAX_STEPS = 1_000_000
MAX_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# deterministic JSON writer


def _format_float(value):
    if not math.isfinite(value):
        raise NonFinite(f"cannot serialize non-finite number {value!r}")
    return format(value, ".17g")


def _template(shape):
    """The %-template that writes a finite float array of this shape as
    _emit writes its nested lists."""
    template = "%.17g"
    for k in reversed(shape):
        template = "[" + ", ".join([template] * k) + "]"
    return template


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
        if obj.ndim and obj.dtype == np.float64 and np.isfinite(obj).all():
            parts.append(_template(obj.shape) % tuple(obj.ravel().tolist()))
        else:
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

    def finite(token):
        value = float(token)
        if not math.isfinite(value):
            raise ConfigError(f"{token} in config {path} is not finite")
        return value

    def integer(token):
        try:
            return int(token)
        except ValueError:
            raise ConfigError(
                f"an integer in config {path} has {len(token.lstrip('-'))} "
                f"digits, more than {sys.get_int_max_str_digits()}") from None

    try:
        cfg = json.loads(raw.decode("utf-8"), parse_float=finite,
                         parse_int=integer, parse_constant=finite)
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply") from None
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


def _float_list(value, length, what):
    """A list of `length` finite numbers."""
    if (not isinstance(value, (list, tuple)) or len(value) != length
            or not all(_is_finite_number(v) for v in value)):
        raise ConfigError(f"{what} must be a list of {length} numbers")
    return tuple(float(v) for v in value)


def _entries(value, k, what):
    """A list of k field entries, each checked when its field is built."""
    if not isinstance(value, list) or len(value) != k:
        raise ConfigError(f"{what} must list {k} expressions")
    return value


def _points(value, dim, what, least):
    """A list of at least `least` points of `dim` numbers each."""
    if not isinstance(value, list) or len(value) < least:
        raise ConfigError(f"{what} must list {least} or more points")
    return [_float_list(p, dim, f"a point of {what}") for p in value]


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
        self.args = args
        self.steps = self._effective(args, "steps", cfg, int, DEFAULT_STEPS)
        self.fd_step = self._effective(args, "fd_step", cfg, float, None)
        self.tol = self._effective(args, "tol", cfg, float, DEFAULT_TOL)
        self.samples = self._effective(args, "samples", cfg, int,
                                       DEFAULT_SAMPLES)
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ConfigError(f"steps must be at most {MAX_STEPS}")
        if self.samples < 1:
            raise ConfigError(f"samples must be positive, got {self.samples}")
        if self.fd_step is not None and self.fd_step <= 0.0:
            raise ConfigError(f"fd_step must be positive, got {self.fd_step}")
        if self.tol < 0.0:
            raise ConfigError(f"tol must be non-negative, got {self.tol}")

    @staticmethod
    def _effective(args, name, cfg, cast, default):
        """The flag, else the config value, else the default."""
        value = getattr(args, name, None)
        if value is None:
            if name not in cfg:
                return default
            value = cfg[name]
        if cast is int and type(value) is not int:
            raise ConfigError(f"{name} must be an integer")
        if not _is_finite_number(value):
            raise ConfigError(f"{name} must be a finite number")
        return cast(value)

    def _build_region(self, spec):
        """Per-axis [lo, hi] bounds; a null axis is unbounded."""
        if spec is None:
            return None
        if not isinstance(spec, list):
            raise ConfigError("region must be a list of per-axis bounds")
        return _build(Region, [(-math.inf, math.inf) if axis is None
                               else _float_list(axis, 2, "a region axis")
                               for axis in spec])

    def _declared_dims(self, required):
        n = self.cfg.get("base_dim")
        r = self.cfg.get("fibre_rank")
        if required and (n is None or r is None):
            raise ConfigError("base_dim and fibre_rank are required for "
                              "explicit connection blocks")
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
        if steps > MAX_STEPS:
            raise ConfigError(f"path.steps must be at most {MAX_STEPS}")
        if self.args.steps is not None:
            steps = self.args.steps
        if "exprs" in spec:
            exprs = _entries(spec["exprs"], self.n, "path.exprs")
            t0 = spec.get("t0", 0.0)
            t1 = spec.get("t1", 1.0)
            if not (_is_finite_number(t0) and _is_finite_number(t1)):
                raise ConfigError("path.t0 and path.t1 must be numbers")
            return _build(PathSpec, exprs=exprs, interval=(t0, t1),
                          steps=steps)
        if "points" in spec:
            pts = _points(spec["points"], self.n, "path.points", 2)
            return _build(PathSpec, points=pts, steps=steps)
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
        fc = _build(FrameChange.from_exprs,
                    _require(spec, "base", "n x n expression rows"),
                    _require(spec, "fibre", "r x r expression rows"),
                    self.n, self.region)
        if (fc.n, fc.r) != (self.n, self.r):
            raise ConfigError(f"frame_change needs {self.n} x {self.n} base "
                              f"and {self.r} x {self.r} fibre blocks")
        return fc

    def frame(self, key):
        """The base frame given as n x n expression rows under key, or
        None when the config has no such key."""
        if key not in self.cfg:
            return None
        frame = _build(FrameField.from_exprs, self.cfg[key],
                       base_names(self.n), self.region)
        if frame.dim != self.n:
            raise ConfigError(f"{key} must be {self.n} rows of {self.n} "
                              "entries")
        return frame

    def target(self):
        """The problem a morphism maps into: the config's own target block,
        read with the same flags, else this problem."""
        spec = self.cfg.get("target")
        if spec is None:
            return self
        if not isinstance(spec, dict):
            raise ConfigError("target must be an object with its own "
                              "connection block")
        return Problem(spec, self.args)

    def inputs(self):
        return {"config": self.cfg,
                "effective": {"steps": self.steps, "fd_step": self.fd_step,
                              "tol": self.tol, "samples": self.samples}}


def _grid_points(prob):
    """Sample lattice for grid commands: explicit points win, else a
    samples^n lattice over the config grid box."""
    cfg = prob.cfg
    if "points" in cfg:
        return _points(cfg["points"], prob.n, "points", 1)
    grid = _require(cfg, "grid", "an object with lo and hi corner points "
                                 "(or an explicit points list)")
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    lo = _float_list(_require(grid, "lo", "grid corner"), prob.n, "grid.lo")
    hi = _float_list(_require(grid, "hi", "grid corner"), prob.n, "grid.hi")
    k = prob.samples
    if k ** prob.n > MAX_GRID_POINTS:
        raise ConfigError(f"a grid may hold at most {MAX_GRID_POINTS} "
                          f"points; samples^{prob.n} is more")
    axes = [np.linspace(lo[i], hi[i], k) for i in range(prob.n)]
    return [tuple(float(axes[i][idx[i]]) for i in range(prob.n))
            for idx in np.ndindex(*([k] * prob.n))]


# ---------------------------------------------------------------------------
# commands


def cmd_transport(prob):
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
    return result, diagnostics


def cmd_geodesic(prob):
    g3 = prob.need_g3("geodesic integration")
    if g3.r != g3.n:
        raise ConfigError("geodesics need tangent-bundle coefficients "
                          f"(fibre_rank == base_dim, got {g3.r} != {g3.n})")
    x0 = prob.base_point("x0")
    v0 = _float_list(_require(prob.cfg, "v0", "the initial velocity"),
                     prob.n, "v0")
    T = _require(prob.cfg, "T", "the parameter span")
    if not _is_finite_number(T) or float(T) <= 0.0:
        raise ConfigError("T must be a positive number")
    res = geodesic(g3, x0, v0, float(T), prob.steps)
    eq = "3.27, 4.29"
    result = {"final_position": {"value": res.final[:prob.n], "eq": eq},
              "final_velocity": {"value": res.final[prob.n:], "eq": eq}}
    diagnostics = {"max_residual": {"value": res.max_residual, "eq": eq}}
    return result, diagnostics


def cmd_curvature(prob):
    cfg = prob.cfg
    if prob.kind == "general":
        # two-index connections: fibre curvature at one bundle point
        p = prob.bundle_point()
        R2, _, _ = fibre_curvature_general(prob.g2, None, p, prob.fd_step)
        eq = "3.24a"
        result = {"R2": {"value": R2, "eq": eq}}
        worst = float(np.max(np.abs(R2)))
    elif "grid" in cfg or ("points" in cfg and "point" not in cfg):
        eq, pts = "4.27", _grid_points(prob)
        Rs = curvatures(prob.g3, pts, prob.fd_step)
        tops = np.abs(Rs).max(axis=(1, 2, 3, 4)).tolist()
        result = {"grid": [{"point": list(x), "R": R, "max_abs": top,
                            "eq": eq} for x, R, top in zip(pts, Rs, tops)]}
        worst = max(tops)
    else:
        x = prob.base_point()
        frame = prob.frame("base_frame")
        R = curvature(prob.g3, x, prob.fd_step, frame)
        eq = "4.27" if frame is None else "6.40"
        result = {"R": {"value": R, "eq": eq}}
        worst = float(np.max(np.abs(R)))
    return result, {"max_abs": {"value": worst, "eq": eq}}


def cmd_flatness(prob):
    g3 = prob.need_g3("flatness certification")
    pts = _grid_points(prob)
    flat, worst = is_flat(g3, pts, prob.tol, prob.fd_step)
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
    return result, diagnostics


def cmd_covd(prob):
    g3 = prob.need_g3("the covariant-derivative triangle")
    x = prob.base_point()
    direction = _float_list(_require(prob.cfg, "direction",
                                     "n numeric vector components"),
                            prob.n, "direction")
    section = _entries(_require(prob.cfg, "section",
                                "r section expressions over the base"),
                       prob.r, "section")
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
    return result, diagnostics


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
        BundleMorphism.vector(base_names(prob.n), fibre, prob.n, prob.r)
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
    comps = _entries(_require(prob.cfg, "vector_field",
                              "n components in the chosen frame"),
                     prob.n, "vector_field")
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


def cmd_frames(prob):
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
    return result, {diagnostic: {"value": gap, "eq": eq}}


def cmd_morphism(prob):
    target = prob.target()
    spec = _require(prob.cfg, "morphism",
                    "an object with base components and a fibre block")
    if not isinstance(spec, dict):
        raise ConfigError("morphism must be an object")
    base = _entries(_require(spec, "base", "n' base-map expressions"),
                    target.n, "morphism.base")
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
        fibre = _entries(spec["fibre"], target.r, "morphism.fibre")
        m = _build(BundleMorphism, base, fibre, prob.n, prob.r,
                   region=full_region, base_region=prob.region)
    else:
        raise ConfigError("morphism needs either matrix (vector-bundle "
                          "form) or fibre (general components)")
    p = prob.bundle_point()
    J = jacobi_natural(m, p, prob.fd_step)
    Jad, block = jacobi_adapted(m, prob.g2, target.g2, p, prob.fd_step)
    if "sample_points" in prob.cfg:
        pts = _points(prob.cfg["sample_points"], prob.n + prob.r,
                      "sample_points", 1)
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
    return result, diagnostics


def cmd_check(suite):
    """The named property suite, or all of them when suite is None."""
    results = suites.run_all() if suite is None else [suites.run_suite(suite)]
    return {"suites": results,
            "passed": all(res["passed"] for res in results)}, {}


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


# built once per process: parse_args keeps no state between calls, and the
# help width is read from the terminal each time help is printed
PARSER = build_parser()


# malformed configs exit 2; every other EngineError is a numerical failure
CONFIG_ERRORS = (ConfigError, ParseError, UnboundVariable, StepCountTooSmall)


def main(argv=None):
    log.setLevel(os.environ.get("BUNDLECONN_LOG", "WARNING"))
    args = PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        # an overflow or NaN ends in NonFinite, not in a numpy warning
        with np.errstate(all="ignore"):
            if args.command == "check":
                inputs = {"suite": args.suite or "all"}
                result, diagnostics = cmd_check(args.suite)
                code = 0 if result["passed"] else 1
            else:
                prob = Problem(load_config(args.config), args)
                inputs = prob.inputs()
                result, diagnostics = args.fn(prob)
                code = 0
            out = dumps({"command": args.command, "inputs": inputs,
                         "result": result, "diagnostics": diagnostics})
    except EngineError as exc:
        log.error("%s failed: %s", args.command, exc)
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            error["offset"] = exc.offset
        out = dumps({"command": args.command, "error": error})
        code = 2 if isinstance(exc, CONFIG_ERRORS) else 1
    else:
        log.info("%s finished in %.3fs", args.command,
                 time.perf_counter() - t0)
    sys.stdout.write(out + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

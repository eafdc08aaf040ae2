"""End-to-end tests of the command-line interface: the JSON output
contract (eq tags, sorted keys, 17-significant-digit floats), exit codes,
byte-level determinism, and the documented examples."""

import ast
import collections
import contextlib
import copy
import gc
import io
import json
import logging
import math
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bundleconn import cli
from bundleconn.calculus import curvature, curvature_law
from bundleconn.connection import (
    FrameChange,
    base_names,
    three_index_round_trip,
    two_index_round_trip,
)
from bundleconn.errors import ConfigError, NonFinite
from bundleconn.fields import FrameField, lie_gamma_law
from bundleconn.morphism import BundleMorphism
from bundleconn.registry import REGISTRY

HALF_PI = math.pi / 2.0

SPHERE_STACKS = [
    [["0", "0"], ["0", "cot(x1)"]],
    [["0", "-sin(x1)*cos(x1)"], ["cot(x1)", "0"]],
]
CONSTANT_STACKS = [
    [["0", "1"], ["0", "0"]],
    [["0", "0"], ["1", "0"]],
]


def write_config(tmp_path, cfg):
    """Write a config dict as JSON, a string as the raw file text, or bytes
    as they are."""
    path = tmp_path / "config.json"
    if isinstance(cfg, bytes):
        path.write_bytes(cfg)
    else:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg),
                        encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def assert_numbers_tagged(node, tagged=False, path=()):
    """Every numeric leaf must sit below a dict that carries an "eq" key
    (bools and strings are exempt)."""
    if isinstance(node, dict):
        below = tagged or "eq" in node
        for key, value in node.items():
            assert_numbers_tagged(value, below, path + (key,))
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            assert_numbers_tagged(value, tagged, path + (i,))
    elif isinstance(node, bool) or node is None or isinstance(node, str):
        pass
    else:
        joined = "/".join(str(part) for part in path)
        assert tagged, f"number without an eq tag at {joined}"


def assert_contract(payload):
    assert set(payload) == {"command", "inputs", "result", "diagnostics"}
    assert_numbers_tagged(payload["result"], path=("result",))
    assert_numbers_tagged(payload["diagnostics"], path=("diagnostics",))


# ---------------------------------------------------------------------------
# documented examples


def test_transport_flat_example(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:flat",
        "path": {"exprs": ["t", "t*t"], "t0": 0.0, "t1": 1.0, "steps": 200},
        "initial": [1.0, 2.0],
    })
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 0
    assert_contract(payload)
    final = payload["result"]["final"]
    assert final["eq"] == "4.18"
    assert np.allclose(final["value"], [1.0, 2.0], atol=1e-12)
    assert payload["diagnostics"]["transport_kind"] == "linear"


def test_geodesic_sphere_equator(tmp_path, capsys):
    # exact equator data: the final point is (pi/2, pi)
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "x0": [HALF_PI, 0.0],
        "v0": [0.0, 1.0],
        "T": math.pi,
        "steps": 2000,
    })
    code, payload = run_json(capsys, "geodesic", "--config", path)
    assert code == 0
    assert_contract(payload)
    final = payload["result"]["final_position"]
    assert final["eq"] == "3.27, 4.29"
    assert abs(final["value"][0] - HALF_PI) <= 1e-8
    assert abs(final["value"][1] - math.pi) <= 1e-8


def test_geodesic_sphere_truncated_pi_inputs(tmp_path, capsys):
    # the same run with 8-digit decimal stand-ins for pi/2 and pi: the
    # start sits 2.7e-8 off the equator, so the exact endpoint is the
    # reflection (pi - x0, T); the integrator must hit that within 1e-8
    x0 = 1.5707963
    T = 3.1415926
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "x0": [x0, 0.0],
        "v0": [0.0, 1.0],
        "T": T,
        "steps": 2000,
    })
    code, payload = run_json(capsys, "geodesic", "--config", path)
    assert code == 0
    value = payload["result"]["final_position"]["value"]
    assert abs(value[0] - (math.pi - x0)) <= 1e-8
    assert abs(value[1] - T) <= 1e-8
    assert abs(value[0] - HALF_PI) <= 1e-7
    assert abs(value[1] - math.pi) <= 1e-7


def test_flatness_pure_gauge_example(tmp_path, capsys):
    points = [[0.2 + 0.3 * i, 0.15 + 0.08 * j]
              for i in range(3) for j in range(9)]
    assert len(points) == 27
    path = write_config(tmp_path, {
        "connection": "registry:pure-gauge",
        "points": points,
    })
    code, payload = run_json(capsys, "flatness", "--config", path)
    assert code == 0
    assert_contract(payload)
    result = payload["result"]
    assert result["flat"] is True
    assert result["max_R"] <= 1e-6
    assert result["eq"] == "4.27"
    assert payload["diagnostics"]["sampled"]["value"] == 27


# ---------------------------------------------------------------------------
# command semantics


def test_transport_two_index_matches_linear(tmp_path, capsys):
    shared = {
        "base_dim": 2, "fibre_rank": 2,
        "region": [[-5.0, 5.0], None],
        "path": {"points": [[0.0, 0.0], [1.0, 0.5], [2.0, 0.2]],
                 "steps": 800},
        "initial": [1.0, -0.5],
    }
    # G[a, mu] = -G3[mu, a, b] u^b for the constant stack fixture
    cfg_general = dict(shared, connection={
        "kind": "two_index", "matrix": [["-u2", "0"], ["0", "-u1"]]})
    cfg_linear = dict(shared, connection={
        "kind": "three_index", "stacks": CONSTANT_STACKS})
    code1, p1 = run_json(capsys, "transport", "--config",
                         write_config(tmp_path, cfg_general))
    code2, p2 = run_json(capsys, "transport", "--config",
                         write_config(tmp_path, cfg_linear))
    assert code1 == 0 and code2 == 0
    assert p1["result"]["final"]["eq"] == "3.26"
    assert p2["result"]["final"]["eq"] == "4.18"
    assert p1["diagnostics"]["transport_kind"] == "general"
    assert np.allclose(p1["result"]["final"]["value"],
                       p2["result"]["final"]["value"], atol=1e-12)


def test_transport_affine_cartan(tmp_path, capsys):
    # zero linear part, inhomogeneous term = identity: the transport just
    # integrates the displacement, final = p0 + (x1 - x0)
    path = write_config(tmp_path, {
        "connection": "registry:cartan-flat",
        "path": {"points": [[0.1, 0.2], [0.7, -0.3]], "steps": 400},
        "initial": [0.25, 0.5],
    })
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 0
    final = payload["result"]["final"]
    assert final["eq"] == "4.66"
    assert payload["diagnostics"]["transport_kind"] == "affine"
    assert np.allclose(final["value"], [0.25 + 0.6, 0.5 - 0.5], atol=1e-10)


def test_curvature_point_sphere(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
    })
    code, payload = run_json(capsys, "curvature", "--config", path)
    assert code == 0
    assert_contract(payload)
    R = np.array(payload["result"]["R"]["value"])
    assert payload["result"]["R"]["eq"] == "4.27"
    assert R.shape == (2, 2, 2, 2)
    # unit sphere: |R^theta_{phi theta phi}| = sin^2(theta), the other
    # independent entry is 1
    assert abs(payload["diagnostics"]["max_abs"]["value"] - 1.0) <= 1e-6
    assert abs(abs(R[0, 1, 0, 1]) - math.sin(1.1) ** 2) <= 1e-6
    assert np.allclose(R, -R.transpose(0, 1, 3, 2), atol=0.0)


def test_curvature_grid(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:pure-gauge",
        "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8]},
        "samples": 2,
    })
    code, payload = run_json(capsys, "curvature", "--config", path)
    assert code == 0
    assert_contract(payload)
    entries = payload["result"]["grid"]
    assert len(entries) == 4
    for entry in entries:
        assert entry["eq"] == "4.27"
        assert entry["max_abs"] <= 1e-8
    assert payload["diagnostics"]["max_abs"]["value"] <= 1e-8


def test_curvature_two_index_point(tmp_path, capsys):
    # fibre curvature of the constant-stack fixture via its general form:
    # R^a_{12} = -R^a_{b12} u^b with R^._{.12} = -[G_1, G_2]
    path = write_config(tmp_path, {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "two_index",
                       "matrix": [["-u2", "0"], ["0", "-u1"]]},
        "point": [0.5, 0.8, 0.7, -0.2],
    })
    code, payload = run_json(capsys, "curvature", "--config", path)
    assert code == 0
    assert_contract(payload)
    assert payload["result"]["R2"]["eq"] == "3.24a"
    assert abs(payload["diagnostics"]["max_abs"]["value"] - 0.7) <= 1e-6


def test_curvature_general_base_frame(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
        "base_frame": [["1", "0.5*x1"], ["0", "1"]],
    })
    code, payload = run_json(capsys, "curvature", "--config", path)
    assert code == 0
    assert payload["result"]["R"]["eq"] == "6.40"
    assert np.array(payload["result"]["R"]["value"]).shape == (2, 2, 2, 2)


def test_flatness_fundamental_matrix(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:pure-gauge",
        "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8]},
        "x0": [0.2, 0.1],
        "x1": [0.9, 0.8],
    })
    code, payload = run_json(capsys, "flatness", "--config", path)
    assert code == 0
    fundamental = payload["result"]["fundamental"]
    assert fundamental["eq"] == "4.54"
    assert fundamental["residual"] <= 1e-7
    # the integrating matrix of the alpha = x1*x2 rotation gauge is the
    # rotation by alpha(x1) - alpha(x0)
    delta = 0.9 * 0.8 - 0.2 * 0.1
    c, s = math.cos(delta), math.sin(delta)
    expected = np.array([[c, -s], [s, c]])
    assert np.allclose(fundamental["matrix"], expected, atol=1e-7)


def test_covd_three_definitions_agree(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
        "direction": [0.8, -0.3],
        "section": ["sin(x2)*x1", "x1^2 - x2"],
    })
    code, payload = run_json(capsys, "covd", "--config", path)
    assert code == 0
    assert_contract(payload)
    defs = payload["result"]["definitions"]
    assert defs["direct"]["eq"] == "4.37"
    assert defs["transport_limit"]["eq"] == "4.38"
    assert defs["bundle_operator"]["eq"] == "4.32, 4.36"
    direct = np.array(defs["direct"]["value"])
    for other in ("transport_limit", "bundle_operator"):
        assert np.allclose(defs[other]["value"], direct, atol=1e-6)
    assert payload["diagnostics"]["limit_vs_direct"]["value"] <= 1e-6
    assert payload["diagnostics"]["operator_vs_direct"]["value"] <= 1e-6


FRAME_CHANGE = {
    "base": [["1 + 0.2*sin(x1)", "0.1*x2"], ["0", "1 - 0.1*cos(x2)"]],
    "fibre": [["1", "0.3*x1"], ["0.2*x2", "1"]],
}


def frames_config(law, **extra):
    cfg = {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
        "law": law,
        "frame_change": FRAME_CHANGE,
    }
    cfg.update(extra)
    return cfg


def test_frames_round_trip_laws(tmp_path, capsys):
    cases = [
        (frames_config("three-index"), "4.25"),
        (frames_config("three-index",
                       base_frame=[["1", "0.5*x1"], ["0", "1"]]), "6.33"),
        (frames_config("two-index", point=[1.1, 0.4, 0.7, -0.2]), "3.22"),
        ({"connection": "registry:cartan-flat", "point": [0.5, 0.8],
          "law": "inhomogeneous", "frame_change": FRAME_CHANGE}, "4.63"),
    ]
    for cfg, eq in cases:
        code, payload = run_json(capsys, "frames", "--config",
                                 write_config(tmp_path, cfg))
        assert code == 0, cfg["law"]
        assert_contract(payload)
        diag = payload["diagnostics"]["round_trip_error"]
        assert diag["eq"] == eq
        assert diag["value"] <= 1e-8, (cfg["law"], diag["value"])
        result = payload["result"]
        assert np.allclose(result["round_trip"]["value"],
                           result["original"]["value"], atol=1e-8)


def test_frames_predicted_vs_direct_laws(tmp_path, capsys):
    anh = {
        "connection": "registry:flat",
        "point": [2.0, 0.7],
        "frame": [["1", "0"], ["0", "x1"]],
        "frame_change": FRAME_CHANGE,
    }
    cases = [
        (frames_config("curvature"), "4.28"),
        (dict(anh, law="anholonomy"), "2.7-1"),
        (dict(anh, law="lie", vector_field=["x1*x2", "sin(x1)"]), "2.7-3"),
    ]
    for cfg, eq in cases:
        code, payload = run_json(capsys, "frames", "--config",
                                 write_config(tmp_path, cfg))
        assert code == 0, cfg["law"]
        assert_contract(payload)
        diag = payload["diagnostics"]["agreement"]
        assert diag["eq"] == eq
        assert diag["value"] <= 1e-6, (cfg["law"], diag["value"])


def test_frames_prints_the_shared_law_values(tmp_path, capsys):
    """The frames command reports exactly what the shared law functions
    return, so the command and the suites cannot drift apart."""
    sphere = REGISTRY.build("sphere-lc")
    names = base_names(2)
    fc = FrameChange.from_exprs(FRAME_CHANGE["base"], FRAME_CHANGE["fibre"],
                                2, sphere.region)
    x = (1.1, 0.4)
    base_frame_rows = [["1", "0.5*x1"], ["0", "1"]]
    base_frame = FrameField.from_exprs(base_frame_rows, names, sphere.region)
    forward, back = three_index_round_trip(sphere.g3, fc, x, base_frame)

    p = (1.1, 0.4, 0.7, -0.2)
    change, change_inv = (
        BundleMorphism.vector(list(names), fibre, 2, 2)
        for fibre in (fc.fibre, fc.inverse().fibre))
    forward2, back2 = two_index_round_trip(sphere.g2, change, change_inv, p)

    predicted, direct = curvature_law(sphere.g3, fc, x)

    frame_rows = [["1", "0"], ["0", "x1"]]
    vector_field = ["x1*x2", "sin(x1)"]
    flat_fc = FrameChange.from_exprs(FRAME_CHANGE["base"],
                                     FRAME_CHANGE["fibre"], 2)
    predicted_l, direct_l = lie_gamma_law(
        FrameField.from_exprs(frame_rows, names), flat_fc.base,
        vector_field, (2.0, 0.7))

    cases = [
        (frames_config("three-index", base_frame=base_frame_rows),
         {"transformed": forward, "round_trip": back}),
        (frames_config("two-index", point=list(p)),
         {"transformed": forward2, "round_trip": back2}),
        (frames_config("curvature"),
         {"predicted": predicted, "direct": direct}),
        ({"connection": "registry:flat", "point": [2.0, 0.7], "law": "lie",
          "frame": frame_rows, "vector_field": vector_field,
          "frame_change": FRAME_CHANGE},
         {"predicted": predicted_l, "direct": direct_l}),
    ]
    for cfg, expected in cases:
        code, payload = run_json(capsys, "frames", "--config",
                                 write_config(tmp_path, cfg))
        assert code == 0, cfg["law"]
        for key, value in expected.items():
            assert payload["result"][key]["value"] == value.tolist(), key


def test_morphism_identity(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "morphism": {"base": ["x1", "x2"],
                     "matrix": [["1", "0"], ["0", "1"]]},
        "point": [1.1, 0.4, 0.7, -0.2],
    })
    code, payload = run_json(capsys, "morphism", "--config", path)
    assert code == 0
    assert_contract(payload)
    result = payload["result"]
    assert result["preserves"]["verdict"] is True
    assert result["preserves"]["max_defect"] <= 1e-7
    assert np.allclose(result["jacobi_adapted"]["value"], np.eye(4),
                       atol=1e-7)
    assert np.abs(np.array(result["defect_block"]["value"])).max() <= 1e-7


def test_morphism_gauge(tmp_path, capsys):
    zero_target = {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "three_index",
                       "stacks": [[["0", "0"], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]]]},
    }
    path = write_config(tmp_path, {
        "connection": "registry:pure-gauge",
        "target": zero_target,
        "morphism": {
            "base": ["x1", "x2"],
            "matrix": [["cos(x1*x2)", "sin(x1*x2)"],
                       ["-sin(x1*x2)", "cos(x1*x2)"]],
        },
        "point": [0.5, 0.8, 0.7, -0.2],
        "sample_points": [[0.5, 0.8, 0.7, -0.2], [0.3, 0.4, 1.0, 0.5],
                          [0.9, 0.2, -0.3, 0.8]],
    })
    code, payload = run_json(capsys, "morphism", "--config", path)
    assert code == 0
    assert_contract(payload)
    result = payload["result"]
    assert result["jacobi_natural"]["eq"] == "5.4"
    assert result["jacobi_adapted"]["eq"] == "5.8"
    assert result["defect_block"]["eq"] == "5.10"
    assert result["preserves"]["eq"] == "5.11"
    assert result["linear_defect"]["eq"] == "5.14"
    assert result["preserves"]["verdict"] is True
    assert result["preserves"]["max_defect"] <= 1e-6
    assert np.abs(np.array(result["linear_defect"]["value"])).max() <= 1e-6
    # structural zero of the adapted Jacobi matrix: upper-right block
    adapted = np.array(result["jacobi_adapted"]["value"])
    assert np.abs(adapted[:2, 2:]).max() <= 1e-9


def test_check_single_suite(capsys):
    code, payload = run_json(capsys, "check", "--suite", "parser")
    assert code == 0
    result = payload["result"]
    assert result["passed"] is True
    suite = result["suites"][0]
    assert suite["criterion"] == 13
    assert suite["suite"] == "parser"
    for check in suite["checks"]:
        assert {"name", "eq", "value", "bound", "kind", "passed"} <= \
            set(check)
        assert check["passed"] is True


# ---------------------------------------------------------------------------
# flags


def test_flag_overrides_steps(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "x0": [HALF_PI, 0.0],
        "v0": [0.0, 1.0],
        "T": math.pi,
        "steps": 2000,
    })
    code, payload = run_json(capsys, "geodesic", "--config", path,
                             "--steps", "50")
    assert code == 0
    assert payload["inputs"]["effective"]["steps"] == 50
    assert payload["inputs"]["config"]["steps"] == 2000


def test_flag_overrides_tol_and_nonflat_verdict(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "points": [[0.8, 0.3], [1.2, 0.9], [1.9, 1.4]],
    })
    code, payload = run_json(capsys, "flatness", "--config", path)
    assert code == 0  # a negative verdict is still a successful diagnosis
    assert payload["result"]["flat"] is False
    assert payload["result"]["max_R"] >= 0.1
    code, payload = run_json(capsys, "flatness", "--config", path,
                             "--tol", "2.0")
    assert code == 0
    assert payload["result"]["flat"] is True
    assert payload["inputs"]["effective"]["tol"] == 2.0


SPHERE_SAMPLES = [[0.8, 0.3], [1.2, 0.9], [1.9, 1.4]]


@pytest.mark.parametrize("fd_step", [1e-3, 0.02])
def test_flatness_uses_fd_step(tmp_path, capsys, fd_step):
    path = write_config(tmp_path, {"connection": "registry:sphere-lc",
                                   "points": SPHERE_SAMPLES,
                                   "fd_step": fd_step})
    code, payload = run_json(capsys, "flatness", "--config", path)
    assert code == 0
    assert payload["inputs"]["effective"]["fd_step"] == fd_step
    g3 = REGISTRY.build("sphere-lc").g3

    def worst(h):
        return max(float(np.abs(curvature(g3, x, h)).max())
                   for x in SPHERE_SAMPLES)
    assert payload["result"]["max_R"] == worst(fd_step) != worst(None)


def test_flatness_stencil_leaving_the_region_is_domain_exit(tmp_path,
                                                           capsys):
    path = write_config(tmp_path, {"connection": "registry:sphere-lc",
                                   "points": SPHERE_SAMPLES,
                                   "fd_step": 1e300})
    code, payload = run_json(capsys, "flatness", "--config", path)
    assert code == 1
    assert payload["error"]["type"] == "DomainExit"
    assert payload["error"]["message"].startswith("point (1e+300, 0.3) ")


# ---------------------------------------------------------------------------
# output format


def test_json_is_sorted_and_round_trips(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
        "direction": [0.8, -0.3],
        "section": ["sin(x2)*x1", "x1^2 - x2"],
    })
    code, out = run(capsys, "covd", "--config", path)
    assert code == 0

    def check_sorted(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    parsed = json.loads(out, object_pairs_hook=check_sorted)
    # the writer is stable through a parse cycle: floats at 17 significant
    # digits re-serialize to the same text
    assert cli.dumps(parsed) == out.strip()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
               -1e300, 0.1, 1 / 3, -1.7976931348623157e308]


def per_float(array):
    """dumps of the array's nested lists: one float at a time."""
    return cli.dumps(array.tolist())


@pytest.mark.parametrize("shape", [(10,), (2, 5), (5, 1, 2), (0,), (0, 2),
                                   (2, 0), ()])
def test_float_arrays_dump_as_their_nested_lists(shape):
    values = np.resize(np.array(EDGE_FLOATS), shape)
    assert cli.dumps(values) == per_float(values)
    assert cli.dumps({"R": values}) == cli.dumps({"R": values.tolist()})
    # a strided view dumps in its logical order
    assert cli.dumps(values.T) == per_float(values.T)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=24),
       rows=st.sampled_from([1, 2, 3]))
def test_finite_float_arrays_dump_as_their_nested_lists(values, rows):
    array = np.array(values[:len(values) // rows * rows]).reshape(rows, -1)
    assert cli.dumps(array) == per_float(array)
    assert cli.dumps(array[0]) == per_float(array[0])


def test_other_arrays_dump_one_value_at_a_time(monkeypatch):
    def no_template(shape):
        raise AssertionError("an array took the template path")
    monkeypatch.setattr(cli, "_template", no_template)
    assert cli.dumps(np.arange(3)) == "[0, 1, 2]"
    assert cli.dumps(np.array([[True], [False]])) == "[[true], [false]]"
    assert cli.dumps(np.array(0.25)) == "0.25"
    half = np.array([0.1, -0.0], dtype=np.float32)
    assert cli.dumps(half) == per_float(half)
    for bad, text in [(math.nan, "nan"), (-math.inf, "-inf")]:
        with pytest.raises(NonFinite, match=(
                f"^cannot serialize non-finite number {text}$")):
            cli.dumps(np.array([[1.0, 2.0], [bad, 3.0]]))


def test_writer_refuses_what_json_cannot_hold():
    with pytest.raises(TypeError, match="^non-string JSON key 1$"):
        cli.dumps({1: 2})
    with pytest.raises(TypeError, match="^cannot serialize set$"):
        cli.dumps({"a": {1}})


def reference_emit(obj, parts):
    """The writer as it was before dumps returned each value's text: one
    isinstance chain, pieces appended to a list."""
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(cli._format_float(float(obj)))
    elif isinstance(obj, np.ndarray):
        if obj.ndim and obj.dtype == np.float64 and np.isfinite(obj).all():
            parts.append(cli._template(obj.shape)
                         % tuple(obj.ravel().tolist()))
        else:
            reference_emit(obj.tolist(), parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            reference_emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            reference_emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj):
    parts = []
    reference_emit(obj, parts)
    return "".join(parts)


def outcome(write, obj):
    """The text write gives obj, or the type and message of its error."""
    try:
        return write(obj)
    except (TypeError, NonFinite) as exc:
        return type(exc), str(exc)


ARRAY_SHAPES = st.sampled_from([(), (0,), (3,), (2, 0), (2, 3), (1, 2, 2)])
JSON_TEXT = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", " ",
     "\U0001d11e", "\ud800"]), max_size=8)
PAYLOAD_LEAVES = st.one_of(
    JSON_TEXT,
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324]),
    st.floats(width=32).map(np.float32),
    ARRAY_SHAPES.flatmap(lambda shape: st.one_of(
        hnp.arrays(np.float64, shape),
        hnp.arrays(np.float64, shape, elements=st.floats(
            allow_nan=False, allow_infinity=False)),
        hnp.arrays(np.int64, shape),
        hnp.arrays(np.bool_, shape))),
)
PAYLOADS = st.recursive(
    PAYLOAD_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=PAYLOADS)
def test_writer_matches_the_reference_writer(obj):
    assert outcome(cli.dumps, obj) == outcome(reference_dumps, obj)


class Label(str):
    pass


class Grid(np.ndarray):
    pass


def test_subclasses_write_as_their_base_types():
    point = collections.namedtuple("point", "x y")
    obj = collections.OrderedDict(
        [("z", point(0.5, Label("é\n"))),
         ("a", np.array([[1.0, -0.0]]).view(Grid)),
         (Label("m"), np.int64(3))])
    text = '{"a": [[1, -0]], "m": 3, "z": [0.5, "\\u00e9\\n"]}'
    assert cli.dumps(obj) == reference_dumps(obj) == text


def test_grid_jobs_leave_nothing_behind_in_the_cli(tmp_path, capsys):
    # one process may run thousands of jobs: what the CLI allocates while
    # it builds and writes a grid must not outlive the job
    connections = ["registry:sphere-lc", "registry:pure-gauge",
                   {"kind": "registry:flat", "params": {"n": 3, "r": 1}}]

    def job(k):
        connection = connections[k % 3]
        n = 3 if isinstance(connection, dict) else 2
        path = write_config(tmp_path, {
            "connection": connection, "samples": 2 + k % 5,
            "grid": {"lo": [0.6] * n, "hi": [1.4] * n}})
        code, payload = run_json(capsys, "curvature", "--config", path)
        assert code == 0
        return {np.shape(e["R"]) for e in payload["result"]["grid"]}

    def held():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, cli.__file__)])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    for k in range(3):          # first-call allocations are not per job
        job(k)
    shapes = set()
    tracemalloc.start()
    try:
        for k in range(10):
            shapes |= job(k)
        first = held()
        for k in range(10, 50):
            shapes |= job(k)
        last = held()
    finally:
        tracemalloc.stop()
    assert shapes == {(2, 2, 2, 2), (1, 1, 3, 3)}
    assert last - first < 512


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
        "law": "curvature",
        "frame_change": FRAME_CHANGE,
    })
    outputs = set()
    for _ in range(2):
        code, out = run(capsys, "frames", "--config", path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_module_invocation_is_deterministic(tmp_path):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "x0": [HALF_PI, 0.0],
        "v0": [0.0, 1.0],
        "T": math.pi,
        "steps": 200,
    })
    runs = [subprocess.run(
        [sys.executable, "-m", "bundleconn.cli", "geodesic",
         "--config", path],
        capture_output=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith(b"\n")


def test_missing_config_flag_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "bundleconn.cli", "transport"],
        capture_output=True)
    assert proc.returncode == 2
    assert proc.stdout == b""


# ---------------------------------------------------------------------------
# one parser per process: main() reuses cli.PARSER


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    sphere = write_config(tmp_path, {
        "connection": "registry:sphere-lc", "steps": 40,
        "path": {"exprs": ["1 + 0.2*t", "t"]}, "initial": [1.0, 0.0]})
    (tmp_path / "point").mkdir()
    point = write_config(tmp_path / "point", {
        "connection": "registry:sphere-lc", "point": [1.1, 0.4]})
    calls = [["transport", "--config", sphere, "--steps", "64"],
             ["transport", "--config", sphere],
             ["check", "--suite", "parser"],
             ["curvature", "--config", point],
             ["transport", "--config"],
             ["curvature", "--config", point]]
    in_process = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        # a usage error prints only to stderr; logs go there too
        in_process.append((code, out, err if code == 2 else ""))
    alone = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "bundleconn.cli", *argv],
                              capture_output=True, text=True)
        alone.append((proc.returncode, proc.stdout,
                      proc.stderr if proc.returncode == 2 else ""))
    assert in_process == alone
    steps = [json.loads(out)["inputs"]["effective"]["steps"]
             for _, out, _ in in_process[:2]]
    assert steps == [64, 40]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 2, 0]


@pytest.mark.parametrize("argv", [["--help"], ["transport", "--help"],
                                  ["transport"]])
def test_help_and_usage_match_a_fresh_parser(capsys, monkeypatch, argv):
    texts = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for name, parse in (("main", cli.main),
                            ("fresh", cli.build_parser().parse_args)):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            texts[name, columns] = exc.value.code, capsys.readouterr()
    assert texts["main", "60"] == texts["fresh", "60"]
    assert texts["main", "120"] == texts["fresh", "120"]
    # the width is read when help is printed, not frozen at import
    assert texts["main", "60"] != texts["main", "120"]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_unreadable_config(capsys, tmp_path):
    code, payload = run_json(capsys, "transport", "--config",
                             str(tmp_path / "missing.json"))
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


def test_exit_2_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"connection": ', encoding="utf-8")
    code, payload = run_json(capsys, "transport", "--config", str(path))
    assert code == 2
    assert "at byte" in payload["error"]["message"]


def test_exit_2_parse_error_carries_offset(tmp_path, capsys):
    path = write_config(tmp_path, {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "three_index",
                       "stacks": [[["0", "sin("], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]]]},
    })
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 2
    error = payload["error"]
    assert error["type"] == "ParseError"
    assert error["offset"] == 4
    assert "at byte 4" in error["message"]


def test_exit_2_unbound_variable(tmp_path, capsys):
    path = write_config(tmp_path, {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "three_index",
                       "stacks": [[["x3", "0"], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]]]},
    })
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 2
    assert payload["error"]["type"] == "UnboundVariable"


def test_exit_2_unknown_registry_name(tmp_path, capsys):
    path = write_config(tmp_path, {"connection": "registry:moebius"})
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


def test_exit_2_step_count_too_small(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "x0": [HALF_PI, 0.0],
        "v0": [0.0, 1.0],
        "T": math.pi,
        "steps": 4,
    })
    code, payload = run_json(capsys, "geodesic", "--config", path)
    assert code == 2
    assert payload["error"]["type"] == "StepCountTooSmall"


UNREAD_KEY = ('{"connection": "registry:sphere-lc", "point": [1.1, 0.4], '
              '"note": %s}')


def two_index_entry(entry):
    return {"base_dim": 2, "fibre_rank": 2, "initial": [1.0, 0.0],
            "path": {"points": [[0.0, 0.0], [1.0, 1.0]], "steps": 40},
            "connection": {"kind": "two_index",
                           "matrix": [[entry, "0"], ["0", "0"]]}}


def constant_entry(entry):
    return {"connection": {"kind": "registry:constant",
                           "params": {"matrices": [[[entry, 0], [0, 0]]]}},
            "point": [0.5]}


MALFORMED_CONFIGS = {
    "law-object": ("frames", frames_config({})),
    "law-number": ("frames", frames_config(3)),
    "law-unknown": ("frames", frames_config("torsion")),
    "frame-change-base-1x1": ("frames", frames_config(
        "three-index", frame_change={"base": [["1"]],
                                     "fibre": FRAME_CHANGE["fibre"]})),
    "frame-change-fibre-3x3": ("frames", frames_config(
        "three-index", frame_change={"base": FRAME_CHANGE["base"],
                                     "fibre": [["1", "0", "0"]] * 3})),
    "frame-change-base-string": ("frames", frames_config(
        "curvature", frame_change={"base": "ab",
                                   "fibre": FRAME_CHANGE["fibre"]})),
    "base-frame-strings": ("curvature", {
        "connection": "registry:sphere-lc", "point": [1.1, 0.4],
        "base_frame": ["12", "34"]}),
    "frame-string": ("frames", {
        "connection": "registry:flat", "point": [2.0, 0.7],
        "law": "anholonomy", "frame": "ab", "frame_change": FRAME_CHANGE}),
    "frame-ragged": ("frames", {
        "connection": "registry:flat", "point": [2.0, 0.7],
        "law": "anholonomy", "frame": [["1", "0"], ["0"]],
        "frame_change": FRAME_CHANGE}),
    "three-index-no-stacks": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "three_index", "stacks": []}}),
    "two-index-no-rows": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5, 0.0, 0.0],
        "connection": {"kind": "two_index", "matrix": []}}),
    "three-index-short-rows": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "three_index",
                       "stacks": [[["x2"], ["0"]], [["0"], ["x1"]]]}}),
    "affine-inhom-strings": ("transport", {
        "base_dim": 2, "fibre_rank": 2, "initial": [0.0, 0.0],
        "path": {"points": [[0.0, 0.0], [1.0, 1.0]], "steps": 50},
        "connection": {"kind": "affine",
                       "linear": [[["0", "0"], ["0", "0"]]] * 2,
                       "inhom": ["12", "34"]}}),
    "two-index-row-strings": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5, 0.0, 0.0],
        "connection": {"kind": "two_index", "matrix": ["12", "34"]}}),
    "morphism-matrix-strings": ("morphism", {
        "connection": "registry:sphere-lc", "point": [1.0, 0.3, 0.5, -0.2],
        "morphism": {"base": ["x1", "x2"], "matrix": ["12", "34"]}}),
    "stacks-number": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "three_index", "stacks": 5}}),
    "stacks-null-entry": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "three_index",
                       "stacks": [[[None, "0"], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]]]}}),
    "registry-params-not-int": ("curvature", {
        "connection": {"kind": "registry:flat", "params": {"n": "abc"}},
        "point": [0.5, 0.5]}),
    # registry size parameters are JSON integers from 1 to registry.MAX_DIM
    "registry-n-string": ("curvature", {
        "connection": {"kind": "registry:flat", "params": {"n": "3"}},
        "point": [0.5, 0.5, 0.5]}),
    "registry-n-fraction": ("curvature", {
        "connection": {"kind": "registry:flat", "params": {"n": 2.9}},
        "point": [0.5, 0.5]}),
    "registry-n-r-true": ("curvature", {
        "connection": {"kind": "registry:flat",
                       "params": {"n": True, "r": True}},
        "point": [0.5]}),
    "registry-r-zero": ("curvature", {
        "connection": {"kind": "registry:flat", "params": {"r": 0}},
        "point": [0.5, 0.5]}),
    "registry-pure-gauge-n-float": ("curvature", {
        "connection": {"kind": "registry:pure-gauge", "params": {"n": 2.0}},
        "point": [0.5, 0.5]}),
    "registry-cartan-flat-n-33": ("curvature", {
        "connection": {"kind": "registry:cartan-flat", "params": {"n": 33}},
        "point": [0.5] * 33}),
    "registry-flat-60-by-60": ("curvature", {
        "connection": {"kind": "registry:flat",
                       "params": {"n": 60, "r": 60}},
        "point": [0.1] * 60}),
    "registry-flat-n-10-to-the-9": ("curvature", {
        "connection": {"kind": "registry:flat", "params": {"n": 10 ** 9}},
        "point": [0.5, 0.5]}),
    # sphere-lc's margin is a finite JSON number >= 0 (a negative one would
    # put the poles inside the region)
    "registry-margin-true": ("curvature", {
        "connection": {"kind": "registry:sphere-lc",
                       "params": {"margin": True}},
        "point": [1.1, 0.4]}),
    "registry-margin-string": ("curvature", {
        "connection": {"kind": "registry:sphere-lc",
                       "params": {"margin": "0.1"}},
        "point": [1.1, 0.4]}),
    "registry-margin-negative": ("curvature", {
        "connection": {"kind": "registry:sphere-lc",
                       "params": {"margin": -0.5}},
        "point": [1.1, 0.4]}),
    "registry-constant-ragged": ("curvature", {
        "connection": {"kind": "registry:constant",
                       "params": {"matrices": [[[0, 1], [0]],
                                               [[0, 0], [1, 0]]]}},
        "point": [0.5, 0.5]}),
    # constant matrices hold finite JSON numbers, as margin must be
    "registry-constant-huge-int": ("curvature", constant_entry(10 ** 400)),
    "registry-constant-bool": ("curvature", constant_entry(True)),
    "registry-constant-string": ("curvature", constant_entry("1")),
    "registry-constant-nan-string": ("curvature", constant_entry("nan")),
    "registry-constant-null": ("curvature", constant_entry(None)),
    "covd-section-null-entry": ("covd", {
        "connection": "registry:sphere-lc", "point": [1.0, 0.3],
        "direction": [1.0, 0.5], "section": [None, "x1"]}),
    "covd-section-list-entry": ("covd", {
        "connection": "registry:sphere-lc", "point": [1.0, 0.3],
        "direction": [1.0, 0.5], "section": [["x2"], "x1"]}),
    "lie-vector-field-null-entry": ("frames", {
        "connection": "registry:flat", "point": [2.0, 0.7], "law": "lie",
        "vector_field": [None, "x1"], "frame_change": FRAME_CHANGE}),
    "lie-vector-field-list-entry": ("frames", {
        "connection": "registry:flat", "point": [2.0, 0.7], "law": "lie",
        "vector_field": [["x2"], "x1"], "frame_change": FRAME_CHANGE}),
    "morphism-matrix-empty-row": ("morphism", {
        "connection": "registry:sphere-lc", "point": [1, 0.3, 0.2, 0.1],
        "morphism": {"base": ["x1", "x2"], "matrix": [[]]}}),
    "morphism-fibre-longer-than-target": ("morphism", {
        "connection": "registry:sphere-lc", "point": [1, 0.3, 0.2, 0.1],
        "morphism": {"base": ["x1", "x2"], "fibre": ["u1", "u2", "u1"]}}),
    # json.loads reads NaN, Infinity and 1e400 as floats
    "steps-nan": ("transport", {
        "connection": "registry:sphere-lc", "steps": math.nan,
        "path": {"exprs": ["1 + 0.2*t", "t"]}, "initial": [1.0, 0.0]}),
    "steps-infinity": ("transport", {
        "connection": "registry:sphere-lc", "steps": math.inf,
        "path": {"exprs": ["1 + 0.2*t", "t"]}, "initial": [1.0, 0.0]}),
    "samples-infinity": ("curvature", {
        "connection": "registry:pure-gauge", "samples": math.inf,
        "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8]}}),
    "tol-nan": ("flatness", {
        "connection": "registry:pure-gauge", "tol": math.nan,
        "points": [[0.2, 0.3]]}),
    # no connection passes a negative tolerance; tol 0 stays valid
    "tol-negative": ("flatness", {
        "connection": "registry:flat", "tol": -1,
        "points": [[0.2, 0.3]]}),
    "tol-negative-morphism": ("morphism", {
        "connection": "registry:sphere-lc", "tol": -1e-300,
        "morphism": {"base": ["x1", "x2"],
                     "matrix": [["1", "0"], ["0", "1"]]},
        "point": [1.1, 0.4, 0.7, -0.2]}),
    "fd-step-zero": ("curvature", {
        "connection": "registry:sphere-lc", "point": [1.1, 0.4],
        "fd_step": 0}),
    "point-nan": ("curvature", {
        "connection": "registry:sphere-lc", "point": [math.nan, 0.4]}),
    "base-dim-null": ("curvature", {
        "base_dim": None, "fibre_rank": 2, "point": [0.5, 0.5],
        "region": [[0.0, 1.0], [0.0, 1.0]],
        "connection": {"kind": "three_index", "stacks": CONSTANT_STACKS}}),
    # a null axis is the unbounded one; an infinite bound cannot be echoed
    "region-infinite-bounds": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "region": [[-math.inf, math.inf], [0.0, 1.0]],
        "connection": {"kind": "three_index", "stacks": CONSTANT_STACKS}}),
    # steps and samples are JSON integers, as path.steps is
    "steps-fraction": ("geodesic", {
        "connection": "registry:sphere-lc", "x0": [1.0, 0.2],
        "v0": [0.3, 0.7], "T": 1.0, "steps": 16.7}),
    "steps-half": ("geodesic", {
        "connection": "registry:sphere-lc", "x0": [1.0, 0.2],
        "v0": [0.3, 0.7], "T": 1.0, "steps": 0.5}),
    "steps-true": ("geodesic", {
        "connection": "registry:sphere-lc", "x0": [1.0, 0.2],
        "v0": [0.3, 0.7], "T": 1.0, "steps": True}),
    "steps-integral-float": ("transport", {
        "connection": "registry:sphere-lc", "steps": 400.0,
        "path": {"exprs": ["1 + 0.2*t", "t"]}, "initial": [1.0, 0.0]}),
    "samples-fraction": ("curvature", {
        "connection": "registry:pure-gauge", "samples": 2.5,
        "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8]}}),
    "samples-false": ("curvature", {
        "connection": "registry:pure-gauge", "samples": False,
        "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8]}}),
    # resource ceilings, rejected before anything is allocated
    "steps-1e300": ("transport", {
        "connection": "registry:sphere-lc", "steps": 1e300,
        "path": {"exprs": ["1 + 0.2*t", "t"]}, "initial": [1.0, 0.0]}),
    "steps-10-to-the-300": ("transport", {
        "connection": "registry:sphere-lc", "steps": 10 ** 300,
        "path": {"exprs": ["1 + 0.2*t", "t"]}, "initial": [1.0, 0.0]}),
    "path-steps-1e11": ("transport", {
        "connection": "registry:sphere-lc", "initial": [1.0, 0.0],
        "path": {"exprs": ["1 + 0.2*t", "t"], "steps": 100000000000}}),
    "grid-30-axes": ("curvature", {
        "connection": {"kind": "registry:flat", "params": {"n": 30}},
        "grid": {"lo": [0.0] * 30, "hi": [1.0] * 30}}),
    # a key no command reads is still echoed under inputs.config
    "unread-key-nan": ("curvature", {
        "connection": "registry:sphere-lc", "point": [1.1, 0.4],
        "note": math.nan}),
    # raw text: json.dumps cannot write these two
    "unread-key-5000-digit-integer": ("curvature", UNREAD_KEY % ("1" * 5000)),
    "unread-key-nested-100000-deep": ("curvature", UNREAD_KEY % (
        "[" * 100000 + "]" * 100000)),
    # expressions nested past exprlang.MAX_DEPTH: a ParseError
    "expression-200-parentheses": ("transport", two_index_entry(
        "(" * 200 + "u1" + ")" * 200)),
    "expression-1000-unary-minus": ("transport", two_index_entry(
        "-" * 1000 + "u1")),
    "expression-999-term-sum": ("transport", two_index_entry(
        "+".join(["u1"] * 999))),
    # a digit that float rejects; an offset counted in UTF-8 bytes
    "expression-superscript-digit": ("transport", two_index_entry("u1 + 2²")),
    "expression-non-ascii-offset": ("transport", two_index_entry("é + $")),
    # one entry per config check of cli.py that no entry above reaches
    "config-not-utf-8": ("curvature", b'{"connection": "registry:flat", '
                                      b'"point": [0.5, 0.5], "note": "\xff"}'),
    "connection-kind-number": ("curvature", {
        "connection": {"kind": 3}, "point": [0.5, 0.5]}),
    "connection-params-list": ("curvature", {
        "connection": {"kind": "registry:flat", "params": [2]},
        "point": [0.5, 0.5]}),
    "registry-dims-not-declared": ("curvature", {
        "connection": "registry:flat", "base_dim": 3, "fibre_rank": 2,
        "point": [0.5, 0.5, 0.5]}),
    "region-three-axes": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "region": [[0.0, 1.0]] * 3,
        "connection": {"kind": "three_index", "stacks": CONSTANT_STACKS}}),
    "connection-kind-unknown": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "torsion"}}),
    "stacks-dims-not-declared": ("curvature", {
        "base_dim": 3, "fibre_rank": 2, "point": [0.5, 0.5, 0.5],
        "connection": {"kind": "three_index", "stacks": CONSTANT_STACKS}}),
    "flatness-two-index": ("flatness", {
        "base_dim": 1, "fibre_rank": 1, "points": [[0.5]],
        "connection": {"kind": "two_index", "matrix": [["u1"]]}}),
    "path-t0-string": ("transport", {
        "connection": "registry:sphere-lc", "initial": [1.0, 0.0],
        "path": {"exprs": ["1 + 0.2*t", "t"], "t0": "0"}}),
    "path-no-exprs-or-points": ("transport", {
        "connection": "registry:sphere-lc", "initial": [1.0, 0.0],
        "path": {"steps": 50}}),
    "base-frame-1x1": ("curvature", {
        "connection": "registry:sphere-lc", "point": [1.1, 0.4],
        "base_frame": [["1"]]}),
    "target-string": ("morphism", {
        "connection": "registry:sphere-lc", "point": [1.0, 0.3, 0.5, -0.2],
        "target": "registry:flat",
        "morphism": {"base": ["x1", "x2"], "fibre": ["u1", "u2"]}}),
    "geodesic-r-not-n": ("geodesic", {
        "connection": {"kind": "registry:flat", "params": {"n": 2, "r": 1}},
        "x0": [0.0, 0.0], "v0": [1.0, 0.0], "T": 1.0}),
    "inhomogeneous-law-linear": ("frames", frames_config("inhomogeneous")),
    "morphism-no-matrix-or-fibre": ("morphism", {
        "connection": "registry:sphere-lc", "point": [1.0, 0.3, 0.5, -0.2],
        "morphism": {"base": ["x1", "x2"]}}),
}
# the error type of the MALFORMED_CONFIGS entries that are not ConfigError
MALFORMED_TYPES = dict.fromkeys(
    ["expression-200-parentheses", "expression-1000-unary-minus",
     "expression-999-term-sum", "expression-superscript-digit",
     "expression-non-ascii-offset"], "ParseError")
# the whole message of some entries; {path} is the config's path
MALFORMED_MESSAGES = {
    "expression-superscript-digit": "malformed number at byte 5",
    "expression-non-ascii-offset": "unexpected character at byte 5",
    "config-not-utf-8": "config {path} is not UTF-8: 'utf-8' codec can't "
                        "decode byte 0xff in position 62: invalid start byte",
    "connection-kind-number": "connection.kind must be a string",
    "connection-params-list": "connection.params must be an object",
    "registry-dims-not-declared": "registry entry 'flat' has base_dim 2, "
                                  "fibre_rank 2; the config declares 3, 2",
    "region-three-axes": "region must list 2 per-axis bounds (base only) or "
                         "4 (base plus fibre), got 3",
    "connection-kind-unknown": "unknown connection kind 'torsion'; expected "
                               "three_index, two_index, affine, or "
                               "registry:<name>",
    "stacks-dims-not-declared": "connection dimensions (2, 2) do not match "
                                "base_dim 3, fibre_rank 2",
    "flatness-two-index": "flatness certification needs three-index (linear "
                          "or affine) coefficients; this connection is "
                          "two-index",
    "path-t0-string": "path.t0 and path.t1 must be numbers",
    "path-no-exprs-or-points": "path needs either exprs (with t0, t1) or "
                               "points",
    "base-frame-1x1": "base_frame must be 2 rows of 2 entries",
    "target-string": "target must be an object with its own connection "
                     "block",
    "geodesic-r-not-n": "geodesics need tangent-bundle coefficients "
                        "(fibre_rank == base_dim, got 1 != 2)",
    "inhomogeneous-law-linear": "the inhomogeneous-term law needs an affine "
                                "connection",
    "morphism-no-matrix-or-fibre": "morphism needs either matrix "
                                   "(vector-bundle form) or fibre (general "
                                   "components)",
}


@pytest.mark.parametrize(
    "command, cfg, error_type",
    [(command, cfg, MALFORMED_TYPES.get(name, "ConfigError"))
     for name, (command, cfg) in MALFORMED_CONFIGS.items()],
    ids=list(MALFORMED_CONFIGS))
def test_exit_2_malformed_config(tmp_path, capsys, command, cfg,
                                 error_type):
    code, out = run(capsys, command, "--config", write_config(tmp_path, cfg))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == error_type


@pytest.mark.parametrize("name", MALFORMED_MESSAGES)
def test_malformed_config_message(tmp_path, capsys, name):
    command, cfg = MALFORMED_CONFIGS[name]
    path = write_config(tmp_path, cfg)
    _, payload = run_json(capsys, command, "--config", path)
    assert payload["error"]["message"] == MALFORMED_MESSAGES[name].format(
        path=path)
    if payload["error"]["type"] == "ParseError":
        assert payload["error"]["message"].endswith(
            f" at byte {payload['error']['offset']}")


def test_region_beside_a_registry_connection_is_ignored(tmp_path, capsys):
    # the registry entry keeps its own region: a warning on stderr, and the
    # same output as without the region but for its echo
    cfg = {"connection": "registry:sphere-lc", "point": [1.1, 0.4]}
    _, plain = run_json(capsys, "curvature", "--config",
                        write_config(tmp_path, cfg))
    cfg["region"] = [[0.0, 1.0], [0.0, 1.0]]
    proc = subprocess.run(
        [sys.executable, "-m", "bundleconn.cli", "curvature", "--config",
         write_config(tmp_path, cfg)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("WARNING bundleconn.cli: registry entry "
                           "'sphere-lc' manages its own region; the config "
                           "region is ignored\n")
    warned = json.loads(proc.stdout)
    assert warned["inputs"]["config"].pop("region") == cfg["region"]
    assert warned == plain


def test_cli_warnings_reach_stderr_beside_a_host_root_handler(
        tmp_path, capsys, monkeypatch):
    # a host that configured logging first: the CLI still prints its
    # warning on stderr, once, at the BUNDLECONN_LOG level, and the host's
    # handlers see none of its lines
    cfg = {"connection": "registry:sphere-lc", "point": [1.1, 0.4],
           "region": [[0.0, 1.0], [0.0, 1.0]]}
    path = write_config(tmp_path, cfg)
    alone = subprocess.run(
        [sys.executable, "-m", "bundleconn.cli", "curvature", "--config",
         path], capture_output=True, text=True)
    host = logging.StreamHandler(io.StringIO())
    logging.getLogger().addHandler(host)
    try:
        assert cli.main(["curvature", "--config", path]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (alone.stdout, alone.stderr)
        assert err.count("WARNING bundleconn.cli: ") == 1
        monkeypatch.setenv("BUNDLECONN_LOG", "ERROR")
        assert cli.main(["curvature", "--config", path]) == 0
        assert capsys.readouterr() == (alone.stdout, "")
    finally:
        logging.getLogger().removeHandler(host)
    assert host.stream.getvalue() == "" and not cli.log.propagate


@pytest.mark.parametrize("level", ["info", "Info", "DEBUG"])
def test_log_level_names_are_read_in_any_case(tmp_path, capsys, monkeypatch,
                                              level):
    path = write_config(tmp_path, {"connection": "registry:sphere-lc",
                                   "point": [1.1, 0.4]})
    monkeypatch.setenv("BUNDLECONN_LOG", level)
    assert cli.main(["curvature", "--config", path]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["command"] == "curvature"
    assert re.fullmatch(r"INFO bundleconn\.cli: curvature finished in "
                        r"\d+\.\d{3}s\n", err)


@pytest.mark.parametrize("level", ["verbose", "", "WARN"])
def test_an_unknown_log_level_is_a_config_error(tmp_path, capsys,
                                                monkeypatch, level):
    # reported before the config is read, so a missing config is no matter
    monkeypatch.setenv("BUNDLECONN_LOG", level)
    message = ("BUNDLECONN_LOG must be one of DEBUG, INFO, WARNING, ERROR, "
               f"CRITICAL (in any case), got {level!r}")
    assert cli.main(["curvature", "--config",
                     str(tmp_path / "missing.json")]) == 2
    out, err = capsys.readouterr()
    assert out == cli.dumps({"command": "curvature", "error": {
        "type": "ConfigError", "message": message}}) + "\n"
    assert err == f"ERROR bundleconn.cli: curvature failed: {message}\n"


@pytest.mark.parametrize("name", ["steps-fraction", "steps-half",
                                  "steps-true", "samples-fraction",
                                  "samples-false"])
def test_steps_and_samples_must_be_integers(tmp_path, capsys, name):
    command, cfg = MALFORMED_CONFIGS[name]
    key = name.split("-")[0]
    _, payload = run_json(capsys, command, "--config",
                          write_config(tmp_path, cfg))
    assert payload["error"] == {"type": "ConfigError",
                                "message": f"{key} must be an integer"}


@pytest.mark.parametrize("name", [
    "registry-constant-huge-int", "registry-constant-bool",
    "registry-constant-string", "registry-constant-nan-string",
    "registry-constant-null"])
def test_constant_matrices_must_hold_finite_numbers(tmp_path, capsys, name):
    # numpy would read true as 1 and "nan" as nan, and 10^400 overflowed
    command, cfg = MALFORMED_CONFIGS[name]
    _, payload = run_json(capsys, command, "--config",
                          write_config(tmp_path, cfg))
    assert payload["error"] == {
        "type": "ConfigError",
        "message": "constant matrices must hold finite numbers"}


def test_exit_2_unknown_law_lists_the_laws(tmp_path, capsys):
    path = write_config(tmp_path, frames_config("torsion"))
    _, payload = run_json(capsys, "frames", "--config", path)
    message = payload["error"]["message"]
    for law in ("three-index", "two-index", "inhomogeneous", "curvature",
                "anholonomy", "lie"):
        assert law in message


def test_exit_1_domain_exit(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "path": {"exprs": ["0.5 + 4*t", "0"], "t0": 0.0, "t1": 1.0},
        "initial": [1.0, 0.0],
    })
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 1
    assert payload["error"]["type"] == "DomainExit"


def test_resource_ceilings_are_inclusive():
    parser = cli.build_parser()

    def problem(*flags):
        # 10 samples on 5 axes make a lattice of MAX_GRID_POINTS points
        cfg = {"connection": {"kind": "registry:flat", "params": {"n": 5}},
               "grid": {"lo": [0.0] * 5, "hi": [1.0] * 5},
               "path": {"points": [[0.0] * 5, [1.0] * 5],
                        "steps": cli.MAX_STEPS}}
        return cli.Problem(cfg, parser.parse_args(
            ["curvature", "--config", "unused.json", *flags]))

    assert problem("--steps", str(cli.MAX_STEPS)).steps == cli.MAX_STEPS
    with pytest.raises(ConfigError, match="^steps must be at most"):
        problem("--steps", str(cli.MAX_STEPS + 1))
    assert problem().build_path().steps == cli.MAX_STEPS
    assert cli.MAX_GRID_POINTS == 10 ** 5
    assert len(cli._grid_points(problem("--samples", "10"))) == 10 ** 5
    with pytest.raises(ConfigError, match="^a grid may hold at most"):
        cli._grid_points(problem("--samples", "11"))


def domain_exit_point(payload):
    """The point a DomainExit message names, read as a Python literal."""
    message = payload["error"]["message"]
    assert payload["error"]["type"] == "DomainExit"
    return ast.literal_eval(message[len("point "):message.index(" outside")])


def test_geodesic_domain_exit_names_plain_floats(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc", "x0": [1.2, 0.0],
        "v0": [37.0, 1.0], "T": 1.0, "steps": 40})
    code, payload = run_json(capsys, "geodesic", "--config", path)
    assert code == 1
    point = domain_exit_point(payload)
    assert len(point) == 2 and all(type(c) is float for c in point)
    assert not 0.05 < point[0] < math.pi - 0.05


@pytest.mark.parametrize("steps", [8, 64, 1000])
def test_geodesic_leaving_the_region_ends_as_domain_exit(tmp_path, capsys,
                                                          steps):
    # heads into the pole: the RK4 stages leave the region before the last
    # step, whatever the step count
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc", "x0": [0.3, 0.0],
        "v0": [-1.0, 0.0], "T": 1.0, "steps": steps})
    code, payload = run_json(capsys, "geodesic", "--config", path)
    assert code == 1
    point = domain_exit_point(payload)
    assert point[0] <= 0.05


def test_general_transport_domain_exit_names_plain_floats(tmp_path, capsys):
    path = write_config(tmp_path, {
        "base_dim": 2, "fibre_rank": 2,
        "region": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
        "connection": {"kind": "two_index",
                       "matrix": [["u2", "0"], ["0", "u1"]]},
        "path": {"points": [[0.0, 0.0], [0.9, 0.9]], "steps": 40},
        "initial": [0.9, 0.9]})
    code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 1
    point = domain_exit_point(payload)
    assert len(point) == 4 and all(type(c) is float for c in point)
    assert max(abs(c) for c in point[2:]) >= 1.0


def test_exit_1_fundamental_matrix_of_curved_connection(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "points": [[0.8, 0.3], [1.2, 0.9]],
        "x0": [0.8, 0.3],
        "x1": [1.2, 0.9],
    })
    code, payload = run_json(capsys, "flatness", "--config", path)
    assert code == 1
    assert payload["error"]["type"] == "NotFlat"


def test_exit_1_singular_frame_change(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4],
        "law": "three-index",
        "frame_change": {"base": [["1", "0"], ["0", "1"]],
                         "fibre": [["x1", "0"], ["0", "0"]]},
    })
    code, payload = run_json(capsys, "frames", "--config", path)
    assert code == 1
    assert payload["error"]["type"] == "SingularFrame"


def test_exit_1_singular_two_index_fibre_block(tmp_path, capsys):
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "point": [1.1, 0.4, 0.2, 0.1],
        "law": "two-index",
        "frame_change": {"base": [["1", "0"], ["0", "1"]],
                         "fibre": [["x1-1.1", "0"], ["0", "1"]]},
    })
    code, payload = run_json(capsys, "frames", "--config", path)
    assert code == 1
    assert payload["error"]["type"] == "SingularFrame"


def test_exit_2_fd_step_flag_zero(tmp_path, capsys):
    path = write_config(tmp_path, {"connection": "registry:sphere-lc",
                                   "point": [1.1, 0.4]})
    code, payload = run_json(capsys, "curvature", "--config", path,
                             "--fd-step", "0")
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"


def test_tol_flag_must_be_non_negative(tmp_path, capsys):
    path = write_config(tmp_path, {"connection": "registry:flat",
                                   "points": [[0.2, 0.3]]})
    code, payload = run_json(capsys, "flatness", "--config", path,
                             "--tol", "-1")
    assert code == 2
    assert payload["error"] == {"type": "ConfigError",
                                "message": "tol must be non-negative, "
                                           "got -1.0"}
    code, payload = run_json(capsys, "flatness", "--config", path,
                             "--tol", "0")
    assert code == 0
    assert payload["result"]["flat"] is True
    assert payload["inputs"]["effective"]["tol"] == 0.0


def test_exit_1_division_by_zero_at_a_grid_point(tmp_path, capsys):
    # grid points are numpy floats, which divide by zero with a warning
    path = write_config(tmp_path, {
        "connection": "registry:sphere-lc",
        "path": {"exprs": ["1/t", "0.5"], "t0": 0.0, "t1": 1.0},
        "initial": [1.0, 0.0],
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, payload = run_json(capsys, "transport", "--config", path)
    assert code == 1
    assert payload["error"] == {"type": "NonFinite",
                                "message": "division by zero"}
    assert caught == []
    assert "Warning" not in capsys.readouterr().err


HUGE_STACKS = [[["0", "1e200"], ["1e200", "0"]],
               [["1e200", "0"], ["0", "-1e200"]]]
QUOTIENT = "non-finite difference quotient along axis 0 at "
SERIALIZE = "cannot serialize non-finite number nan"
SPAN_PATH = {"exprs": ["t", "t"], "t0": -1e308, "t1": 1e308}
NON_FINITE_RUNS = {
    # the finite-difference quotient overflows
    "curvature-stencil": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "three_index",
                       "stacks": [[["1e307*sin(100*x1)", "0"], ["0", "0"]],
                                  [["0", "0"], ["0", "0"]]]}},
        QUOTIENT + "(0.5, 0.5)"),
    # [G_mu, G_nu] overflows
    "curvature-commutator": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "point": [0.5, 0.5],
        "connection": {"kind": "three_index", "stacks": HUGE_STACKS}},
        SERIALIZE),
    # a NaN curvature must not read as flat
    "flatness-verdict": ("flatness", {
        "base_dim": 2, "fibre_rank": 2, "points": [[0.5, 0.5]],
        "connection": {"kind": "three_index", "stacks": HUGE_STACKS}},
        SERIALIZE),
    "morphism-stencil": ("morphism", {
        "connection": "registry:flat", "point": [0.5, 0.5, 1.0, 2.0],
        "morphism": {"base": ["x1", "x2"],
                     "fibre": ["1e307*sin(100*x1)", "u2"]}},
        QUOTIENT + "(0.5, 0.5, 1.0, 2.0)"),
    # path data: a polyline length whose squares overflow, a vertex
    # difference that overflows, an expression path's velocity, and the
    # parameter span t1 - t0 of a two-index and of a linear transport
    "polyline-length": ("transport", {
        **two_index_entry("u1"), "path": {"points": [[0, 0], [1e200, 0]]}},
        "non-finite path length"),
    "polyline-difference": ("transport", {
        **two_index_entry("u1"),
        "path": {"points": [[0, -1e308], [0, 1e308]]}},
        "non-finite path length"),
    "expression-path-velocity": ("transport", {
        **two_index_entry("u1"),
        "path": {"exprs": ["1e308*sin(1e5*t)", "t"], "steps": 20}},
        "non-finite path velocity"),
    "expression-path-span": ("transport", {
        **two_index_entry("u1"), "path": SPAN_PATH},
        "non-finite path parameter span"),
    "expression-path-span-linear": ("transport", {
        "connection": "registry:sphere-lc", "initial": [1.0, 0.0],
        "path": SPAN_PATH}, "non-finite path parameter span"),
}


@pytest.mark.parametrize("command, cfg, message", NON_FINITE_RUNS.values(),
                         ids=list(NON_FINITE_RUNS))
def test_exit_1_non_finite_result_is_one_json_line(tmp_path, capsys,
                                                   command, cfg, message):
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", path])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"type": "NonFinite",
                                             "message": message}
    assert caught == []
    assert "Warning" not in captured.err


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400"])
def test_exit_2_non_finite_number_under_an_unread_key(tmp_path, capsys,
                                                      number):
    path = tmp_path / "config.json"
    path.write_text('{"connection": "registry:sphere-lc", '
                    f'"point": [1.1, 0.4], "note": {number}}}',
                    encoding="utf-8")
    code, out = run(capsys, "curvature", "--config", str(path))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == f"{number} in config {path} is not finite"


# ---------------------------------------------------------------------------
# totality: every mutation of a valid config ends in one JSON line


VALID_CONFIGS = [
    ("transport", {"connection": "registry:flat", "steps": 40,
                   "path": {"exprs": ["t", "t*t"], "t0": 0.0, "t1": 1.0},
                   "initial": [1.0, 2.0]}),
    ("transport", {"base_dim": 2, "fibre_rank": 2,
                   "region": [[-5.0, 5.0], None],
                   "connection": {"kind": "two_index",
                                  "matrix": [["-u2", "0"], ["0", "-u1"]]},
                   "path": {"points": [[0.0, 0.0], [1.0, 0.5]],
                            "steps": 40},
                   "initial": [1.0, -0.5]}),
    ("transport", {"base_dim": 2, "fibre_rank": 2, "tol": 1e-6,
                   "connection": {"kind": "affine",
                                  "linear": CONSTANT_STACKS,
                                  "inhom": [["1", "x2"], ["0", "1"]]},
                   "path": {"points": [[0.1, 0.2], [0.7, -0.3]],
                            "steps": 40},
                   "initial": [0.25, 0.5]}),
    ("geodesic", {"connection": "registry:sphere-lc", "x0": [1.2, 0.0],
                  "v0": [0.0, 1.0], "T": 1.0, "steps": 40}),
    ("curvature", {"base_dim": 2, "fibre_rank": 2, "fd_step": 1e-4,
                   "connection": {"kind": "three_index",
                                  "stacks": SPHERE_STACKS},
                   "region": [[0.05, 3.0], [-10.0, 10.0]],
                   "point": [1.1, 0.4],
                   "base_frame": [["1", "0.5*x1"], ["0", "1"]]}),
    ("curvature", {"connection": "registry:pure-gauge", "samples": 2,
                   "grid": {"lo": [0.2, 0.2], "hi": [0.8, 0.8]}}),
    ("flatness", {"connection": "registry:pure-gauge", "steps": 16,
                  "tol": 1e-6, "points": [[0.2, 0.3], [0.5, 0.6]],
                  "x0": [0.2, 0.1], "x1": [0.9, 0.8]}),
    ("covd", {"connection": "registry:sphere-lc", "point": [1.1, 0.4],
              "direction": [0.8, -0.3],
              "section": ["sin(x2)*x1", "x1^2 - x2"]}),
    ("frames", frames_config("three-index",
                             base_frame=[["1", "0.5*x1"], ["0", "1"]])),
    ("frames", frames_config("two-index", point=[1.1, 0.4, 0.7, -0.2])),
    ("frames", frames_config("curvature", fd_step=1e-4)),
    ("frames", {"connection": "registry:cartan-flat", "point": [0.5, 0.8],
                "law": "inhomogeneous", "frame_change": FRAME_CHANGE}),
    ("frames", {"connection": "registry:flat", "point": [2.0, 0.7],
                "law": "lie", "frame": [["1", "0"], ["0", "x1"]],
                "vector_field": ["x1*x2", "sin(x1)"],
                "frame_change": FRAME_CHANGE}),
    ("morphism", {"connection": "registry:pure-gauge",
                  "morphism": {"base": ["x1", "x2"],
                               "matrix": [["cos(x1*x2)", "sin(x1*x2)"],
                                          ["-sin(x1*x2)", "cos(x1*x2)"]]},
                  "point": [0.5, 0.8, 0.7, -0.2],
                  "sample_points": [[0.3, 0.4, 1.0, 0.5]]}),
    ("morphism", {"connection": "registry:sphere-lc",
                  "morphism": {"base": ["x1", "x2"],
                               "fibre": ["u1", "u2*x1"]},
                  "point": [1.0, 0.3, 0.5, -0.2]}),
]

# a mutation is a kind and, for "set", the new value; integers stay
# small, so no mutation asks for a large lattice or path
_MUTATIONS = st.sampled_from([
    ("set", math.nan), ("set", 0), ("set", -1), ("set", None), ("set", "x1"),
    ("set", []), ("set", [1.0]), ("drop",), ("shorten",), ("lengthen",),
    ("set", "int"), ("set", 1e200), ("set", -1e308)])


def _location(cfg, data):
    """A key path into the config: one key per level from the root,
    stopping after each with even odds, so the top-level settings are not
    swamped by the many entries of deep expression rows."""
    loc, node = (), cfg
    while isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        loc, node = loc + (key,), node[key]
        if data.draw(st.booleans()):
            break
    return loc


def _mutate(cfg, data):
    kind, *value = data.draw(_MUTATIONS)
    loc = _location(cfg, data)
    if kind in ("shorten", "lengthen"):
        # the innermost list on the path
        lists = [i for i in range(len(loc) + 1)
                 if isinstance(_lookup(cfg, loc[:i]), list)]
        if not lists:
            return
        target = _lookup(cfg, loc[:lists[-1]])
        if kind == "shorten":
            del target[-1:]
        else:
            target.append(copy.deepcopy(target[-1]) if target else "0")
    elif loc:
        parent, key = _lookup(cfg, loc[:-1]), loc[-1]
        if kind == "drop":
            del parent[key]
        elif value == ["int"]:
            parent[key] = data.draw(st.integers(-50, 50))
        else:
            parent[key] = copy.deepcopy(value[0])


def _lookup(node, loc):
    for key in loc:
        node = node[key]
    return node


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_valid_configs_end_in_one_json_line(tmp_path_factory, data):
    command, cfg = data.draw(st.sampled_from(VALID_CONFIGS))
    cfg = copy.deepcopy(cfg)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(cfg, data)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", str(path)])
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0]), dict)


# the overflowing polyline of NON_FINITE_RUNS, which the mutations above do
# not reach: vertices drawn from finite numbers whose differences or squares
# overflow
POLYLINE_CONFIGS = [(command, cfg) for command, cfg in VALID_CONFIGS
                    if "points" in cfg.get("path", {})]
_COORDINATES = st.sampled_from([0.0, 0.5, -1.0, 1e154, -1e200, 1e308,
                                -1e308])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_huge_polyline_vertices_end_in_one_json_line(tmp_path_factory, data):
    command, cfg = data.draw(st.sampled_from(POLYLINE_CONFIGS))
    cfg = copy.deepcopy(cfg)
    points = data.draw(st.lists(st.lists(_COORDINATES, min_size=2,
                                         max_size=2), min_size=2, max_size=4))
    cfg["path"]["points"] = points
    path = tmp_path_factory.getbasetemp() / "polyline.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", str(path)])
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2) and len(lines) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        length = np.sqrt((np.diff(points, axis=0) ** 2).sum(axis=1)).sum()
    if not np.isfinite(length):
        assert (code, json.loads(lines[0])["error"]) == (1, {
            "type": "NonFinite", "message": "non-finite path length"})


def _vocabulary(node, keys, strings):
    """The keys and string values of a config, at every depth."""
    if isinstance(node, dict):
        keys.update(node)
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            _vocabulary(item, keys, strings)
    elif isinstance(node, str):
        strings.add(node)
    return keys, strings


_KEYS, _STRINGS = set(), set()
for _, _cfg in VALID_CONFIGS:
    _vocabulary(_cfg, _KEYS, _STRINGS)

# leaves: small integers, huge ones (a "@digits:k" placeholder, written
# as k nines, past the 4,300-digit conversion limit too), any float (NaN
# and infinities are written as JSON's extensions), the strings of the
# valid configs and arbitrary text; containers are keyed by the config
# vocabulary or arbitrary text
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-50, 50),
              st.integers(1, 5000).map("@digits:{}".format), st.floats(),
              st.sampled_from(sorted(_STRINGS)), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(sorted(_KEYS)) | st.text(max_size=4),
                        children, max_size=6)),
    max_leaves=24)


@pytest.mark.parametrize("command",
                         [c for c in cli.COMMANDS if c != "check"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(doc=_JSON, nesting=st.sampled_from([0, 0, 0, 3, 2000, 100_000]))
def test_arbitrary_json_documents_end_in_one_json_line(
        tmp_path_factory, command, doc, nesting):
    text = re.sub(r'"@digits:(\d+)"', lambda m: "9" * int(m.group(1)),
                  json.dumps(doc))
    if nesting:     # the document deep inside an object
        text = '{"note": ' + "[" * nesting + text + "]" * nesting + "}"
    path = tmp_path_factory.getbasetemp() / "arbitrary.json"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", str(path)])
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0]), dict)

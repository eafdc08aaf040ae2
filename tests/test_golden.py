"""Golden stdout of the command-line interface: one fixed config per command
(three for transport: linear, affine and general), each pinned by the
sha256 of its stdout. A change that moves any printed bit fails here; when
one does on purpose, re-record only the pins it moves and say why.

The general transport pin was re-recorded when two-index transport began
contracting G[a, mu] dx^mu/dt on plain floats in index order instead of
through numpy's matmul, which may fuse multiply-adds: its last bits moved.
Every other pin is unchanged since it was first recorded."""

import contextlib
import hashlib
import io
import json

import pytest

from bundleconn import cli

SPHERE_STACKS = [
    [["0", "0"], ["0", "cot(x1)"]],
    [["0", "-sin(x1)*cos(x1)"], ["cot(x1)", "0"]],
]
FRAME_CHANGE = {
    "base": [["1 + 0.2*sin(x1)", "0.1*x2"], ["0", "1 - 0.1*cos(x2)"]],
    "fibre": [["1", "0.3*x1"], ["0.2*x2", "1"]],
}

GOLDEN = {
    "transport-linear": ("transport", {
        "connection": "registry:sphere-lc",
        "path": {"exprs": ["2.1769 + 0.3218*cos(t)",
                           "-0.9203 + 0.6839*sin(t)"],
                 "t0": 0.0, "t1": 6.283185307179586, "steps": 400},
        "initial": [1.1121, 1.1403]},
        "9514565cf1e15bbb0e51f932d419b95e26bb66f109315701b2157d22a5d275e3"),
    "transport-affine": ("transport", {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "affine",
                       "linear": [[["0", "1"], ["0", "0"]],
                                  [["0", "0"], ["1", "0"]]],
                       "inhom": [["1", "x2"], ["0", "1"]]},
        "path": {"points": [[0.1, 0.2], [0.7, -0.3], [0.4, 0.5]],
                 "steps": 200},
        "initial": [0.25, 0.5]},
        "f2795f596ee01fcebe833d8c08c23dab71d4a618f71ce4fd2582f9534fbd67e1"),
    "transport-general": ("transport", {
        "base_dim": 2, "fibre_rank": 2,
        "connection": {"kind": "two_index", "matrix": [
            ["-((-0.289*sin(x1))*u1 + (0.3076*x1*x2)*u2)",
             "-((-0.1965*sin(x1))*u1 + (0.1252*x2)*u2)"],
            ["-((-0.7083)*u1 + (-0.7878*cos(x1 + x2))*u2)",
             "-(0.6599*u1 + (-0.4822*x1^2)*u2)"]]},
        "path": {"points": [[0.7304, 0.4971], [-0.9531, -0.3387],
                            [-0.7403, 0.5908], [-0.2393, 0.2728],
                            [0.1965, -0.5935]], "steps": 400},
        "initial": [1.1312, 0.4071]},
        "5875f9be233038c8a2febc48c455237ff52e71a280d3dd7172023564a8e5a037"),
    "geodesic": ("geodesic", {
        "connection": "registry:sphere-lc", "x0": [1.0, 0.2],
        "v0": [0.3, 0.7], "T": 2.0, "steps": 500},
        "cab9f07a52ed88cf1cffabc1fcb78a9e29a78cda8c283b0692163c142b59a2c7"),
    "curvature": ("curvature", {
        "base_dim": 2, "fibre_rank": 2, "fd_step": 1e-4,
        "connection": {"kind": "three_index", "stacks": SPHERE_STACKS},
        "region": [[0.05, 3.0], [-10.0, 10.0]], "point": [1.1, 0.4],
        "base_frame": [["1", "0.5*x1"], ["0", "1"]]},
        "d954c7f6dc3a82934855adeac1c8a61d05e3d133cfc41db625f318fe964532ba"),
    "covd": ("covd", {
        "connection": "registry:sphere-lc", "point": [1.1, 0.4],
        "direction": [0.8, -0.3], "section": ["sin(x2)*x1", "x1^2 - x2"]},
        "dc999b61c74826744d60fd051d120bc94f66855c40669e4a5267258df575a332"),
    "flatness": ("flatness", {
        "connection": "registry:pure-gauge", "steps": 64, "tol": 1e-6,
        "points": [[0.2, 0.3], [0.5, 0.6]], "x0": [0.2, 0.1],
        "x1": [0.9, 0.8]},
        "96721c3356396cd897fd99ed73c34e7d13872afccce68c28e3951f51361af316"),
    "frames": ("frames", {
        "connection": "registry:flat", "point": [2.0, 0.7], "law": "lie",
        "frame": [["1", "0"], ["0", "x1"]],
        "vector_field": ["x1*x2", "sin(x1)"], "frame_change": FRAME_CHANGE},
        "8868445723c4759097bb9eb576e04e7f58680582c159c735b7d650f39b1d8e40"),
    "morphism": ("morphism", {
        "connection": "registry:pure-gauge",
        "morphism": {"base": ["x1", "x2"],
                     "matrix": [["cos(x1*x2)", "sin(x1*x2)"],
                                ["-sin(x1*x2)", "cos(x1*x2)"]]},
        "point": [0.5, 0.8, 0.7, -0.2],
        "sample_points": [[0.3, 0.4, 1.0, 0.5]]},
        "67287bb5fc4328048e13a8ffd90fce0b3be0e15809d6bbf48575092087b361a4"),
}


def stdout_of(tmp_path, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--config", str(path)])
    return code, out.getvalue()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_stdout_matches_the_golden_sha256(tmp_path, case):
    command, cfg, digest = GOLDEN[case]
    code, out = stdout_of(tmp_path, command, cfg)
    assert code == 0, out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

"""Built-in example connections used by the tests and the CLI, and
`Example`, the one connection record that both these registry entries and
the CLI's explicit connection blocks build.

Entries: "flat" (zero coefficients), "constant" (constant coefficient
matrices), "sphere-lc" (Levi-Civita connection of the round 2-sphere in
(theta, phi) coordinates), "pure-gauge" (planar rotation gauge field,
always flat), "cartan-flat" (affine with zero linear part and identity
inhomogeneous term).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .connection import AffineCoefficients, CoefficientField3, TwoIndexField
from .errors import ConfigError
from .exprlang import Call, _neg, derivative, parse
from .fields import MatrixField, Region, base_names

@dataclass
class Example:
    """The one connection record, built by the registry entries and by the
    CLI's explicit connection blocks. A source gives what it owns: g3
    (linear), affine (g3 becomes its linear part) or g2 (general); the
    record works out the kind, (n, r), the induced g2 and the base region."""

    name: str
    g3: CoefficientField3 | None = None
    g2: TwoIndexField | None = None
    affine: AffineCoefficients | None = None
    gauge: MatrixField | None = None
    kind: str = field(init=False)
    n: int = field(init=False)
    r: int = field(init=False)
    region: Region | None = field(init=False)

    def __post_init__(self):
        if self.affine is not None:
            self.kind, self.g3 = "affine", self.affine.linear
            self.g2 = TwoIndexField.from_affine(self.affine)
        elif self.g3 is not None:
            self.kind, self.g2 = "linear", TwoIndexField.from_linear(self.g3)
        else:
            self.kind = "general"
        self.n, self.r = self.g2.n, self.g2.r
        bundle = self.g2.region  # over x1..xn, u1..ur: keep the base axes
        self.region = bundle and Region(bundle.bounds[:self.n])


def make_flat(n=2, r=2):
    return Example("flat", g3=CoefficientField3.zero(n, r))


def _is_finite_number(v):
    """A finite number: an int or a float (numpy's float64 too), not a bool,
    within the float range; the rule for configs and registry parameters."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def make_constant(matrices=None):
    if matrices is None:
        matrices = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    # numpy would read true as 1 and "nan" as nan, and an integer beyond
    # the float range raises OverflowError; the shape is checked below
    nested = [matrices]
    while nested:
        v = nested.pop()
        if isinstance(v, (list, tuple)):
            nested.extend(v)
        elif not _is_finite_number(v):
            raise ConfigError("constant matrices must hold finite numbers")
    arr = np.asarray(matrices, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ConfigError(
            "constant matrices must form an (n, r, r) stack, got shape "
            f"{arr.shape}")
    return Example("constant", g3=CoefficientField3.constant(arr))


def make_sphere_lc(margin=0.05):
    # a finite number, not a bool or a string; margin >= pi/2 leaves
    # the region's theta interval empty
    if not _is_finite_number(margin) or margin < 0:
        raise ConfigError("registry parameter margin must be a finite "
                          "number >= 0")
    region = Region([(margin, math.pi - margin), (-math.inf, math.inf)])
    stacks = [
        [["0", "0"], ["0", "cot(x1)"]],
        [["0", "-sin(x1)*cos(x1)"], ["cot(x1)", "0"]],
    ]
    return Example("sphere-lc",
                   g3=CoefficientField3.from_exprs(stacks, region))


def make_pure_gauge(alpha="x1*x2", n=2):
    ast = parse(alpha) if isinstance(alpha, str) else alpha
    partials = [derivative(ast, f"x{mu + 1}") for mu in range(n)]
    stacks = [[["0", d], [_neg(d), "0"]] for d in partials]
    gauge = MatrixField.from_exprs(
        [[Call("cos", (ast,)), _neg(Call("sin", (ast,)))],
         [Call("sin", (ast,)), Call("cos", (ast,))]], base_names(n))
    return Example("pure-gauge", g3=CoefficientField3.from_exprs(stacks),
                   gauge=gauge)


def make_cartan_flat(n=2):
    linear = CoefficientField3.zero(n, n)
    inhom = MatrixField.constant(np.eye(n), base_names(n))
    return Example("cartan-flat", affine=AffineCoefficients(linear, inhom))


# ceiling on the size parameters n (base_dim) and r (fibre_rank) of a
# registry entry, checked before the entry is built
MAX_DIM = 32


class ExampleRegistry:
    """Named example-connection builders, looked up by CLI configs."""

    def __init__(self, builders):
        self._builders = dict(builders)

    def names(self):
        return sorted(self._builders)

    def build(self, name, **params):
        if name not in self._builders:
            raise ConfigError(
                f"unknown registry entry {name!r}; known entries: "
                + ", ".join(self.names()))
        for key in ("n", "r"):
            size = params.get(key, 1)
            if type(size) is not int or not 1 <= size <= MAX_DIM:
                raise ConfigError(f"registry parameter {key} must be an "
                                  f"integer from 1 to {MAX_DIM}")
        try:
            return self._builders[name](**params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for registry entry "
                              f"{name!r}: {exc}") from exc


REGISTRY = ExampleRegistry({
    "flat": make_flat,
    "constant": make_constant,
    "sphere-lc": make_sphere_lc,
    "pure-gauge": make_pure_gauge,
    "cartan-flat": make_cartan_flat,
})

"""Span tracer for the bundleconn modules, installed from outside the package.

`Tracer.install(package)` discovers its targets by introspection, so a
renamed or added function is picked up without editing this file:

- every public function (no leading underscore) of every bundleconn module,
  attributed to the module that defines it;
- every public instance method, plus `__call__`, of the field classes in
  FIELD_CLASSES, attributed to the `fields` layer whatever module defines
  the class;
- `Region.contains`, counted without a span (the region-check counter).

Each function is replaced in every bundleconn module namespace that holds
it, and in the module-level dicts (and the dicts of module-level objects)
that hold it, such as the suite table and the example registry.
`uninstall()` puts every original back.

Spans are aggregated in memory: per target a call count, inclusive time and
self time (inclusive minus the time of child spans), plus per group the
count and inclusive time of the outermost spans of that group, so nested
calls are never counted twice. `layer_metrics()` turns them into the
`<layer>.<metric>` numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

LAYERS = ("exprlang", "fields", "connection", "transport", "calculus",
          "morphism", "registry", "cli", "suites")

FIELD_CLASSES = ("ScalarField", "MatrixField", "FrameField", "TensorField",
                 "SectionField", "CoefficientField3", "TwoIndexField")

# named groups of targets, by layer and function name
FD_FUNCTIONS = ("fd_partial", "fd_array_partial", "directional_derivative")
GROUPS = {
    "parse": lambda layer, name: layer == "exprlang" and name == "parse",
    "compile": lambda layer, name: (layer == "exprlang"
                                    and name.startswith("compile")),
    "fd": lambda layer, name: layer == "fields" and name in FD_FUNCTIONS,
    "lie": lambda layer, name: (layer == "fields"
                                and ("anholonomy" in name or "lie" in name)),
    "law": lambda layer, name: (layer == "connection"
                                and name.startswith("transform_")),
    "load": lambda layer, name: layer == "cli" and name == "load_config",
    "emit": lambda layer, name: layer == "cli" and name == "dumps",
}


class Target:
    """One wrapped callable and its running totals."""

    __slots__ = ("key", "layer", "name", "groups", "is_eval", "calls",
                 "incl", "self_time")

    def __init__(self, layer, name, is_eval):
        self.key = f"{layer}.{name}"
        self.layer = layer
        self.name = name
        self.is_eval = is_eval
        groups = [layer] + [g for g, match in GROUPS.items()
                            if match(layer, name.rsplit(".", 1)[-1])]
        if is_eval:
            groups.append("eval")
        self.groups = tuple(groups)
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.targets = []
        self._patches = []          # (container, key, original, kind)
        self._stack = []            # open spans: [child_time, steps_seen]
        self._active = {}           # group -> open span depth
        self.outer_calls = {}
        self.outer_incl = {}
        self.region_checks = 0
        self.rk4_steps = 0
        self.evals_in_transport = 0
        self.max_residual = 0.0
        self.emit_bytes = 0
        self.suite_names = {}       # suite function key -> suite name

    # -- installation ------------------------------------------------------

    def install(self, package):
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in modules}
        originals = {}              # id(original) -> wrapper
        for mod in modules:
            if mod is package:
                continue
            layer = short[mod.__name__]
            for name, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    target = Target(layer, name, is_eval=False)
                    originals[id(obj)] = (obj, self._wrap(target, obj))
            suites = getattr(mod, "SUITES", None)
            if layer == "suites" and isinstance(suites, dict):
                self.suite_names = {f"suites.{fn.__name__}": name
                                    for name, fn in suites.items()}
        # replace every reference to a wrapped function
        for mod in modules:
            space = vars(mod)
            containers = [space] + [v for v in space.values()
                                    if isinstance(v, dict)]
            for v in list(space.values()):
                if hasattr(v, "__dict__") and not inspect.ismodule(v) \
                        and not inspect.isclass(v) \
                        and not inspect.isfunction(v):
                    containers += [d for d in vars(v).values()
                                   if isinstance(d, dict)]
            for container in containers:
                for key, value in list(container.items()):
                    new = self._replace(value, originals)
                    if new is not value:
                        container[key] = new
                        self._patches.append(
                            (container, key, value, "item"))
        # field classes: public instance methods and __call__
        for mod in modules:
            for cls_name in FIELD_CLASSES:
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod.__name__:
                    continue
                for attr in sorted(dir(cls)):
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    raw = inspect.getattr_static(cls, attr)
                    if not inspect.isfunction(raw):
                        continue    # classmethods, properties, attributes
                    target = Target("fields", f"{cls_name}.{attr}",
                                    is_eval=True)
                    self._set_attr(cls, attr, self._wrap(target, raw))
            region = vars(mod).get("Region")
            if (region is not None and region.__module__ == mod.__name__
                    and "contains" in vars(region)):
                self._set_attr(region, "contains",
                               self._counter(vars(region)["contains"]))
        return self

    @staticmethod
    def _replace(value, originals):
        """The wrapper of a wrapped function, a tuple with its wrapped
        members replaced (table rows such as (function, help text)), or
        the value itself."""
        hit = originals.get(id(value))
        if hit is not None and hit[0] is value:
            return hit[1]
        if isinstance(value, tuple):
            items = tuple(Tracer._replace(v, originals) for v in value)
            if any(a is not b for a, b in zip(items, value)):
                return items
        return value

    def _set_attr(self, cls, attr, value):
        # an inherited method has no entry of its own: uninstall deletes it
        self._patches.append((cls, attr, vars(cls).get(attr), "attr"))
        setattr(cls, attr, value)

    def uninstall(self):
        for container, key, original, kind in reversed(self._patches):
            if kind == "attr":
                if original is None:
                    delattr(container, key)
                else:
                    setattr(container, key, original)
            else:
                container[key] = original
        self._patches.clear()

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.region_checks += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, target, fn):
        self.targets.append(target)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(target, fn, args, kwargs)
        return traced

    # -- span bookkeeping --------------------------------------------------

    def _call(self, target, fn, args, kwargs):
        active = self._active
        outer = [g for g in target.groups if not active.get(g)]
        for g in target.groups:
            active[g] = active.get(g, 0) + 1
        if target.is_eval and "eval" in outer and active.get("transport"):
            self.evals_in_transport += 1
        frame = [0.0, False]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            for g in target.groups:
                active[g] -= 1
            target.calls += 1
            target.incl += elapsed
            target.self_time += elapsed - frame[0]
            for g in outer:
                self.outer_calls[g] = self.outer_calls.get(g, 0) + 1
                self.outer_incl[g] = self.outer_incl.get(g, 0.0) + elapsed
            if self._stack:
                self._stack[-1][0] += elapsed
        steps_seen = frame[1]
        if target.layer == "transport" and not steps_seen:
            steps_seen = self._record_transport(args, result)
        if "emit" in target.groups and isinstance(result, str):
            self.emit_bytes += len(result)
        if steps_seen and self._stack:
            self._stack[-1][1] = True
        return result

    def _record_transport(self, args, result):
        """RK4 steps and midpoint defect of one transport call: from a
        returned TransportResult, else from a (value, residual) pair and
        the step count of a PathSpec argument."""
        steps = 0
        residual = getattr(result, "max_residual", None)
        ts = getattr(result, "ts", None)
        if ts is not None:
            steps = len(ts) - 1
        else:
            if (isinstance(result, tuple) and len(result) == 2
                    and isinstance(result[1], float)):
                residual = result[1]
            for arg in args:
                if hasattr(arg, "steps") and hasattr(arg, "kind"):
                    steps = int(arg.steps)
                    break
        if residual is not None:
            self.max_residual = max(self.max_residual, float(residual))
        self.rk4_steps += steps
        return steps > 0

    # -- reporting ---------------------------------------------------------

    def wrapped_by_layer(self):
        out = {}
        for t in self.targets:
            out.setdefault(t.layer, []).append(t.name)
        return out

    def silent_layers(self):
        """Layers of LAYERS that recorded no span."""
        seen = {t.layer for t in self.targets if t.calls}
        return [layer for layer in LAYERS if layer not in seen]

    def total_self(self):
        return sum(t.self_time for t in self.targets)

    def layer_metrics(self, suite_names):
        def calls(group):
            return sum(t.calls for t in self.targets if group in t.groups)

        def self_s(group):
            return sum(t.self_time for t in self.targets
                       if group in t.groups)

        outer_calls = self.outer_calls.get
        outer_incl = self.outer_incl.get
        steps = self.rk4_steps
        m = {
            "exprlang.parse_calls": calls("parse"),
            "exprlang.parse_s": outer_incl("parse", 0.0),
            "exprlang.compile_calls": calls("compile"),
            "exprlang.compile_s": outer_incl("compile", 0.0),
            "fields.eval_calls": outer_calls("eval", 0),
            "fields.eval_self_s": self_s("eval"),
            "fields.region_checks": self.region_checks,
            "fields.fd_stencils": calls("fd"),
            "fields.fd_incl_s": outer_incl("fd", 0.0),
            "fields.lie_incl_s": outer_incl("lie", 0.0),
            "connection.law_calls": calls("law"),
            "connection.law_self_s": self_s("law"),
            "transport.calls": calls("transport"),
            "transport.rk4_steps": steps,
            "transport.self_s": self_s("transport"),
            "transport.incl_s": outer_incl("transport", 0.0),
            "transport.evals_per_step": (self.evals_in_transport / steps
                                         if steps else 0.0),
            "transport.max_residual": self.max_residual,
            "calculus.calls": calls("calculus"),
            "calculus.self_s": self_s("calculus"),
            "calculus.incl_s": outer_incl("calculus", 0.0),
            "morphism.calls": calls("morphism"),
            "morphism.self_s": self_s("morphism"),
            "registry.builds": outer_calls("registry", 0),
            "registry.build_s": outer_incl("registry", 0.0),
            "cli.load_s": outer_incl("load", 0.0),
            "cli.self_s": self_s("cli") - self_s("load") - self_s("emit"),
            "cli.emit_s": outer_incl("emit", 0.0),
            "cli.emit_bytes": self.emit_bytes,
        }
        per_suite = {name: 0.0 for name in suite_names}
        for t in self.targets:
            name = self.suite_names.get(t.key)
            if name is not None:
                per_suite[name] = per_suite.get(name, 0.0) + t.incl
        for name, seconds in per_suite.items():
            m[f"suites.{name}_s"] = seconds
        return m

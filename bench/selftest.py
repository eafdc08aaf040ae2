#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py

For the warm-up jobs of every workload: runs each job untraced, traced and
untraced again and requires byte-identical stdout, and requires every
output to pass its oracle. It also requires the tracer to find targets in
every layer it reports, to record a span in each layer over the whole set
of jobs, and to leave no wrapper behind after `uninstall()`. Exits 1 on any
failure.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import import_engine, run_job, validate, write_jobs
from tracer import LAYERS, Tracer


def _snapshot(bundleconn):
    """Identity of every module attribute, dict entry and class attribute
    the tracer may replace."""
    import importlib
    import pkgutil
    snap = {}
    mods = [bundleconn] + [
        importlib.import_module(f"bundleconn.{info.name}")
        for info in pkgutil.iter_modules(bundleconn.__path__)]
    for mod in mods:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, dict):
                for k, v in value.items():
                    snap[(mod.__name__, name, k)] = id(v)
            if isinstance(value, type):
                for k, v in vars(value).items():
                    snap[(mod.__name__, name, "attr", k)] = id(v)
    return snap


def main():
    cli, _ = import_engine()
    import bundleconn
    problems = []
    before = _snapshot(bundleconn)
    tracer = Tracer().install(bundleconn)
    tracer.uninstall()
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        jobs = []
        for name, workload in wl.WORKLOADS.items():
            jobs += write_jobs(Path(tmp), name, workload.warmup_jobs(0))
        plain = [run_job(cli, job)[0] for job in jobs]
        tracer = Tracer().install(bundleconn)
        try:
            traced = [run_job(cli, job) for job in jobs]
        finally:
            tracer.uninstall()
        again = [run_job(cli, job)[0] for job in jobs]
        for job, out0, (out, code, _), out2 in zip(jobs, plain, traced,
                                                   again):
            reason = validate(job, out, code, {})
            if reason:
                problems.append(f"{job.kind}: {reason}")
            if not out0 == out == out2:
                problems.append(f"{job.kind}: traced and untraced stdout "
                                "differ")
    wrapped = tracer.wrapped_by_layer()
    print(f"{len(jobs)} jobs; wrapped targets per layer: "
          + ", ".join(f"{k} {len(v)}" for k, v in sorted(wrapped.items())))
    problems += [f"tracer wrapped nothing in layer {layer}"
                 for layer in LAYERS if layer not in wrapped]
    problems += [f"layer {layer} recorded no span"
                 for layer in tracer.silent_layers()]
    if _snapshot(bundleconn) != before:
        problems.append("uninstall() left a wrapper behind")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

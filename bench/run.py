#!/usr/bin/env python3
"""bundleconn benchmark: seeded CLI jobs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload pointwise --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Load model: one client in a closed loop, in this single-threaded process.
Each job calls `bundleconn.cli.main([command, "--config", path])` in process
and captures its stdout. The engine is imported from `src/` next to this
directory, never from an installed copy.

`--trace 0` (timed run): set up (import, write the configs of the first
rounds, one warm-up job per command) five times and report the median;
run whole rounds of jobs until `--seconds` of job time and at least 100 jobs
have passed; check every output against the paper identity its generator
attached; re-run a seeded sample and compare stdout byte for byte. The last
stdout line is a JSON object with `correct`, `attempted`, `failed` and the
end-to-end metrics, their times scaled to a reference host speed (see "host
speed" below).

`--trace 1` (traced run): run a fixed list of rounds untraced, then again
with the span tracer of tracer.py installed, require byte-identical stdout,
and report the per-layer metrics with the tracing overhead.

Each run writes its configs and a result file (metrics, per-job records,
environment) under bench/out/<workload>/seed<n>-trace<t>/, so a failed job
can be replayed with `PYTHONPATH=src python3 -m bundleconn.cli ...`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5
SETUP_ROUNDS = 2        # rounds of configs written during set-up
MIN_JOBS = 100          # so that at least 10 samples lie beyond p90
MAX_MEASURE_S = 120.0   # hard stop for the timed loop, whatever --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "throughput_jobs_s": "jobs/s",
                    "job_ms_p50": "ms", "job_ms_p90": "ms",
                    "peak_rss_mb": "MB"}


def layer_unit(name):
    metric = name.rsplit(".", 1)[-1]
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    return {"emit_bytes": "bytes", "evals_per_step": "evals/step",
            "max_residual": "abs"}.get(metric, "count")


# ---------------------------------------------------------------------------
# the engine


def import_engine():
    """Import bundleconn from ROOT/src; returns (cli module, seconds)."""
    src = ROOT / "src"
    if not (src / "bundleconn" / "__init__.py").is_file():
        sys.exit(f"error: no bundleconn sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import bundleconn.cli as cli
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: imported bundleconn from {cli.__file__}, "
                 f"not from {src}")
    return cli, elapsed


def run_job(cli, job):
    """One in-process CLI call: (stdout, exit code or error text, seconds).
    A job that raises is a failed job, not a benchmark crash."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv())
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:        # noqa: BLE001 - record and go on
        code = f"raised {type(exc).__name__}: {exc}"
    return buf.getvalue(), code, time.perf_counter() - start


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _no_constant(text):
    raise ValueError(f"non-finite number {text}")


def validate(job, out, code, memo):
    """None if the job exited 0 with exactly one finite JSON object that
    passes its oracle, else the reason it failed."""
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} stdout lines, expected 1"
    try:
        payload = json.loads(lines[0], parse_float=_finite_float,
                             parse_constant=_no_constant)
    except ValueError as exc:
        return f"bad JSON: {exc}"
    if not isinstance(payload, dict):
        return "stdout is not a JSON object"
    try:
        return job.check(payload, memo)
    except (KeyError, IndexError, TypeError) as exc:
        return f"unexpected output shape: {exc!r}"


# ---------------------------------------------------------------------------
# host speed
#
# A shared cloud host changes speed under its neighbours' load. On a 2-vCPU
# VM the process ran in a fast and a 1.8x slower state that alternated every
# 0.1 to 1 s, in proportions that drifted over minutes, with CPU time moving
# as much as wall time (no steal): over ten 25-second runs of one workload,
# throughput and job-time percentiles spread by up to 0.33 (quartile
# distance over median). A fixed slice of interpreter and small-matrix numpy
# work, the kind of work the engine does, slows by the same factor. So the
# kernel is timed before the first job and after every job, each job's wall
# time is scaled by KERNEL_REF_S over the mean of the two kernel times
# around it (set-up time by the mean kernel time of the set-up phase), and
# the reported times read as on a host where the kernel takes KERNEL_REF_S.
# Scaled, the same spreads stayed at 0.026-0.095. Raw wall times are printed
# and stored next to the scaled ones.

KERNEL_STEPS = 500
KERNEL_REF_S = 0.001


def kernel_s():
    """Seconds taken by the fixed kernel now. The garbage collector is off
    inside it, so collecting the engine's garbage stays in the jobs."""
    import numpy as np
    eye = np.eye(2)
    a, acc = eye, 0.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(KERNEL_STEPS):
            a = a @ eye + 0.0
            acc += float(a[0, 0]) * 0.5 + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_s():
    """The kernel time now, as the mean of three back-to-back samples."""
    return statistics.mean(kernel_s() for _ in range(3))


def to_reference(seconds, kernels):
    """Job i's time scaled by the kernel times kernels[i] (before it) and
    kernels[i + 1] (after it)."""
    return [t * 2.0 * KERNEL_REF_S / (kernels[i] + kernels[i + 1])
            for i, t in enumerate(seconds)]


def latency_metrics(seconds):
    ms = [t * 1e3 for t in seconds]
    return {"throughput_jobs_s": len(ms) / sum(seconds),
            "job_ms_p50": statistics.median(ms),
            "job_ms_p90": statistics.quantiles(ms, n=10)[8]}


# ---------------------------------------------------------------------------
# inputs


def write_jobs(config_dir, tag, jobs):
    for j, job in enumerate(jobs):
        job.path = str(config_dir / f"{tag}-j{j:02d}-{job.kind}.json")
        if job.config is not None:
            with open(job.path, "w", encoding="utf-8") as fh:
                json.dump(job.config, fh)
    return jobs


class Inputs:
    """The configs of one run: the first rounds are written during set-up,
    later ones between rounds, outside the timed job calls."""

    def __init__(self, workload, seed, config_dir):
        self.workload = workload
        self.seed = seed
        self.dir = config_dir
        self.rounds = []
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)

    def generate(self, count):
        self.rounds = [self._make(r) for r in range(count)]

    def _make(self, r):
        return write_jobs(self.dir, f"r{r:03d}", self.workload.round(
            self.seed, r))

    def round(self, r):
        while len(self.rounds) <= r:
            self.rounds.append(self._make(len(self.rounds)))
        return self.rounds[r]


def set_up(cli, workload, seed, inputs):
    """Write the first rounds of configs and run one warm-up job per
    command. Returns the failures of the warm-up jobs."""
    inputs.generate(SETUP_ROUNDS)
    warm = write_jobs(inputs.dir, "warmup",
                      workload.warmup_jobs(seed))
    failures = []
    for job in warm:
        out, code, _ = run_job(cli, job)
        reason = validate(job, out, code, {})
        if reason:
            failures.append({"config": rel(job.path), "kind": job.kind,
                             "error": f"warm-up: {reason}"})
    return failures


def rel(path):
    return os.path.relpath(path, ROOT) if path else None


# ---------------------------------------------------------------------------
# runs


def timed_run(cli, workload, seed, seconds, inputs):
    rng = random.Random(f"determinism:{workload.name}:{seed}")
    first = inputs.round(0)
    sample = set(rng.sample(range(len(first)),
                            min(workload.determinism_jobs, len(first))))
    records, times, kept = [], [], {}
    kernels = [kernel_s()]
    started = time.monotonic()
    r = 0
    while True:
        memo = {}
        for j, job in enumerate(inputs.round(r)):
            out, code, elapsed = run_job(cli, job)
            kernels.append(kernel_s())
            times.append(elapsed)
            records.append({"round": r, "job": j, "kind": job.kind,
                            "command": job.command, "suite": job.suite,
                            "config": rel(job.path), "ms": elapsed * 1e3,
                            "kernel_after_ms": kernels[-1] * 1e3,
                            "error": validate(job, out, code, memo)})
            if r == 0 and j in sample:
                kept[j] = (len(records) - 1, out)
        r += 1
        if sum(times) >= seconds and len(times) >= MIN_JOBS:
            break
        if time.monotonic() - started > MAX_MEASURE_S:
            break
    # determinism gate: a seeded sample of round 0 again, byte for byte
    mismatches = 0
    for j, (index, out) in sorted(kept.items()):
        again, _, _ = run_job(cli, first[j])
        if again != out:
            mismatches += 1
            if records[index]["error"] is None:
                records[index]["error"] = "stdout differs on re-run"
    return records, times, kernels, r, {"rerun": len(kept),
                                        "mismatches": mismatches}


def traced_run(cli, bundleconn, workload, inputs):
    jobs = [job for r in range(workload.trace_rounds)
            for job in inputs.round(r)]
    records, plain = [], []
    memo = {}
    plain_s, plain_k = [], [kernel_s()]
    for job in jobs:
        out, code, elapsed = run_job(cli, job)
        plain_k.append(kernel_s())
        plain.append(out)
        plain_s.append(elapsed)
        records.append({"kind": job.kind, "config": rel(job.path),
                        "error": validate(job, out, code, memo)})
    tracer = Tracer().install(bundleconn)
    memo = {}
    traced_s, traced_k = [], [kernel_s()]
    try:
        for job, out0, rec in zip(jobs, plain, records):
            out, code, elapsed = run_job(cli, job)
            traced_k.append(kernel_s())
            traced_s.append(elapsed)
            reason = validate(job, out, code, memo)
            if out != out0:
                reason = reason or "traced stdout differs from untraced"
            rec["error"] = rec["error"] or reason
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(wl.SUITES)
    plain_ref = sum(to_reference(plain_s, plain_k))
    traced_ref = sum(to_reference(traced_s, traced_k))
    metrics["trace_overhead_frac"] = (traced_ref - plain_ref) / plain_ref
    metrics["unattributed_frac"] = ((sum(traced_s) - tracer.total_self())
                                    / sum(traced_s))
    return records, metrics, tracer


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    """HEAD of a git checkout at ROOT, read from .git without running git;
    None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_commit": _git_commit(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


# ---------------------------------------------------------------------------


def run_one(args):
    workload = wl.WORKLOADS[args.workload]
    cli, import_s = import_engine()
    import bundleconn
    run_dir = OUT / workload.name / f"seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload, args.seed, run_dir / "configs")
    host = [host_s()]           # after the import, then after each set-up
    setups, failures = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        failures = set_up(cli, workload, args.seed, inputs)
        setups.append(time.perf_counter() - start)
        host.append(host_s())
    setup_raw = import_s + statistics.median(setups)
    setup_s = setup_raw * KERNEL_REF_S / statistics.mean(host)
    result = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        records, metrics, tracer = traced_run(cli, bundleconn, workload,
                                              inputs)
        for layer, names in sorted(tracer.wrapped_by_layer().items()):
            print(f"  wrapped {layer} ({len(names)}): {' '.join(names)}")
        silent = tracer.silent_layers()
        for layer in silent:
            print(f"  FLAG: layer {layer} recorded no span")
        result["silent_layers"] = silent
        result["wrapped"] = tracer.wrapped_by_layer()
    else:
        records, times, kernels, rounds, gate = timed_run(
            cli, workload, args.seed, args.seconds, inputs)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s,
                   **latency_metrics(to_reference(times, kernels)),
                   "peak_rss_mb": rss}
        raw = {"setup_s": setup_raw, **latency_metrics(times),
               "peak_rss_mb": rss}
        result.update(determinism=gate, samples=len(times), raw_metrics=raw,
                      kernel_ms_median=statistics.median(kernels) * 1e3)
        print(f"  {len(times)} jobs in {rounds} rounds, {sum(times):.2f} s "
              f"of job time; determinism gate re-ran {gate['rerun']} jobs, "
              f"{gate['mismatches']} mismatches")
        print(f"  times scaled to a kernel time of {KERNEL_REF_S * 1e3:g} ms "
              f"(median kernel {statistics.median(kernels) * 1e3:.4g} ms); "
              "raw values in brackets")
    failed_records = failures + [r for r in records if r["error"]]
    attempted = len(records) + len(failures)
    failed = len(failed_records)
    units = END_TO_END_UNITS if not args.trace else {
        name: layer_unit(name) for name in metrics}
    shown = {name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()}
    for name, m in shown.items():
        extra = (f"  [{result['raw_metrics'][name]:.6g}]"
                 if "raw_metrics" in result else "")
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"  {'failed_frac':<34} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted})")
    for rec in failed_records[:10]:
        print(f"  FAILED {rec['kind']} {rec['config']}: {rec['error']}")
    result.update(metrics=shown, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, setup_runs_s=setups,
                  setup_kernel_ms=[k * 1e3 for k in host],
                  import_s=import_s, jobs=records, warmup_failures=failures)
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"  results: {rel(run_dir / 'result.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    summary = []
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        summary.append((name, json.loads(lines[-1])))
    for name, res in summary:
        print(f"{name}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="job time to measure in a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the halfspace library, one workload per invocation.

    python3 perfbench/run.py --workload bvp2d --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  Set-up
(imports, input generation from the seed, the coefficient file) is timed in
fresh child processes.  The job (build phase plus a closed operation loop
with one client) is then repeated on the same inputs while another one fits
in --seconds.  Before each job, a fixed Python loop measures the host's
speed, and the job's times are rescaled to a reference host.  Each build
call and each operation is then taken at its median over the jobs, and the
figures come from those times.  --trace 1 alternates untraced and traced
jobs and reports per-layer self times from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  Exit code 1 when any check fails, 2 when the library source
is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller sets another count: the benchmark calls
# the library from one thread, and on a small shared host a second BLAS
# thread makes every BLAS call wait for the slower of two vCPUs (see
# METRICS.md).  Set before numpy loads BLAS; provenance records the count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy  # noqa: E402
import scipy  # noqa: E402

from loop import Job, figures, typical
from tracing import LAYERS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
# ROADMAP baseline, 2D G=16: accretivity_estimate and dense eig(DB), seconds;
# workload bvp2d-g16 runs at that size
BASELINE = {"coefficients.accretivity_estimate": 4.9, "calculus.eigen_data": 2.0}
BASELINE_GRID = (2, 16)  # dim, points
# The host's speed is measured before every job and set-up child with a fixed
# pure-Python loop (REFERENCE_ITERS additions, median of REFERENCE_REPEATS),
# and their times are rescaled to a host on which that loop takes
# REFERENCE_S, about its fastest on the 2-vCPU Xeon the benchmark was defined
# on.  See METRICS.md, "Host speed".
REFERENCE_ITERS = 100_000
REFERENCE_S = 0.0036
REFERENCE_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="make the inputs, print the time they were ready, exit")
    return p.parse_args(argv)


def import_library() -> str | None:
    """Import halfspace from ./src; return an error message when that fails."""
    if not (SRC / "halfspace" / "__init__.py").is_file():
        return f"halfspace source not found under {SRC}; run from a checkout"
    sys.path.insert(0, str(SRC))
    import halfspace

    if Path(halfspace.__file__).resolve().parent != SRC / "halfspace":
        return f"imported halfspace from {halfspace.__file__}, not {SRC}"
    return None


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository itself."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "halfspace").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> list:
    """Loaded OpenBLAS libraries with their build string and thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = int(threads())
        found.append(entry)
    return found


def _cpu_ticks():
    """(steal, total) CPU ticks of this machine so far, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def provenance(workload, seed: int) -> dict:
    g = workload.grid
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in
                ("HALFSPACE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": workload.name,
        "seed": seed,
        "grid": {"dim": g.dim, "points": g.points, "system_size": g.system_size},
        "dof": g.dof,
        "loop": "closed, one client, one calling thread",
    }


# ---------------------------------------------------------------------------
# set-up and jobs
# ---------------------------------------------------------------------------


def time_setup(args, reference: list) -> list:
    """Process start to inputs ready, in fresh interpreters, each rescaled by
    the host speed measured just before it (see ``host_scale``)."""
    times = []
    for _ in range(SETUP_REPEATS):
        scale = host_scale(reference)
        spawned = time.time()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{out.stderr}")
        times.append((float(out.stdout.strip().splitlines()[-1]) - spawned) * scale)
    return times


def reference_loop() -> float:
    """Seconds one run of the fixed reference loop takes on this host now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i
    return time.perf_counter() - t0


def host_scale(reference: list) -> float:
    """Time the reference loop, add the times to ``reference`` and return
    the factor that rescales times measured now to the reference host."""
    times = [reference_loop() for _ in range(REFERENCE_REPEATS)]
    reference.extend(times)
    return REFERENCE_S / statistics.median(times)


def run_jobs(workload, inputs, seconds: float, tracer, off, reference: list):
    """Repeat the job while another one fits in the time budget.

    With tracing, jobs alternate untraced and traced and always come in
    pairs.  Each job carries the host-speed factor measured just before it.
    Returns [(traced, job, first span, end span)].
    """
    plan = (off, tracer) if tracer.enabled else (off,)
    jobs = []
    t0 = time.perf_counter()
    while True:
        for tr in plan:
            scale = host_scale(reference)
            mark = tracer.mark()
            job = Job(tr, scale)
            try:
                workload.job(tr, job, inputs)
            except Exception:
                print(f"job aborted:\n{traceback.format_exc()}", file=sys.stderr)
                job.aborted = True
                job.failed += 1
                job.latencies.append(time.perf_counter() - job.start)
            job.finish()
            jobs.append((tr.enabled, job, mark, tracer.mark()))
            if job.aborted:
                return jobs
        elapsed = time.perf_counter() - t0
        typical = statistics.median(j.end - j.start for _, j, _, _ in jobs) * len(plan)
        if elapsed + typical > seconds:
            return jobs


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(jobs, setup_times) -> dict:
    """Figures of the untraced jobs' median segments; all times rescaled."""
    med = figures(typical([j for traced, j, _, _ in jobs if not traced]))
    out = {k: med[k] for k in ("wall_s", "first_result_s", "ops_per_s", "op_p50_s",
                               "op_tail_s")}
    out["setup_s"] = statistics.median(setup_times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(jobs, tracer, names: list) -> dict:
    """The per-layer metrics BENCHMARK.json lists, per traced job.

    Self times and call counts are medians over the traced jobs; a function
    the workload never calls reads 0, and so does a check it never runs.
    Times are rescaled by each job's host-speed factor, as the end-to-end
    ones are.
    """
    rows = []
    for traced, job, first, stop in jobs:
        if not traced:
            continue
        seconds, calls = self_times(tracer.spans, first, stop)
        row = dict(job.counts)
        for name, own in seconds.items():
            row[f"{name}.s"] = own * job.scale
            row[f"{name}.calls"] = calls[name]
            if f"{name}.s" not in names:
                print(f"warning: span {name} is not listed in BENCHMARK.json", file=sys.stderr)
        for layer in LAYERS:
            row[f"{layer}.s"] = job.scale * sum(s for n, s in seconds.items()
                                                if n.startswith(layer + "."))
        wall = job.end - job.start
        row["trace.uncovered_frac"] = 1.0 - sum(seconds.values()) / wall
        rows.append(row)
    out = {k: statistics.median(r.get(k, 0) for r in rows) for k in set().union(*rows)}
    walls = {side: figures(typical([j for t, j, _, _ in jobs if t == side]))["wall_s"]
             for side in (True, False)}
    out["trace.overhead_s"] = walls[True] - walls[False]
    for _, job, _, _ in jobs:
        for check, (lo, hi) in job.extremes.items():
            out[f"check.{check}.min"] = min(out.get(f"check.{check}.min", lo), lo)
            out[f"check.{check}.max"] = max(out.get(f"check.{check}.max", hi), hi)
    return {name: out.get(name, 0) for name in names}


def baseline_note(jobs, tracer) -> str:
    """First traced job against the ROADMAP baseline table, 2D G=16."""
    first = next((a, b) for t, _, a, b in jobs if t)
    measured = {}
    for name, t0, t1, _, _ in tracer.spans[first[0]:first[1]]:
        if name in BASELINE and name not in measured:  # first eigen_data is DB's
            measured[name] = t1 - t0
    parts = []
    for name, ref in BASELINE.items():
        got = measured.get(name, float("nan"))
        verdict = "agrees within 25%" if abs(got / ref - 1.0) <= 0.25 else "off by over 25%"
        parts.append(f"{name} {got:.2f} s vs baseline {ref:.1f} s "
                     f"(ratio {got / ref:.2f}, {verdict})")
    return "baseline cross-check: " + "; ".join(parts)


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_library()
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = workload.setup(workload, args.seed, workdir)
        if args.setup_only:
            print(repr(time.time()))
            return 0
        reference = []
        setup_times = time_setup(args, reference)
        tracer, off = Tracer(enabled=bool(args.trace)), Tracer(enabled=False)
        ticks_before = _cpu_ticks()
        jobs = run_jobs(workload, inputs, args.seconds, tracer, off, reference)
        ticks_after = _cpu_ticks()

    attempted = sum(j.attempted() for _, j, _, _ in jobs)
    failed = sum(j.failed for _, j, _, _ in jobs)
    aborted = any(j.aborted for _, j, _, _ in jobs)
    prov = provenance(workload, args.seed)
    e2e = end_to_end(jobs, setup_times) if not aborted else {}
    specs = load_metric_specs()
    layer_names = [m["name"] for m in specs["per_layer"]]
    layer = per_layer(jobs, tracer, layer_names) if args.trace and not aborted else {}
    if layer:
        layer["host.reference_loop_s"] = statistics.median(reference)
    notes = []
    tails = [j.figures() for t, j, _, _ in jobs if not t and not j.aborted]
    if tails:
        notes.append(f"op_tail_s is p{tails[0]['tail_percentile']:.1f} of {tails[0]['ops']} "
                     f"operations per job, {tails[0]['tail_beyond']} beyond it; "
                     f"{len(tails)} untraced jobs, each segment at its median "
                     "over them, rescaled")
    notes.append(f"failed_frac = {failed / attempted:.4f} ({failed}/{attempted}), counted in "
                 "the result's failed and attempted")
    notes.append(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup_times)} s")
    scales = [j.scale for _, j, _, _ in jobs]
    notes.append(f"host speed: reference loop median {1e3 * statistics.median(reference):.3f} "
                 f"ms over {len(reference)} runs, fastest {1e3 * min(reference):.3f} ms; job "
                 f"times rescaled to a {1e3 * REFERENCE_S:.1f} ms host by factors "
                 f"{min(scales):.3f}-{max(scales):.3f}")
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
        notes.append(f"CPU steal by the host during the jobs: {100 * steal:.1f}% of CPU time")
    if layer:
        notes.append(f"tracing overhead {layer['trace.overhead_s']:+.3f} s per job "
                     f"(traced minus untraced wall_s); uncovered share of traced wall "
                     f"{layer['trace.uncovered_frac']:.4f}")
        if (workload.grid.dim, workload.grid.points) == BASELINE_GRID:
            notes.append(baseline_note(jobs, tracer))

    chosen = specs["per_layer"] if args.trace else specs["end_to_end"]
    source = layer if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in chosen if m["name"] in source}

    print("provenance " + json.dumps(prov))
    for name, value in e2e.items():
        print(f"  {name:20s} {value:.6g}")
    for name in sorted(layer):
        print(f"  {name:48s} {layer[name]:.6g}")
    for note in notes:
        print(f"note: {note}")
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "end_to_end": e2e, "per_layer": layer,
                   "notes": notes, "jobs": [dict(j.figures(), traced=t, failed=j.failed,
                                                 checks=j.extremes, scale=j.scale)
                                            for t, j, _, _ in jobs if not j.aborted]}, fh,
                  indent=1)
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")
    correct = failed == 0 and not aborted
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

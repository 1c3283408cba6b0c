"""One workload in a fresh interpreter; started by ``run.py``.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (import, generate, warm up, then exit), ``measure`` (a
closed loop of ops, one at a time, for SECONDS) or ``trace`` (a fixed list
of ops, each run untraced and again under :mod:`spans`).  The worker writes
``READY`` to stdout as soon as its set-up is done, and in the last two
modes one JSON line with its results.  The environment (``PYTHONPATH``,
BLAS thread counts) comes from ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: seconds after which one op counts as failed (in-process ops are
#: interrupted by a timer signal, subprocesses are killed)
OP_CAP = 60.0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"exceeded the {OP_CAP:.0f} s wall cap")


def run_op(op) -> dict:
    """Time one op and check its outputs; failures never escape."""
    record = {"label": op.label}
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_CAP)
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as err:  # an op that raises is a failed op
        out = None
        record["failures"] = [f"raised {type(err).__name__}: {err}"[:300]]
    finally:
        record["s"] = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if out is not None:
        record["failures"] = op.check(out)
        for key in ("cone_build_s", "steps"):
            if key in out:
                record[key] = out[key]
    return record


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "conemix").glob("*.py")):
        source.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git executable
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def peak_rss_mb(children) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload, seed, seconds, env) -> dict:
    """Closed loop: start ops until SECONDS have passed and every slot of
    the cycle has run at least once."""
    records = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds \
            or index < len(workload.cycle):
        op = workload.op(seed, index, env)
        record = run_op(op)
        record["slot"] = index % len(workload.cycle)
        records.append(record)
        index += 1
    return {"records": records,
            "peak_rss_mb": peak_rss_mb(workload.subprocess_ops)}


def _import_seconds(env) -> float:
    """Median wall time of a fresh interpreter importing conemix.cli."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import conemix.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _traced(tracer, workload, seed, index) -> dict:
    tracer.install()
    try:
        op = workload.op(seed, index)
        tracer.op = index
        return run_op(op)
    finally:
        tracer.op = None
        tracer.uninstall()


def trace(workload, seed, spans_file) -> dict:
    """One cycle of ops, each run once untraced and once traced
    (alternating which goes first, so warm caches favour neither side)."""
    n = len(workload.cycle)
    tracer = spans.Tracer()
    plain, traced = [], []
    for i in range(n):
        if i % 2:
            traced.append(_traced(tracer, workload, seed, i))
        plain.append(run_op(workload.op(seed, i)))
        if not i % 2:
            traced.append(_traced(tracer, workload, seed, i))
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps(tracer.spans))
    metrics = spans.layer_metrics(tracer.spans)
    untraced_s = sum(r["s"] for r in plain)
    traced_s = sum(r["s"] for r in traced)
    metrics["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    metrics["trace.ops"] = n
    metrics["cli.import_s"] = _import_seconds(dict(os.environ))
    builds = [r["cone_build_s"] for r in plain if "cone_build_s" in r]
    metrics["cones.build_p50_s"] = statistics.median(builds) if builds \
        else 0.0
    steps = [(r["steps"], r["s"]) for r in plain if "steps" in r]
    metrics["cli.simulate_steps_per_s"] = (
        sum(s for s, _ in steps) / sum(t for _, t in steps) if steps else 0.0)
    return {"records": plain + traced, "metrics": metrics,
            "spans": len(tracer.spans), "spans_file": str(spans_file)}


def main(argv) -> int:
    mode, name, seed, seconds, work = argv
    seed, seconds, work = int(seed), float(seconds), Path(work)
    in_process_cli = mode == "trace"
    workload = workloads.get(name, ROOT, work, seed, OP_CAP)
    env = None
    if workload.subprocess_ops and not in_process_cli:
        env = dict(os.environ)
    for op in workload.warmup_ops(seed, env):
        run_op(op)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    if mode == "measure":
        result = measure(workload, seed, seconds, env)
    else:
        result = trace(workload, seed, ROOT / ".bench_build" / "traces"
                       / f"{name}-seed{seed}.json")
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

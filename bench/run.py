"""conemix benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src/``.  Every op runs in a worker process
(``worker.py``) started from a fresh interpreter, one op at a time, with
BLAS pinned to ``BLAS_THREADS`` threads.

``--trace 0`` times the workload with tracing off.  ``setup_s`` is the
median over ``2 * SETUP_PROBES + 1`` fresh workers of the wall time from
starting the interpreter to the end of its warm-up (import, input
generation, one warm-up op per listed kind): ``SETUP_PROBES`` before the
measuring worker, the measuring worker itself, and ``SETUP_PROBES`` after.
``--trace 1`` runs a fixed list of ops, each once untraced and once
traced, and reports the per-layer metrics of :mod:`spans` with the tracing
overhead; the spans themselves are written to ``.bench_build/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the op count, ``failed_frac`` with its base, the
tail percentile used and the first failure messages.  ``bench/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up probes before, and again after, the measuring worker
SETUP_PROBES = 3
#: wall-clock budget of the whole benchmark process, in seconds
DEADLINE = 170.0
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class Worker:
    """A worker process, killed if it outlives the benchmark's deadline."""

    def __init__(self, mode, args, work, deadline):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), mode, args.workload,
             str(args.seed), str(args.seconds), str(work)],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.start()

    def ready(self) -> float:
        """Seconds from process start to its READY line."""
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.start
        if line.strip() != "READY":
            self.finish()
            raise BenchError("worker died during set-up")
        return elapsed

    def finish(self):
        """Wait for exit; return the parsed last line, or None."""
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND
    samples beyond it, i.e. the (TAIL_BEYOND + 1)-th largest sample; the
    maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def by_slot(records) -> list:
    """The latencies of each slot of the cycle that ran."""
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r["s"])
    return list(slots.values())


def setup_seconds(args, work, deadline) -> float:
    probe = Worker("setup", args, work, deadline)
    elapsed = probe.ready()
    probe.finish()
    return elapsed


def end_to_end(args, work, deadline):
    # set-up probes before and after the measuring worker, so a change of
    # host speed during the run weighs on both sides of the median
    setup = [setup_seconds(args, work, deadline)
             for _ in range(SETUP_PROBES)]
    worker = Worker("measure", args, work, deadline)
    setup.append(worker.ready())
    result = worker.finish()
    setup += [setup_seconds(args, work, deadline)
              for _ in range(SETUP_PROBES)]
    records = result["records"]
    latencies = [r["s"] for r in records]
    # the tail is taken over every op, not over whole cycles only: there the
    # sample count would move a cycle at a time, and the (TAIL_BEYOND + 1)-th
    # largest latency with it from one band of slot costs to the next
    tail_s, pct = tail(latencies)
    # per-slot medians weigh every slot of the cycle equally, so a run that
    # stops part-way through a cycle does not shift the mix, and a burst of
    # host load that slows one op does not move its slot
    slots = by_slot(records)
    per_slot = [statistics.median(v) for v in slots]
    values = {"setup_s": statistics.median(setup),
              "op_p50_s": statistics.median(per_slot),
              "op_tail_s": tail_s,
              "ops_per_s": len(per_slot) / sum(per_slot),
              "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
               for k, v in values.items()}
    notes = {"setup_samples_s": setup, "tail_percentile": pct,
             "tail_samples": len(latencies),
             "slot_samples_min": min(len(v) for v in slots)}
    simulate = [r for r in records if "steps" in r]
    if simulate:
        # steps per second of `conemix simulate` subprocesses, interpreter
        # start-up included; the per-layer cli.simulate_steps_per_s is the
        # in-process figure
        notes["simulate_steps_per_s"] = sum(r["steps"] for r in simulate) \
            / sum(r["s"] for r in simulate)
    return result, metrics, notes


def per_layer(args, work, deadline):
    worker = Worker("trace", args, work, deadline)
    worker.ready()
    result = worker.finish()
    metrics = {k: {"value": v, "unit": spans.PER_LAYER[k]}
               for k, v in result["metrics"].items()}
    return result, metrics, {"spans": result["spans"],
                             "spans_file": result["spans_file"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "conemix" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no conemix checkout (src/conemix and "
              "fixtures/ are missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE
    work = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    try:
        run = per_layer if args.trace else end_to_end
        result, metrics, notes = run(args, work, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = result["records"]
    failures = [f"op {i} {r['label']}: {msg}"
                for i, r in enumerate(records) for msg in r["failures"]]
    failed = sum(1 for r in records if r["failures"])
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "environment": result["environment"],
               "failed_frac": f"{failed}/{len(records)}", **notes,
               "failures": failures[:20]}
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

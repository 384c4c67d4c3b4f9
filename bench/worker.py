"""One run of one workload, in a fresh interpreter started by ``run.py``.

The process imports the package from the checkout's ``src/``, builds the
seeded corpus, then runs batches of operations one after another (a single
closed-loop caller).  The number of batches follows from ``--seconds`` and
the workload's nominal batch time alone, so a seed always gives the same
operations, and so the same failures.  It prints one JSON document on
stdout and exits.

With ``--setup-only`` it stops after set-up and reports when set-up ended,
which ``run.py`` uses to sample set-up time in several fresh processes.
With ``--trace 1`` every batch runs twice on the same inputs: untraced and
with the span wrappers of ``tracer.py`` installed, in alternating order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import robust_ldp
import workloads
from tracer import Tracer, layer_metrics

# A run on a machine this many times slower than the nominal batch times
# stops early (at the cost of a different operation count), so that it ends
# well within the caller's deadline.
STOP_AFTER = 3.0


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ROBUST_LDP_THREADS")
        },
    }


def batch_count(workload, seconds: float, trace: int) -> int:
    """Batches in a run: as many as fit in ``seconds`` at the workload's
    nominal batch time.  A traced run does every batch twice (untraced and
    traced), so it does half as many, in whole pairs."""
    count = max(workload.min_batches, round(seconds / workload.batch_s))
    if trace:
        count = max(2, 2 * round(count / 4))
    return count


def run_op(op, tracer):
    """Run one operation and judge its output; returns a result record."""
    record = {"name": op.name, "path_steps": op.path_steps, "traced": tracer is not None}
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.op(op.name):
                out = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        record.update(latency=time.perf_counter() - start, outcome="failed",
                      reason=f"{type(exc).__name__}: {exc}")
        return record
    record["latency"] = time.perf_counter() - start
    try:
        reason = op.check(out)
    except workloads.OpFailed as exc:
        record.update(outcome="failed", reason=str(exc))
        return record
    except Exception as exc:  # an output the check cannot read is not a right one
        record.update(outcome="wrong", reason=f"check raised {type(exc).__name__}: {exc}")
        return record
    record.update(outcome="ok" if reason is None else "wrong", reason=reason)
    return record


def summarize(records: list[dict], batch_times: list[float]) -> dict:
    lat = [r["latency"] for r in records]
    sim = [r for r in records if r["path_steps"]]
    bad = [r for r in records if r["outcome"] != "ok"]
    return {
        "wall_s": statistics.median(batch_times),
        "op_p50_s": statistics.median(lat),
        "path_steps_per_s": (
            sum(r["path_steps"] for r in sim) / sum(r["latency"] for r in sim) if sim else None
        ),
        "attempted": len(records),
        "failed": len(bad),
        "wrong": sum(r["outcome"] == "wrong" for r in records),
        "fail_frac": len(bad) / len(records),
        "failures": [f"{r['name']}: {r['outcome']}: {r['reason']}" for r in bad],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.realpath(args.src)
    if not os.path.realpath(robust_ldp.__file__).startswith(src + os.sep):
        print(f"robust_ldp was imported from {robust_ldp.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    count = batch_count(workload, args.seconds, args.trace)
    batches = [workload.ops(b) for b in range(count)]
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.trace else None  # installed around traced batches only

    records: list[dict] = []
    batch_times: list[float] = []
    traced_times: list[float] = []
    start = time.monotonic()
    for b, ops in enumerate(batches):
        # A traced run stops only after whole pairs of batches, one in each
        # order (see below).
        if b >= workload.min_batches and (tracer is None or b % 2 == 0):
            if time.monotonic() - start > STOP_AFTER * args.seconds:
                break
        # The traced pass goes first on odd batches, so that warm-up does
        # not always land on the same side of the tracing overhead.
        if tracer is None:
            passes = [None]
        else:
            passes = [None, tracer] if b % 2 == 0 else [tracer, None]
        for t in passes:
            if t is None:
                done = [run_op(op, None) for op in ops]
                records += done
                batch_times.append(sum(r["latency"] for r in done))
                continue
            t.install()
            try:
                done = [run_op(op, t) for op in ops]
            finally:
                t.uninstall()
            traced_times.append(sum(r["latency"] for r in done))

    result = {
        "ready": ready,
        "batches": len(batch_times),
        "stopped_early": len(batch_times) < count,
        "batch_times": batch_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "summary": summarize(records, batch_times),
        "operations": [[r["name"], r["latency"], r["outcome"]] for r in records],
    }
    if tracer is not None:
        n = len(traced_times)
        per_layer = layer_metrics(tracer.spans, n)
        untraced = result["summary"]
        per_layer["trace.overhead_s"] = ((sum(traced_times) - sum(batch_times)) / n, "s")
        per_layer["untraced.wall_s"] = (sum(batch_times) / n, "s")
        per_layer["untraced.fail_frac"] = (untraced["fail_frac"], "ratio")
        per_layer["untraced.path_steps_per_s"] = (untraced["path_steps_per_s"] or 0.0, "1/s")
        result["per_layer"] = per_layer
        spans_path = os.path.join(args.outdir, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

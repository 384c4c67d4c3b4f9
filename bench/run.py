"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in a fresh process
(``worker.py``) with OpenBLAS pinned to one thread and ``ROBUST_LDP_THREADS``
cleared; the package is imported from the checkout's ``src/``.  Set-up time
is sampled in ``SETUP_SAMPLES`` fresh processes, half of them before the
measuring process and half after it, and reported as the median.

Prints a readable report, then as the last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in turn and prints every report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("example", "scaled-rate", "scaled-lln", "scaled-mc")

# Fresh processes timed for set-up, besides the measuring process itself.
# They run on both sides of the measuring process, so that the median spans
# the whole run rather than the machine's speed at its start.
SETUP_SAMPLES = 4
# Every child must end within this many seconds of the start of the run.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROBUST_LDP_THREADS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join([SRC, BENCH_DIR]),
    )
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py; return its JSON document and its start time."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish before the deadline") from None
    if proc.stderr:
        with open(os.path.join(OUT, "worker-stderr.txt"), "a", encoding="utf-8") as fh:
            fh.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--outdir", OUT, "--src", SRC,
              "--seconds", str(seconds), "--trace", str(trace)]

    def sample_setup(count: int) -> list[float]:
        out = []
        for _ in range(count):
            setup_doc, started = run_child([*common, "--setup-only"], deadline)
            out.append(setup_doc["ready"] - started)
        return out

    setups = sample_setup(SETUP_SAMPLES // 2)
    doc, started = run_child(common, deadline)
    setups.append(doc["ready"] - started)
    setups += sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    doc["setup_samples"] = setups
    doc["setup_s"] = statistics.median(setups)
    return doc


def report_lines(workload: str, seed: int, trace: int, doc: dict) -> list[str]:
    s = doc["summary"]
    lines = [
        f"workload {workload} seed {seed} trace {trace}: {doc['batches']} batches, "
        f"{s['attempted']} operations, single closed-loop caller",
        f"  setup_s           {doc['setup_s']:.4f} s  (median of {len(doc['setup_samples'])})",
        f"  wall_s            {s['wall_s']:.4f} s  (median batch)",
        f"  op_p50_s          {s['op_p50_s']:.4f} s",
    ]
    if s["path_steps_per_s"] is not None:
        lines.append(f"  path_steps_per_s  {s['path_steps_per_s']:.1f} 1/s")
    lines += [
        f"  fail_frac         {s['fail_frac']:.4f} ratio  ({s['failed']} of {s['attempted']})",
        f"  peak_rss_mb       {doc['peak_rss_mb']:.1f} MB",
    ]
    lines += [f"  FAILED {f}" for f in s["failures"]]
    if doc["stopped_early"]:
        lines.append("  stopped early: the run took three times its nominal length, so it did "
                     "fewer operations than the seed and --seconds prescribe")
    if trace:
        layer = {name: value for name, (value, _) in doc["per_layer"].items()}
        if layer["rate_solver.tail_rate.calls"]:
            share = layer["rate_solver.zero_rate_exits"] / layer["rate_solver.tail_rate.calls"]
            lines.append(f"  zero-rate LP exits {share:.3f} of tail_rate calls")
        if layer["montecarlo.simulate_paths.calls"]:
            removed = 1.0 - layer["montecarlo.unique_row_frac"]
            lines.append(f"  deduplication removes {removed:.3f} of Monte Carlo rows")
        for name, (value, unit) in sorted(doc["per_layer"].items()):
            lines.append(f"  {name:<44} {value:.6g} {unit}")
    lines.append(f"  environment {json.dumps(doc['environment'], sort_keys=True)}")
    return lines


def metrics_of(doc: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": u} for k, (v, u) in doc["per_layer"].items()}
    s = doc["summary"]
    values = {"setup_s": doc["setup_s"], "wall_s": s["wall_s"], "op_p50_s": s["op_p50_s"],
              "peak_rss_mb": doc["peak_rss_mb"]}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "robust_ldp", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {}
    try:
        for name in names:
            docs[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    for name, doc in docs.items():
        print("\n".join(report_lines(name, args.seed, args.trace, doc)))
        path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)

    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, d in docs.items() for k, v in metrics_of(d, args.trace).items()}
    else:
        metrics = metrics_of(docs[args.workload], args.trace)
    summaries = [d["summary"] for d in docs.values()]
    print(json.dumps({
        "correct": all(s["wrong"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

They take about a minute: two of them run the benchmark end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import corpus  # noqa: E402
from tracer import OP_SPAN, Span, Tracer, layer_metrics, self_times  # noqa: E402


def _digest_in_fresh_process(workload: str, seed: int) -> str:
    code = (
        "import hashlib, corpus; "
        f"print(hashlib.sha256(corpus.corpus_bytes({workload!r}, {seed}, 3)).hexdigest())"
    )
    env = dict(os.environ, PYTHONPATH=BENCH)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", sorted(corpus.ITEMS))
def test_same_seed_gives_byte_identical_corpus(workload):
    here = corpus.corpus_bytes(workload, 5, 3)
    assert here == corpus.corpus_bytes(workload, 5, 3)
    assert hashlib.sha256(here).hexdigest() == _digest_in_fresh_process(workload, 5)
    assert here != corpus.corpus_bytes(workload, 6, 3)


def _span(index, name, parent, start, end, thread=1):
    return Span(index, name, parent, 0, thread, start, end)


def test_self_time_on_nested_and_thread_overlapping_spans():
    # op [0, 100]
    #   a [10, 90]            (main thread)
    #     b [20, 60]          (worker thread 2)
    #       d [30, 40]
    #     c [40, 80]          (worker thread 3, overlaps b on [40, 60])
    #   e [95, 99]
    spans = [
        _span(0, OP_SPAN, None, 0, 100),
        _span(1, "montecarlo.simulate_paths", 0, 10, 90),
        _span(2, "transport.w1_to_center", 1, 20, 60, thread=2),
        _span(3, "transport.linprog", 2, 30, 40, thread=2),
        _span(4, "transport.w1_to_center", 1, 40, 80, thread=3),
        _span(5, "cli.main", 0, 95, 99),
    ]
    self_ns, overlap_ns = self_times(spans)
    assert self_ns == {0: 100 - 80 - 4, 1: 80 - 60, 2: 40 - 10, 3: 10, 4: 40, 5: 4}
    assert overlap_ns == {0: 0, 1: 20, 2: 0, 3: 0, 4: 0, 5: 0}

    m = layer_metrics(spans, batches=1)
    ns = 1e-9
    assert m["trace.wall_s"][0] == pytest.approx(100 * ns)
    assert m["trace.unattributed_s"][0] == pytest.approx(16 * ns)
    assert m["trace.overlap_s"][0] == pytest.approx(20 * ns)
    assert m["layer.transport.self_s"][0] == pytest.approx(70 * ns)
    assert m["layer.highs.self_s"][0] == pytest.approx(10 * ns)
    # operation time = layer self times + unattributed - overlap
    total = m["trace.self_sum_s"][0] + m["trace.unattributed_s"][0] - m["trace.overlap_s"][0]
    assert total == pytest.approx(m["trace.wall_s"][0])


def test_tracer_wraps_every_binding_and_restores_them():
    import robust_ldp
    from robust_ldp import BallSet, ChainSpec, Dist, MetricSpace, cli, rate_solver, transport

    originals = (robust_ldp.tail_rate, cli.tail_rate, transport.linprog, cli.w1)
    spec = ChainSpec.build(MetricSpace.discrete(3), corpus.EXAMPLE_CHAIN["pi0"],
                           corpus.EXAMPLE_CHAIN["kernel"], 0.05)
    tracer = Tracer()
    tracer.install()
    try:
        assert robust_ldp.tail_rate is rate_solver.tail_rate is cli.tail_rate
        assert robust_ldp.tail_rate is not originals[0]
        with tracer.op("tail_rate"):
            report = robust_ldp.tail_rate(spec, BallSet(Dist.dirac(2, 3), 0.2))
        robust_ldp.tail_rate(spec, BallSet(Dist.dirac(2, 3), 0.2))  # outside an op: not traced
    finally:
        tracer.uninstall()
    assert (robust_ldp.tail_rate, cli.tail_rate, transport.linprog, cli.w1) == originals
    assert report.value == pytest.approx(0.0511, abs=0.002)
    m = layer_metrics(tracer.spans, batches=1)
    assert m["rate_solver.tail_rate.calls"][0] == 1
    assert m["entropic.solve.calls"][0] == 1
    assert m["entropic.cho_factor.calls"][0] > 0
    total = m["trace.self_sum_s"][0] + m["trace.unattributed_s"][0] - m["trace.overlap_s"][0]
    assert total == pytest.approx(m["trace.wall_s"][0], rel=1e-9)


@pytest.mark.parametrize("discrete", [True, False])
def test_simulate_paths_hits_do_not_depend_on_threads(discrete):
    from robust_ldp import BallSet, Dist, SimPlan, simulate_paths
    from workloads import build_spec

    rng = np.random.default_rng(3)
    spec = build_spec(corpus.random_chain(rng, 5, discrete, 0.05))
    plan = SimPlan(spec, spec.kernel, BallSet(Dist.dirac(0, 5), 0.4), (6, 9), 20000, 11)
    one = simulate_paths(plan, threads=1)
    two = simulate_paths(plan, threads=2)
    assert np.array_equal(one.hits, two.hits)
    assert one.hits.sum() > 0


def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "example", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if trace == 0 else "per_layer"]
    doc = _run(trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == {d["name"] for d in declared}
    for d in declared:
        assert doc["metrics"][d["name"]]["unit"] == d["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "example", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""

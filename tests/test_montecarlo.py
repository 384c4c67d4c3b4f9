import itertools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from robust_ldp import (
    BallSet,
    ChainSpec,
    Dist,
    Kernel,
    MetricSpace,
    RateEstimate,
    SimPlan,
    ValidationError,
    compare_rates,
    simulate_paths,
    tail_rate,
)
from robust_ldp import montecarlo
from robust_ldp.transport import BALL_ATOL

from conftest import random_kernel, random_metric, random_simplex
from oracles import block_hits_reference, w1_ball_members_by_lp

def small_plan(example_spec, example_ball, paths=4000, lengths=(20, 40, 60)):
    return SimPlan(example_spec, example_spec.kernel, example_ball, tuple(lengths), paths, 7)


def test_identity_chain_always_hits(example_space):
    spec = ChainSpec.build(example_space, [0.0, 0.0, 1.0], np.eye(3), 0.0)
    ball = BallSet(Dist.dirac(2, 3), 0.0)
    plan = SimPlan(spec, spec.kernel, ball, (5, 10, 15), 500, 1)
    est = simulate_paths(plan)
    assert np.all(est.hits == 500)
    assert np.all(est.p_hat == 1.0)
    assert est.slope == pytest.approx(0.0, abs=1e-12)
    assert est.usable


def test_bit_identical_reproducibility(example_spec, example_ball):
    plan = small_plan(example_spec, example_ball)
    a = simulate_paths(plan)
    b = simulate_paths(plan)
    assert np.array_equal(a.hits, b.hits)
    assert a == b


def test_worker_count_does_not_change_results(example_spec, example_ball):
    plan = SimPlan(
        example_spec, example_spec.kernel, example_ball, (20, 40), 40000, 99
    )
    one = simulate_paths(plan, threads=1)
    four = simulate_paths(plan, threads=4)
    assert np.array_equal(one.hits, four.hits)


def test_small_plans_run_inline(example_spec, example_ball, monkeypatch):
    """A plan below STEPS_PER_WORKER path steps per extra worker starts no
    pool; a larger one still spreads its blocks over two workers."""
    monkeypatch.delenv("ROBUST_LDP_THREADS", raising=False)
    lengths = (10, 12)
    small = SimPlan(example_spec, example_spec.kernel, example_ball, lengths, 160, 3)
    large = SimPlan(example_spec, example_spec.kernel, example_ball, lengths, montecarlo.BLOCK, 3)
    assert 160 * sum(lengths) < 2 * montecarlo.STEPS_PER_WORKER
    assert montecarlo.BLOCK * sum(lengths) >= 2 * montecarlo.STEPS_PER_WORKER
    want_small, want_large = (simulate_paths(p, threads=1).hits.tolist() for p in (small, large))

    def no_pool(*args, **kwargs):
        raise AssertionError("small plan started a thread pool")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    assert simulate_paths(small, threads=2).hits.tolist() == want_small

    pools = []

    def recording_pool(max_workers):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", recording_pool)
    assert simulate_paths(large, threads=2).hits.tolist() == want_large
    assert pools == [2]


def test_seed_changes_results(example_spec, example_ball):
    a = simulate_paths(small_plan(example_spec, example_ball))
    plan_b = SimPlan(example_spec, example_spec.kernel, example_ball, (20, 40, 60), 4000, 8)
    b = simulate_paths(plan_b)
    assert not np.array_equal(a.hits, b.hits)


def test_enlarging_ball_never_loses_hits(example_spec):
    lengths = (20, 40, 60)
    hits = []
    for kappa in (0.1, 0.2, 0.3):
        ball = BallSet(Dist.dirac(2, 3), kappa)
        plan = SimPlan(example_spec, example_spec.kernel, ball, lengths, 4000, 7)
        hits.append(simulate_paths(plan).hits)
    assert np.all(hits[1] >= hits[0])
    assert np.all(hits[2] >= hits[1])


def test_plan_validation(example_spec, example_ball):
    with pytest.raises(ValueError):
        simulate_paths(SimPlan(example_spec, example_spec.kernel, example_ball, (), 10, 1))
    with pytest.raises(ValueError):
        simulate_paths(
            SimPlan(example_spec, example_spec.kernel, example_ball, (30, 20), 10, 1)
        )
    with pytest.raises(ValueError):
        simulate_paths(
            SimPlan(example_spec, example_spec.kernel, example_ball, (10, 20), 0, 1)
        )


@pytest.mark.parametrize("entry", [np.nan, np.inf, -0.1])
def test_bad_play_kernel_is_rejected(example_spec, example_ball, entry):
    # A play kernel with a non-finite or negative entry is an error naming
    # its row, never a count of hits.  Row sums are not checked: a
    # converged worst-case row can miss 1 by about 1e-4.
    rows = example_spec.kernel.rows.copy()
    rows[1, 0] = entry
    plan = SimPlan(example_spec, Kernel(rows), example_ball, (10,), 100, 1)
    with pytest.raises(ValidationError) as info:
        simulate_paths(plan, threads=1)
    assert [v.path for v in info.value.violations] == ["play_kernel[1]"]


def test_all_zero_hits_unusable(example_space):
    # A chain glued to state 1 never reaches the ball around state 3.
    spec = ChainSpec.build(example_space, [1.0, 0.0, 0.0], np.eye(3), 0.0)
    ball = BallSet(Dist.dirac(2, 3), 0.1)
    est = simulate_paths(SimPlan(spec, spec.kernel, ball, (5, 10), 200, 3))
    assert not est.usable
    assert est.slope is None
    assert "zero" in est.status
    verdict = compare_rates(0.1, est, 0.2)
    assert verdict.status == "insufficient data"
    assert verdict.passed is None


def test_rate_estimate_arrays_are_read_only(example_spec, example_ball):
    est = simulate_paths(small_plan(example_spec, example_ball, paths=200))
    for name in ("lengths", "hits", "usable_lengths", "fit_lengths"):
        assert getattr(est, name).dtype == np.int64
    for name in ("lengths", "hits", "p_hat", "usable_lengths", "fit_lengths"):
        with pytest.raises(ValueError):
            getattr(est, name)[...] = 0


def test_compare_rates_rules():
    est = RateEstimate(
        np.array([40, 60]),
        np.array([100, 50]),
        np.array([0.01, 0.005]),
        0.085,
        0.004,
        np.array([40, 60]),
        np.array([40, 60]),
        True,
        "ok",
    )
    good = compare_rates(0.0910, est, 0.2)
    assert good.status == "pass"
    assert good.margin == pytest.approx(0.2 * 0.0910 + 0.008)

    bad = RateEstimate(
        est.lengths, est.hits, est.p_hat, 0.20, 0.001, est.usable_lengths,
        est.fit_lengths, True, "ok",
    )
    assert compare_rates(0.05, bad, 0.2).status == "fail"

    near_zero = RateEstimate(
        est.lengths, est.hits, est.p_hat, 0.001, 0.002, est.usable_lengths,
        est.fit_lengths, True, "ok",
    )
    assert compare_rates(0.0, near_zero, 0.2).status == "pass"
    off_zero = RateEstimate(
        est.lengths, est.hits, est.p_hat, 0.02, 0.002, est.usable_lengths,
        est.fit_lengths, True, "ok",
    )
    assert compare_rates(0.0, off_zero, 0.2).status == "fail"


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -np.inf, -1.0])
def test_compare_rates_rejects_a_bad_tolerance(rel_tol):
    # A verdict from a NaN or negative tolerance would be a "fail" with a
    # meaningless margin; it is an error naming rel_tol instead, also when
    # the estimate is unusable.
    for usable in (True, False):
        est = RateEstimate(
            np.array([40, 60]), np.array([100, 50]), np.array([0.01, 0.005]), 0.085, 0.004,
            np.array([40, 60]), np.array([40, 60]), usable, "ok",
        )
        with pytest.raises(ValidationError) as info:
            compare_rates(0.0910, est, rel_tol)
        assert info.value.violations[0].path == "rel_tol"
    assert compare_rates(0.0910, est, 0.0).status == "insufficient data"


def test_slope_matches_analytic_at_small_scale(example_spec, example_ball):
    plan = SimPlan(
        example_spec, example_spec.kernel, example_ball, tuple(range(20, 81, 20)), 30000, 11
    )
    est = simulate_paths(plan)
    assert est.usable
    # generous envelope at this sample size; the acceptance suite tightens it
    assert est.slope == pytest.approx(0.091, rel=0.35)


def test_fit_skips_sparse_lengths(example_spec, example_ball):
    plan = SimPlan(
        example_spec, example_spec.kernel, example_ball, (20, 40, 200), 2000, 13
    )
    est = simulate_paths(plan)
    assert 200 not in est.fit_lengths


def test_env_var_overrides_thread_request(monkeypatch):
    from robust_ldp.montecarlo import resolve_threads

    monkeypatch.delenv("ROBUST_LDP_THREADS", raising=False)
    assert resolve_threads(3) == 3
    monkeypatch.setenv("ROBUST_LDP_THREADS", "2")
    assert resolve_threads(8) == 2
    assert resolve_threads(None) == 2


def test_ac_witness_support():
    import robust_ldp.divergence as dv

    space = MetricSpace.discrete(3)
    nu = Dist.from_values([0.5, 0.5, 0.0])
    mu = Dist.from_values([0.8, 0.2, 0.0])
    res = dv.beta(space, nu, mu, dv.entropy_model(0.1, ac=True))
    assert np.all(res.witness_mu_hat.support() <= mu.support())


@pytest.mark.parametrize("center_kind", ["dirac", "two-point"])
def test_euclidean_hits_match_lp_oracle(monkeypatch, center_kind):
    rng = np.random.default_rng(707)
    n = 7
    space = random_metric(rng, n)
    spec = ChainSpec.build(space, random_simplex(rng, n).p, random_kernel(rng, n).rows, 0.05)
    if center_kind == "dirac":
        center = Dist.dirac(2, n)
    else:
        center = Dist(np.array([0.4, 0.0, 0.0, 0.6, 0.0, 0.0, 0.0]))
    # two lengths give two path blocks, so both workers run
    plan = SimPlan(spec, spec.kernel, BallSet(center, 0.4), (8, 10), 300, 5)
    one = simulate_paths(plan, threads=1)
    two = simulate_paths(plan, threads=2)
    assert np.array_equal(one.hits, two.hits)
    assert np.all(one.hits > 0) and np.all(one.hits < 300)

    def by_lp(space, probs, ball):
        return w1_ball_members_by_lp(space.dist, probs, ball.center.p, ball.kappa, BALL_ATOL)

    monkeypatch.setattr(montecarlo, "in_ball", by_lp)
    oracle = simulate_paths(plan, threads=1)
    assert np.array_equal(one.hits, oracle.hits)


def test_zero_draw_never_takes_a_zero_probability_transition(monkeypatch):
    # Every draw is 0.0, the left end of state 1's interval [0, 1): a walk
    # that lets 0.0 fall into state 0 would take the transition of
    # probability zero and leave the ball.
    class ZeroDraws:
        def __init__(self, bit_generator):
            pass

        def random(self, shape):
            return np.zeros(shape)

    monkeypatch.setattr(montecarlo, "Generator", ZeroDraws)
    spec = ChainSpec.build(MetricSpace.discrete(2), [0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]], 0.0)
    plan = SimPlan(spec, spec.kernel, BallSet(Dist.dirac(1, 2), 0.0), (5,), 10, 1)
    assert simulate_paths(plan, threads=1).hits.tolist() == [10]


def _walk_plans(seed=9090):
    """Chains on 2..8 states under both metrics, every other one with a zero
    entry in each kernel row; Dirac, two-point and uniform centers; lengths
    1, 2 and 40; path counts around the tile and block sizes; one chain on
    130 states; one whose thresholds repeat and sit at 0.0; and a Euclidean
    chain on 12 states whose codes need more than int8."""
    rng = np.random.default_rng(seed)
    path_counts = (1, montecarlo.TILE - 1, montecarlo.TILE + 1, montecarlo.BLOCK + 1)
    centers = ("dirac", "two-point", "uniform")
    plans = []
    for i, (ns, discrete) in enumerate(itertools.product(range(2, 9), (True, False))):
        space = random_metric(rng, ns, discrete=discrete)
        rows = random_kernel(rng, ns).rows.copy()
        zeros = (ns + discrete) % 2
        if zeros:
            rows[np.arange(ns), rng.integers(ns, size=ns)] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        spec = ChainSpec.build(space, random_simplex(rng, ns).p, rows, 0.05)
        kind = centers[i % 3]
        if kind == "dirac":
            center = Dist.dirac(int(rng.integers(ns)), ns)
        elif kind == "two-point":
            center = np.zeros(ns)
            center[rng.choice(ns, 2, replace=False)] = (0.4, 0.6)
            center = Dist(center)
        else:
            center = Dist(np.full(ns, 1.0 / ns))
        ball = BallSet(center, 0.3 * space.diameter)
        npaths = path_counts[(ns + i) % 4]
        plan = SimPlan(spec, spec.kernel, ball, (1, 2, 40), npaths, int(rng.integers(2**32)))
        name = f"ns{ns}-{'discrete' if discrete else 'euclid'}-{kind}-{npaths}{'-zeros' if zeros else ''}"
        plans.append(pytest.param(plan, id=name))
    # More states than int8 state labels hold.  The parts are valid by
    # construction; ChainSpec.build's O(n^3) metric check would take seconds.
    ns = 130
    spec = ChainSpec(
        MetricSpace.discrete(ns), random_simplex(rng, ns), random_kernel(rng, ns, floor=0.0), 0.05
    )
    ball = BallSet(Dist.dirac(0, ns), 0.9)
    plan = SimPlan(spec, spec.kernel, ball, (1, 2, 40), montecarlo.TILE + 1, 17)
    plans.append(pytest.param(plan, id=f"ns{ns}-discrete-dirac-{montecarlo.TILE + 1}"))
    # Rows on a grid of eighths: thresholds repeat within and across rows
    # (rows 0 and 1 are equal), fall on guide bucket edges, and reach 1.0
    # before the last column; row 2 starts with two zeros, so a threshold
    # sits at 0.0.
    ns = 5
    rows = rng.multinomial(8, np.full(ns, 1.0 / ns), size=ns) / 8.0
    rows[1] = rows[0]
    rows[2] = (0.0, 0.0, 0.375, 0.125, 0.5)
    spec = ChainSpec.build(MetricSpace.discrete(ns), random_simplex(rng, ns).p, rows, 0.05)
    center = Dist(np.array([0.5, 0.0, 0.5, 0.0, 0.0]))
    plan = SimPlan(spec, spec.kernel, BallSet(center, 0.4), (1, 2, 40), montecarlo.TILE + 1, 23)
    plans.append(pytest.param(plan, id=f"ns{ns}-discrete-eighths-two-point-{montecarlo.TILE + 1}"))
    # A Euclidean chain with 12 x 133 codes, past int8, and a row that
    # starts with two zeros.
    ns = 12
    space = random_metric(rng, ns)
    rows = random_kernel(rng, ns).rows.copy()
    rows[0, :2] = 0.0
    rows[0] /= rows[0].sum()
    spec = ChainSpec.build(space, random_simplex(rng, ns).p, rows, 0.05)
    ball = BallSet(Dist.dirac(int(rng.integers(ns)), ns), 0.3 * space.diameter)
    plan = SimPlan(spec, spec.kernel, ball, (1, 2, 40), montecarlo.BLOCK + 1, 29)
    plans.append(pytest.param(plan, id=f"ns{ns}-euclid-dirac-{montecarlo.BLOCK + 1}-zeros"))
    return plans


@pytest.mark.parametrize("plan", _walk_plans())
def test_walk_matches_path_parallel_reference(monkeypatch, plan):
    seen = []
    in_ball = montecarlo.in_ball

    def recording_in_ball(space, probs, ball):
        mask = in_ball(space, probs, ball)
        seen.append((probs.copy(), mask))
        return mask

    monkeypatch.setattr(montecarlo, "in_ball", recording_in_ball)
    est = simulate_paths(plan, threads=1)

    seen = iter(seen)
    npaths = plan.paths_per_length
    for li, n in enumerate(plan.lengths):
        hits = 0
        for bi, start in enumerate(range(0, npaths, montecarlo.BLOCK)):
            rows, mult = block_hits_reference(plan, li, bi, min(montecarlo.BLOCK, npaths - start))
            probs, mask = next(seen)
            # same distinct rows, in the same order, so in_ball decides them alike
            assert np.array_equal(probs, rows / n)
            hits += int(mult[mask].sum())
        assert est.hits[li] == hits


def test_code_type_widens_with_the_table(example_spec, example_ball):
    """Codes are int8 while states x intervals fits, and wider past it."""
    plans = {p.id: p.values[0] for p in _walk_plans()}
    example = SimPlan(example_spec, example_spec.kernel, example_ball, (1,), 1, 1)
    assert montecarlo._Walk(example).dtype == np.int8
    assert montecarlo._Walk(plans["ns12-euclid-dirac-16385-zeros"]).dtype == np.int16
    assert montecarlo._Walk(plans["ns130-discrete-dirac-2049"]).dtype == np.int32


@pytest.mark.parametrize("threads", [1, 2])
def test_worked_example_hits_are_pinned(example_spec, example_ball, threads):
    """Hit counts of the worked example under the nominal and the
    worst-case kernel at seed 4242, the same at one and two threads."""
    lengths = tuple(range(40, 161, 20))
    worst = tail_rate(example_spec, example_ball).pi_hat
    for kernel, want in (
        (example_spec.kernel, [296, 44, 7, 0, 0, 0, 0]),
        (worst, [1376, 392, 133, 34, 11, 4, 4]),
    ):
        plan = SimPlan(example_spec, kernel, example_ball, lengths, 32768, 4242)
        assert simulate_paths(plan, threads=threads).hits.tolist() == want


def test_block_working_set_is_bounded(example_spec, example_ball):
    plan = SimPlan(example_spec, example_spec.kernel, example_ball, (160,), montecarlo.BLOCK, 5)
    montecarlo._block_hits(plan, 0, 0, montecarlo.BLOCK)
    tracemalloc.start()
    try:
        montecarlo._block_hits(plan, 0, 0, montecarlo.BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16384 paths x 160 steps of float64 draws alone would be 21 MB
    assert peak < 12e6

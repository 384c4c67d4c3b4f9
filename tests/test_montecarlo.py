import numpy as np
import pytest

from robust_ldp import (
    BallSet,
    ChainSpec,
    Dist,
    MetricSpace,
    RateEstimate,
    SimPlan,
    compare_rates,
    simulate_paths,
)
from robust_ldp import montecarlo
from robust_ldp.transport import BALL_ATOL

from conftest import random_kernel, random_metric, random_simplex
from oracles import w1_ball_members_by_lp

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

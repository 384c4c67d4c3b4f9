"""Acceptance suite: every primary criterion at its stated tolerance.

Each check prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts, so the suite doubles as a human-readable scorecard:

    pytest tests/test_acceptance.py -s
"""

import json
import math
import time

import numpy as np

from robust_ldp import (
    BallSet,
    Dist,
    SimPlan,
    beta,
    cesaro,
    check_conditions,
    envelope,
    rate_at,
    sharpness_check,
    simulate_paths,
    stationary,
    tail_rate,
    w1,
    worst_case_kernel,
)
from robust_ldp.chain_core import ChainSpec
from robust_ldp.cli import load_chain_file, main
from robust_ldp.divergence import entropy_model
from robust_ldp.transport import dual_value

from conftest import (
    EXAMPLE_STATIONARY,
    random_metric,
    random_simplex,
    three_state_corpus,
    two_state_corpus,
)

from oracles import beta_grid_two_state, tail_rate_two_state_grid


def criterion(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# Paper-number reproduction
# ----------------------------------------------------------------------


def test_tail_rate_reproduces_nominal_rate(example_chain_path):
    spec = load_chain_file(example_chain_path)
    ball = BallSet(Dist.dirac(2, 3), 0.2)
    t0 = time.perf_counter()
    report = tail_rate(spec.with_radius(0.0), ball)
    dt = time.perf_counter() - t0
    criterion(
        "nominal tail rate 0.0910 +/- 0.002, < 5 s",
        abs(report.value - 0.0910) <= 0.002 and dt < 5.0 and report.converged,
        f"value={report.value:.6f}, {dt:.2f} s",
    )


def test_tail_rate_reproduces_robust_rate(example_chain_path):
    spec = load_chain_file(example_chain_path)
    ball = BallSet(Dist.dirac(2, 3), 0.2)
    t0 = time.perf_counter()
    report = tail_rate(spec, ball)
    dt = time.perf_counter() - t0
    criterion(
        "robust tail rate 0.0511 +/- 0.002, < 5 s",
        abs(report.value - 0.0511) <= 0.002 and dt < 5.0 and report.converged,
        f"value={report.value:.6f}, {dt:.2f} s",
    )


def test_worst_case_kernel_and_sharpness(example_chain_path):
    spec = load_chain_file(example_chain_path)
    ball = BallSet(Dist.dirac(2, 3), 0.2)
    expected = np.array(
        [
            [0.55, 0.20, 0.25],
            [0.25, 0.40, 0.35],
            [0.00, 0.25, 0.75],
        ]
    )
    kernel = worst_case_kernel(spec, ball)
    gap = float(np.max(np.abs(kernel.rows - expected)))
    criterion("worst-case kernel matches displayed matrix within 1e-2", gap <= 1e-2, f"max dev={gap:.2e}")
    report = tail_rate(spec, ball)
    criterion("worst-case optimizer is sharp", sharpness_check(spec, report))


# ----------------------------------------------------------------------
# Oracle equivalence
# ----------------------------------------------------------------------


def test_two_state_oracle_equivalence():
    t0 = time.perf_counter()
    corpus = two_state_corpus(count=25, seed=20240)
    beta_err = 0.0
    tail_err = 0.0
    for spec, nu, mu, ball in corpus:
        model = entropy_model(spec.radius)
        res = beta(spec.space, nu, mu, model)
        oracle = beta_grid_two_state(spec.space, nu, mu, model, step=1e-5)
        if math.isinf(oracle) or math.isinf(res.value):
            assert math.isinf(oracle) == math.isinf(res.value)
        else:
            beta_err = max(beta_err, abs(res.value - oracle))
        report = tail_rate(spec, ball)
        grid = tail_rate_two_state_grid(
            spec.kernel.rows,
            spec.space.dist[0, 1],
            spec.radius,
            ball.center.p[0],
            ball.kappa,
        )
        tail_err = max(tail_err, abs(report.value - grid))
    dt = time.perf_counter() - t0
    criterion(
        "25 two-state instances: beta within 1e-4 of grid oracle",
        beta_err <= 1e-4,
        f"max err={beta_err:.2e}",
    )
    criterion(
        "25 two-state instances: tail rate within 1e-4 of dense grid",
        tail_err <= 1e-4,
        f"max err={tail_err:.2e}",
    )
    criterion("two-state oracle suite under 60 s", dt < 60.0, f"{dt:.1f} s")


def test_w1_primal_dual_and_discrete_identity():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        space = random_metric(rng, n, discrete=bool(rng.integers(0, 2)))
        mu = random_simplex(rng, n)
        nu = random_simplex(rng, n)
        value, _, pot = w1(space, mu, nu)
        worst_gap = max(worst_gap, abs(value - dual_value(pot, mu, nu)))
    criterion(
        "W1 primal equals dual within 1e-9 on 100 instances up to n=12",
        worst_gap <= 1e-9,
        f"max gap={worst_gap:.2e}",
    )
    worst_l1 = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        space = random_metric(rng, n, discrete=True)
        mu = random_simplex(rng, n)
        nu = random_simplex(rng, n)
        value, _, _ = w1(space, mu, nu)
        worst_l1 = max(worst_l1, abs(value - 0.5 * np.abs(mu.p - nu.p).sum()))
    criterion(
        "discrete-metric W1 equals half-L1 within 1e-10",
        worst_l1 <= 1e-10,
        f"max dev={worst_l1:.2e}",
    )


# ----------------------------------------------------------------------
# Invariant suites
# ----------------------------------------------------------------------


def test_convexity_of_rate_and_divergence():
    rng = np.random.default_rng(4242)
    chains = three_state_corpus(count=5, seed=99)
    worst_rate = -math.inf
    for k in range(50):
        spec = chains[k % len(chains)]
        nu1 = random_simplex(rng, 3, floor=0.01)
        nu2 = random_simplex(rng, 3, floor=0.01)
        lam = float(rng.uniform(0.1, 0.9))
        mixed = rate_at(spec, Dist(lam * nu1.p + (1 - lam) * nu2.p)).value
        bound = lam * rate_at(spec, nu1).value + (1 - lam) * rate_at(spec, nu2).value
        worst_rate = max(worst_rate, mixed - bound)
    criterion(
        "rate function convex along 50 mixtures (tol 1e-5)",
        worst_rate <= 1e-5,
        f"max violation={worst_rate:.2e}",
    )
    worst_beta = -math.inf
    for k in range(50):
        spec = chains[k % len(chains)]
        model = entropy_model(max(spec.radius, 0.02))
        nu1, nu2 = random_simplex(rng, 3), random_simplex(rng, 3)
        mu1, mu2 = (random_simplex(rng, 3, floor=0.03) for _ in range(2))
        lam = float(rng.uniform(0.1, 0.9))
        mixed = beta(
            spec.space,
            Dist(lam * nu1.p + (1 - lam) * nu2.p),
            Dist(lam * mu1.p + (1 - lam) * mu2.p),
            model,
        ).value
        bound = (
            lam * beta(spec.space, nu1, mu1, model).value
            + (1 - lam) * beta(spec.space, nu2, mu2, model).value
        )
        worst_beta = max(worst_beta, mixed - bound)
    criterion(
        "robust divergence convex along 50 mixtures (tol 1e-6)",
        worst_beta <= 1e-6,
        f"max violation={worst_beta:.2e}",
    )


def test_monotonicity_and_nesting_in_radius(example_spec, example_ball):
    radii = [round(0.01 * k, 2) for k in range(11)]
    rates = [tail_rate(example_spec.with_radius(r), example_ball).value for r in radii]
    mono = all(b <= a + 1e-8 for a, b in zip(rates, rates[1:]))
    criterion(
        "tail rate nonincreasing over r in {0, 0.01, ..., 0.1}",
        mono,
        f"rates {rates[0]:.4f} .. {rates[-1]:.4f}",
    )
    envs = [envelope(example_spec.with_radius(r)) for r in radii]
    nested = all(
        np.all(outer.lo <= inner.lo + 1e-9) and np.all(outer.hi >= inner.hi - 1e-9)
        for inner, outer in zip(envs, envs[1:])
    )
    criterion("envelopes nested over r in {0, 0.01, ..., 0.1}", nested)


def test_rate_vanishes_exactly_at_stationary():
    ok = True
    for spec in three_state_corpus(count=8, seed=777):
        mu_star, _ = stationary(spec.kernel)
        for r in [round(0.01 * k, 2) for k in range(11)]:
            if rate_at(spec.with_radius(r), mu_star).value != 0.0:
                ok = False
    criterion("rate at the invariant law is exactly zero for all r on the corpus", ok)


def test_envelope_matches_stationary_and_cesaro(example_spec):
    worst = 0.0
    for spec in three_state_corpus(count=8, seed=777):
        if not check_conditions(spec).m1_holds:
            continue
        mu_star, _ = stationary(spec.kernel)
        env = envelope(spec.with_radius(0.0))
        worst = max(worst, float(np.max(np.abs(env.lo - mu_star.p))))
        worst = max(worst, float(np.max(np.abs(env.hi - mu_star.p))))
    criterion(
        "radius-zero envelope equals the stationary law within 1e-8",
        worst <= 1e-8,
        f"max dev={worst:.2e}",
    )
    avg = cesaro(example_spec, 2000)
    dev = float(np.max(np.abs(avg.p - EXAMPLE_STATIONARY)))
    criterion("Cesaro average at n=2000 within 1e-3 of stationary", dev <= 1e-3, f"dev={dev:.2e}")


def test_condition_checks(example_spec, example_space):
    report = check_conditions(example_spec)
    criterion(
        "support condition witnessed at l0 = n0 = 2 on the example chain",
        report.m1_holds and report.l0 == 2 and report.n0 == 2,
        f"l0={report.l0}, n0={report.n0}",
    )
    ident = ChainSpec.build(example_space, [0.0, 0.0, 1.0], np.eye(3), 0.0)
    criterion(
        "support condition fails on the identity kernel",
        not check_conditions(ident).m1_holds,
    )


# ----------------------------------------------------------------------
# Statistical validation
# ----------------------------------------------------------------------


def test_simulated_rates_match_analytic(example_chain_path, capsys):
    t0 = time.perf_counter()
    code = main(
        [
            "simulate", "--chain", example_chain_path, "--center", "3",
            "--kappa", "0.2", "--seed", "42", "--reproducible",
        ]
    )
    nominal = json.loads(capsys.readouterr().out)
    assert code == 0
    code = main(
        [
            "simulate", "--chain", example_chain_path, "--center", "3",
            "--kappa", "0.2", "--seed", "42", "--worst-case", "--reproducible",
        ]
    )
    worst = json.loads(capsys.readouterr().out)
    assert code == 0
    dt = time.perf_counter() - t0

    with capsys.disabled():
        slope_n = nominal["estimate"]["slope"]
        criterion(
            "nominal simulated slope within 20% of 0.0910",
            nominal["verdict"]["status"] == "pass"
            and abs(slope_n - 0.0910) <= 0.2 * 0.0910 + 2 * nominal["estimate"]["stderr"],
            f"slope={slope_n:.4f}",
        )
        slope_w = worst["estimate"]["slope"]
        criterion(
            "worst-case simulated slope within 20% of 0.0511",
            worst["verdict"]["status"] == "pass"
            and abs(slope_w - 0.0511) <= 0.2 * 0.0511 + 2 * worst["estimate"]["stderr"],
            f"slope={slope_w:.4f}",
        )
        criterion(
            "worst case decays more slowly than nominal",
            slope_w < slope_n,
            f"{slope_w:.4f} < {slope_n:.4f}",
        )
        criterion("both default simulations under 120 s", dt < 120.0, f"{dt:.0f} s")

        spec = load_chain_file(example_chain_path)
        plan = SimPlan(
            spec, spec.kernel, BallSet(Dist.dirac(2, 3), 0.2), tuple(range(40, 161, 20)),
            200000, 42,
        )
        rerun = simulate_paths(plan)
        criterion(
            "hit counts reproduce exactly for the same seed",
            np.array_equal(np.asarray(nominal["estimate"]["hits"]), rerun.hits),
            f"hits={rerun.hits.tolist()}",
        )

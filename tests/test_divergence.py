import math

import numpy as np
import pytest

from robust_ldp import (
    Dist,
    MetricSpace,
    beta,
    beta_chain,
    chain_joint,
    envelope,
    rel_entropy,
    tail_rate,
    w1,
)
from robust_ldp.divergence import DivergenceModel, Variant, entropy_model

from conftest import random_kernel, random_simplex, two_state_corpus

from oracles import beta_chain_grid_two_state, beta_grid_two_state, kl_full

TWO = MetricSpace.discrete(["a", "b"])


def test_rel_entropy_examples():
    nu = Dist.from_values([0.5, 0.5])
    assert rel_entropy(nu, nu) == 0.0
    assert rel_entropy(Dist.from_values([1, 0]), Dist.from_values([0, 1])) == math.inf
    value = rel_entropy(nu, Dist.from_values([0.25, 0.75]))
    assert value == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3), abs=1e-12)
    assert value == pytest.approx(0.143841, abs=1e-6)


def test_radius_zero_reduces_to_rel_entropy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        nu = random_simplex(rng, 2)
        mu = random_simplex(rng, 2, floor=0.05)
        res = beta(TWO, nu, mu, entropy_model(0.0))
        assert res.value == pytest.approx(rel_entropy(nu, mu), abs=1e-12)
        assert res.witness_mu_hat == mu


def test_entropy_variant_matches_radius_zero():
    rng = np.random.default_rng(4)
    nu = random_simplex(rng, 2)
    mu = random_simplex(rng, 2, floor=0.05)
    a = beta(TWO, nu, mu, DivergenceModel(Variant.ENTROPY, radius=0.3))
    b = beta(TWO, nu, mu, entropy_model(0.0))
    assert a.value == b.value


def test_inside_ball_gives_zero_with_witness():
    nu = Dist.from_values([0.55, 0.45])
    mu = Dist.from_values([0.5, 0.5])
    res = beta(TWO, nu, mu, entropy_model(0.1))
    assert res.value == 0.0
    assert res.witness_mu_hat == nu
    assert res.witness_plan.cost <= 0.1 + 1e-12


def test_two_point_example_against_grid():
    nu = Dist.from_values([0.9, 0.1])
    mu = Dist.from_values([0.5, 0.5])
    model = entropy_model(0.2)
    res = beta(TWO, nu, mu, model)
    oracle = beta_grid_two_state(TWO, nu, mu, model, step=1e-5)
    assert res.value == pytest.approx(oracle, abs=1e-4)
    assert res.kkt_residual <= 1e-8
    assert res.converged


def test_corpus_against_grid_oracle():
    for spec, nu, mu, _ in two_state_corpus(count=10, seed=42):
        model = entropy_model(spec.radius)
        res = beta(spec.space, nu, mu, model)
        oracle = beta_grid_two_state(spec.space, nu, mu, model, step=1e-5)
        assert res.value == pytest.approx(oracle, abs=1e-4)
        if math.isfinite(res.value):
            assert res.kkt_residual <= 1e-8


def test_monotone_in_radius():
    rng = np.random.default_rng(8)
    for _ in range(8):
        nu = random_simplex(rng, 3)
        mu = random_simplex(rng, 3, floor=0.02)
        space = MetricSpace.discrete(3)
        values = [
            beta(space, nu, mu, entropy_model(r)).value for r in (0.0, 0.05, 0.1, 0.2)
        ]
        for small, large in zip(values[1:], values):
            assert small <= large + 1e-9


def test_zero_iff_inside_ball():
    rng = np.random.default_rng(9)
    for _ in range(12):
        nu = random_simplex(rng, 3)
        mu = random_simplex(rng, 3, floor=0.02)
        space = MetricSpace.discrete(3)
        r = float(rng.uniform(0.01, 0.4))
        res = beta(space, nu, mu, entropy_model(r))
        inside = w1(space, nu, mu).value <= r
        assert (res.value <= 1e-9) == inside


def test_joint_convexity():
    rng = np.random.default_rng(10)
    space = MetricSpace.discrete(3)
    for _ in range(10):
        nu1, nu2 = random_simplex(rng, 3), random_simplex(rng, 3)
        mu1, mu2 = (random_simplex(rng, 3, floor=0.05) for _ in range(2))
        lam = float(rng.uniform(0.2, 0.8))
        model = entropy_model(0.08)
        mixed = beta(
            space,
            Dist(lam * nu1.p + (1 - lam) * nu2.p),
            Dist(lam * mu1.p + (1 - lam) * mu2.p),
            model,
        ).value
        bound = (
            lam * beta(space, nu1, mu1, model).value
            + (1 - lam) * beta(space, nu2, mu2, model).value
        )
        assert mixed <= bound + 1e-6


def test_perturbation_stability_on_interior():
    space = MetricSpace.discrete(2)
    model = entropy_model(0.05)
    nu = Dist.from_values([0.7, 0.3])
    mu = Dist.from_values([0.4, 0.6])
    base = beta(space, nu, mu, model).value
    for eps in (1e-4, 1e-5):
        shifted = beta(space, Dist.from_values([0.7 + eps, 0.3 - eps]), mu, model).value
        assert abs(shifted - base) <= 50 * eps


def test_ac_variant_dominates():
    rng = np.random.default_rng(12)
    space = MetricSpace.discrete(3)
    for _ in range(8):
        nu = random_simplex(rng, 3)
        mu = random_simplex(rng, 3, floor=0.03)
        r = float(rng.uniform(0.02, 0.3))
        plain = beta(space, nu, mu, entropy_model(r)).value
        ac = beta(space, nu, mu, entropy_model(r, ac=True)).value
        assert ac >= plain - 1e-9


def test_ac_infeasible_is_infinite():
    space = MetricSpace.discrete(2)
    nu = Dist.from_values([0.5, 0.5])
    mu = Dist.from_values([1.0, 0.0])
    res = beta(space, nu, mu, entropy_model(0.3, ac=True))
    assert res.value == math.inf
    assert res.witness_mu_hat is None
    # without the support restriction the ball can reach nu's support
    assert math.isfinite(beta(space, nu, mu, entropy_model(0.3)).value)


def test_witness_feasibility():
    for spec, nu, mu, _ in two_state_corpus(count=6, seed=5):
        r = max(spec.radius, 0.02)
        res = beta(spec.space, nu, mu, entropy_model(r))
        assert math.isfinite(res.value)
        assert w1(spec.space, res.witness_mu_hat, mu).value <= r + 1e-8
        gamma = res.witness_plan.gamma
        assert np.max(np.abs(gamma.sum(axis=1) - mu.p)) <= 1e-7
        assert np.max(np.abs(gamma.sum(axis=0) - res.witness_mu_hat.p)) <= 1e-7
        assert res.witness_plan.cost <= r + 1e-8


def test_indicator_variants():
    model = DivergenceModel(Variant.BALL_INDICATOR, 0.2)
    nu = Dist.from_values([0.1, 0.1, 0.8])
    center = Dist.dirac(2, 3)
    space = MetricSpace.discrete(3)
    assert beta(space, nu, center, model).value == 0.0
    far = Dist.from_values([0.4, 0.2, 0.4])
    assert beta(space, far, center, model).value == math.inf
    ac = DivergenceModel(Variant.BALL_INDICATOR_AC, 0.2)
    assert beta(space, nu, center, ac).value == math.inf  # support grows


def test_beta_chain_of_the_chain_is_zero(example_spec):
    theta = example_spec.pi0
    for model in (entropy_model(0.05), DivergenceModel(Variant.BALL_INDICATOR, 0.05)):
        levels = chain_joint(theta, example_spec.kernel, 3)
        assert beta_chain(
            example_spec.space, levels, theta, example_spec.kernel, model
        ) == pytest.approx(0.0, abs=1e-12)


def test_beta_chain_radius_zero_is_joint_relative_entropy():
    rng = np.random.default_rng(21)
    space = MetricSpace.discrete(2)
    kernel = random_kernel(rng, 2, floor=0.1)
    theta = random_simplex(rng, 2, floor=0.1)
    first = random_simplex(rng, 2, floor=0.02)
    cond = random_kernel(rng, 2, floor=0.02).rows
    value = beta_chain(space, [first.p, cond], theta, kernel, entropy_model(0.0))
    # classical chain rule: the accumulated divergence equals the joint one
    joint_nu = (first.p[:, None] * cond).ravel()
    joint_ref = (theta.p[:, None] * kernel.rows).ravel()
    assert value == pytest.approx(kl_full(joint_nu, joint_ref), abs=1e-12)


def test_beta_chain_two_steps_against_grid():
    rng = np.random.default_rng(22)
    space = MetricSpace.discrete(2)
    kernel = random_kernel(rng, 2, floor=0.1)
    theta = random_simplex(rng, 2, floor=0.1)
    first = random_simplex(rng, 2, floor=0.05)
    cond = random_kernel(rng, 2, floor=0.05).rows
    model = entropy_model(0.07)
    value = beta_chain(space, [first.p, cond], theta, kernel, model)
    oracle = beta_chain_grid_two_state(
        space, [first.p, cond], theta, kernel, model, step=1e-3
    )
    assert value == pytest.approx(oracle, abs=1e-6)


def test_beta_chain_shape_validation(example_spec):
    with pytest.raises(ValueError):
        beta_chain(
            example_spec.space,
            [np.array([0.5, 0.5])],
            example_spec.pi0,
            example_spec.kernel,
            entropy_model(0.05),
        )


def test_model_rejects_negative_radius():
    with pytest.raises(ValueError):
        DivergenceModel(Variant.ROBUST_ENTROPY, -0.1)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_radius(example_spec, example_ball, radius):
    # Every entry point resolves its model through DivergenceModel, so a
    # chain whose radius is not a finite number >= 0 is rejected there.
    with pytest.raises(ValueError, match="finite"):
        DivergenceModel(Variant.ROBUST_ENTROPY, radius)
    spec = example_spec.with_radius(radius)
    with pytest.raises(ValueError, match="finite"):
        tail_rate(spec, example_ball)
    with pytest.raises(ValueError, match="finite"):
        envelope(spec)

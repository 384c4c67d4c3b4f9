"""Metamorphic relations: how results must move when the inputs move,
checked without an oracle.

- Relabelling: permuting the states together with the metric, the kernel
  and the laws permutes every per-state result and keeps every value.
- Scaling: multiplying the metric and the robustness radius r by c leaves
  the divergences, the envelope and the rate unchanged and multiplies W1
  by c; the tail rate is unchanged when the ball's radius scales too.
- Growing r: the envelopes contain the nominal stationary law and are
  nested in r, and ``robust_functional_bound`` does not decrease in r.

The chains follow the benchmark corpus recipe (Dirichlet kernel rows
floored at 0.02, r = 0.05) at n = 3..8, with the discrete metric at even n
and a Euclidean one at odd n.  ``tail_rate`` is checked under Entropy
only: under RobustEntropy its relabelled and scaled values move by up to
3.0e-8, because the barrier's values read high by amounts that depend on
the ordering (ROADMAP items 25 and 12).
"""

import numpy as np
import pytest

from robust_ldp import (
    BallSet,
    ChainSpec,
    Dist,
    MetricSpace,
    beta,
    envelope,
    rate_at,
    robust_functional_bound,
    stationary,
    tail_rate,
    w1,
)
from robust_ldp.divergence import Variant, entropy_model

from conftest import random_kernel, random_metric, random_simplex

TOL = 1e-9
SCALE = 3.0
SIZES = range(3, 9)
RADII = (0.0, 0.02, 0.05, 0.1)


def _chain(n):
    rng = np.random.default_rng([2024, n])
    space = random_metric(rng, n, discrete=n % 2 == 0)
    spec = ChainSpec.build(space, random_simplex(rng, n), random_kernel(rng, n), 0.05)
    return spec, rng


def _sparse_law(rng, n):
    """A random law that leaves one or two states unvisited."""
    p = rng.dirichlet(np.ones(n))
    p[rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] = 0.0
    return Dist(p / p.sum())


def _relabel(spec, perm):
    """The chain with new state i standing for old state perm[i]."""
    labels = [spec.space.labels[i] for i in perm]
    space = MetricSpace.from_matrix(labels, spec.space.dist[np.ix_(perm, perm)])
    rows = spec.kernel.rows[np.ix_(perm, perm)]
    return ChainSpec.build(space, spec.pi0.p[perm], rows, spec.radius)


def _scale(spec, c):
    space = MetricSpace.from_matrix(spec.space.labels, c * spec.space.dist)
    return ChainSpec.build(space, spec.pi0, spec.kernel, c * spec.radius)


def _variants(spec, rng):
    n = spec.space.n
    perm = rng.permutation(n)
    return perm, _relabel(spec, perm), _scale(spec, SCALE)


@pytest.mark.parametrize("n", SIZES)
def test_beta_relations(n):
    spec, rng = _chain(n)
    perm, moved, scaled = _variants(spec, rng)
    solved = 0
    for _ in range(2):
        nu = _sparse_law(rng, n)
        mu = Dist(spec.kernel.rows[rng.integers(n)])
        for ac in (False, True):
            base = beta(spec.space, nu, mu, entropy_model(spec.radius, ac)).value
            solved += base > 0.0
            perm_value = beta(
                moved.space, Dist(nu.p[perm]), Dist(mu.p[perm]), entropy_model(spec.radius, ac)
            ).value
            scaled_value = beta(scaled.space, nu, mu, entropy_model(scaled.radius, ac)).value
            assert abs(perm_value - base) <= TOL
            assert abs(scaled_value - base) <= TOL
    assert solved  # the barrier program ran, not only the in-ball shortcut


@pytest.mark.parametrize("n", SIZES)
def test_w1_relations(n):
    spec, rng = _chain(n)
    perm, moved, scaled = _variants(spec, rng)
    for _ in range(3):
        mu, nu = _sparse_law(rng, n), random_simplex(rng, n)
        base = w1(spec.space, mu, nu).value
        assert abs(w1(moved.space, Dist(mu.p[perm]), Dist(nu.p[perm])).value - base) <= TOL
        assert abs(w1(scaled.space, mu, nu).value - SCALE * base) <= TOL


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("variant", [Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC])
def test_envelope_relations(n, variant):
    spec, rng = _chain(n)
    perm, moved, scaled = _variants(spec, rng)
    base = envelope(spec, variant)
    relabelled = envelope(moved, variant)
    np.testing.assert_allclose(relabelled.lo, base.lo[perm], rtol=0.0, atol=TOL)
    np.testing.assert_allclose(relabelled.hi, base.hi[perm], rtol=0.0, atol=TOL)
    rescaled = envelope(scaled, variant)
    np.testing.assert_allclose(rescaled.lo, base.lo, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(rescaled.hi, base.hi, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "variant", [Variant.ROBUST_ENTROPY, Variant.ROBUST_ENTROPY_AC, Variant.ENTROPY]
)
def test_rate_at_relations(n, variant):
    spec, rng = _chain(n)
    perm, moved, scaled = _variants(spec, rng)
    nu = _sparse_law(rng, n)
    base = rate_at(spec, nu, variant)
    relabelled = rate_at(moved, Dist(nu.p[perm]), variant)
    rescaled = rate_at(scaled, nu, variant)
    assert base.converged and relabelled.converged and rescaled.converged
    assert 0.0 < base.value < np.inf
    assert abs(relabelled.value - base.value) <= TOL
    assert abs(rescaled.value - base.value) <= TOL


@pytest.mark.parametrize("n", SIZES)
def test_entropy_tail_rate_relations(n):
    # Dirac balls at every state, with radius 0.3 and 0.7 times the
    # distance of the stationary law from the centre, so every rate is
    # positive.
    spec, rng = _chain(n)
    perm, moved, scaled = _variants(spec, rng)
    where = np.argsort(perm)  # the new label of each old state
    mu = stationary(spec.kernel)[0].p
    for s in range(n):
        for share in (0.3, 0.7):
            kappa = share * float(spec.space.dist[:, s] @ mu)
            base = tail_rate(spec, BallSet(Dist.dirac(s, n), kappa), Variant.ENTROPY)
            relabelled = tail_rate(moved, BallSet(Dist.dirac(where[s], n), kappa), Variant.ENTROPY)
            rescaled = tail_rate(scaled, BallSet(Dist.dirac(s, n), SCALE * kappa), Variant.ENTROPY)
            assert base.converged and relabelled.converged and rescaled.converged
            assert 0.0 < base.value < np.inf
            assert abs(relabelled.value - base.value) <= TOL
            assert abs(rescaled.value - base.value) <= TOL


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("variant", [Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC])
def test_envelopes_grow_with_the_radius(n, variant):
    spec, rng = _chain(n)
    mu = stationary(spec.kernel)[0]
    weights = rng.uniform(-1.0, 1.0, (3, n))
    last = None
    for r in RADII:
        grown = spec.with_radius(r)
        env = envelope(grown, variant)
        bounds = np.array([robust_functional_bound(grown, variant, w)[0] for w in weights])
        assert env.contains(mu, atol=TOL)
        if last is not None:
            assert np.all(env.lo <= last[0].lo + TOL) and np.all(env.hi >= last[0].hi - TOL)
            assert np.all(bounds >= last[1] - TOL)
        last = env, bounds

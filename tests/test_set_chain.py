import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from scipy.optimize import linprog

from robust_ldp import (
    ChainSpec,
    Dist,
    Kernel,
    MetricSpace,
    cesaro,
    check_conditions,
    envelope,
    robust_functional_bound,
    stationary,
    w1,
)
from robust_ldp.chain_core import MASS_ZERO
from robust_ldp.divergence import DivergenceModel, Variant, _support_mask
from robust_ldp import set_chain, transport
from robust_ldp.set_chain import LP_OPTIONS, InvariantPolytope

from conftest import (
    EXAMPLE_KERNEL,
    EXAMPLE_STATIONARY,
    certificate_corpus,
    multichain_spec,
    polytope_chains,
    random_kernel,
    random_metric,
    random_simplex,
    reducible_chains,
    slow_reducible_spec,
    three_state_corpus,
)

from oracles import (
    dense_polytope_rows,
    envelope_lp,
    fixed_nu_feasible_discrete,
    functional_bound_lp,
    polytope_terms_by_pairs,
)


def test_stationary_example(example_spec):
    dist, unique = stationary(example_spec.kernel)
    assert unique
    assert np.max(np.abs(dist.p - EXAMPLE_STATIONARY)) <= 1e-12
    assert np.max(np.abs(dist.p @ example_spec.kernel.rows - dist.p)) <= 1e-10


def test_stationary_identity_not_unique():
    # The identity, and a chain with a transient first state and the closed
    # classes {1, 2} and {3}: the law of the class with the lowest first
    # state comes back.
    reducible = [
        [0.2, 0.3, 0.3, 0.2],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.4, 0.6, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    for rows, law in ((np.eye(3), [1.0, 0.0, 0.0]), (reducible, [0.0, 4 / 9, 5 / 9, 0.0])):
        kernel = Kernel.from_matrix(rows)
        dist, unique = stationary(kernel)
        assert not unique
        assert np.max(np.abs(dist.p @ kernel.rows - dist.p)) <= 1e-10
        assert np.max(np.abs(dist.p - law)) <= 1e-12


def test_stationary_flip_chain():
    dist, unique = stationary(Kernel.from_matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert unique
    assert np.allclose(dist.p, [0.5, 0.5], atol=1e-12)


def test_conditions_example(example_spec):
    report = check_conditions(example_spec)
    assert report.m1_holds and report.m2_holds
    assert report.l0 == 2 and report.n0 == 2
    assert report.unique_invariant
    assert np.max(np.abs(report.invariant.p - EXAMPLE_STATIONARY)) <= 1e-10


def test_conditions_identity(example_space):
    spec = ChainSpec.build(example_space, [0.0, 0.0, 1.0], np.eye(3), 0.0)
    report = check_conditions(spec)
    assert not report.m1_holds
    assert report.l0 is None and report.n0 is None
    assert report.m2_holds


def test_conditions_flip_chain():
    space = MetricSpace.discrete(["a", "b"])
    spec = ChainSpec.build(space, [1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], 0.0)
    report = check_conditions(spec)
    assert report.m1_holds
    assert report.l0 == 1 and report.n0 == 1


def test_conditions_bound_exhaustion(example_spec):
    report = check_conditions(example_spec, max_exponent=1)
    assert not report.m1_holds
    assert report.note is not None and "bound" in report.note


def test_envelope_radius_zero_is_stationary(example_spec):
    env = envelope(example_spec.with_radius(0.0))
    assert np.max(np.abs(env.lo - EXAMPLE_STATIONARY)) <= 1e-8
    assert np.max(np.abs(env.hi - EXAMPLE_STATIONARY)) <= 1e-8


def test_envelope_full_radius(example_spec):
    env = envelope(example_spec.with_radius(1.0))
    assert np.allclose(env.lo, 0.0, atol=1e-9)
    assert np.allclose(env.hi, 1.0, atol=1e-9)


def test_envelope_strictly_brackets_stationary(example_spec):
    env = envelope(example_spec)
    assert np.all(env.lo < EXAMPLE_STATIONARY - 1e-4)
    assert np.all(env.hi > EXAMPLE_STATIONARY + 1e-4)
    assert env.lo.sum() <= 1.0 + 1e-9 <= env.hi.sum() + 2e-9
    assert not env.lo.flags.writeable and not env.hi.flags.writeable


def test_envelope_against_feasibility_grid(example_spec):
    """Cross-check hi[2] by scanning candidate occupation laws with an
    independent LP feasibility test (total-variation encoding)."""
    env = envelope(example_spec)
    step = 0.005
    best = 0.0
    for v3 in np.arange(1.0, -step / 2, -step):
        feasible = False
        for v1 in np.arange(0.0, 1.0 - v3 + step / 2, step):
            nu = np.array([v1, 1.0 - v3 - v1, v3])
            if np.any(nu < -1e-12):
                continue
            nu = np.clip(nu, 0.0, None)
            nu = nu / nu.sum()
            if fixed_nu_feasible_discrete(example_spec.kernel.rows, nu, example_spec.radius):
                feasible = True
                break
        if feasible:
            best = v3
            break
    assert best <= env.hi[2] + 1e-9
    assert env.hi[2] - best <= 2 * step


def test_envelope_nesting_in_radius(example_spec):
    radii = [0.0, 0.02, 0.05, 0.1]
    envs = [envelope(example_spec.with_radius(r)) for r in radii]
    for inner, outer in zip(envs, envs[1:]):
        assert np.all(outer.lo <= inner.lo + 1e-9)
        assert np.all(outer.hi >= inner.hi - 1e-9)


def test_stationary_always_inside_envelope():
    for spec in three_state_corpus(count=5, seed=31):
        mu_star, _ = stationary(spec.kernel)
        env = envelope(spec)
        assert env.contains(mu_star)


def test_ac_envelope_contained(example_spec):
    plain = envelope(example_spec)
    ac = envelope(example_spec, Variant.BALL_INDICATOR_AC)
    assert np.all(ac.lo >= plain.lo - 1e-9)
    assert np.all(ac.hi <= plain.hi + 1e-9)


def test_envelope_threads_match(example_spec):
    a = envelope(example_spec)
    b = envelope(example_spec, threads=4)
    assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)


def test_functional_bound(example_spec):
    env = envelope(example_spec)
    value, argmax = robust_functional_bound(example_spec, Variant.BALL_INDICATOR, [0, 0, 1])
    assert value == pytest.approx(env.hi[2], abs=1e-9)
    assert argmax.p[2] == pytest.approx(value, abs=1e-9)
    const, _ = robust_functional_bound(example_spec, Variant.BALL_INDICATOR, [0.7, 0.7, 0.7])
    assert const == pytest.approx(0.7, abs=1e-9)
    at_zero, _ = robust_functional_bound(
        example_spec.with_radius(0.0), Variant.BALL_INDICATOR, [0, 0, 1]
    )
    assert at_zero == pytest.approx(EXAMPLE_STATIONARY[2], abs=1e-9)


def test_extremes_attained_by_feasible_laws(example_spec):
    """Re-solving with the argmax fixed reproduces the extreme value, and
    the kernel read off the fixed-law LP certifies it: invariant, with
    every visited row inside its ball (and, for AC, the nominal support)."""
    value, argmax = robust_functional_bound(example_spec, Variant.BALL_INDICATOR, [0, 0, 1])
    lp = InvariantPolytope(example_spec, None, example_spec.radius, fixed_nu=argmax).ball_lp()
    res = lp.solve(np.zeros(lp.polytope.count))
    assert res.status == 0
    assert argmax.p[2] == pytest.approx(value, abs=1e-9)

    rng = np.random.default_rng(31)
    cases = [(example_spec, False)] + [(spec, ac) for spec, ac, _ in certificate_corpus()]
    for spec, ac in cases:
        model = Variant.BALL_INDICATOR_AC if ac else Variant.BALL_INDICATOR
        _, argmax = robust_functional_bound(spec, model, rng.uniform(-1, 1, spec.space.n))
        _, allow = _support_mask(DivergenceModel(model, spec.radius), spec.kernel)
        lp = InvariantPolytope(spec, allow, spec.radius, fixed_nu=argmax).ball_lp()
        res = lp.solve(np.zeros(lp.polytope.count))
        assert res.status == 0
        nu, q = argmax.p, lp.extract(res.x)[1].rows
        pk = spec.kernel.rows
        assert np.max(np.abs(nu @ q - nu)) <= 1e-9
        for x in np.where(nu > 1e-10)[0]:
            row = Dist(q[x] / q[x].sum())
            assert w1(spec.space, row, Dist(pk[x])).value <= spec.radius + 1e-9
            if ac:
                assert np.all(q[x][pk[x] == 0.0] == 0.0)


def test_sparse_rows_match_dense_oracle():
    """The sparse rows equal the row-by-row dense builder exactly, in the
    same order, with no zero stored, and the term arrays equal the
    pair-by-pair builder, on every polytope shape: both metrics, plain and
    AC, r = 0 and r > 0, with and without a target ball, free and fixed
    law."""
    for spec, ball, fixed in polytope_chains():
        for radius in (0.0, spec.radius):
            for allow in (None, spec.kernel.rows > MASS_ZERO):
                for target in (None, ball):
                    for law in (None, fixed):
                        poly = InvariantPolytope(spec, allow, radius, target, law)
                        terms = astuple(poly.terms())
                        for got, want in zip(terms, polytope_terms_by_pairs(poly), strict=True):
                            assert got.dtype == want.dtype
                            assert np.array_equal(got, want)
                        for ball_rows in (False, True):
                            a, b = poly.equalities(ball_rows=ball_rows)
                            dense, rhs = dense_polytope_rows(poly, ball_rows)
                            assert a.format == "csc"
                            assert a.shape == dense.shape
                            assert np.array_equal(a.toarray(), dense)
                            assert np.all(a.data != 0.0)
                            assert a.nnz == np.count_nonzero(dense)
                            assert np.array_equal(b, rhs)


def test_start_is_strictly_feasible_without_a_mask():
    """``start()`` is a strictly positive solution of the equalities on
    every polytope shape that a rate program builds without a mask (free
    law in a target ball, or fixed law; r = 0 and r > 0), and None under
    a mask, where phase one finds the start."""
    for spec, ball, fixed in polytope_chains():
        for radius in (0.0, spec.radius):
            for target, law in ((ball, None), (None, fixed)):
                poly = InvariantPolytope(spec, None, radius, target, law)
                z0 = poly.start()
                a, b = poly.equalities()
                assert z0.shape == (poly.count,) and z0.min() > 0.0
                assert np.max(np.abs(a @ z0 - b)) <= 1e-12
                mask = spec.kernel.rows > MASS_ZERO
                assert InvariantPolytope(spec, mask, radius, target, law).start() is None


def _dense_lp(poly, c):
    a, b = dense_polytope_rows(poly, ball_rows=True)
    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs", options=LP_OPTIONS)
    assert res.status == 0, res.message
    return res


def test_lp_answers_match_dense_oracle_bitwise():
    """``InvariantPolytope.ball_lp().solve`` gives, bit for bit, what HiGHS
    gives on the dense oracle rows with the same options, for the
    envelope's objectives and a random functional."""
    rng = np.random.default_rng(77)
    for spec, _, _ in polytope_chains():
        n = spec.space.n
        for model in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
            for s in (spec.with_radius(0.0), spec) if n <= 5 else (spec,):
                resolved = DivergenceModel(model, s.radius)
                radius, allow = _support_mask(resolved, s.kernel)
                poly = InvariantPolytope(s, allow, radius)
                lp = poly.ball_lp()
                objectives = []
                for x in range(n):
                    for sign in (1.0, -1.0):
                        c = np.zeros(poly.count)
                        c[poly.nu_ids[x]] = sign
                        objectives.append(c)
                c = np.zeros(poly.count)
                c[poly.nu_ids] = -rng.uniform(-1, 1, n)
                objectives.append(c)
                for c in objectives:
                    got, want = lp.solve(c), _dense_lp(poly, c)
                    assert got.status == 0
                    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
                    assert got.x.tobytes() == want.x.tobytes()


def _lln_cases():
    for spec, _, _ in polytope_chains():
        yield spec
        if spec.space.n <= 5:
            yield spec.with_radius(0.0)
    for r in (0.0, 0.05, 0.3, 1.0):
        yield multichain_spec(r)
        yield ChainSpec.build(
            MetricSpace.discrete(["1", "2", "3"]), [0.0, 0.0, 1.0], EXAMPLE_KERNEL, r
        )


def test_lln_values_match_lp_oracle(monkeypatch):
    """``envelope`` and ``robust_functional_bound`` equal the LP oracle within
    1e-12, plain and AC, on every polytope chain, the multichain chain and
    the worked example, without running an LP; no envelope entry is -0.0,
    and each argmax attains its bound."""

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    rng = np.random.default_rng(78)
    cases = list(_lln_cases())
    want = {}
    for k, s in enumerate(cases):
        w = rng.uniform(-1, 1, s.space.n)
        for model in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
            want[k, model] = w, envelope_lp(s, model), functional_bound_lp(s, model, w)[0]
    monkeypatch.setattr(set_chain, "linprog", no_lp)
    monkeypatch.setattr(transport, "linprog", no_lp)
    for (k, model), (w, (lo, hi), bound) in want.items():
        s = cases[k]
        env = envelope(s, model)
        assert np.max(np.abs(env.lo - lo)) <= 1e-12
        assert np.max(np.abs(env.hi - hi)) <= 1e-12
        assert not np.signbit(env.lo).any() and not np.signbit(env.hi).any()
        value, argmax = robust_functional_bound(s, model, w)
        assert abs(value - bound) <= 1e-12
        assert abs(w @ argmax.p - value) <= 1e-12


def test_reducible_chains_match_lp_oracle():
    """Chains whose kernels in the ball have several closed classes or
    transient states, and two slow lazy walks fed by one state: the
    bracket closes within the sweep cap and the values equal the LP
    oracle within 1e-12."""
    rng = np.random.default_rng(79)
    cases = reducible_chains() + [slow_reducible_spec(r) for r in (0.0, 0.02)]
    for s in cases:
        for model in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
            env = envelope(s, model)
            lo, hi = envelope_lp(s, model)
            assert np.max(np.abs(env.lo - lo)) <= 1e-12
            assert np.max(np.abs(env.hi - hi)) <= 1e-12
            w = rng.uniform(-1, 1, s.space.n)
            value, argmax = robust_functional_bound(s, model, w)
            assert abs(value - functional_bound_lp(s, model, w)[0]) <= 1e-12
            assert abs(w @ argmax.p - value) <= 1e-12


@pytest.mark.parametrize("n, seed", [(9, 0), (15, 2)])
def test_larger_chains_match_lp_oracle(n, seed):
    """On Euclidean chains with 9 and 15 states, at r = 0 and 0.05, plain
    and AC, ``envelope`` and ``robust_functional_bound`` equal the LP oracle
    within 1e-12.  On the 15-state chain at r = 0.05, an oracle with HiGHS's
    default dual feasibility tolerance is 3.3e-9 off."""
    rng = np.random.default_rng(seed)
    space = random_metric(rng, n)
    spec = ChainSpec.build(space, random_simplex(rng, n).p, random_kernel(rng, n).rows, 0.05)
    w = rng.uniform(-1, 1, n)
    for r in (0.0, 0.05):
        s = spec.with_radius(r)
        for model in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
            env = envelope(s, model)
            lo, hi = envelope_lp(s, model)
            assert np.max(np.abs(env.lo - lo)) <= 1e-12
            assert np.max(np.abs(env.hi - hi)) <= 1e-12
            value, _ = robust_functional_bound(s, model, w)
            assert abs(value - functional_bound_lp(s, model, w)[0]) <= 1e-12


def test_gain_weight_grows_until_steps_keep_gains(monkeypatch):
    """From a gain weight of 1e-6, the greedy step on these AC chains
    favours the bias, lowers a gain and cycles; the weight grows until
    the bracket closes on the LP oracle's values.  The slower walks (stay
    0.999) agree with the oracle to within the bracket width."""
    monkeypatch.setattr(set_chain, "GAIN_WEIGHT", 1e-6)
    chains = reducible_chains()
    cases = [(chains[i], 1e-12) for i in (7, 8, 10)]
    cases += [(slow_reducible_spec(r, (0.999, 0.9995)), 2e-10) for r in (0.0, 0.02)]
    for s, atol in cases:
        for model in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
            env = envelope(s, model)
            lo, hi = envelope_lp(s, model)
            assert np.max(np.abs(env.lo - lo)) <= atol
            assert np.max(np.abs(env.hi - hi)) <= atol


def test_open_bracket_is_an_error(monkeypatch):
    """With one sweep allowed, the multichain AC envelope cannot close its
    bracket and says so instead of returning a value."""
    monkeypatch.setattr(set_chain, "MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="bracket is still .* wide"):
        envelope(multichain_spec(0.05), Variant.BALL_INDICATOR_AC)


def test_lp_rows_stay_small_at_n20():
    """The LP rows of a Euclidean n = 20 chain (861 x 8440, about 58 MB as
    a dense matrix) are built in well under 10 MB."""
    rng = np.random.default_rng(2020)
    space = random_metric(rng, 20)
    spec = ChainSpec.build(space, np.full(20, 0.05), random_kernel(rng, 20), 0.05)
    tracemalloc.start()
    try:
        lp = InvariantPolytope(spec, None, spec.radius).ball_lp()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lp.a_eq.shape == (861, 8440)
    assert peak < 10e6


def test_envelope_at_n30_runs_in_seconds():
    """The Euclidean n = 30 envelope takes under 3 s for both variants and
    contains the nominal stationary law."""
    rng = np.random.default_rng(7030)
    space = random_metric(rng, 30)
    spec = ChainSpec.build(space, np.full(30, 1 / 30), random_kernel(rng, 30), 0.05)
    mu, _ = stationary(spec.kernel)
    start = time.perf_counter()
    for model in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
        assert envelope(spec, model).contains(mu)
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_functional_bound_rejects_non_finite_weights(example_spec, monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran for non-finite weights")

    monkeypatch.setattr(transport, "ball_sup", no_solve)
    with pytest.raises(ValueError, match="weights"):
        robust_functional_bound(example_spec, Variant.BALL_INDICATOR, [bad, 0.0, 0.0])


def test_entropic_models_rejected_by_envelope(example_spec):
    with pytest.raises(ValueError):
        envelope(example_spec, Variant.ROBUST_ENTROPY)


def test_cesaro(example_spec):
    assert cesaro(example_spec, 1) == example_spec.pi0
    ident = ChainSpec.build(example_spec.space, [0.0, 0.0, 1.0], np.eye(3), 0.0)
    assert cesaro(ident, 50) == ident.pi0
    avg = cesaro(example_spec, 2000)
    assert np.max(np.abs(avg.p - EXAMPLE_STATIONARY)) <= 1e-3


def test_cesaro_rejects_bad_n(example_spec):
    with pytest.raises(ValueError):
        cesaro(example_spec, 0)

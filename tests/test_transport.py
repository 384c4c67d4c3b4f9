import tracemalloc

import numpy as np
import pytest

from robust_ldp import BallSet, Dist, MetricSpace, ValidationError, ball_membership, beta, w1
from robust_ldp.divergence import DivergenceModel, Variant
import robust_ldp.transport as transport
from robust_ldp.transport import BALL_ATOL, dual_value, in_ball

from conftest import random_metric, random_simplex

from oracles import ball_sup_lp, w1_two_point_enumeration


def test_identity_coupling(example_space):
    mu = Dist.from_values([0.2, 0.3, 0.5])
    value, plan, _ = w1(example_space, mu, mu)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plan.gamma, np.diag(mu.p), atol=1e-12)


def test_discrete_diracs(example_space):
    value, _, _ = w1(example_space, Dist.dirac(0, 3), Dist.dirac(2, 3))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_two_point_value():
    space = MetricSpace.from_matrix(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    mu = Dist.from_values([0.3, 0.7])
    nu = Dist.from_values([0.5, 0.5])
    value, _, _ = w1(space, mu, nu)
    assert value == pytest.approx(w1_two_point_enumeration(1.0, mu.p, nu.p), abs=1e-12)
    assert value == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize(
    "mu, nu, path",
    [
        ([1.0, 1.0, 1.0], [0.0, 0.0, 1.0], "mu"),
        ([0.0, 0.0, 1.0], [0.5, 0.5, 0.5], "nu"),
        ([np.nan, 0.5, 0.5], [0.0, 0.0, 1.0], "mu[0]"),
        ([0.0, 0.0, 1.0], [0.5, np.inf, 0.5], "nu[1]"),
        ([0.0, 0.0, 1.0], [1.5, -0.5, 0.0], "nu[1]"),
    ],
)
def test_w1_rejects_marginals_that_are_not_laws(example_space, mu, nu, path):
    # The transport LP is infeasible for unequal masses and fails on NaN;
    # both are input errors naming the marginal, and beta inherits them.
    with pytest.raises(ValidationError) as info:
        w1(example_space, Dist(np.array(mu)), Dist(np.array(nu)))
    assert info.value.violations[0].path == path
    model = DivergenceModel(Variant.BALL_INDICATOR, 0.1)
    with pytest.raises(ValidationError):
        beta(example_space, Dist(np.array(nu)), Dist(np.array(mu)), model)


def test_w1_to_dirac_with_tiny_masses():
    # Entries far below HiGHS's default feasibility tolerance of 1e-7 once
    # made the transport LP report "infeasible" or miss the optimum by 1e-7.
    # Against a Dirac at s the plan is forced, so W1 = <d(., s), mu>.
    mu = Dist.from_values(
        [0.16830798177708853, 0.07202753070119675, 6.392997309958112e-08,
         0.7436554134933244, 0.016008953721558583, 5.6376858681748216e-08]
    )
    space = MetricSpace.discrete([f"s{i}" for i in range(6)])
    assert w1(space, mu, Dist.dirac(3, 6)).value == pytest.approx(1.0 - mu.p[3], abs=1e-12)
    rng = np.random.default_rng(2718)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        space = random_metric(rng, n, discrete=bool(rng.integers(2)))
        p = rng.dirichlet(np.ones(n))
        tiny = rng.uniform(size=n) < 0.4
        p[tiny] = 10.0 ** rng.uniform(-9.0, -6.0, int(tiny.sum()))
        mu = Dist(p / p.sum())
        s = int(rng.integers(n))
        value = w1(space, mu, Dist.dirac(s, n)).value
        assert value == pytest.approx(float(space.dist[:, s] @ mu.p), abs=1e-12)


def test_w1_with_masses_near_1e_11():
    # Tight feasibility tolerances made HiGHS presolve call this LP (a
    # worst-case row against its nominal row) infeasible.
    d = np.array(
        [[0.0, 0.2565379437926351, 0.05, 0.6864965247534988, 0.4346356298139935,
          0.43115424933622404],
         [0.2565379437926351, 0.0, 0.3014533914801141, 0.5398497437227858,
          0.4543537400941834, 0.4602299473747721],
         [0.05, 0.3014533914801141, 0.0, 0.7097773596018149, 0.4344733366013779,
          0.45352169192932285],
         [0.6864965247534988, 0.5398497437227858, 0.7097773596018149, 0.0,
          0.3905819333331469, 1.0],
         [0.4346356298139935, 0.4543537400941834, 0.4344733366013779, 0.3905819333331469,
          0.0, 0.8485686284351812],
         [0.43115424933622404, 0.4602299473747721, 0.45352169192932285, 1.0,
          0.8485686284351812, 0.0]]
    )
    space = MetricSpace.from_matrix([f"s{i}" for i in range(6)], d)
    mu = Dist(np.array([0.3928200619003481, 4.152782033385403e-11, 7.798041612619213e-11,
                        0.44527145739309876, 0.1619084805632215, 2.382348429734622e-11]))
    nu = Dist(np.array([0.10646681909323194, 0.027332542092264447, 0.18058967558037112,
                        0.4452714573972458, 0.20293021367826564, 0.03740929215862114]))
    value, plan, potential = w1(space, mu, nu)
    assert value == pytest.approx(0.05, abs=1e-9)
    assert dual_value(potential, mu, nu) == pytest.approx(value, abs=1e-9)
    np.testing.assert_allclose(plan.gamma.sum(axis=1), mu.p, atol=1e-10)


def test_primal_dual_agreement_random():
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        space = random_metric(rng, n, discrete=bool(rng.integers(0, 2)))
        mu = random_simplex(rng, n)
        nu = random_simplex(rng, n)
        value, plan, pot = w1(space, mu, nu)
        assert abs(value - dual_value(pot, mu, nu)) <= 1e-9
        # certificate invariants
        assert np.max(np.abs(plan.gamma.sum(axis=1) - mu.p)) <= 1e-9
        assert np.max(np.abs(plan.gamma.sum(axis=0) - nu.p)) <= 1e-9
        f = pot.f
        assert np.max(np.abs(f[:, None] - f[None, :]) - space.dist) <= 1e-9


def test_discrete_metric_is_half_l1():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        space = MetricSpace.discrete(n)
        mu = random_simplex(rng, n)
        nu = random_simplex(rng, n)
        value, _, _ = w1(space, mu, nu)
        assert abs(value - 0.5 * np.abs(mu.p - nu.p).sum()) <= 1e-10


def test_symmetry_and_triangle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        space = random_metric(rng, n)
        mu, nu, rho = (random_simplex(rng, n) for _ in range(3))
        d_mn = w1(space, mu, nu).value
        d_nm = w1(space, nu, mu).value
        d_mr = w1(space, mu, rho).value
        d_nr = w1(space, nu, rho).value
        assert abs(d_mn - d_nm) <= 1e-9
        assert d_mr <= d_mn + d_nr + 1e-8


def test_convexity_along_mixtures():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        space = random_metric(rng, n)
        mu1, mu2, nu1, nu2 = (random_simplex(rng, n) for _ in range(4))
        lam = float(rng.uniform(0.1, 0.9))
        mixed = w1(
            space,
            Dist(lam * mu1.p + (1 - lam) * mu2.p),
            Dist(lam * nu1.p + (1 - lam) * nu2.p),
        ).value
        bound = lam * w1(space, mu1, nu1).value + (1 - lam) * w1(space, mu2, nu2).value
        assert mixed <= bound + 1e-8


def test_plans_are_deterministic(example_space):
    mu = Dist.from_values([0.5, 0.25, 0.25])
    nu = Dist.from_values([0.1, 0.2, 0.7])
    a = w1(example_space, mu, nu)
    b = w1(example_space, mu, nu)
    assert np.array_equal(a.plan.gamma, b.plan.gamma)
    assert a.value == b.value
    assert not a.plan.gamma.flags.writeable
    assert not a.potential.f.flags.writeable


def test_ball_membership_examples(example_space):
    center = Dist.dirac(2, 3)
    assert ball_membership(example_space, center, BallSet(center, 0.0))
    assert ball_membership(
        example_space, Dist.from_values([0.1, 0.1, 0.8]), BallSet(center, 0.2)
    )
    assert not ball_membership(
        example_space, Dist.from_values([0.2, 0.2, 0.6]), BallSet(center, 0.2)
    )


def _membership_rows(rng, center, count=10, length=12):
    """Random laws, occupation laws of a path of ``length`` steps, and the
    center itself."""
    n = center.n
    rows = [random_simplex(rng, n).p for _ in range(count)]
    rows += [rng.multinomial(length, center.p) / length for _ in range(count)]
    rows.append(center.p)
    return np.stack(rows)


def _centers(rng, n):
    two_point = np.zeros(n)
    i, j = rng.choice(n, size=2, replace=False)
    two_point[i], two_point[j] = 0.35, 0.65
    return {
        "dirac": Dist.dirac(int(rng.integers(0, n)), n),
        "random": random_simplex(rng, n),
        "two-point": Dist(two_point),
    }


def test_in_ball_agrees_with_w1_row_by_row():
    rng = np.random.default_rng(41)
    for discrete in (True, False):
        for n in range(2, 9):
            space = random_metric(rng, n, discrete=discrete)
            for name, center in _centers(rng, n).items():
                probs = _membership_rows(rng, center)
                values = np.array([w1(space, Dist(row), center).value for row in probs])
                for r in rng.choice(len(probs), size=3, replace=False):
                    for kappa in (values[r], values[r] - 1e-7, values[r] + 1e-7):
                        kappa = max(float(kappa), 0.0)
                        got = in_ball(space, probs, BallSet(center, kappa))
                        want = values <= kappa + BALL_ATOL
                        assert np.array_equal(got, want), (discrete, n, name, kappa)


def test_in_ball_runs_no_lp_where_the_bounds_are_exact(monkeypatch):
    calls = []
    real = transport.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting)
    rng = np.random.default_rng(43)
    for n in range(2, 9):
        euclid = random_metric(rng, n)
        discrete = MetricSpace.discrete(n)
        cases = [(euclid, Dist.dirac(int(rng.integers(0, n)), n), False)]
        cases += [(discrete, center, True) for center in _centers(rng, n).values()]
        for space, center, half_l1 in cases:
            probs = _membership_rows(rng, center)
            if half_l1:
                exact = 0.5 * np.abs(probs - center.p).sum(axis=1)
            else:  # Dirac center: all mass moves to the center's state
                exact = probs @ space.dist @ center.p
            for kappa in np.concatenate([exact, exact + 1e-7, exact - 1e-7]):
                kappa = max(float(kappa), 0.0)
                got = in_ball(space, probs, BallSet(center, kappa))
                assert np.array_equal(got, exact <= kappa + BALL_ATOL)
    assert calls == []


def _check_ball_sup(space, p, h, r, allow=None):
    """``ball_sup`` on the rows ``p`` against the coupling LP, row by row:
    equal values, and maximizing rows inside the ball (and the mask) that
    attain them."""
    value, rows = transport.ball_sup(p, h, space.dist, r, allow)
    assert value.shape == (p.shape[0], h.shape[1])
    assert rows.shape == (p.shape[0], h.shape[1], space.n)
    for x in range(p.shape[0]):
        mask = None if allow is None else allow[x]
        members = in_ball(space, rows[x], BallSet(Dist(p[x]), r))
        assert members.all()
        for c in range(h.shape[1]):
            want = ball_sup_lp(p[x], h[:, c], space.dist, r, mask)
            assert abs(value[x, c] - want) <= 1e-12
            assert abs(rows[x, c] @ h[:, c] - value[x, c]) <= 1e-12
            assert np.all(rows[x, c] >= 0.0)
            assert abs(rows[x, c].sum() - 1.0) <= 1e-12
            if mask is not None:
                assert np.all(rows[x, c][~mask & (p[x] == 0.0)] == 0.0)


def test_ball_sup_matches_coupling_lp():
    """Random rows on n = 2..12, both metrics, with and without a target
    mask (the support of each row, as the AC variants use it)."""
    rng = np.random.default_rng(4711)
    for trial in range(40):
        n = 2 + trial % 11
        space = random_metric(rng, n, discrete=bool(trial % 2))
        p = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.7)
        p[np.arange(n), rng.integers(n, size=n)] += 0.1
        p /= p.sum(axis=1, keepdims=True)
        h = rng.normal(size=(n, 3))
        r = float(rng.uniform(0.0, 0.6)) * space.diameter
        _check_ball_sup(space, p, h, r, p > 0.0 if trial % 3 else None)


def test_ball_sup_edge_cases():
    """Ties in h, r = 0, r at and beyond the diameter, and sources without
    mass."""
    rng = np.random.default_rng(4712)
    for n in (2, 5, 9):
        for discrete in (True, False):
            space = random_metric(rng, n, discrete=discrete)
            p = rng.dirichlet(np.ones(n), size=4)
            p[:, rng.choice(n, n // 2, replace=False)] = 0.0
            p[:, 0] += 0.05
            p /= p.sum(axis=1, keepdims=True)
            ties = rng.integers(0, 3, size=(n, 2)).astype(float)
            ties[:, 1] = 1.0
            for h in (ties, rng.normal(size=(n, 2))):
                for r in (0.0, 0.1, space.diameter, 3.0 * space.diameter):
                    _check_ball_sup(space, p, h, r)
                    _check_ball_sup(space, p, h, r, p > 0.0)
            value, rows = transport.ball_sup(p, ties, space.dist, 0.0)
            assert np.array_equal(value, p @ ties)
            assert np.array_equal(rows, np.repeat(p[:, None, :], 2, axis=1))
            top, full = transport.ball_sup(p, ties[:, :1], space.dist, space.diameter)
            assert np.allclose(top, ties[:, 0].max(), rtol=0.0, atol=1e-12)
            assert np.all(full[:, 0, ties[:, 0] < ties[:, 0].max()] == 0.0)


def test_ball_sup_memory_stays_bounded_at_n40():
    """A half-sparse Euclidean n = 40 call over 80 columns, each row's
    support its own mask, wraps its hulls in chunks: its peak allocation
    stays under 60 MB, where wrapping them in one piece takes about
    100 MB."""
    rng = np.random.default_rng(4040)
    n = 40
    space = random_metric(rng, n)
    p = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.5)
    p[np.arange(n), np.arange(n)] += 0.05
    p /= p.sum(axis=1, keepdims=True)
    h = rng.normal(size=(n, 2 * n))
    tracemalloc.start()
    try:
        transport.ball_sup(p, h, space.dist, 0.05, p > 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_ball_sup_does_not_depend_on_hull_chunks(monkeypatch):
    """Wrapping the hulls one triple at a time gives the same values and
    rows, bit for bit, as wrapping them all at once."""
    rng = np.random.default_rng(4713)
    n = 9
    space = random_metric(rng, n)
    p = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.6)
    p[np.arange(n), rng.integers(n, size=n)] += 0.1
    p /= p.sum(axis=1, keepdims=True)
    h = rng.normal(size=(n, 4))
    want = transport.ball_sup(p, h, space.dist, 0.3, p > 0.0)
    monkeypatch.setattr(transport, "HULL_CHUNK", 1)
    got = transport.ball_sup(p, h, space.dist, 0.3, p > 0.0)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()

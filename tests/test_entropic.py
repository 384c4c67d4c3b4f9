"""The structured Newton step of ``_entropic`` against the dense assembly.

The programs are the ones the package really builds: they are recorded
from ``tail_rate``, ``rate_at`` and ``beta`` calls.  At random interior
points the vectorised objective, gradient and Hessian product and one
KKT step must agree with the term-by-term dense oracle in
``tests/oracles.py`` plus a dense KKT solve.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError

from robust_ldp import BallSet, Dist, _entropic, beta, rate_at, tail_rate
from robust_ldp.divergence import Variant, entropy_model

from conftest import NEAR_TANGENT_FACTORS, near_tangent_balls, transient_chains
from oracles import entropic_grad_hess, entropic_objective, max_coordinate_lp

REL = 1e-9
BETA_NU = np.array([0.1, 0.1, 0.8])


@pytest.fixture
def recorded(monkeypatch):
    """The programs passed to ``_entropic.solve`` while the test runs."""
    programs = []
    real = _entropic.solve

    def record(prog, *args, **kwargs):
        programs.append(prog)
        return real(prog, *args, **kwargs)

    monkeypatch.setattr(_entropic, "solve", record)
    return programs


def _shape_free_nu_ball(spec, ball):
    tail_rate(spec, ball)


def _shape_shared_denominators(spec, ball):
    tail_rate(spec, ball, Variant.ENTROPY)


def _shape_constant_denominators(spec, ball):
    rate_at(spec, Dist(np.array([0.2, 0.3, 0.5])), Variant.ENTROPY)


def _shape_pinned_numerators(spec, ball):
    beta(spec.space, Dist(BETA_NU), Dist(spec.kernel.rows[0]), entropy_model(0.05))


SHAPES = {
    "r>0": _shape_free_nu_ball,
    "r=0-shared-nu": _shape_shared_denominators,
    "r=0-fixed-nu": _shape_constant_denominators,
    "beta": _shape_pinned_numerators,
}


def _assert_close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert float(np.max(np.abs(actual - expected))) <= REL * scale


def _program(recorded, shape, spec, ball):
    SHAPES[shape](spec, ball)
    assert len(recorded) == 1
    return recorded[0]


def _dense_kkt(h, a, g, rp):
    n, m = h.shape[0], a.shape[0]
    kkt = np.block([[h, a.T], [a, np.zeros((m, m))]])
    return np.linalg.solve(kkt, np.concatenate([-g, rp]))[:n]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_structured_step_matches_dense_assembly(recorded, example_spec, example_ball, shape):
    prog = _program(recorded, shape, example_spec, example_ball)
    terms = prog.terms
    shared = np.bincount(terms.idx, minlength=prog.n_vars).max() if terms.idx.size else 0
    if shape == "r>0":
        assert shared == 1
    if shape == "r=0-shared-nu":
        assert shared > 1  # the row's terms share the denominator nu[x]
    if shape == "r=0-fixed-nu":
        assert terms.idx.size == 0 and np.all(terms.const > 0.0)
    if shape == "beta":
        # Each numerator is a mass coordinate of its own, outside every
        # denominator, pinned by a row u = nu[j] that holds nothing else.
        assert not np.isin(terms.numer, terms.idx).any()
        dense = prog.a_eq.toarray()
        pins = np.flatnonzero(dense[:, terms.numer].any(axis=1))
        assert np.array_equal(dense[pins][:, terms.numer], np.eye(terms.size))
        assert np.count_nonzero(dense[pins]) == terms.size
        assert np.array_equal(prog.b_eq[pins], Dist(BETA_NU).p)

    # The closed-form capacitance inverse needs each term to hold at most
    # one variable that another term also uses.
    var = np.concatenate([terms.numer, terms.idx])
    term = np.concatenate([np.arange(terms.size), terms.term])
    pairs = np.unique(np.stack([var, term]), axis=1)
    shared_var = np.bincount(pairs[0], minlength=prog.n_vars) > 1
    assert np.bincount(pairs[1][shared_var[pairs[0]]], minlength=terms.size).max(initial=0) <= 1

    n = prog.n_vars
    a = prog.a_eq[_entropic._independent_rows(prog.a_eq)]
    newton = _entropic._Newton(a, terms)
    rng = np.random.default_rng(11)
    for t in (1.0, 1e3):
        z = rng.uniform(0.05, 1.0, n)
        x = rng.standard_normal(n)
        rp = 1e-3 * rng.standard_normal(a.shape[0])
        g_f, h_f = entropic_grad_hess(prog.terms, z, n)
        g = t * g_f - 1.0 / z
        h = t * h_f + np.diag(1.0 / z**2)

        assert terms.objective(z) == pytest.approx(
            entropic_objective(prog.terms, z), rel=REL, abs=REL
        )
        _assert_close(newton.linearize(z, t), g)
        _assert_close(newton.hess_mul(x), h @ x)
        _assert_close(newton.step(g, rp), _dense_kkt(h, a.toarray(), g, rp))


def _fallback_case(recorded, shape, spec, ball, seed):
    """One Newton step of a recorded program and its dense KKT solution."""
    recorded.clear()
    prog = _program(recorded, shape, spec, ball)
    a = prog.a_eq[_entropic._independent_rows(prog.a_eq)]
    newton = _entropic._Newton(a, prog.terms)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.05, 1.0, prog.n_vars)
    rp = 1e-3 * rng.standard_normal(a.shape[0])
    g = newton.linearize(z, 10.0)
    g_f, h_f = entropic_grad_hess(prog.terms, z, prog.n_vars)
    h = 10.0 * h_f + np.diag(1.0 / z**2)
    return newton, g, rp, _dense_kkt(h, a.toarray(), g, rp)


def test_least_squares_fallback_matches_dense_kkt(
    recorded, example_spec, example_ball, monkeypatch
):
    # Every cho_factor is refused, on all four program shapes, so the
    # shared-nu Sherman-Morrison path is also checked under the eigen
    # fallback.  The capacitance is inverted in closed form, so the m x m
    # Schur complement is the only matrix offered.
    cases = [_fallback_case(recorded, s, example_spec, example_ball, 5) for s in SHAPES]
    refused = []

    def refuse(mat):
        refused.append(mat.shape)
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(_entropic, "cho_factor", refuse)
    for newton, g, rp, expected in cases:
        refused.clear()
        _assert_close(newton.step(g, rp), expected)
        assert refused == [(newton.m, newton.m)]


def test_schur_fallback_matches_dense_kkt(recorded, example_spec, example_ball, monkeypatch):
    # Only the m x m Schur complement is refused and any other matrix is
    # factored as usual: the Schur solve goes through the eigendecomposition,
    # and no other matrix (no K x K capacitance) reaches cho_factor.
    newton, g, rp, expected = _fallback_case(recorded, "r>0", example_spec, example_ball, 6)
    assert newton.m != newton.k
    real = _entropic.cho_factor
    offered = []

    def refuse_schur(mat):
        offered.append(mat.shape)
        if mat.shape[0] == newton.m:
            raise LinAlgError("not positive definite")
        return real(mat)

    monkeypatch.setattr(_entropic, "cho_factor", refuse_schur)
    _assert_close(newton.step(g, rp), expected)
    assert offered == [(newton.m, newton.m)]


def test_restrict_renumbers_and_keeps_the_objective(recorded, example_spec, example_ball):
    prog = _program(recorded, "r>0", example_spec, example_ball)
    terms = prog.terms
    rng = np.random.default_rng(2)
    z = rng.uniform(0.05, 1.0, prog.n_vars)
    # Drop a random half of the numerator coordinates and no denominator
    # coordinate, so every kept term keeps its denominator.
    numer = np.setdiff1d(terms.numer, terms.idx)
    keep = np.ones(prog.n_vars, dtype=bool)
    keep[rng.choice(numer, size=numer.size // 2, replace=False)] = False
    assert not keep.all()
    assert np.all(terms.denominator_alive(keep) | ~terms.numerator_alive(keep))
    # Dropped coordinates sit at zero, so restricting the terms to the kept
    # ones leaves the objective unchanged.
    z[~keep] = 0.0
    restricted = terms.restrict(keep)
    assert restricted.size == int(terms.numerator_alive(keep).sum())
    assert restricted.objective(z[keep]) == pytest.approx(
        entropic_objective(prog.terms, z), rel=REL, abs=REL
    )


def test_centering_never_raises_the_equality_residual(
    recorded, example_spec, example_ball, monkeypatch
):
    # Steps that miss A dz = rp, as an ill-conditioned KKT solve at large t
    # can return, are shortened until the residual does not grow.
    prog = _program(recorded, "r>0", example_spec, example_ball)
    rows = _entropic._independent_rows(prog.a_eq)
    a, b = prog.a_eq[rows], prog.b_eq[rows]
    z0, _, _ = _entropic._phase_one(a, b)
    newton = _entropic._Newton(a, prog.terms)
    rng = np.random.default_rng(0)
    exact = _entropic._Newton.step

    def inexact(self, g, rp):
        return exact(self, g, rp) + 1e-6 * rng.standard_normal(g.size)

    monkeypatch.setattr(_entropic._Newton, "step", inexact)
    z, iters, _ = _entropic._center(newton, b, z0, 10.0, 1e-10, 1.0 / (10.0 * z0))
    assert iters > 1 and not np.array_equal(z, z0)
    assert np.max(np.abs(b - a @ z)) <= max(np.max(np.abs(b - a @ z0)), 1e-12)


def test_program_without_terms_reaches_the_analytic_center():
    none = np.zeros(0, dtype=np.int64)
    terms = _entropic.Terms(none, none, np.zeros(0), none, np.zeros(0))
    prog = _entropic.EntropicProgram(3, sp.csc_array(np.ones((1, 3))), np.array([1.0]), terms)
    sol = _entropic.solve(prog)
    assert sol.converged and terms.objective(sol.z) == 0.0
    np.testing.assert_allclose(sol.z, np.full(3, 1.0 / 3.0), atol=1e-9)


def test_newton_refuses_a_term_with_two_shared_variables():
    # Sherman-Morrison per shared variable needs each term to hold at most
    # one of them; here both terms share z[2] and z[3].
    terms = _entropic.Terms(
        np.array([0, 1]), np.array([2, 3, 2, 3]), np.ones(4), np.array([0, 0, 1, 1]), np.zeros(2)
    )
    with pytest.raises(ValueError, match="more than one shared variable"):
        _entropic._Newton(sp.csc_array(np.ones((1, 4))), terms)


def _transient_solves():
    """Solves without a closed-form start (r = 0, or AC) whose programs
    force coordinates to zero: tail rates and fixed laws on transient
    chains, and balls that reach the invariant laws by a share of 1e-9,
    where phase one's optimum is positive but below THIN."""
    models = (Variant.ENTROPY, Variant.ROBUST_ENTROPY_AC)
    for spec, center, nu in transient_chains(count=12):
        ball = BallSet(Dist.dirac(center, spec.space.n), 0.1)
        for model in models:
            yield tail_rate, spec, ball, model
            yield rate_at, spec, nu, model
    for spec, balls in near_tangent_balls():
        for model in models:
            yield tail_rate, spec, balls[NEAR_TANGENT_FACTORS.index(1 + 1e-9)], model


def test_start_up_drops_only_certified_zeros(monkeypatch):
    # Phase one runs until its dual certifies no coordinate, and it is the
    # start-up's only LP: rounds + 1 calls.  Every coordinate a round drops
    # has an LP maximum of at most THIN on that round's polytope.
    calls, lps = [], []
    real_phase_one, real_linprog = _entropic._phase_one, _entropic.linprog

    def phase_one(a, b):
        out = real_phase_one(a, b)
        calls.append((a, b, out))
        return out

    def linprog(*args, **kwargs):
        lps.append(args)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(_entropic, "_phase_one", phase_one)
    monkeypatch.setattr(_entropic, "linprog", linprog)
    rounds = 0
    for rate, spec, where, model in _transient_solves():
        calls.clear()
        lps.clear()
        rate(spec, where, model)
        certified = [out is not None and out[2].any() for _, _, out in calls]
        assert certified == [True] * (len(calls) - 1) + [False] * bool(calls)
        assert len(lps) == len(calls)
        for a, b, (_, _, forced) in calls[:-1]:
            for i in np.flatnonzero(forced):
                assert max_coordinate_lp(a, b, i) <= _entropic.THIN
        rounds += len(calls) - 1
    assert rounds > 0

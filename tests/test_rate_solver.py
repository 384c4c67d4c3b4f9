import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from robust_ldp import (
    BallSet,
    ChainSpec,
    Dist,
    MetricSpace,
    SimPlan,
    ValidationError,
    ball_membership,
    minimal_rate,
    nonvacuous,
    rate_at,
    rel_entropy,
    robust_functional_bound,
    sharpness_check,
    simulate_paths,
    stationary,
    tail_rate,
    w1,
    worst_case_kernel,
)
from robust_ldp import _entropic, set_chain, transport
from robust_ldp.divergence import DivergenceModel, Variant, _support_mask, resolve_model
from robust_ldp.rate_solver import ZERO_TOL, _dirac_threshold
from robust_ldp.set_chain import NU_MASS_TOL

from conftest import (
    certificate_corpus,
    near_tangent_balls,
    random_kernel,
    random_metric,
    random_simplex,
    three_state_corpus,
    transient_chains,
    two_state_corpus,
)

from oracles import functional_bound_lp, kl_full, rate_two_state_grid


# Three chains of the benchmark corpus (``bench/corpus.py`` ``rate_items``),
# all with r = 0.05, on which an earlier solver fixed the coordinates below
# 1e-6 at zero after the cautious stage.  On the discrete
# ``rate_items(19, 3)[5]`` and the Euclidean ``rate_items(15, 4)[1]`` that
# face was infeasible and the solves ended ``max_iterations``.  On the
# Euclidean ``rate_items(18, 1)[4]`` the face solve claimed convergence at
# 1.4274732769, 1.8e-6 above the optimum that the central path reaches.
FROZEN_FACE_DISCRETE_KERNEL = [
    [0.13213303344972388, 0.07754561382254435, 0.1723403631005177,
     0.06738551983942531, 0.2751001411973782, 0.2754953285904106],
    [0.08402046296121729, 0.027342148690832277, 0.05595218307561378,
     0.2614213407852311, 0.3246157257079188, 0.24664813877918684],
    [0.42678533913680805, 0.17931759272907954, 0.050343464034273894,
     0.08244328044352137, 0.10112191292236604, 0.1599884107339511],
    [0.1588382087290838, 0.06287579139903204, 0.12454573312147028,
     0.06880120444510202, 0.31247603378912564, 0.2724630285161862],
    [0.1091082907417409, 0.040926433552554556, 0.27748378176737976,
     0.49539417872487895, 0.027101681606818948, 0.049985633606627014],
    [0.17234552746487516, 0.12000147718376328, 0.022686323647835065,
     0.4175622931455801, 0.15278371902819116, 0.11462065952975524],
]
FROZEN_FACE_EUCLID_KERNEL = [
    [0.22930395582242366, 0.5194707469604909, 0.11435027255537243,
     0.026885352961895672, 0.02887167772983407, 0.0811179939699832],
    [0.17253916247300666, 0.2391494561436691, 0.22774651875808372,
     0.08897963633869245, 0.11552527712088685, 0.1560599491656613],
    [0.33741756783201, 0.06543379738198546, 0.08955270109040271,
     0.1259662141252131, 0.14743709225038878, 0.23419262732],
    [0.21474228197439255, 0.34499986486198875, 0.21734408807076605,
     0.11465678625640535, 0.03141516410713236, 0.07684181472931496],
    [0.06044461409815159, 0.28981252659565215, 0.20611433275907953,
     0.1085241054109059, 0.22079353536634794, 0.11431088576986291],
    [0.14579586980383333, 0.10519394534042541, 0.2688359772030993,
     0.11689579846670455, 0.32954504303134485, 0.03373336615459268],
]
FROZEN_FACE_EUCLID_METRIC = [
    [0.0, 0.4997269694910009, 0.062286763415500546,
     0.7795869235438582, 0.6875056594600849, 0.6433025444162663],
    [0.4997269694910009, 0.0, 0.5612076988903951,
     0.8182079805595697, 1.0, 0.957044387838857],
    [0.062286763415500546, 0.5612076988903951, 0.0,
     0.78658417412181, 0.6550821037930159, 0.6117147086024244],
    [0.7795869235438582, 0.8182079805595697, 0.78658417412181,
     0.0, 0.4830533624737298, 0.4704641562390277],
    [0.6875056594600849, 1.0, 0.6550821037930159,
     0.4830533624737298, 0.0, 0.05],
    [0.6433025444162663, 0.957044387838857, 0.6117147086024244,
     0.4704641562390277, 0.05, 0.0],
]
HIGH_FACE_EUCLID_KERNEL = [
    [0.14796573656292938, 0.152648282665338, 0.11758164501446418,
     0.1847568580295791, 0.2082427890212026, 0.18880468870648673],
    [0.2571060292554388, 0.032118776276730945, 0.5550987333256189,
     0.05552911272982691, 0.04423405883113303, 0.055913289581251524],
    [0.04157694438548478, 0.2196567833901894, 0.11976490156853127,
     0.0641958608849002, 0.5045178689012932, 0.050287640869601205],
    [0.36154106462962354, 0.04114225699963739, 0.15552298619838612,
     0.0475692535032614, 0.33250170453100514, 0.06172273413808653],
    [0.1603885089193926, 0.3029793542069233, 0.11584070970880346,
     0.3651044184616119, 0.03247671477449716, 0.023210293928771608],
    [0.22631430959586785, 0.3200765823910169, 0.24355606956136291,
     0.060755465216740925, 0.03748082281157911, 0.11181675042343238],
]
HIGH_FACE_EUCLID_METRIC = [
    [0.0, 0.7787397376555746, 0.17631263487647836,
     0.7925373737567507, 0.32084292833239086, 0.170029473677509],
    [0.7787397376555746, 0.0, 0.7187997267299424,
     1.0, 0.9065468416206017, 0.613715625084911],
    [0.17631263487647836, 0.7187997267299424, 0.0,
     0.6240615373057834, 0.21504469334050727, 0.15070961299451605],
    [0.7925373737567507, 1.0, 0.6240615373057834,
     0.0, 0.5160564961657867, 0.741920910588786],
    [0.32084292833239086, 0.9065468416206017, 0.21504469334050727,
     0.5160564961657867, 0.0, 0.36484985210640597],
    [0.170029473677509, 0.613715625084911, 0.15070961299451605,
     0.741920910588786, 0.36484985210640597, 0.0],
]


def test_rate_at_invariant_measure_is_exactly_zero(example_spec):
    mu_star, _ = stationary(example_spec.kernel)
    for r in (0.0, 0.05, 0.2):
        report = rate_at(example_spec.with_radius(r), mu_star)
        assert report.value == 0.0
        assert report.converged
        assert report.q_star == example_spec.kernel
        assert report.pi_hat == example_spec.kernel


def test_rate_at_dirac_closed_form(example_spec):
    report = rate_at(example_spec.with_radius(0.0), Dist.dirac(2, 3))
    assert report.value == pytest.approx(-math.log(0.7), abs=1e-9)
    assert report.converged


def test_rate_at_two_state_against_grid():
    for spec, nu, _, _ in two_state_corpus(count=8, seed=303):
        spec0 = spec.with_radius(0.0)
        report = rate_at(spec0, nu)
        oracle = rate_two_state_grid(
            spec.kernel.rows, spec.space.dist[0, 1], 0.0, nu.p[0], step=1e-3, refine=False
        )
        assert report.value == pytest.approx(oracle, abs=1e-5)


def test_tail_rate_paper_values(example_spec, example_ball):
    nominal = tail_rate(example_spec.with_radius(0.0), example_ball)
    assert nominal.value == pytest.approx(0.0910, abs=0.002)
    robust = tail_rate(example_spec, example_ball)
    assert robust.value == pytest.approx(0.0511, abs=0.002)
    assert robust.converged and nominal.converged
    assert robust.value < nominal.value


def test_worst_case_kernel_matches_displayed_matrix(example_spec, example_ball):
    expected = np.array(
        [
            [0.55, 0.20, 0.25],
            [0.25, 0.40, 0.35],
            [0.00, 0.25, 0.75],
        ]
    )
    kernel = worst_case_kernel(example_spec, example_ball)
    assert np.max(np.abs(kernel.rows - expected)) <= 1e-2


def test_worst_case_kernel_radius_zero_is_nominal(example_spec, example_ball):
    kernel = worst_case_kernel(example_spec.with_radius(0.0), example_ball)
    assert kernel == example_spec.kernel


def test_worst_case_rows_stay_in_ball(example_spec, example_ball):
    report = tail_rate(example_spec, example_ball)
    for x in range(3):
        if report.nu_star.p[x] <= 1e-10:
            continue
        row_ball = BallSet(Dist(example_spec.kernel.rows[x]), example_spec.radius + 1e-7)
        assert ball_membership(example_spec.space, Dist(report.pi_hat.rows[x]), row_ball)


def test_report_invariants(example_spec, example_ball):
    report = tail_rate(example_spec, example_ball)
    assert report.residuals.invariance <= 1e-7
    recomputed = sum(
        report.nu_star.p[x]
        * rel_entropy(Dist(report.q_star.rows[x]), Dist(report.pi_hat.rows[x]))
        for x in range(3)
        if report.nu_star.p[x] > 1e-10
    )
    assert report.value == pytest.approx(recomputed, abs=1e-6)

    # Independent certificate checks on the example and a corpus of 3-5
    # state chains, every one of which converges.
    cases = [(example_spec, False, example_ball)] + certificate_corpus()
    for spec, ac, ball in cases:
        model = Variant.ROBUST_ENTROPY_AC if ac else Variant.ROBUST_ENTROPY
        report = tail_rate(spec, ball, model)
        assert report.converged
        _assert_certified(spec, ac, ball, report)
    # The n = 5 discrete AC chain once ended max_iterations at KKT 1.2e-7.
    spec, ac, ball = certificate_corpus()[2]
    report = tail_rate(spec, ball, Variant.ROBUST_ENTROPY_AC)
    assert ac and report.value == pytest.approx(0.84115399, abs=1e-7)


def _assert_certified(spec, ac, ball, report):
    """Invariance, the law inside the target ball, every visited worst-case
    row inside its ball (and, for AC, inside the nominal support), and the
    value equal to the relative entropy of the certificate."""
    nu, q, pi_hat = report.nu_star.p, report.q_star.rows, report.pi_hat.rows
    pk = spec.kernel.rows
    assert np.max(np.abs(nu @ q - nu)) <= 1e-9
    assert w1(spec.space, report.nu_star, ball.center).value <= ball.kappa + 1e-9
    visited = np.where(nu > 1e-10)[0]
    for x in visited:
        row = Dist(pi_hat[x] / pi_hat[x].sum())
        assert w1(spec.space, row, Dist(pk[x])).value <= spec.radius + 1e-9
        if ac:
            assert np.all(pi_hat[x][pk[x] == 0.0] == 0.0)
    value = sum(nu[x] * kl_full(q[x], pi_hat[x]) for x in visited)
    assert report.value == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_transient_state_chain_never_claims_a_wrong_rate():
    # A 3-state chain with a transient state, on whose free-law tail-rate
    # program inexact Newton steps can drift off the equality constraints
    # to negative objectives.  The report must converge, be nonnegative,
    # carry a valid certificate, and match 0.098327 from scipy's
    # trust-constr on the same program (accurate to about 1e-6).
    spec, ac, ball = certificate_corpus()[0]
    model = Variant.ROBUST_ENTROPY_AC if ac else Variant.ROBUST_ENTROPY
    report = tail_rate(spec, ball, model)
    assert report.converged
    assert report.value >= 0.0
    _assert_certified(spec, ac, ball, report)
    assert report.value == pytest.approx(0.098327, abs=1e-5)


def test_near_tangent_balls_converge_or_report_degenerate():
    # Dirac balls just inside, at and just outside the edge of the laws of
    # finite rate on chains with a transient state.  Phase one can return a
    # point with an exact zero coordinate, from which the barrier cannot
    # start.  No exception may escape: every report converges, or it is the
    # unproven infinite report of a degenerate solve.  RobustEntropy is
    # left out, since at r > 0 it starts in closed form, not from phase one.
    for spec, balls in near_tangent_balls(count=12):
        for ball in balls:
            for model in (Variant.ENTROPY, Variant.ROBUST_ENTROPY_AC):
                report = tail_rate(spec, ball, model)
                assert report.converged or (
                    report.value == math.inf and report.residuals.kkt == math.inf
                )


def test_nearly_tangent_ball_on_a_transient_chain_is_solved():
    # kappa is 3e-10 below the least distance 0.28 from state a to the
    # invariant laws.  Phase one finds these rows feasible, while a second
    # LP over the same rows can call them infeasible at HiGHS's tolerances,
    # so the start-up must rest on phase one alone.  The rate at kappa =
    # 0.28 is 0, so the value is 0 within LP tolerance.
    space = MetricSpace.from_matrix(
        ["a", "b", "c"], [[0, 0.28, 0.29], [0.28, 0, 0.01], [0.29, 0.01, 0]]
    )
    kernel = [[0, 0.22, 0.78], [0, 0.67, 0.33], [0, 0.75, 0.25]]
    spec = ChainSpec.build(space, [0, 0, 1], kernel, 0.05)
    report = tail_rate(spec, BallSet(Dist.dirac(0, 3), 0.2799999997), Variant.ROBUST_ENTROPY_AC)
    assert report.converged
    assert 0.0 <= report.value <= 1e-8


@pytest.mark.parametrize(
    "kernel, metric, center, kappa, expected",
    [
        (FROZEN_FACE_DISCRETE_KERNEL, None, 2, 0.3, 0.8932927152),
        (FROZEN_FACE_EUCLID_KERNEL, FROZEN_FACE_EUCLID_METRIC, 0, 0.1, 0.3071012768),
        (HIGH_FACE_EUCLID_KERNEL, HIGH_FACE_EUCLID_METRIC, 1, 0.1, 1.4274714789),
    ],
    ids=["discrete", "euclid", "euclid-high-face"],
)
def test_frozen_face_chains_converge(kernel, metric, center, kappa, expected):
    labels = [f"s{i}" for i in range(6)]
    space = MetricSpace.discrete(labels) if metric is None else MetricSpace.from_matrix(
        labels, metric
    )
    spec = ChainSpec.build(space, np.full(6, 1.0 / 6.0), kernel, 0.05)
    ball = BallSet(Dist.dirac(center, 6), kappa)
    report = tail_rate(spec, ball)
    assert report.converged
    _assert_certified(spec, False, ball, report)
    assert report.value == pytest.approx(expected, abs=1e-7)


# The Euclidean n = 12 chain of the bench/corpus.py recipe, on which a
# Cholesky failure once sent the Newton step to a dense KKT least-squares
# solve that took most of a 14 s solve.
N12_SOLVE = """
import json, time
import numpy as np
from robust_ldp import BallSet, ChainSpec, Dist, stationary, tail_rate
from conftest import random_kernel, random_metric, random_simplex
rng = np.random.default_rng(1012)
space = random_metric(rng, 12)
kernel = random_kernel(rng, 12)
spec = ChainSpec.build(space, random_simplex(rng, 12).p, kernel.rows, 0.05)
ball = BallSet(Dist.dirac(int(np.argmin(stationary(spec.kernel)[0].p)), 12), 0.1)
start = time.perf_counter()
report = tail_rate(spec, ball)
elapsed = time.perf_counter() - start
print(json.dumps({"elapsed": elapsed, "converged": report.converged, "value": report.value}))
"""


def test_euclidean_n12_solve_is_fast_and_converges():
    # Timed in a process with one BLAS thread: on a small host shared with
    # other processes, OpenBLAS threads make every small factorisation of
    # the Newton step wait for a time slice, which times the host instead.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", N12_SOLVE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    assert result["converged"]
    # The optimum at a strictly feasible point: every visited row lies
    # 1.5e-9 inside its ball, and the law 1.7e-11 inside the target ball.
    assert result["value"] == pytest.approx(0.9439751, abs=1e-7)
    assert result["elapsed"] < 3.0


def test_ball_containing_stationary_gives_zero(example_spec):
    mu_star, _ = stationary(example_spec.kernel)
    kappa = w1(example_spec.space, mu_star, Dist.dirac(2, 3)).value + 0.01
    report = tail_rate(example_spec, BallSet(Dist.dirac(2, 3), kappa))
    assert report.value == 0.0
    assert report.nu_star == mu_star


def test_nonvacuous(example_spec, example_ball):
    assert nonvacuous(example_spec, example_ball)
    mu_star, _ = stationary(example_spec.kernel)
    assert not nonvacuous(example_spec, BallSet(mu_star, 0.0))
    kappa = w1(example_spec.space, mu_star, Dist.dirac(2, 3)).value + 0.01
    assert not nonvacuous(example_spec, BallSet(Dist.dirac(2, 3), kappa))


def test_sharpness(example_spec, example_ball):
    report = tail_rate(example_spec, example_ball)
    assert sharpness_check(example_spec, report)
    report0 = tail_rate(example_spec.with_radius(0.0), example_ball)
    assert sharpness_check(example_spec.with_radius(0.0), report0)


def test_sharpness_fails_when_mass_forced_off_support():
    space = MetricSpace.discrete(["a", "b"])
    spec = ChainSpec.build(space, [1.0, 0.0], [[1.0, 0.0], [0.3, 0.7]], 1.0)
    report = tail_rate(spec, BallSet(Dist.from_values([0.1, 0.9]), 0.05))
    assert report.converged and math.isfinite(report.value)
    assert not sharpness_check(spec, report)


def test_rate_is_nonnegative_and_convex():
    rng = np.random.default_rng(55)
    for spec in three_state_corpus(count=4, seed=99):
        nu1 = random_simplex(rng, 3, floor=0.01)
        nu2 = random_simplex(rng, 3, floor=0.01)
        lam = float(rng.uniform(0.2, 0.8))
        v1 = rate_at(spec, nu1).value
        v2 = rate_at(spec, nu2).value
        mixed = rate_at(spec, Dist(lam * nu1.p + (1 - lam) * nu2.p)).value
        assert v1 >= 0.0 and v2 >= 0.0 and mixed >= 0.0
        assert mixed <= lam * v1 + (1 - lam) * v2 + 1e-5


def test_tail_rate_monotone_in_radius(example_spec, example_ball):
    values = [
        tail_rate(example_spec.with_radius(r), example_ball).value
        for r in (0.0, 0.02, 0.05, 0.1)
    ]
    for small, large in zip(values[1:], values):
        assert small <= large + 1e-8
    # large enough radius reaches rate zero
    assert tail_rate(example_spec.with_radius(1.0), example_ball).value == 0.0


def test_ac_rate_dominates_and_matches_when_sharp(example_spec, example_ball):
    plain = tail_rate(example_spec, example_ball)
    ac = tail_rate(example_spec, example_ball, Variant.ROBUST_ENTROPY_AC)
    assert ac.value >= plain.value - 1e-7
    assert sharpness_check(example_spec, plain)
    assert ac.value == pytest.approx(plain.value, abs=1e-5)


def test_ac_rate_infinite_when_unreachable():
    space = MetricSpace.discrete(["a", "b"])
    spec = ChainSpec.build(space, [1.0, 0.0], [[0.0, 1.0], [0.5, 0.5]], 0.3)
    report = rate_at(spec, Dist.dirac(0, 2), Variant.ROBUST_ENTROPY_AC)
    assert report.value == math.inf
    assert report.converged
    assert math.isfinite(rate_at(spec, Dist.dirac(0, 2)).value)


def test_rate_vanishes_at_stationary_and_minimum(example_spec):
    mu_star, _ = stationary(example_spec.kernel)
    assert rate_at(example_spec, mu_star).value == 0.0
    minimum = minimal_rate(example_spec)
    assert minimum.value == 0.0
    assert minimum.nu_star == mu_star


def test_indicator_models_are_rejected(example_spec, example_ball):
    with pytest.raises(ValueError):
        tail_rate(example_spec, example_ball, Variant.BALL_INDICATOR)
    with pytest.raises(ValueError):
        rate_at(example_spec, Dist.dirac(2, 3), DivergenceModel(Variant.BALL_INDICATOR_AC, 0.1))


def test_kappa_zero_delegates_to_center(example_spec):
    center = Dist.from_values([0.1, 0.2, 0.7])
    by_ball = tail_rate(example_spec, BallSet(center, 0.0))
    direct = rate_at(example_spec, center)
    assert by_ball.value == pytest.approx(direct.value, abs=1e-9)


RATE_MODELS = (Variant.ROBUST_ENTROPY, Variant.ROBUST_ENTROPY_AC, Variant.ENTROPY)


def dirac_threshold_chains(seed=3434):
    """(spec, centre state) pairs: one random chain per n = 3...8 and metric,
    six transient chains and six near-tangent ones, all at r = 0.05."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(3, 9):
        for discrete in (True, False):
            spec = ChainSpec.build(
                random_metric(rng, n, discrete), random_simplex(rng, n).p,
                random_kernel(rng, n).rows, 0.05,
            )
            out.append((spec, int(rng.integers(n))))
    out += [(spec, s) for spec, s, _ in transient_chains(count=6)]
    out += [(spec, 0) for spec, _ in near_tangent_balls(count=6)]
    return out


def kappa_star(spec, model, s):
    model = resolve_model(model, spec.radius)
    return _dirac_threshold(spec, *_support_mask(model, spec.kernel), s)


def test_dirac_threshold_matches_lp_and_decides_zero_rates():
    # kappa* from policy iteration equals the least <d(., s), nu> over the
    # LP's invariant-ball polytope, and the Dirac-ball rate vanishes just
    # above it and is positive just below it.
    for spec, s in dirac_threshold_chains():
        n = spec.space.n
        for model in RATE_MODELS:
            value, nu, _ = kappa_star(spec, model, s)
            resolved = resolve_model(model, spec.radius)
            ac = resolved.restrict_support
            twin = DivergenceModel(
                Variant.BALL_INDICATOR_AC if ac else Variant.BALL_INDICATOR, resolved.effective_radius
            )
            lp, _ = functional_bound_lp(spec, twin, -spec.space.dist[:, s])
            assert value == pytest.approx(-lp, abs=1e-8)
            assert value == pytest.approx(float(spec.space.dist[:, s] @ nu), abs=1e-12)
            above = BallSet(Dist.dirac(s, n), value * (1 + 1e-6))
            assert tail_rate(spec, above, model).value == 0.0
            assert not nonvacuous(spec, above, model)
            if value > 0.0:
                below = BallSet(Dist.dirac(s, n), value * (1 - 1e-3))
                assert tail_rate(spec, below, model).value > 0.0
                assert nonvacuous(spec, below, model)


def test_dirac_zero_reports_certify():
    # A zero report read off the policy iteration holds a law within kappa
    # of the centre and a kernel that leaves it invariant, each visited row
    # within r of the nominal one (and inside its support under AC), and
    # the nominal row at every unvisited state.
    for spec, s in dirac_threshold_chains():
        n, pk, d = spec.space.n, spec.kernel.rows, spec.space.dist
        for model in RATE_MODELS:
            resolved = resolve_model(model, spec.radius)
            value, _, _ = kappa_star(spec, model, s)
            for kappa in (value, value * (1 + 1e-6) + 1e-9):
                report = tail_rate(spec, BallSet(Dist.dirac(s, n), kappa), model)
                nu, q = report.nu_star.p, report.q_star.rows
                assert report.value == 0.0 and report.converged
                assert nu.min() >= 0.0 and nu.sum() == pytest.approx(1.0, abs=1e-12)
                assert float(d[:, s] @ nu) <= kappa + ZERO_TOL
                assert np.abs(nu @ q - nu).sum() <= 1e-9
                assert report.residuals.invariance <= 1e-9
                for x in range(n):
                    if nu[x] <= NU_MASS_TOL:
                        assert np.array_equal(q[x], pk[x])
                        continue
                    gap = w1(spec.space, Dist(q[x]), Dist(pk[x])).value
                    assert gap <= resolved.effective_radius + 1e-9
                    if resolved.restrict_support:
                        assert np.all(q[x][pk[x] == 0.0] == 0.0)


def test_positive_dirac_rates_solve_no_lp(monkeypatch):
    # RobustEntropy starts the barrier in closed form, and its Dirac-centre
    # zero test is the policy iteration, so a positive rate needs no LP.
    def no_lp(*args, **kwargs):
        raise AssertionError("a linear program was solved")

    for module in (set_chain, _entropic, transport):
        monkeypatch.setattr(module, "linprog", no_lp)
    for spec, s in dirac_threshold_chains()[:12]:
        value, _, _ = kappa_star(spec, Variant.ROBUST_ENTROPY, s)
        report = tail_rate(spec, BallSet(Dist.dirac(s, spec.space.n), 0.5 * value))
        assert report.converged and report.value > 0.0


def test_nonvacuous_on_both_sides_of_kappa_star(example_spec):
    # On the worked example kappa* = 35/79: just below it the rate is
    # 7.6e-9, positive, so the bound is not vacuous, which a 1e-6
    # threshold on the rate got wrong.
    value, _, _ = kappa_star(example_spec, Variant.ROBUST_ENTROPY, 2)
    assert value == pytest.approx(35 / 79, abs=1e-12)
    below = BallSet(Dist.dirac(2, 3), value - 1e-4)
    assert 0.0 < tail_rate(example_spec, below).value < 1e-6
    assert nonvacuous(example_spec, below)
    above = BallSet(Dist.dirac(2, 3), value + 1e-9)
    assert tail_rate(example_spec, above).value == 0.0
    assert not nonvacuous(example_spec, above)


def test_ac_on_full_support_is_the_robust_entropy_program(example_spec, example_ball, monkeypatch):
    # Only a support mask sends the barrier to phase one.  On a kernel with
    # full support the AC restriction excludes nothing, so RobustEntropyAC
    # reports equal the RobustEntropy ones, bit for bit; Entropy has no
    # mask there either, and RobustEntropy at r = 0 is its program.
    def no_lp(*args, **kwargs):
        raise AssertionError("a linear program was solved")

    monkeypatch.setattr(_entropic, "linprog", no_lp)
    # The worked example's pi(3, 1) = 0, so AC and Entropy still start
    # from phase one.
    for model in (Variant.ROBUST_ENTROPY_AC, Variant.ENTROPY):
        with pytest.raises(AssertionError, match="linear program"):
            tail_rate(example_spec, example_ball, model)
    chains = dirac_threshold_chains()[:12]
    rng = np.random.default_rng(3636)
    for spec, _ in chains:
        assert np.all(spec.kernel.rows > 0.0)
        # rate_at keeps its zero-rate LP in set_chain, the same for both.
        nu = random_simplex(rng, spec.space.n)
        plain = rate_at(spec, nu, Variant.ROBUST_ENTROPY)
        assert plain.converged and plain.value > 0.0
        assert rate_at(spec, nu, Variant.ROBUST_ENTROPY_AC) == plain
        nominal = rate_at(spec, nu, Variant.ENTROPY)
        assert nominal.converged and nominal.value > 0.0
    for module in (set_chain, transport):
        monkeypatch.setattr(module, "linprog", no_lp)
    for spec, s in chains:
        twins = (
            (Variant.ROBUST_ENTROPY, spec, Variant.ROBUST_ENTROPY_AC),
            (Variant.ENTROPY, spec.with_radius(0.0), Variant.ROBUST_ENTROPY),
        )
        for model, twin_spec, twin in twins:
            value, _, _ = kappa_star(spec, model, s)
            for kappa in (0.5 * value, value * (1 + 1e-6)):
                ball = BallSet(Dist.dirac(s, spec.space.n), kappa)
                report = tail_rate(spec, ball, model)
                assert report.converged
                assert tail_rate(twin_spec, ball, twin) == report


def lln_rate_pairs(seed=2020):
    """(spec, weights) pairs: three random weight vectors on one random
    chain per n in (3, 5, 8, 12) and metric, and one on each of 20
    transient chains."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (3, 5, 8, 12):
        for discrete in (True, False):
            spec = ChainSpec.build(
                random_metric(rng, n, discrete), random_simplex(rng, n).p,
                random_kernel(rng, n).rows, 0.05,
            )
            out += [(spec, rng.uniform(-1, 1, n)) for _ in range(3)]
    for spec, _, _ in transient_chains(count=20):
        out.append((spec, rng.uniform(-1, 1, spec.space.n)))
    return out


def test_rate_vanishes_at_the_law_of_large_numbers_bound():
    # The law that robust_functional_bound returns admits an invariant
    # kernel inside the balls, so the rate function is exactly zero there,
    # for the plain and the AC pair of models.
    pairs = (
        (Variant.BALL_INDICATOR, Variant.ROBUST_ENTROPY),
        (Variant.BALL_INDICATOR_AC, Variant.ROBUST_ENTROPY_AC),
    )
    for spec, w in lln_rate_pairs():
        for indicator, entropic in pairs:
            _, law = robust_functional_bound(spec, indicator, w)
            report = rate_at(spec, law, entropic)
            assert report.value == 0.0 and report.converged


BAD_BALLS = {
    "kappa-nan": ([0.0, 0.0, 1.0], math.nan, "kappa"),
    "kappa-inf": ([0.0, 0.0, 1.0], math.inf, "kappa"),
    "kappa-negative": ([0.0, 0.0, 1.0], -0.1, "kappa"),
    "mixed-kappa-nan": ([0.2, 0.3, 0.5], math.nan, "kappa"),
    "center-nan": ([math.nan, 0.5, 0.5], 0.2, "center[0]"),
    "center-negative": ([-0.5, 0.5, 1.0], 0.2, "center[0]"),
    "center-mass": ([0.0, 0.0, 2.0], 0.2, "center"),
    "center-mass-half": ([0.5, 0.5, 0.5], 0.2, "center"),
}
ENTRY_POINTS = {
    "tail_rate": tail_rate,
    "nonvacuous": nonvacuous,
    "worst_case_kernel": worst_case_kernel,
    "rate_at": lambda spec, ball: rate_at(spec, ball.center),
    "simulate_paths": lambda spec, ball: simulate_paths(
        SimPlan(spec, spec.kernel, ball, (10,), 100, 1), threads=1
    ),
    "ball_membership": lambda spec, ball: ball_membership(spec.space, spec.pi0, ball),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in ENTRY_POINTS
        for case in BAD_BALLS
        if entry != "rate_at" or case.startswith("center")
    ],
)
def test_bad_ball_or_law_is_rejected(example_spec, entry, case):
    # A radius that is not a finite number >= 0, or a centre (for rate_at,
    # a law) that is not a probability vector, is an error naming its
    # path, never a rate reported as converged, a count of hits or a
    # membership verdict.
    center, kappa, path = BAD_BALLS[case]
    if entry == "rate_at":
        path = path.replace("center", "nu")
    ball = BallSet(Dist(np.array(center)), kappa)
    with pytest.raises(ValidationError) as info:
        ENTRY_POINTS[entry](example_spec, ball)
    assert info.value.violations[0].path == path

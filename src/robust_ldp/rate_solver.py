"""The occupation-measure rate function for robust Markov chains and the
worst-case decay rate of tail events, with full optimality certificates.

For a candidate occupation law ``nu``, the rate is the smallest accumulated
robust divergence of any kernel ``q`` leaving ``nu`` invariant against the
nominal kernel.  Everything is solved as one joint convex program in the
scaled variables

    tau[x, y]     = nu[x] q(x)[y]          (invariant-kernel mass)
    sigma[x, y]   = nu[x] mu_hat_x[y]      (worst-case row mass)
    gamma^x       coupling of nu[x] pi(x) to sigma[x]  (cost <= r nu[x])

with objective ``sum tau ln(tau / sigma)``, which is jointly convex; the
tail rate frees ``nu`` in a Wasserstein ball by one more coupling.
``set_chain.InvariantPolytope`` lays out the variables and builds the
terms, the zero-rate LP's rows and, unless masked, the barrier's start.
Zero rates are detected exactly before any barrier iteration runs, from
the nominal kernel first (the fixed law is invariant, or the stationary
law passes ``ball_membership``).  Otherwise, for a Dirac centre s the
rate vanishes iff kappa >= kappa*, the least ``<d(., s), nu>`` over the
laws that admit an invariant kernel of zero divergence (the paper's law
of large numbers), which ``set_chain._robust_gain`` computes by policy
iteration; a centre with more than one support state, or a fixed law,
takes a feasibility LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _entropic
from .chain_core import MASS_ZERO, BallSet, ChainSpec, Dist, Kernel, _check_ball
from .divergence import DivergenceModel, Variant, _support_mask, rel_entropy, resolve_model
from .set_chain import NU_MASS_TOL, InvariantPolytope, _robust_gain, stationary
from .transport import ball_membership

# Support threshold for solver outputs (barrier iterates park vanishing
# coordinates at the complementarity scale, well below this).
SUPPORT_TOL = 1e-7

# A Dirac-centre rate is zero when kappa* exceeds kappa by at most this,
# the primal feasibility tolerance of the zero-rate LP (set_chain.LP_OPTIONS).
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class Residuals:
    kkt: float
    marginal: float
    invariance: float


@dataclass(frozen=True)
class RateReport:
    """Optimal rate with certificates: the optimizing occupation law, the
    tilted kernel leaving it invariant, and the worst-case model kernel."""

    value: float
    nu_star: Dist
    q_star: Kernel
    pi_hat: Kernel
    residuals: Residuals
    converged: bool


def _require_entropic(model: DivergenceModel):
    if model.is_indicator:
        raise ValueError(
            "rate computations use the entropic divergences; "
            "ball-indicator models are handled by the envelope machinery"
        )


def _zero_rate_report(nu: Dist, q: Kernel) -> RateReport:
    invariance = float(np.abs(nu.p @ q.rows - nu.p).sum())
    return RateReport(0.0, nu, q, q, Residuals(0.0, 0.0, invariance), True)


def _infinite_report(spec: ChainSpec, nu: Dist, proven: bool) -> RateReport:
    """+infinity, proven by infeasibility, or unproven after a degenerate
    solve (then not converged, with infinite residuals)."""
    res = 0.0 if proven else math.inf
    return RateReport(math.inf, nu, spec.kernel, spec.kernel, Residuals(res, res, 0.0), proven)


def _dirac_threshold(
    spec: ChainSpec, radius: float, allow: np.ndarray | None, s: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """kappa*, the least ``<d(., s), nu>`` over the invariant-ball set of
    ``radius`` and ``allow``, with a law attaining it and its kernel."""
    values, laws, kernels = _robust_gain(spec, radius, allow, -spec.space.dist[:, s : s + 1])
    return -float(values[0]), laws[0], kernels[0]


def _dirac_center(ball: BallSet) -> int | None:
    """The centre's one support state, or None."""
    support = np.flatnonzero(ball.center.support())
    return int(support[0]) if support.size == 1 else None


def _try_zero_rate(
    spec: ChainSpec, poly: InvariantPolytope, fixed_nu: Dist | None
) -> RateReport | None:
    """Exact zero detection: the rate vanishes iff some feasible nu admits
    an invariant kernel with every visited row inside the W1 ball.

    The nominal kernel itself is tried first so that zero-rate reports
    carry the canonical certificate q = pi whenever possible.  A Dirac
    centre is then decided by kappa*; the zero report carries its law and
    kernel, with nominal rows where the law has no mass."""
    pk = spec.kernel
    ball = poly.ball
    if fixed_nu is not None:
        if float(np.abs(fixed_nu.p @ pk.rows - fixed_nu.p).sum()) <= 1e-11:
            return _zero_rate_report(fixed_nu, pk)
    else:
        mu_star, _ = stationary(pk)
        if ball_membership(spec.space, mu_star, ball):
            return _zero_rate_report(mu_star, pk)
        s = _dirac_center(ball)
        if s is not None:
            kappa_star, nu, q = _dirac_threshold(spec, poly.r, poly.allow, s)
            if kappa_star > ball.kappa + ZERO_TOL:
                return None
            nu = nu + 0.0  # + 0.0 turns -0.0 into 0.0
            q = np.where((nu > NU_MASS_TOL)[:, None], q, pk.rows)
            return _zero_rate_report(Dist(nu), Kernel(q))
    lp = poly.ball_lp()
    res = lp.solve(np.zeros(poly.count))
    if res.status == 2:
        return None
    if res.status != 0:  # pragma: no cover - feasibility LPs are bounded
        raise RuntimeError(f"zero-rate LP failed: {res.message}")
    nu, q = lp.extract(res.x)
    return _zero_rate_report(nu if fixed_nu is None else fixed_nu, q)


def _solve_rate(
    spec: ChainSpec, model: DivergenceModel, ball: BallSet | None, fixed_nu: Dist | None
) -> RateReport:
    """Minimize ``sum tau ln(tau / sigma)`` over the invariant-kernel
    polytope: at a fixed law, or over the laws inside a ball."""
    radius, allow = _support_mask(model, spec.kernel)
    poly = InvariantPolytope(spec, allow, radius, ball, fixed_nu)
    zero = _try_zero_rate(spec, poly, fixed_nu)
    if zero is not None:
        return zero

    prog = _entropic.EntropicProgram(poly.count, *poly.equalities(), poly.terms())
    sol = _entropic.solve(prog, z0=poly.start())
    if not sol.feasible or sol.status == "degenerate":
        shown = fixed_nu if fixed_nu is not None else ball.center
        return _infinite_report(spec, shown, proven=not sol.feasible)

    nu = sol.z[poly.nu_ids] if fixed_nu is None else fixed_nu.p
    q, pihat = poly.kernels(sol.z, nu)
    nu_dist = Dist(np.clip(nu, 0.0, None) / np.clip(nu, 0.0, None).sum())
    value = 0.0
    for x in poly.states:
        if nu[x] > NU_MASS_TOL:
            value += nu[x] * rel_entropy(Dist(q[x]), Dist(pihat[x]))
    invariance = float(np.abs(nu_dist.p @ q - nu_dist.p).sum())
    residuals = Residuals(sol.kkt_residual, sol.primal_residual, invariance)
    return RateReport(value, nu_dist, Kernel(q), Kernel(pihat), residuals, sol.converged)


def rate_at(
    spec: ChainSpec, nu: Dist, model: DivergenceModel | Variant = Variant.ROBUST_ENTROPY
) -> RateReport:
    """The rate function evaluated at one occupation law ``nu``."""
    model = resolve_model(model, spec.radius)
    _require_entropic(model)
    if nu.n != spec.space.n:
        raise ValueError("dimension mismatch")
    Dist.from_values(nu.p, "nu")  # a ValidationError unless nu is a law
    return _solve_rate(spec, model, None, nu)


def tail_rate(
    spec: ChainSpec, ball: BallSet, model: DivergenceModel | Variant = Variant.ROBUST_ENTROPY
) -> RateReport:
    """Worst-case decay rate of the tail event that the occupation law lands
    in the closed ball: the minimum of the rate function over the ball."""
    model = resolve_model(model, spec.radius)
    _require_entropic(model)
    _check_ball(ball, spec.space.n)
    if ball.kappa == 0.0:
        return rate_at(spec, ball.center, model)
    return _solve_rate(spec, model, ball, None)


def minimal_rate(
    spec: ChainSpec, model: DivergenceModel | Variant = Variant.ROBUST_ENTROPY
) -> RateReport:
    """Global minimum of the rate function: zero, attained at any invariant
    law of a feasible kernel, reported at the nominal stationary law."""
    _require_entropic(resolve_model(model, spec.radius))
    return _zero_rate_report(stationary(spec.kernel)[0], spec.kernel)


def worst_case_kernel(
    spec: ChainSpec, ball: BallSet, model: DivergenceModel | Variant = Variant.ROBUST_ENTROPY
) -> Kernel:
    """The kernel attaining the worst-case tail rate; rows at unvisited
    states default to the nominal kernel."""
    report = tail_rate(spec, ball, model)
    if not report.converged:
        raise RuntimeError("tail-rate solve did not converge; no worst-case kernel")
    if math.isinf(report.value):
        raise RuntimeError("tail rate is infinite; no worst-case kernel exists")
    return report.pi_hat


def nonvacuous(
    spec: ChainSpec, ball: BallSet, model: DivergenceModel | Variant = Variant.ROBUST_ENTROPY
) -> bool:
    """Whether the tail bound carries information: a strictly positive
    worst-case rate.  For a Dirac centre that is kappa < kappa*, decided
    without a rate solve."""
    model = resolve_model(model, spec.radius)
    _require_entropic(model)
    _check_ball(ball, spec.space.n)
    s = _dirac_center(ball)
    if s is not None:
        kappa_star, _, _ = _dirac_threshold(spec, *_support_mask(model, spec.kernel), s)
        return kappa_star > ball.kappa + ZERO_TOL
    report = tail_rate(spec, ball, model)
    if not report.converged:
        raise RuntimeError("tail-rate solve did not converge")
    return report.value > 0.0


def sharpness_check(spec: ChainSpec, report: RateReport) -> bool:
    """True when the worst-case kernel stays inside the support of the
    nominal one at every visited state, so the upper-bound optimizer is
    feasible for the absolutely-continuous (lower-bound) rate as well."""
    if not report.converged or math.isinf(report.value):
        raise ValueError("sharpness requires a converged, finite report")
    pk = spec.kernel.rows
    for x in range(spec.space.n):
        if report.nu_star.p[x] <= NU_MASS_TOL:
            continue
        if np.any((report.pi_hat.rows[x] > SUPPORT_TOL) & (pk[x] <= MASS_ZERO)):
            return False
    return True

"""Relative entropy and its robust variants over Wasserstein-1 balls.

The robust divergence of a target law ``nu`` against a reference ``mu``
is the minimal relative entropy of ``nu`` against any distribution within
W1-radius ``r`` of ``mu``; the absolutely-continuous (AC) variant restricts
the minimization to distributions supported inside ``mu``'s support.
Indicator variants score 0/infinity on ball membership and drive the
law-of-large-numbers machinery instead of rate computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _entropic
from .chain_core import MASS_ZERO, Dist, Kernel, MetricSpace
from .transport import BALL_ATOL, TransportPlan, w1


class Variant(Enum):
    ENTROPY = "Entropy"
    ROBUST_ENTROPY = "RobustEntropy"
    ROBUST_ENTROPY_AC = "RobustEntropyAC"
    BALL_INDICATOR = "BallIndicator"
    BALL_INDICATOR_AC = "BallIndicatorAC"


MODEL_NAMES = {v.value: v for v in Variant}


@dataclass(frozen=True)
class DivergenceModel:
    """A divergence variant together with the robustness radius.

    ``ENTROPY`` ignores the radius and behaves like ``ROBUST_ENTROPY``
    at radius zero.
    """

    variant: Variant
    radius: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"radius must be a finite number >= 0, got {self.radius!r}")

    @property
    def effective_radius(self) -> float:
        return 0.0 if self.variant is Variant.ENTROPY else self.radius

    @property
    def restrict_support(self) -> bool:
        """True when reference support must not grow (AC variants, or a
        degenerate ball); ``_support_mask`` turns it into a chain's mask."""
        return (
            self.variant in (Variant.ROBUST_ENTROPY_AC, Variant.BALL_INDICATOR_AC)
            or self.effective_radius == 0.0
        )

    @property
    def is_indicator(self) -> bool:
        return self.variant in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC)


def _support_mask(model: DivergenceModel, kernel: Kernel) -> tuple[float, np.ndarray | None]:
    """The model's radius, and its support mask on the kernel, or None if that excludes nothing."""
    allow = kernel.rows > MASS_ZERO
    return model.effective_radius, allow if model.restrict_support and not allow.all() else None


def entropy_model(radius: float, ac: bool = False) -> DivergenceModel:
    return DivergenceModel(
        Variant.ROBUST_ENTROPY_AC if ac else Variant.ROBUST_ENTROPY, radius
    )


def resolve_model(model: "DivergenceModel | Variant", default_radius: float) -> DivergenceModel:
    """Chain-level operations accept a bare variant, in which case the
    chain's own robustness radius applies."""
    if isinstance(model, Variant):
        return DivergenceModel(model, default_radius)
    return model


@dataclass(frozen=True)
class DivergenceResult:
    value: float
    witness_mu_hat: Dist | None
    witness_plan: TransportPlan | None
    kkt_residual: float
    converged: bool = True


_INFEASIBLE = DivergenceResult(math.inf, None, None, 0.0)


def rel_entropy(nu: Dist, mu: Dist) -> float:
    """Kullback-Leibler divergence ``sum nu ln(nu/mu)`` with ``0 ln 0 = 0``;
    +infinity unless nu is absolutely continuous w.r.t. mu."""
    if nu.n != mu.n:
        raise ValueError("dimension mismatch")
    total = 0.0
    for a, b in zip(nu.p, mu.p):
        if a <= MASS_ZERO:
            continue
        if b <= MASS_ZERO:
            return math.inf
        total += a * math.log(a / b)
    return total


def coupling_start(
    mass: np.ndarray, rows: np.ndarray, cols: np.ndarray, dsub: np.ndarray, r: float, spread: float
) -> tuple[np.ndarray, float]:
    """Strictly feasible start for a budgeted coupling of ``mass`` (on
    ``rows``) into ``cols``: each row keeps most of its mass in place and
    blends a small uniform share, scaled by the uniform-spread cost
    ``spread`` so that the cost stays below half the budget ``r`` per unit
    mass.  Returns the coupling and its cost under ``dsub``."""
    eps = min(0.5, 0.5 * r / max(spread, 1e-300))
    g = np.zeros((rows.size, cols.size))
    for a, i in enumerate(rows):
        g[a] = mass[i] * eps / cols.size
        g[a, np.searchsorted(cols, i)] += mass[i] * (1.0 - eps)
    return g, float(np.sum(dsub * g))


def beta(space: MetricSpace, nu: Dist, mu: Dist, model: DivergenceModel) -> DivergenceResult:
    """The robust divergence of ``nu`` against the ball around ``mu``.

    For the entropic variants this solves the convex program over coupling
    variables with row sums ``mu`` and free column sums, minimizing the
    relative entropy of ``nu`` against the column marginal subject to the
    transport-cost budget.  Each mass of ``nu`` that enters the objective is
    a coordinate of its own, pinned by a row to its value, so every term has
    the solver's one shape ``u ln(u / sum_i gamma[i, j])``.  Infeasibility
    yields value +infinity as a result, not an error.
    """
    n = space.n
    if nu.n != n or mu.n != n:
        raise ValueError("dimension mismatch")
    r = model.effective_radius

    if model.is_indicator:
        dist_nm, plan, _ = w1(space, mu, nu)
        inside = dist_nm <= r + BALL_ATOL
        if inside and model.restrict_support:
            inside = bool(np.all(nu.support() <= mu.support()))
        if inside:
            return DivergenceResult(0.0, nu, plan, 0.0)
        return _INFEASIBLE

    if model.restrict_support and not np.all(nu.support() <= mu.support()):
        return _INFEASIBLE
    if r == 0.0:
        return DivergenceResult(rel_entropy(nu, mu), mu, TransportPlan(np.diag(mu.p), 0.0), 0.0)
    dist_mn, plan_mn, _ = w1(space, mu, nu)
    if dist_mn <= r:
        return DivergenceResult(0.0, nu, plan_mn, 0.0)

    rows = np.where(mu.support())[0]
    cols = rows if model.restrict_support else np.arange(n)
    ni, nj = rows.size, cols.size
    # Couplings, the cost slack, then one mass u per target that nu visits.
    seen = np.flatnonzero(nu.p[cols] > MASS_ZERO)
    mass = nu.p[cols[seen]]
    nv = ni * nj + 1 + seen.size
    gid = np.arange(ni * nj).reshape(ni, nj)
    uid = np.arange(ni * nj + 1, nv)

    import scipy.sparse as sp

    # Rows: each source's couplings sum to its mass, the cost budget over
    # the couplings and the slack, without its zero costs, then u = mass.
    dsub = space.dist[np.ix_(rows, cols)]
    budget = np.append(dsub.ravel(), 1.0)
    on = np.flatnonzero(budget)
    row = np.concatenate([np.repeat(np.arange(ni), nj), np.full(on.size, ni),
                          ni + 1 + np.arange(seen.size)])
    col = np.concatenate([gid.ravel(), on, uid])
    val = np.concatenate([np.ones(ni * nj), budget[on], np.ones(seen.size)])
    a = sp.csc_array((val, (row, col)), shape=(ni + 1 + seen.size, nv))
    b = np.concatenate([mu.p[rows], [r], mass])

    # One term u[j] ln(u[j] / sum_i gamma[i, j]) per target j that nu visits.
    terms = _entropic.Terms(
        uid,
        gid[:, seen].T.ravel(),
        np.ones(seen.size * ni),
        np.repeat(np.arange(seen.size), ni),
        np.zeros(seen.size),
    )

    spread = float(mu.p[rows] @ dsub.mean(axis=1))
    g0, cost = coupling_start(mu.p, rows, cols, dsub, r, spread)
    z0 = np.concatenate([g0.ravel(), [r - cost], mass])

    prog = _entropic.EntropicProgram(nv, a, b, terms)
    sol = _entropic.solve(prog, z0=z0)
    if not sol.feasible:  # pragma: no cover - feasible by construction here
        return _INFEASIBLE
    gamma = np.zeros((n, n))
    gamma[np.ix_(rows, cols)] = sol.z[: ni * nj].reshape(ni, nj)
    mu_hat = Dist(gamma.sum(axis=0))
    value = rel_entropy(nu, mu_hat)
    plan = TransportPlan(gamma, float(np.sum(space.dist * gamma)))
    return DivergenceResult(value, mu_hat, plan, sol.kkt_residual, sol.converged)


def chain_joint(theta: Dist, kernel: Kernel, m: int) -> list[np.ndarray]:
    """The decomposed joint law of ``m`` chain steps started from ``theta``:
    the initial law followed by history-indexed next-step kernels."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = theta.n
    levels: list[np.ndarray] = [theta.p.copy()]
    for i in range(1, m):
        shape = (n,) * (i - 1) + (n, n)
        levels.append(np.broadcast_to(kernel.rows, shape).copy())
    return levels


def beta_chain(
    space: MetricSpace,
    levels: list[np.ndarray],
    theta: Dist,
    kernel: Kernel,
    model: DivergenceModel,
) -> float:
    """Accumulated robust divergence of a decomposed joint law against the
    chain started from ``theta``.

    ``levels[0]`` is the law of the first step; ``levels[i]`` has shape
    ``(n,)*i + (n,)`` and maps each i-step history to the conditional law
    of step i+1.  The result equals the minimal relative entropy of the
    joint law against the ambiguity set of the robust chain.
    """
    n = space.n
    m = len(levels)
    if m < 1:
        raise ValueError("need at least the first-step law")
    first = np.asarray(levels[0], dtype=float)
    if first.shape != (n,):
        raise ValueError("levels[0] must be a length-n law")
    total = beta(space, Dist(first), theta, model).value
    if math.isinf(total):
        return math.inf
    weights = first
    for i in range(1, m):
        lv = np.asarray(levels[i], dtype=float)
        if lv.shape != (n,) * (i + 1):
            raise ValueError(f"levels[{i}] must have shape {(n,) * (i + 1)}")
        for hist in np.ndindex(*(n,) * i):
            w = weights[hist]
            if w <= MASS_ZERO:
                continue
            b = beta(space, Dist(lv[hist]), Dist(kernel.rows[hist[-1]]), model).value
            if math.isinf(b):
                return math.inf
            total += w * b
        weights = weights[..., None] * lv
    return total

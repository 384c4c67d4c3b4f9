"""Exact Wasserstein-1 distance on finite metric spaces, and W1-ball
membership.

``w1`` solves the primal transportation problem as an exact linear program
(HiGHS dual simplex, deterministic for fixed input); the Kantorovich
potential is recovered from the equality multipliers by a c-transform,
which keeps it 1-Lipschitz whenever the ground cost is a metric.

``in_ball`` decides ``w1(row, center) <= kappa`` for many rows at once
from two certified bounds: the cost of an explicit coupling from above and
the value of an explicit 1-Lipschitz potential from below.  Both are exact
for a Dirac center and on the discrete metric, so no LP runs there; a row
that neither bound decides gets one LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

from .chain_core import BallSet, Dist, MetricSpace

# Primal-dual agreement required from a solved instance.
GAP_TOL = 1e-9

# Closed-ball membership slack for float-boundary cases.
BALL_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling matrix together with its transport cost ``<dist, gamma>``."""

    gamma: np.ndarray
    cost: float

    def __post_init__(self):
        g = np.array(self.gamma, dtype=np.float64, copy=True)
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    def __eq__(self, other):
        if not isinstance(other, TransportPlan):
            return NotImplemented
        return self.cost == other.cost and np.array_equal(self.gamma, other.gamma)


@dataclass(frozen=True, eq=False)
class DualPotential:
    """A 1-Lipschitz potential certifying the W1 value from below."""

    f: np.ndarray

    def __post_init__(self):
        f = np.array(self.f, dtype=np.float64, copy=True)
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    def __eq__(self, other):
        if not isinstance(other, DualPotential):
            return NotImplemented
        return np.array_equal(self.f, other.f)


class W1Result(NamedTuple):
    value: float
    plan: TransportPlan
    potential: DualPotential


def _marginal_constraints(n: int) -> np.ndarray:
    a = np.zeros((2 * n, n * n))
    for i in range(n):
        a[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a[n + j, j::n] = 1.0
    return a


def w1(space: MetricSpace, mu: Dist, nu: Dist) -> W1Result:
    """Wasserstein-1 distance with an optimal plan and dual potential.

    Returns ``(value, plan, potential)`` where the potential f satisfies
    ``value = sum_i f[i] (mu[i] - nu[i])`` up to the primal-dual gap.
    """
    n = space.n
    if mu.n != n or nu.n != n:
        raise ValueError("distribution dimensions do not match the space")
    d = space.dist
    res = linprog(
        d.ravel(),
        A_eq=_marginal_constraints(n),
        b_eq=np.concatenate([mu.p, nu.p]),
        bounds=(0, None),
        method="highs-ds",
    )
    if res.status != 0:  # pragma: no cover - marginals always match
        raise RuntimeError(f"transport LP failed: {res.message}")
    gamma = res.x.reshape(n, n)
    value = float(np.sum(d * gamma))
    # c-transform of the column multipliers: 1-Lipschitz by the triangle
    # inequality, and tight against the primal at the optimum.
    v = res.eqlin.marginals[n:]
    f = (d - v[None, :]).min(axis=1)
    # HiGHS may return -0.0 (or a negative within its tolerance) for an
    # empty cell; the reported coupling is nonnegative with no signed zero.
    plan = TransportPlan(np.where(gamma > 0.0, gamma, 0.0), value)
    return W1Result(value, plan, DualPotential(f))


def dual_value(potential: DualPotential, mu: Dist, nu: Dist) -> float:
    return float(potential.f @ (mu.p - nu.p))


def ball_membership(space: MetricSpace, nu: Dist, ball: BallSet) -> bool:
    """Closed-ball test: true iff ``w1(nu, center) <= kappa`` up to slack."""
    return bool(in_ball(space, nu.p[None, :], ball)[0])


def in_ball(space: MetricSpace, probs: np.ndarray, ball: BallSet) -> np.ndarray:
    """:func:`ball_membership` for every row of ``probs``."""
    probs, d = np.atleast_2d(probs), space.dist
    limit = ball.kappa + BALL_ATOL
    diff = probs - ball.center.p
    # Upper bound: leave min(p, c) in place, ship the rest by the product
    # of the residuals.
    src, dst = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
    mass = dst.sum(axis=1)
    shipped = ((src @ d) * dst).sum(axis=1)
    inside = np.divide(shipped, mass, out=np.zeros_like(mass), where=mass > 0.0) <= limit
    # Lower bound: f(i) = d(i, S), the distance to the deficit set
    # S = {i : p_i < c_i}, is 1-Lipschitz (0 everywhere when S is empty).
    f = np.full(diff.shape, np.inf)
    for j in range(space.n):
        f = np.where(diff[:, j : j + 1] < 0.0, np.minimum(f, d[:, j]), f)
    lower = (diff * np.where(np.isinf(f), 0.0, f)).sum(axis=1)
    # Exact LPs in row order; each optimal potential also bounds every
    # later row from below, which may settle it without an LP of its own.
    undecided = np.flatnonzero(~inside & (lower <= limit))
    for k, r in enumerate(undecided):
        if lower[r] > limit:
            continue
        res = w1(space, Dist(probs[r]), ball.center)
        inside[r] = res.value <= limit
        later = undecided[k + 1 :]
        lower[later] = np.maximum(lower[later], diff[later] @ res.potential.f)
    return inside

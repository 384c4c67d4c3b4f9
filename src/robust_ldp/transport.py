"""Exact Wasserstein-1 distance on finite metric spaces.

The primal transportation problem is solved as an exact linear program
(HiGHS dual simplex, deterministic for fixed input); the Kantorovich
potential is recovered from the equality multipliers by a c-transform,
which keeps it 1-Lipschitz whenever the ground cost is a metric.
"""

from __future__ import annotations

import itertools
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
    value, _, _ = w1(space, nu, ball.center)
    return value <= ball.kappa + BALL_ATOL


def lipschitz_extreme_potentials(space: MetricSpace) -> np.ndarray:
    """Vertices of the 1-Lipschitz polytope ``{f : |f_i - f_j| <= d_ij}``
    with the last coordinate pinned to zero.

    W1(mu, nu) equals the maximum of ``f @ (mu - nu)`` over these rows,
    which gives an exact vectorized distance evaluator for small spaces.
    """
    n = space.n
    if n == 1:
        return np.zeros((1, 1))
    d = space.dist
    m = n - 1  # free coordinates, f[n-1] = 0
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # f_i - f_j <= d_ij with f_{n-1} treated as 0
            r = np.zeros(m)
            if i < m:
                r[i] = 1.0
            if j < m:
                r[j] = -1.0
            rows.append(r)
            rhs.append(d[i, j])
    a = np.array(rows)
    b = np.array(rhs)
    verts = []
    for comb in itertools.combinations(range(len(rows)), m):
        sub = a[list(comb)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        f = np.linalg.solve(sub, b[list(comb)])
        if np.all(a @ f <= b + 1e-10):
            verts.append(f)
    verts = np.unique(np.round(np.array(verts), 9), axis=0)
    return np.hstack([verts, np.zeros((verts.shape[0], 1))])


def w1_to_center(space: MetricSpace, probs: np.ndarray, center: Dist) -> np.ndarray:
    """W1 distances from each row of ``probs`` to ``center``.

    Uses the half-L1 identity on discrete metrics, extreme Lipschitz
    potentials on small spaces, and falls back to one LP per row.
    """
    probs = np.atleast_2d(probs)
    diff = probs - center.p[None, :]
    if space.is_discrete:
        return 0.5 * np.abs(diff).sum(axis=1)
    if space.n <= 6:
        verts = lipschitz_extreme_potentials(space)
        return np.max(diff @ verts.T, axis=1)
    return np.array([w1(space, Dist(row), center).value for row in probs])

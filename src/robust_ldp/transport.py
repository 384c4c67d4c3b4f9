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

``ball_sup`` is the support function of a W1 ball, ``sup <h, q>`` over
``W1(q, p) <= r``, for many rows p and many functions h at once.  It is a
continuous multiple-choice knapsack, which a greedy over upper concave
hulls solves exactly (Sinha & Zoltners 1979), so no LP runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._highs import linprog
from .chain_core import BallSet, Dist, MetricSpace, _check_ball, _fields_equal, _frozen, _unique

# Closed-ball membership slack for float-boundary cases.
BALL_ATOL = 1e-10

# HiGHS options for the transport LP.  At the default feasibility
# tolerances of 1e-7, marginals with entries below about 1e-6 can make the
# LP come back "infeasible", or its value miss the optimum by ~1e-7.  With
# tolerances of 1e-10, presolve in turn declares marginals with entries
# near 1e-11 infeasible, so it is off.
W1_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": False,
}

# Entries of the (triple, target) arrays that ``ball_sup`` wraps hulls in
# at once; it bounds their memory when each row has its own mask.
HULL_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling matrix together with its transport cost ``<dist, gamma>``."""

    gamma: np.ndarray
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen(self.gamma))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class DualPotential:
    """A 1-Lipschitz potential certifying the W1 value from below."""

    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _frozen(self.f))

    __eq__ = _fields_equal


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
    for name, law in (("mu", mu), ("nu", nu)):
        Dist.from_values(law.p, name)  # a ValidationError unless it is a law
    d = space.dist
    res = linprog(
        d.ravel(),
        A_eq=_marginal_constraints(n),
        b_eq=np.concatenate([mu.p, nu.p]),
        bounds=(0, None),
        method="highs-ds",
        options=W1_OPTIONS,
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
    _check_ball(ball, space.n)
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


def ball_sup(
    p_rows: np.ndarray,
    h: np.ndarray,
    dist: np.ndarray,
    r: float,
    allow: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``sup <h[:, c], q>`` over the laws q with ``W1(q, p_rows[x]) <= r``,
    for every row x and column c; with ``allow``, q must also vanish
    outside ``allow[x]``, where a source may always keep its own mass.

    For each source i, a unit of its mass earns the upper concave hull of
    the points ``(d_ij, h_j)`` over the allowed targets j, from ``(0, h_i)``
    along its rising segments.  The segments of all sources, weighted by
    ``p[x, i]``, are bought in decreasing order of slope until the budget r
    is spent.  Neither the hulls nor the slope order depend on the row x,
    only on its mask, so each distinct mask row costs one set of hulls and
    one sort per column.

    ``p_rows`` is (m, n) and ``h`` is (n, k).  Returns the (m, k) values
    and the (m, k, n) maximizing rows: the column sums of the greedy
    coupling.
    """
    p = np.asarray(p_rows, dtype=np.float64)
    hh = np.asarray(h, dtype=np.float64)
    (m, n), k = p.shape, hh.shape[1]
    value = p @ hh
    if allow is None:
        masks, group = np.ones((1, n), dtype=bool), np.zeros(m, dtype=np.intp)
    else:
        masks, group = _unique(np.asarray(allow, dtype=bool))
    # Hulls, one per (mask, source with mass under it, column), by gift
    # wrapping: the next vertex has the steepest rising slope, the farthest
    # among ties, so that the slopes of a hull strictly fall.  Triples are
    # wrapped in chunks of HULL_CHUNK entries of their (triple, target)
    # arrays.
    heavy = np.zeros((masks.shape[0], n), dtype=bool)
    if r > 0.0:
        np.logical_or.at(heavy, group, p > 0.0)
    tg, ti, tc = np.nonzero(np.broadcast_to(heavy[:, :, None], (*heavy.shape, k)))
    cur, curh = ti.copy(), hh[ti, tc]
    steep = np.full(ti.size, np.inf)
    segs = []
    chunk = max(1, HULL_CHUNK // n)
    for start in range(0, ti.size, chunk):
        live = np.arange(start, min(start + chunk, ti.size))
        for step in range(1, n):
            dd = dist[ti[live]] - dist[ti[live], cur[live]][:, None]
            dh = hh.T[tc[live]] - curh[live, None]
            slope = np.full(dd.shape, -np.inf)
            np.divide(dh, dd, out=slope, where=masks[tg[live]] & (dd > 0.0) & (dh > 0.0))
            best = slope.max(axis=1)
            go = best > -np.inf
            if not go.any():
                break
            live, slope, dd, best = live[go], slope[go], dd[go], best[go]
            nxt = np.where(slope == best[:, None], dd, -1.0).argmax(axis=1)
            # Rounding may not raise a slope above the one before it.
            steep[live] = np.minimum(best, steep[live])
            length = dd[np.arange(live.size), nxt]
            segs.append((live, np.full(live.size, step), steep[live], length, nxt))
            cur[live] = nxt
            curh[live] = hh[nxt, tc[live]]
    if not segs:
        return value, np.repeat(p[:, None, :], k, axis=1)
    # Merge the segments of each (mask, column) block by decreasing slope
    # into padded (block, rank) tables; the sort is stable, so a hull's
    # segments keep their order.
    trip, step, slope, length, to = (np.concatenate(a) for a in zip(*segs))
    block = tg[trip] * k + tc[trip]
    order = np.lexsort((ti[trip], -slope, block))
    block = block[order]
    sizes = np.bincount(block, minlength=masks.shape[0] * k)
    rank = np.arange(block.size) - (np.cumsum(sizes) - sizes)[block]
    bx = group[:, None] * k + np.arange(k)

    def per_row(a):
        t = np.zeros((sizes.size, sizes.max()), dtype=a.dtype)
        t[block, rank] = a[order]
        return t[bx]

    src, end = per_row(ti[trip]), per_row(to)
    # Spend each row's budget greedily along its block.
    cost = p[np.arange(m)[:, None, None], src] * per_row(length)
    before = np.zeros_like(cost)
    np.cumsum(cost[:, :, :-1], axis=2, out=before[:, :, 1:])
    spent = np.minimum(cost, np.maximum(r - before, 0.0))
    value = value + (spent * per_row(slope)).sum(axis=2)
    # A source ends on the hull vertex after its fully bought segments,
    # verts[t, s] being the vertex of hull t after its first s segments; at
    # most one segment per (row, column) is bought in part, and it moves
    # that fraction of its source on to the segment's end.
    full = (spent == cost) & (cost > 0.0)
    cell = np.arange(m * k).reshape(m, k, 1) * n
    done = np.bincount((cell + src)[full], minlength=m * k * n).reshape(m, k, n)
    tid = np.full((masks.shape[0], n, k), -1)
    tid[tg, ti, tc] = np.arange(ti.size)
    tid = tid[group].transpose(0, 2, 1)
    verts = np.zeros((ti.size, step.max() + 1), dtype=np.intp)
    verts[:, 0] = ti
    verts[trip, step] = to
    at = np.where(tid >= 0, verts[np.maximum(tid, 0), done], np.arange(n))
    mass = np.broadcast_to(p[:, None, :], (m, k, n)).copy()
    px, pc, ps = np.nonzero((spent > 0.0) & ~full)
    frac = spent[px, pc, ps] / cost[px, pc, ps]
    i = src[px, pc, ps]
    mass[px, pc, i] = p[px, i] * (1.0 - frac)
    idx = np.concatenate([(cell + at).ravel(), cell[px, pc, 0] + end[px, pc, ps]])
    wts = np.concatenate([mass.ravel(), p[px, i] * frac])
    rows = np.bincount(idx, weights=wts, minlength=m * k * n).reshape(m, k, n)
    return value, rows

"""Robust law-of-large-numbers machinery: stationary distributions,
ergodicity-condition checks, Cesaro averages, and envelopes of all
distributions that admit an invariant kernel inside the robustness ball.

The envelope and the functional bounds are extreme values of ``<w, nu>``
over the set

    { nu : exists kernel q with nu q = nu and every row q(x) within
      Wasserstein-1 radius r of the nominal row pi(x), nu-a.s. }

with the absolutely-continuous variant keeping each row inside the
support of pi(x).  Such a value is the optimal gain of an average-reward
MDP whose action at x is a row of the ball, so policy iteration on
``transport.ball_sup`` computes it with a certified bracket and no LP.
``InvariantPolytope`` numbers the variables of the same set for the rate
programs and emits its rows as one sparse matrix, which HiGHS takes in
CSC form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import transport
from ._entropic import Terms
from ._highs import linprog
from .chain_core import (
    MASS_ZERO,
    BallSet,
    ChainSpec,
    Dist,
    Kernel,
    _fields_equal,
    _frozen,
    _unique,
)
from .divergence import DivergenceModel, Variant, _support_mask, coupling_start, resolve_model

if TYPE_CHECKING:
    import scipy.sparse as sp

# States with mass at or below this are treated as unvisited: their kernel
# rows carry no constraint and are reported as the nominal ones.
NU_MASS_TOL = 1e-10

# Width, per unit of max(1, max |w|), at which a law-of-large-numbers
# value is accepted from its certified bracket; a wider bracket is never
# reported as a value.
BRACKET_TOL = 1e-10

# Policy-iteration sweeps of ``envelope``/``robust_functional_bound``
# before an open bracket is an error.
MAX_SWEEPS = 200

# Starting weight of the gain against the bias in the next greedy step,
# so that moving mass to a class of higher gain wins over the bias
# difference; it grows tenfold for a column whenever a step lowers a gain.
GAIN_WEIGHT = 1e3

# HiGHS feasibility tolerances for the invariant-kernel LPs.  At the
# default primal 1e-7, optimal points go negative by ~5e-8 and occupation
# masses of order 1e-6 come out up to 1e-8 off, depending on the row
# layout.  At the default dual 1e-7, HiGHS can stop short of the optimum:
# on a Euclidean n = 15 chain at r = 0.05 by 3.3e-9.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclass(frozen=True, eq=False)
class Envelope:
    """Coordinate-wise interval of invariant-admitting distributions."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    __eq__ = _fields_equal

    def contains(self, nu: Dist, atol: float = 1e-9) -> bool:
        return bool(np.all(nu.p >= self.lo - atol) and np.all(nu.p <= self.hi + atol))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the ergodicity-style condition checks on a chain."""

    m1_holds: bool
    l0: int | None
    n0: int | None
    m2_holds: bool
    invariant: Dist | None
    unique_invariant: bool
    note: str | None = None


def stationary(kernel: Kernel) -> tuple[Dist, bool]:
    """An invariant distribution of the kernel, plus a uniqueness flag.

    The invariant law is unique iff the kernel has exactly one closed
    class; otherwise the law of the closed class with the lowest first
    state is returned.
    """
    n = kernel.n
    _, laws, home = _best_class(kernel.rows[None], np.zeros((n, 1)))
    return Dist(laws[0]), int(np.sum(home[0] == np.arange(n))) == 1


def check_conditions(spec: ChainSpec, max_exponent: int | None = None) -> ConditionReport:
    """Support-dominance check of the tail mixtures of k-step kernels.

    On a finite space the absolute-continuity condition reduces to
    inclusions between tail unions of k-step supports.  The boolean power
    sequence is iterated until it cycles; the stabilized tail unions are
    then compared, and the cycle entry point is reported as the witness
    exponent pair.  ``max_exponent`` defaults to ``n^2 + n``.
    """
    n = spec.space.n
    if max_exponent is None:
        max_exponent = n * n + n
    if max_exponent < 1:
        raise ValueError("max_exponent must be >= 1")
    base = spec.kernel.rows > MASS_ZERO
    powers: list[np.ndarray] = []
    seen: dict[bytes, int] = {}
    cur = base
    start = None
    for k in range(1, max_exponent + 2):
        key = cur.tobytes()
        if key in seen:
            start = seen[key]
            break
        if k > max_exponent:
            break
        seen[key] = k
        powers.append(cur)
        cur = (cur.astype(np.int8) @ base.astype(np.int8)) > 0

    invariant, unique = stationary(spec.kernel)
    if start is None:
        return ConditionReport(
            False,
            None,
            None,
            True,
            invariant,
            unique,
            note=f"no support cycle within exponent bound {max_exponent}; "
            "the condition may still hold beyond it",
        )
    tail = np.zeros((n, n), dtype=bool)
    for mat in powers[start - 1 :]:
        tail |= mat
    m1 = bool(np.all(tail == tail[0]))
    if m1:
        return ConditionReport(True, start, start, True, invariant, unique)
    return ConditionReport(False, None, None, True, invariant, unique)


class InvariantPolytope:
    """Variable layout of the invariant-kernel polytope, shared by the rate
    programs and the zero-rate feasibility LP.

    The polytope holds the laws nu that admit a kernel q with nu q = nu and
    every visited row q(x) within W1 radius ``radius`` of the nominal row
    pi(x), and zero off the mask ``allow``, if any.  In scaled variables,
    tau = diag(nu) q on ``reach`` (``allow``, or all pairs), and for r > 0
    each row has a coupling gamma^x of nu[x] pi(x) to the worst-case row
    mass sigma[x] whose cost plus a slack is r nu[x]; at r = 0,
    sigma[x] = nu[x] pi(x).  Variables are numbered tau (x-major),
    gamma^x (x, then the source i in the support of pi(x), then the target
    j), the slacks, nu, and, with a target ball, the coupling g0 of nu to
    the ball's centre and the slack s0 of its budget.  Index arrays hold -1
    where a variable is absent.  A fixed law is a constant, and only the
    states it visits carry variables.
    """

    def __init__(
        self,
        spec: ChainSpec,
        allow: np.ndarray | None,
        radius: float,
        ball: BallSet | None = None,
        fixed_nu: Dist | None = None,
    ):
        n = spec.space.n
        self.spec = spec
        self.allow = allow
        self.r = radius
        self.ball = ball
        self.fixed = None if fixed_nu is None else fixed_nu.p
        self.states = np.arange(n) if fixed_nu is None else np.where(fixed_nu.p > MASS_ZERO)[0]
        self.count = 0
        self.live = spec.kernel.rows > MASS_ZERO
        on = np.zeros(n, dtype=bool)
        on[self.states] = True
        self.reach = np.ones((n, n), dtype=bool) if allow is None else allow
        self.tau_ids = self._number(on[:, None] & on[None, :] & self.reach)
        if radius > 0.0:
            # gamma^x ships mass from i in the support of pi(x) to j in reach
            reach = self.reach[:, None]
            self.gam_ids = self._number(on[:, None, None] & self.live[:, :, None] & reach)
            self.slack_ids = self._number(on)
        self.nu_ids = self._take(n) if fixed_nu is None else None
        if ball is not None:
            self.cols0 = np.where(ball.center.support())[0]
            self.g0_ids = self._take(self.states.size * self.cols0.size).reshape(
                self.states.size, -1
            )
            self.s0_id = self._take(1)[0]

    def _take(self, k: int) -> np.ndarray:
        ids = np.arange(self.count, self.count + k)
        self.count += k
        return ids

    def _number(self, mask: np.ndarray) -> np.ndarray:
        ids = np.full(mask.shape, -1, dtype=np.int64)
        ids[mask] = self._take(int(mask.sum()))
        return ids

    def taus(self) -> np.ndarray:
        """The (x, y) pairs that carry a tau variable, in numbering order."""
        return np.argwhere(self.tau_ids >= 0)

    def equalities(self, ball_rows: bool = False) -> tuple[sp.csc_array, np.ndarray]:
        """Rows ``a z = b`` as one sparse matrix without stored zeros: total
        mass (free law only), the row and column sums of tau, each
        coupling's row marginals and budget, then the ball coupling's
        marginals and budget.  With ``ball_rows``, the rows
        sigma[x] = tau[x] follow, one per visited x and target y where
        either side is present."""
        import scipy.sparse as sp

        n = self.spec.space.n
        pk = self.spec.kernel.rows
        d = self.spec.space.dist
        states = self.states
        pos = np.full(n, -1)
        pos[states] = np.arange(states.size)
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        rhs: list[np.ndarray] = []
        count = 0

        def add(row, col, val, b=None, x=None, c=1.0):
            # Rows from ``count`` on, with entries ``val`` at (row, col).  With
            # ``x``, row k also holds -c[k] nu[x[k]], which a fixed law moves
            # to the right side; otherwise the right side is ``b``.
            nonlocal count
            if x is not None:
                c = np.full(x.shape, c)
                if self.nu_ids is None:
                    b = c * self.fixed[x]
                else:
                    b = np.zeros(x.size)
                    parts.append((count + np.arange(x.size), self.nu_ids[x], -c))
            parts.append((count + row, col, np.full(row.shape, val)))
            rhs.append(np.asarray(b, dtype=np.float64))
            count += rhs[-1].size

        if self.nu_ids is not None:
            add(np.zeros(n, dtype=np.int64), self.nu_ids, 1.0, b=[1.0])
        tx, ty = self.taus().T
        tau = self.tau_ids[tx, ty]
        add(pos[tx], tau, 1.0, x=states)
        add(pos[ty], tau, 1.0, x=states)
        if self.r > 0.0:
            gx, gi, gj = np.nonzero(self.gam_ids >= 0)
            gam = self.gam_ids[gx, gi, gj]
            # Per state, a marginal row for each i in the support of pi(x),
            # then the budget row (column n).
            block = np.column_stack([self.live[states], np.ones(states.size, dtype=bool)])
            row_id = np.cumsum(block).reshape(block.shape) - 1
            bx, bi = np.nonzero(block)
            add(
                np.concatenate([row_id[pos[gx], gi], row_id[pos[gx], n], row_id[:, n]]),
                np.concatenate([gam, gam, self.slack_ids[states]]),
                np.concatenate([np.ones(gam.size), d[gi, gj], np.ones(states.size)]),
                x=states[bx],
                c=np.column_stack([pk, np.full(n, self.r)])[states[bx], bi],
            )
        if self.ball is not None:
            k, j = np.indices(self.g0_ids.shape)
            g0 = self.g0_ids.ravel()
            add(k.ravel(), g0, 1.0, x=states)
            add(j.ravel(), g0, 1.0, b=self.ball.center.p[self.cols0])
            cost = d[np.ix_(states, self.cols0)].ravel()
            zero = np.zeros(g0.size + 1, dtype=np.int64)
            add(zero, np.append(g0, self.s0_id), np.append(cost, 1.0), b=[self.ball.kappa])
        if ball_rows:
            sigma = self.reach if self.r > 0.0 else self.live
            present = ((self.tau_ids >= 0) | sigma)[states]
            row_id = np.cumsum(present).reshape(present.shape) - 1
            sx, sy = np.nonzero(present)
            if self.r > 0.0:
                row = np.append(row_id[pos[tx], ty], row_id[pos[gx], gj])
                val = np.append(np.ones(tau.size), -np.ones(gam.size))
                add(row, np.append(tau, gam), val, b=np.zeros(sx.size))
            else:
                x = states[sx]
                c = np.where(self.live[x, sy], pk[x, sy], 0.0)
                add(row_id[pos[tx], ty], tau, 1.0, x=x, c=c)
        row, col, val = (np.concatenate(t) for t in zip(*parts))
        keep = val != 0.0
        a = sp.csc_array((val[keep], (row[keep], col[keep])), shape=(count, self.count))
        return a, np.concatenate(rhs)

    def terms(self) -> Terms:
        """The objective ``sum tau ln(tau / sigma)``: one term per tau
        variable, in numbering order, over the worst-case row mass
        sigma[x, y].  That is the couplings gamma^x[:, y] for r > 0; at
        r = 0 it is p(x, y) nu[x], a constant for a fixed law, and zero
        where p(x, y) is."""
        tx, ty = self.taus().T
        numer = self.tau_ids[tx, ty]
        zero = np.zeros(numer.size)
        if self.r > 0.0:
            gam = self.gam_ids[tx, :, ty]
            term, i = np.nonzero(gam >= 0)
            return Terms(numer, gam[term, i], np.ones(term.size), term, zero)
        p = np.where(self.live[tx, ty], self.spec.kernel.rows[tx, ty], 0.0)
        if self.nu_ids is None:
            none = np.zeros(0, dtype=np.int64)
            return Terms(numer, none, np.zeros(0), none, p * self.fixed[tx])
        term = np.flatnonzero(p)
        return Terms(numer, self.nu_ids[tx[term]], p[term], term, zero)

    def start(self) -> np.ndarray | None:
        """A strictly feasible point in closed form unless there is a mask:
        the product occupation nu x nu, plus near-diagonal couplings for
        r > 0, at the fixed law or, for a free law in a target ball, at the
        row sums of a near-diagonal coupling to the ball's centre.  None
        under a mask, where phase one finds the start."""
        if self.allow is not None:
            return None
        pk = self.spec.kernel.rows
        d = self.spec.space.dist
        cols = np.arange(self.spec.space.n)
        z0 = np.zeros(self.count)
        if self.fixed is None:
            # g0 is the transpose of a coupling of the centre to all states.
            center, dsub = self.ball.center.p, d[self.cols0]
            spread = float(center[self.cols0] @ dsub.mean(axis=1))
            g, cost = coupling_start(center, self.cols0, cols, dsub, self.ball.kappa, spread)
            z0[self.g0_ids] = g.T
            z0[self.s0_id] = self.ball.kappa - cost
            nu = g.sum(axis=0)
            z0[self.nu_ids] = nu
        else:
            nu = self.fixed
        for x, y in self.taus():
            z0[self.tau_ids[x, y]] = nu[x] * nu[y]
        if self.r == 0.0:
            return z0
        rows = {x: np.where(self.live[x])[0] for x in self.states}
        spread = max(float(pk[x, rows[x]] @ d[rows[x]].mean(axis=1)) for x in self.states)
        for x in self.states:
            g, cost = coupling_start(nu[x] * pk[x], rows[x], cols, d[rows[x]], self.r, spread)
            z0[self.gam_ids[x, rows[x]]] = g
            z0[self.slack_ids[x]] = self.r * nu[x] - cost
        return z0

    def kernels(self, z: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The kernel q = tau / nu and the worst-case kernel sigma / nu read
        off a point ``z``; rows of unvisited states stay nominal."""
        n = self.spec.space.n
        q = self.spec.kernel.rows.copy()
        pihat = self.spec.kernel.rows.copy()
        for x in self.states:
            if nu[x] <= NU_MASS_TOL:
                continue
            row = np.zeros(n)
            mask = self.tau_ids[x] >= 0
            row[mask] = z[self.tau_ids[x][mask]]
            q[x] = row / nu[x]
            if self.r > 0.0:
                ids = self.gam_ids[x][self.live[x]]
                pihat[x] = np.where(ids >= 0, z[ids], 0.0).sum(axis=0) / nu[x]
        return q, pihat

    def ball_lp(self) -> InvariantBallLP:
        """The polytope as LP data: its equalities and the rows
        sigma[x] = tau[x]."""
        return InvariantBallLP(self, *self.equalities(ball_rows=True))


@dataclass
class InvariantBallLP:
    """The invariant-kernel polytope as an LP over z >= 0 with sparse
    equality rows; budgets carry slacks, so there are no inequalities."""

    polytope: InvariantPolytope
    a_eq: sp.csc_array
    b_eq: np.ndarray

    def solve(self, c: np.ndarray):
        return linprog(
            c, A_eq=self.a_eq, b_eq=self.b_eq, bounds=(0, None), method="highs", options=LP_OPTIONS
        )

    def extract(self, x: np.ndarray) -> tuple[Dist, Kernel]:
        poly = self.polytope
        z = np.clip(x, 0.0, None)
        nu = poly.fixed if poly.nu_ids is None else z[poly.nu_ids]
        q, _ = poly.kernels(z, nu)
        return Dist(nu / nu.sum()), Kernel(q)


def _indicator_ball(spec: ChainSpec, model: DivergenceModel | Variant):
    """The radius and mask of a ball-indicator model on the chain."""
    model = resolve_model(model, spec.radius)
    if not model.is_indicator:
        raise ValueError("envelope computations use the ball-indicator divergences")
    return _support_mask(model, spec.kernel)


def envelope(
    spec: ChainSpec,
    model: DivergenceModel | Variant = Variant.BALL_INDICATOR,
    threads: int | None = None,
) -> Envelope:
    """Per-state extreme occupation masses over the invariant-ball set: the
    2n functionals ``-e_x`` and ``e_x`` iterated as one (n, 2n) array.
    ``threads`` is validated and has no effect."""
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    n = spec.space.n
    eye = np.eye(n)
    values, _, _ = _robust_gain(spec, *_indicator_ball(spec, model), np.hstack([-eye, eye]))
    # + 0.0 turns -0.0 into 0.0
    lo = np.clip(-values[:n], 0.0, 1.0) + 0.0
    hi = np.clip(values[n:], 0.0, 1.0) + 0.0
    return Envelope(lo, hi)


def robust_functional_bound(
    spec: ChainSpec,
    model: DivergenceModel | Variant,
    weights,
) -> tuple[float, Dist]:
    """Upper law-of-large-numbers bound for the linear functional
    ``nu -> weights @ nu``, with a law attaining it; negate the weights
    for the lower bound."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (spec.space.n,):
        raise ValueError("weights length does not match the state count")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    values, laws, _ = _robust_gain(spec, *_indicator_ball(spec, model), w[:, None])
    # + 0.0 turns -0.0 into 0.0
    return float(values[0]) + 0.0, Dist(laws[0] + 0.0)


def _robust_gain(
    spec: ChainSpec, r: float, allow: np.ndarray | None, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``max <w[:, c], nu>`` over the invariant-ball set of radius ``r`` and
    mask ``allow`` for each column c, a law attaining it, and the greedy
    kernel (rows in the balls) that leaves it invariant on a closed class.

    This is the largest optimal gain of the average-reward MDP whose action
    at x is a row in the ball around pi(x), with ``T v = w + ball_sup(pi,
    v)`` (Puterman 1994, ch. 9).  Every sweep brackets it: from above by
    ``max_x (T v - v)(x)``, which holds for any v, and from below by the
    best closed class of the greedy kernel, whose invariant law is
    admissible.  The greedy kernel keeps the previous row wherever that row
    is as good, and its multichain evaluation (gain g, bias h) gives the
    next ``v = h + M (g - max g)``: Howard's policy iteration, where a
    single closed class makes g constant and v the bias.  Howard's step
    never lowers a gain; a step that does has weighed the bias too much,
    so its column's weight M, GAIN_WEIGHT at first, grows tenfold.  A
    value is returned only from a bracket of width BRACKET_TOL.
    """
    pk, d = spec.kernel.rows, spec.space.dist
    n, k = w.shape
    tol = BRACKET_TOL * np.maximum(1.0, np.abs(w).max(axis=0))
    v, gain = np.zeros((n, k)), np.zeros((n, k))
    weight = np.full(k, GAIN_WEIGHT)
    policy = np.zeros((k, n, n))
    lower, upper = np.full(k, -np.inf), np.full(k, np.inf)
    laws, kernels = np.zeros((k, n)), np.zeros((k, n, n))
    cols = np.arange(k)
    for sweep in range(MAX_SWEEPS):
        tv, q = transport.ball_sup(pk, v[:, cols], d, r, allow)
        tv += w[:, cols]
        upper[cols] = np.minimum(upper[cols], (tv - v[:, cols]).max(axis=0))
        q = q.transpose(1, 0, 2)
        if sweep:
            # Rows that cannot gain more than rounding stay as they were.
            stay = tv - v[:, cols] - gain[:, cols] <= 0.1 * tol[cols]
            q = np.where(stay.T[:, :, None], policy[cols], q)
        value, nu, home = _best_class(q, w[:, cols])
        better = value > lower[cols]
        lower[cols[better]] = value[better]
        laws[cols[better]] = nu[better]
        kernels[cols[better]] = q[better]
        policy[cols] = q
        open_ = upper[cols] - lower[cols] > tol[cols]
        if not open_.any():
            return lower, laws, kernels
        g, h = _evaluate(q[open_], w[:, cols[open_]], home[open_])
        cols = cols[open_]
        if sweep:
            drop = (g < gain[:, cols].T - tol[cols, None]).any(axis=1)
            weight[cols[drop]] *= 10.0
        gain[:, cols] = g.T
        v[:, cols] = (h + weight[cols, None] * (g - g.max(axis=1, keepdims=True))).T
    width = float(np.max(upper - lower))
    raise RuntimeError(
        f"law-of-large-numbers bracket is still {width:.3g} wide after {MAX_SWEEPS} sweeps"
    )


def _best_class(q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each kernel ``q[c]``: the best ``<w[:, c], nu>`` over the invariant
    laws nu of its closed classes, that law, and per state the first state
    of its closed class (-1 on transient states)."""
    k, n, _ = q.shape
    # Reachability by repeated squaring; x is recurrent when every state it
    # reaches reaches it back.
    reach = (q > 0.0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = np.matmul(reach, reach)
    both = reach & reach.transpose(0, 2, 1)
    home = np.where((reach == both).all(axis=2), both.argmax(axis=2), -1)
    col, first = np.nonzero(home == np.arange(n))
    members = both[col, first]
    size = members.sum(axis=1)
    laws = np.zeros((col.size, n))
    for s in _unique(size)[0]:
        pick = np.flatnonzero(size == s)
        idx = np.nonzero(members[pick])[1].reshape(pick.size, s)
        c = col[pick]
        # nu (q_CC - I) = 0 with the last equation replaced by sum(nu) = 1
        a = q[c[:, None, None], idx[:, None, :], idx[:, :, None]] - np.eye(s)
        a[:, -1, :] = 1.0
        rhs = np.zeros((pick.size, s, 1))
        rhs[:, -1] = 1.0
        nu = np.clip(np.linalg.solve(a, rhs)[:, :, 0], 0.0, None)
        laws[pick[:, None], idx] = nu / nu.sum(axis=1, keepdims=True)
    value = np.einsum("cn,nc->c", laws, w[:, col])
    best = np.lexsort((-value, col))
    best = best[np.r_[True, col[best][1:] != col[best][:-1]]]
    return value[best], laws[best], home


def _evaluate(q: np.ndarray, w: np.ndarray, home: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain g and bias h of each kernel ``q[c]`` under the reward ``w[:, c]``,
    with ``home`` as from ``_best_class`` (multichain policy evaluation):
    g + (I - q) h = w and g = q g, with h = 0 at the first state of each
    closed class."""
    k, n, _ = q.shape
    eye = np.eye(n)
    rec = home >= 0
    # On each closed class C, g_C sits in the slot of h at its first state.
    a = np.where(rec[:, :, None], eye - q, eye)
    first = rec & (home == np.arange(n))
    a = np.where(first[:, None, :], home[:, :, None] == np.arange(n), a)
    y = np.linalg.solve(a, np.where(rec, w.T, 0.0)[:, :, None])[:, :, 0]
    g = np.where(rec, np.take_along_axis(y, np.maximum(home, 0), axis=1), 0.0)
    h = np.where(first, 0.0, y)
    # Transient states: g = q g and g + (I - q) h = w.
    a = np.where(rec[:, :, None], eye, eye - q)
    g = np.linalg.solve(a, g[:, :, None])[:, :, 0]
    h = np.linalg.solve(a, np.where(rec, h, w.T - g)[:, :, None])[:, :, 0]
    return g, h


def cesaro(spec: ChainSpec, n: int) -> Dist:
    """Average of the first n step distributions, ``(1/n) sum pi0 P^(i-1)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = spec.pi0.p.copy()
    acc = v.copy()
    for _ in range(n - 1):
        v = v @ spec.kernel.rows
        acc += v
    return Dist(acc / n)

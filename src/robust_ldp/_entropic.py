"""Primal-dual barrier solver for entropic programs with sparse structure.

Solves

    minimize    sum_k  u_k ln(u_k / v_k(z))
    subject to  A z = b,  z >= 0

where every numerator u_k is a single coordinate of z and every
denominator v_k is an affine expression with nonnegative coefficients.
This captures relative-entropy objectives whose reference measures are
themselves decision variables (marginals of transport couplings), which
is the shape of all robust-divergence and rate programs in this package.
A numerator that is a fixed mass, as in the robust divergence, is a
coordinate pinned by its own row ``z_u = mass``.

An ``EntropicProgram`` holds the rows A as a ``scipy.sparse.csc_array``
and the objective as ``Terms``, flat arrays with one numerator per term
and one (variable, coefficient, term) triple per denominator entry.  The
builders emit both forms directly, and the solver never forms a dense A
except for the pivoted QR that picks independent rows.

The Newton step uses the structure of these programs.  The Hessian of a
term ``u ln(u/v)`` has rank one, so the Newton matrix at parameter t is

    H = diag(t s / z) + S diag(t w) S^T

with one sparse column ``s_k = e_u - (u/v) c`` and weight ``w = 1/u`` per
term, where c holds the denominator's coefficients.  The bound
multipliers s are carried along the path (primal-dual scaling; Wright
1997, ch. 11), so a coordinate that the next stage drives to zero shrinks
in one or two steps instead of ten.  H^-1 is applied by the Woodbury
identity with its capacitance inverted in closed form, and only the m x m
Schur complement A H^-1 A^T of the m equality rows is factored: by
Cholesky, or, where that fails, by the eigendecomposition of its
symmetric part in the least-squares sense.  Every product is one
vectorised sum over the entry pairs of the CSC triplets of A and the
terms' entries, fixed per working problem; nothing of size
n_vars x n_vars is ever built.

The solve proceeds in two stages:

1. unless the caller passes a start, a phase-one LP maximizes the least
   coordinate; coordinates its dual certifies to vanish on the whole
   feasible set are eliminated and the LP run again, and its optimum is
   the strictly feasible start;
2. the central path of that working problem is followed to the target
   gap, loosely centred while the duality gap is above SAFE_GAP and
   tightly from there on.  No coordinate is fixed at zero: one that the
   optimum puts at zero stays small but positive.

Infeasibility and forced +infinity values are returned as exact results,
never as large floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import LinAlgError

from ._highs import linprog
from ._lapack import cho_factor, cho_solve
from .chain_core import _unique

if TYPE_CHECKING:
    import scipy.sparse as sp

GAP_TOL = 1e-9
CONVERGED_KKT = 1e-8
THIN = 1e-9  # phase one fixes at zero the coordinates its dual bounds by THIN
SAFE_GAP = 3e-7  # gap below which each stage is centred tightly, not loosely
MAX_NEWTON = 80
# Newton decrement at which a stage counts as centred: loosely while the
# gap is above SAFE_GAP, tightly from there on.
LOOSE_INNER_TOL = 1e-2
INNER_TOL = 1e-10
# Eigenvalues below this share of the largest are dropped when the Schur
# complement of the Newton step is solved by eigendecomposition.
EIG_DROP = 1e-14


@dataclass
class EntropicProgram:
    n_vars: int
    a_eq: sp.csc_array
    b_eq: np.ndarray
    terms: Terms


@dataclass
class EntropicSolution:
    z: np.ndarray | None
    kkt_residual: float
    converged: bool
    status: str
    newton_iters: int = 0
    primal_residual: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status != "infeasible"


@dataclass(frozen=True)
class Terms:
    """The objective terms as flat arrays.

    Term k has numerator ``z[numer[k]]`` and denominator ``const[k]`` plus
    ``coef[e] * z[idx[e]]`` summed over the entries e with ``term[e] == k``,
    in entry order; the coefficients are positive and the constants
    nonnegative.
    """

    numer: np.ndarray
    idx: np.ndarray
    coef: np.ndarray
    term: np.ndarray
    const: np.ndarray

    @property
    def size(self) -> int:
        return self.numer.size

    def numerators(self, z: np.ndarray) -> np.ndarray:
        return z[self.numer]

    def denominators(self, z: np.ndarray) -> np.ndarray:
        weights = self.coef * z[self.idx]
        return np.bincount(self.term, weights=weights, minlength=self.size) + self.const

    def numerator_alive(self, keep: np.ndarray) -> np.ndarray:
        """Terms whose numerator coordinate is kept."""
        return keep[self.numer]

    def denominator_alive(self, keep: np.ndarray) -> np.ndarray:
        """Terms whose denominator keeps a coordinate or a positive constant."""
        hits = np.bincount(self.term, weights=keep[self.idx], minlength=self.size)
        return (hits > 0.0) | (self.const > 0.0)

    def objective(self, z: np.ndarray) -> float:
        u, v = self.numerators(z), self.denominators(z)
        on = u > 0.0
        if not on.all():
            u, v = u[on], v[on]
        if (v <= 0.0).any():
            return math.inf
        return float((u * np.log(u / v)).sum())

    def restrict(self, keep: np.ndarray) -> Terms:
        """The terms over the kept coordinates, renumbered.  A term whose
        numerator coordinate is dropped contributes zero and goes."""
        new_of = -np.ones(keep.size, dtype=np.int64)
        new_of[keep] = np.arange(int(keep.sum()))
        stay = self.numerator_alive(keep)
        term_of = -np.ones(self.size, dtype=np.int64)
        term_of[stay] = np.arange(int(stay.sum()))
        entry = stay[self.term] & keep[self.idx]
        return Terms(
            new_of[self.numer[stay]],
            new_of[self.idx[entry]],
            self.coef[entry],
            term_of[self.term[entry]],
            self.const[stay],
        )


def _pairs(j1: np.ndarray, j2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (p, q) with ``j1[p] == j2[q]``: the entry pairs of two sparse
    factors X, Y (entries at variables j1, j2) that meet in X diag(d) Y^T."""
    order = np.argsort(j2, kind="stable")
    count = np.bincount(j2, minlength=n)
    first = np.cumsum(count) - count
    reps = count[j1]
    p = np.repeat(np.arange(j1.size), reps)
    offset = np.arange(p.size) - np.repeat(np.cumsum(reps) - reps, reps)
    return p, order[first[j1[p]] + offset]


class _Newton:
    """The Newton system of ``min t f(z) - sum ln z  s.t.  a z = b`` for one
    working problem: rows ``a`` (full row rank) and the objective ``terms``.

    With the barrier diagonal D (diag(1/z^2) after ``linearize``; the
    caller may replace D^-1, ``dinv``, by the primal-dual z / (t s)) and
    C = diag(1/(t w)) + S^T D^-1 S,

        H^-1 = D^-1 - D^-1 S C^-1 S^T D^-1,
        A H^-1 A^T = A D^-1 A^T - U C^-1 U^T,   U = A D^-1 S.

    A variable in one term adds to C's diagonal c only (ci = 1 / c).  One
    in several, as ``nu[x]`` is in the terms of row x at r = 0 with a free
    law, adds the block d_v f_v f_v^T, f_v its row of S.  Each term holds
    at most one such v, so Sherman-Morrison inverts the blocks one by one:
    C^-1 = diag(ci) - F diag(beta) F^T, F[:, v] = ci f_v and
    beta_v = d_v / (1 + d_v f_v^T ci f_v).  The sparsity patterns of A
    and S are fixed here, so U and A D^-1 A^T are each one ``bincount``
    over precomputed entry pairs.
    """

    def __init__(self, a: sp.csc_array, terms: Terms):
        self.terms = terms
        self.m, self.n = a.shape
        self.k = k = terms.size
        # S: a 1 at each numerator, then the denominator entries.
        self.s_row = np.concatenate([terms.numer, terms.idx])
        self.s_col = np.concatenate([np.arange(k), terms.term])
        shared = np.bincount(self.s_row, minlength=self.n)[self.s_row] > 1
        if np.bincount(self.s_col[shared], minlength=k).max(initial=0) > 1:
            raise ValueError("a term holds more than one shared variable")
        self.lone, self.shared = np.flatnonzero(~shared), np.flatnonzero(shared)
        self.lone_row, self.lone_col = self.s_row[self.lone], self.s_col[self.lone]
        self.shared_var, self.block = _unique(self.s_row[shared])
        # CSC order: columns increasing, rows increasing within a column.
        coo = a.tocoo()
        self.a_row, self.a_col = coo.row.astype(np.int64), coo.col.astype(np.int64)
        self.a_val = coo.data
        p, q = _pairs(self.a_col, self.a_col, self.n)
        self.aa = (self.a_row[p] * self.m + self.a_row[q], self.a_val[p] * self.a_val[q],
                   self.a_col[p])
        p, q = _pairs(self.a_col, self.s_row, self.n)
        self.as_ = (self.a_row[p] * k + self.s_col[q], self.a_val[p], q, self.a_col[p])
        # S's values: the numerators' ones, then the denominator entries,
        # which ``linearize`` writes.
        self.s_val = np.ones(self.s_row.size)

    def amul(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.a_row, weights=self.a_val * x[self.a_col], minlength=self.m)

    def atmul(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.a_col, weights=self.a_val * y[self.a_row], minlength=self.n)

    def _st(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.s_col, weights=self.s_val * x[self.s_row], minlength=self.k)

    def _s(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.s_row, weights=self.s_val * y[self.s_col], minlength=self.n)

    def linearize(self, z: np.ndarray, t: float) -> np.ndarray:
        """Move to the point z at parameter t; returns the barrier gradient
        ``t grad f(z) - 1/z``."""
        tm = self.terms
        u, v = tm.numerators(z), tm.denominators(z)
        ratio = u / v
        grad = np.bincount(tm.numer, weights=np.log(ratio) + 1.0, minlength=self.n)
        den = np.multiply(ratio[tm.term], tm.coef, out=self.s_val[self.k :])
        grad = grad - np.bincount(tm.idx, weights=den, minlength=self.n)
        np.negative(den, out=den)
        self.tw = t * (1.0 / u)
        self.dinv = z * z
        return t * grad - 1.0 / z

    def hess_mul(self, x: np.ndarray) -> np.ndarray:
        return x / self.dinv + self._s(self.tw * self._st(x))

    def step(self, g: np.ndarray, rp: np.ndarray) -> np.ndarray:
        """Newton step at the current point for min phi s.t. A dz = rp (the
        current equality residual, so that steps actively repair numerical
        drift), where g is the gradient of phi, with two rounds of
        iterative refinement."""
        m, k, d, sv = self.m, self.k, self.dinv, self.s_val
        se = sv[self.lone]
        c = np.bincount(self.lone_col, weights=se * se * d[self.lone_row], minlength=k)
        # 1/c rounded as LAPACK's Cholesky solve of diag(c) rounds it (by the
        # reciprocal of the factor's diagonal, twice); a plain 1/c moves values.
        w = 1.0 / np.sqrt(c + 1.0 / self.tw)
        ci = w * w
        e = self.shared
        if e.size:
            v, col = self.shared_var, self.s_col[e]
            fe = ci[col] * sv[e]
            f = np.zeros((k, v.size))
            f[col, self.block] = fe
            beta = d[v] / (1.0 + d[v] * np.bincount(self.block, weights=sv[e] * fe, minlength=v.size))

            def cinv(x):  # x C^-1, for a row vector or the rows of a matrix
                return ci * x - ((x @ f) * beta) @ f.T
        else:

            def cinv(x):
                return ci * x

        def hinv(x):
            y = d * x
            return y - d * self._s(cinv(self._st(y)))

        if m == 0:
            return hinv(-g)
        key, a_p, q, j = self.as_
        u = np.bincount(key, weights=a_p * sv[q] * d[j], minlength=m * k).reshape(m, k)
        key, aa, j = self.aa
        schur = np.bincount(key, weights=aa * d[j], minlength=m * m).reshape(m, m)
        schur_solve = _inverse(schur - cinv(u) @ u.T)

        def solve_once(r1, r2):
            lam = schur_solve(self.amul(hinv(r1)) - r2)
            return hinv(r1 - self.atmul(lam)), lam

        ng = -g
        dz, lam = solve_once(ng, rp)
        for _ in range(2):
            r1 = ng - (self.hess_mul(dz) + self.atmul(lam))
            r2 = rp - self.amul(dz)
            ddz, dlam = solve_once(r1, r2)
            if not (np.isfinite(ddz).all() and np.isfinite(dlam).all()):
                break
            dz = dz + ddz
            lam = lam + dlam
        return dz


def _inverse(mat: np.ndarray):
    """``x -> mat^-1 x`` for the Schur complement, which should be positive
    definite: by Cholesky, or, where that fails near the boundary, by the
    eigendecomposition of the symmetric part with the eigenvalues below
    EIG_DROP times the largest dropped (a least-squares solve)."""
    try:
        factor = cho_factor(mat)
        return lambda x: cho_solve(factor, x)
    except LinAlgError:
        w, v = np.linalg.eigh(0.5 * (mat + mat.T))
        on = w > EIG_DROP * max(w[-1], 0.0)
        v, w = v[:, on], w[on]
        return lambda x: v @ ((v.T @ x).T / w).T


def _phase_one(a: sp.csc_array, b: np.ndarray):
    """Maximize the least coordinate delta over {A z = b, z >= 0}.

    Returns (z, delta, forced), or None when the polytope is empty.  At an
    optimum delta <= THIN, the LP's equality multipliers y give
    g = A^T y >= 0 with g z = b y for every feasible z (Farkas; Freund,
    Roundy & Todd 1985), so z_i <= b y / g_i on the whole polytope.
    ``forced`` marks the coordinates this bounds by THIN, with g_i > 1e-6.
    """
    import scipy.sparse as sp

    m, n = a.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = sp.hstack([a, sp.csc_array((m, 1))], format="csc")
    a_ub = sp.hstack([-sp.eye(n), sp.csc_matrix(np.ones((n, 1)))], format="csc")
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=b,
        bounds=[(0, None)] * n + [(None, 1.0)],
        method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:  # pragma: no cover - bounded feasible LPs
        raise RuntimeError(f"phase-1 LP failed: {res.message}")
    z, delta = res.x[:n], float(res.x[-1])
    forced = np.zeros(n, dtype=bool)
    if delta <= THIN:
        y = -res.eqlin.marginals
        g = a.T @ y
        forced = (g > 1e-6) & (max(float(b @ y), 0.0) <= THIN * g)
    return z, delta, forced


def _independent_rows(a: sp.csc_array) -> np.ndarray:
    """A maximal set of linearly independent rows, in increasing order, by
    a pivoted QR of the dense transpose (the solver's only dense copy),
    which never forms Q."""
    from scipy.linalg import qr

    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(0, dtype=np.int64)
    r, piv = qr(a.T.toarray(), mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] <= 0.0:
        return np.zeros(0, dtype=np.int64)
    rank = int(np.sum(diag > diag[0] * 1e-12))
    return np.sort(piv[:rank])


def _center(newton: _Newton, b, z, t, inner_tol, s):
    """Damped primal-dual Newton iteration toward the analytic center at
    parameter t, from the point z with bound multipliers s (1 / (t z) on
    the central path).  Returns the point, the Newton steps taken and the
    multipliers ``mu / z`` at the point, mu = 1/t.  The line search's
    barrier value and equality residual at the accepted point serve the
    next step."""
    objective = newton.terms.objective
    mu = 1.0 / t
    iters = 0
    phi0 = t * objective(z) - np.log(z).sum()
    rp = b - newton.amul(z)
    for _ in range(MAX_NEWTON):
        g = newton.linearize(z, t)
        newton.dinv = z / (t * s)
        dz = newton.step(g, rp)
        lam2 = float(-g @ dz)
        iters += 1
        prim = float(np.abs(rp).max()) if rp.size else 0.0
        if not math.isfinite(lam2) or (lam2 / 2.0 <= inner_tol and prim <= 1e-12):
            break
        neg = dz < 0.0
        alpha = 1.0
        if neg.any():
            alpha = min(1.0, 0.995 * (-z[neg] / dz[neg]).min())
        # Tiny uphill slack keeps pure feasibility-restoration steps viable.
        # At large t the KKT system is so ill-conditioned that a step can
        # miss A dz = rp by far more than rp; it is shortened until it does
        # not raise the equality residual, which later steps rarely repair.
        accepted = False
        while alpha > 1e-14:
            z_new = z + alpha * dz
            phi = t * objective(z_new) - np.log(z_new).sum()
            rp_new = b - newton.amul(z_new)
            drift = float(np.abs(rp_new).max(initial=0.0))
            descent = phi <= phi0 - 0.25 * alpha * max(lam2, 0.0) + 1e-12 * max(1.0, abs(phi0))
            if descent and drift <= max(prim, 1e-12):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # no further progress representable
        ds = mu / z - s - (s / z) * dz
        neg = ds < 0.0
        if neg.any():
            alpha = min(alpha, 0.995 * (-s[neg] / ds[neg]).min())
        z, phi0, rp = z_new, phi, rp_new
        s = np.minimum(np.maximum(s + alpha * ds, mu / (1e10 * z)), 1e10 * mu / z)
    return z, iters, mu / z


def solve(prog: EntropicProgram, z0: np.ndarray | None = None) -> EntropicSolution:
    n = prog.n_vars
    active = np.ones(n, dtype=bool)
    terms = prog.terms
    a_full = prog.a_eq
    b = np.asarray(prog.b_eq, dtype=np.float64)

    z_start = None
    if z0 is not None:
        z_start = np.asarray(z0, dtype=np.float64).copy()
        if np.any(z_start <= 0.0) or (
            b.size and np.max(np.abs(a_full @ z_start - b)) > 1e-8
        ):
            z_start = None

    if z_start is None:
        # Eliminate coordinates that vanish on the whole feasible set, then
        # find a strictly feasible start on the remaining face.
        while True:
            # A term whose numerator is pinned at zero contributes 0; one
            # whose denominator vanishes pins its numerator at zero.
            dead = terms.numerator_alive(active) & ~terms.denominator_alive(active)
            if dead.any():
                active[terms.numer[dead]] = False
                continue
            na = int(active.sum())
            if na == 0:
                if b.size and np.max(np.abs(b)) > THIN:
                    return EntropicSolution(None, 0.0, True, "infeasible")
                z_start = np.zeros(0)
                break
            probe = _phase_one(a_full[:, active], b)
            if probe is None:
                return EntropicSolution(None, 0.0, True, "infeasible")
            z_act, delta, forced = probe
            if forced.any():
                active[np.flatnonzero(active)[forced]] = False
                continue
            # The barrier needs a start with every coordinate positive.
            if delta <= 0.0 or z_act.min() <= 0.0:
                return EntropicSolution(None, 0.0, False, "degenerate")
            z_start = z_act
            break
    else:
        z_start = z_start[active]

    # Working problem over the surviving coordinates.
    terms_w = terms.restrict(active)
    a_act = a_full[:, active]
    kept = _independent_rows(a_act)
    b_w = b[kept]
    newton = _Newton(a_act[kept], terms_w)
    z = np.asarray(z_start, dtype=np.float64)

    t_bar = 1.0
    s = 1.0 / (t_bar * z)
    total_iters = 0

    while z.size:
        gap = z.size / t_bar
        inner_tol = LOOSE_INNER_TOL if gap > SAFE_GAP else INNER_TOL
        z, it, s = _center(newton, b_w, z, t_bar, inner_tol, s)
        total_iters += it
        if gap <= GAP_TOL or t_bar >= 1e16:
            break
        t_bar *= 10.0

    gap = z.size / t_bar if z.size else 0.0
    primal = float(np.max(np.abs(a_act @ z - b))) if b.size else 0.0

    z_full = np.zeros(n)
    z_full[np.where(active)[0]] = z
    kkt = max(gap, primal)
    converged = kkt <= CONVERGED_KKT
    status = "optimal" if converged else "max_iterations"
    return EntropicSolution(z_full, kkt, converged, status, total_iters, primal)

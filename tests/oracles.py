"""Independent brute-force oracles for two-state instances.

Everything here computes reference values by direct enumeration or dense
grids, without touching any solver in the package: relative entropies are
evaluated from their defining sums, the inner ball minimization on two
points reduces to clipping the first-coordinate mass into an interval,
and kernels/occupation laws are gridded exhaustively.
"""

import math

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import linprog

from robust_ldp.chain_core import MASS_ZERO, Violation
from robust_ldp.divergence import _support_mask, resolve_model
from robust_ldp.set_chain import InvariantPolytope


def kl2(x, u):
    """KL divergence of (x, 1-x) against (u, 1-u), elementwise over arrays."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(x > 1e-14, x * (np.log(x) - np.log(u)), 0.0)
        t2 = np.where(1 - x > 1e-14, (1 - x) * (np.log1p(-x) - np.log1p(-u)), 0.0)
    out = t1 + t2
    return np.where(np.isnan(out), np.inf, out)


def beta_two_state(x, p, r_over_d):
    """min KL((x,1-x), (u,1-u)) over |u - p| <= r_over_d, 0 <= u <= 1.

    KL is convex in u with unconstrained minimum at u = x, so the clipped
    value is exact.
    """
    lo = max(0.0, p - r_over_d)
    hi = min(1.0, p + r_over_d)
    u = np.clip(x, lo, hi)
    return kl2(x, u)


def rate_two_state_grid(kernel_rows, d12, r, v, step=1e-3, refine=True):
    """The occupation rate at nu = (v, 1-v) by gridding the one-parameter
    family of invariant kernels q0 = (1-a, a), q1 = (b, 1-b), b = v a/(1-v)."""
    rd = r / d12
    p0 = kernel_rows[0][0]
    p1 = kernel_rows[1][0]
    if v <= 0.0:
        return float(beta_two_state(0.0, p1, rd))
    if v >= 1.0:
        return float(beta_two_state(1.0, p0, rd))

    def value(a):
        b = v * a / (1.0 - v)
        return v * beta_two_state(1.0 - a, p0, rd) + (1.0 - v) * beta_two_state(b, p1, rd)

    amax = min(1.0, (1.0 - v) / v)
    a = np.append(np.arange(0.0, amax, step), amax)
    vals = value(a)
    best = int(np.argmin(vals))
    if not refine:
        return float(vals[best])
    lo = max(0.0, a[best] - 2 * step)
    hi = min(amax, a[best] + 2 * step)
    a2 = np.linspace(lo, hi, 4001)
    return float(np.min(value(a2)))


def tail_rate_two_state_grid(kernel_rows, d12, r, center_first, kappa, step=2e-3):
    """Dense search over (nu, q, worst-case rows) for the two-state tail
    rate: the occupation law is gridded over the ball interval and the
    kernel/worst-case layers resolved by `rate_two_state_grid`."""
    lo = max(0.0, center_first - kappa / d12)
    hi = min(1.0, center_first + kappa / d12)

    def scan(vs, inner_step, refine):
        vals = [rate_two_state_grid(kernel_rows, d12, r, v, inner_step, refine) for v in vs]
        k = int(np.argmin(vals))
        return vs[k], vals[k]

    vs = np.append(np.arange(lo, hi, step), hi)
    v0, val0 = scan(vs, 2e-3, False)
    lo2 = max(lo, v0 - 2 * step)
    hi2 = min(hi, v0 + 2 * step)
    vs2 = np.linspace(lo2, hi2, 161)
    _, val = scan(vs2, 1e-3, True)
    return min(val0, val)


def w1_two_point_enumeration(d12, mu, nu):
    """W1 on two points by enumerating couplings: the diagonal mass is
    maximal, so the optimum moves |mu_0 - nu_0| across."""
    return abs(mu[0] - nu[0]) * d12


def w1_ball_members_by_lp(dist, probs, center, kappa, atol):
    """Closed W1-ball membership of each row of ``probs``, each decided by
    its own transportation LP, with no bound or shortcut."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
    out = []
    for row in np.atleast_2d(probs):
        res = linprog(
            dist.ravel(),
            A_eq=a_eq,
            b_eq=np.concatenate([row, center]),
            bounds=(0, None),
        )
        assert res.status == 0, res.message
        out.append(res.fun <= kappa + atol)
    return np.array(out, dtype=bool)


def fixed_nu_feasible_discrete(kernel_rows, nu, r, atol=1e-9):
    """Feasibility of an occupation law under the discrete metric, checked
    with an independent LP formulation: rows q(x) with nu q = nu and total
    variation 0.5 * sum |q(x) - pi(x)| <= r, encoded with split variables."""
    n = len(nu)
    # variables: q (n*n), e (n*n) with e >= |q - pi|
    nv = 2 * n * n
    a_eq = []
    b_eq = []
    for x in range(n):
        row = np.zeros(nv)
        row[x * n : (x + 1) * n] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
    for y in range(n):
        row = np.zeros(nv)
        for x in range(n):
            row[x * n + y] = nu[x]
        a_eq.append(row)
        b_eq.append(nu[y])
    a_ub = []
    b_ub = []
    for x in range(n):
        for y in range(n):
            up = np.zeros(nv)
            up[x * n + y] = 1.0
            up[n * n + x * n + y] = -1.0
            a_ub.append(up)
            b_ub.append(kernel_rows[x][y])
            dn = np.zeros(nv)
            dn[x * n + y] = -1.0
            dn[n * n + x * n + y] = -1.0
            a_ub.append(dn)
            b_ub.append(-kernel_rows[x][y])
        if nu[x] > 1e-12:
            row = np.zeros(nv)
            row[n * n + x * n : n * n + (x + 1) * n] = 0.5
            a_ub.append(row)
            b_ub.append(r + atol)
    res = linprog(
        np.zeros(nv),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


def kl_full(p, q):
    """Relative entropy between two arbitrary finite distributions."""
    total = 0.0
    for a, b in zip(p, q):
        if a <= 1e-14:
            continue
        if b <= 1e-14:
            return math.inf
        total += a * math.log(a / b)
    return total


def beta_grid_two_state(space, nu, mu, model, step=1e-5):
    """Brute-force oracle for ``beta`` on two-state spaces.

    Grids the one-parameter family of candidate references inside the W1
    ball, which on two points is an interval of first-coordinate masses.
    """
    if space.n != 2:
        raise ValueError("grid oracle is for two-state spaces")
    d = space.dist[0, 1]
    r = model.effective_radius
    if model.is_indicator:
        inside = abs(nu.p[0] - mu.p[0]) * d <= r + 1e-10
        if inside and model.restrict_support:
            inside = bool(np.all(nu.support() <= mu.support()))
        return 0.0 if inside else math.inf
    lo = max(0.0, mu.p[0] - r / d)
    hi = min(1.0, mu.p[0] + r / d)
    if model.restrict_support:
        if mu.p[0] <= 1e-14:
            lo, hi = 0.0, 0.0
        if mu.p[1] <= 1e-14:
            lo, hi = 1.0, 1.0
    ts = np.append(np.arange(lo, hi, step), hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        v0 = np.where(nu.p[0] > 1e-14, nu.p[0] * (np.log(nu.p[0]) - np.log(ts)), 0.0)
        v1 = np.where(
            nu.p[1] > 1e-14, nu.p[1] * (np.log(nu.p[1]) - np.log(1.0 - ts)), 0.0
        )
    vals = np.where(np.isnan(v0 + v1), np.inf, v0 + v1)
    return float(np.min(vals))


def beta_chain_grid_two_state(space, levels, theta, kernel, model, step=1e-3):
    """Brute-force oracle for two-step ``beta_chain`` on two-state spaces:
    directly minimizes the joint relative entropy over gridded ambiguity-set
    elements (initial law and both kernel rows)."""
    if space.n != 2 or len(levels) != 2:
        raise ValueError("oracle covers two states and two steps")
    if model.is_indicator:
        raise ValueError("oracle covers the entropic variants")
    d = space.dist[0, 1]
    r = model.effective_radius
    joint = levels[0][:, None] * np.asarray(levels[1])

    def interval(center_first: float):
        return max(0.0, center_first - r / d), min(1.0, center_first + r / d)

    def min_neg_log(w0: float, w1: float, lo: float, hi: float) -> float:
        # minimize -w0 ln t - w1 ln(1-t) over the gridded interval
        ts = np.append(np.arange(lo, hi, step), hi)
        with np.errstate(divide="ignore"):
            vals = np.zeros_like(ts)
            if w0 > 1e-14:
                vals = vals - w0 * np.log(ts)
            if w1 > 1e-14:
                vals = vals - w1 * np.log(1.0 - ts)
        return float(np.min(vals))

    const = 0.0
    for w in joint.ravel():
        if w > 1e-14:
            const += w * math.log(w)
    total = const
    total += min_neg_log(joint[0].sum(), joint[1].sum(), *interval(theta.p[0]))
    for x in range(2):
        total += min_neg_log(joint[x, 0], joint[x, 1], *interval(kernel.rows[x, 0]))
    return total


def _term(terms, k, z):
    """Numerator, denominator entries and denominator value of term k of an
    ``_entropic.Terms``, read off its flat arrays."""
    on = np.flatnonzero(terms.term == k)
    idx, c = terms.idx[on], terms.coef[on]
    v = float(c @ z[idx]) + float(terms.const[k])
    return z[terms.numer[k]], idx, c, v


def entropic_objective(terms, z):
    """``sum u ln(u / v)`` of an entropic program's terms, one term at a
    time: terms with a vanishing numerator contribute 0, a positive
    numerator over a vanishing denominator makes the sum +infinity."""
    total = 0.0
    for k in range(terms.numer.size):
        u, _, _, v = _term(terms, k, z)
        if u <= 0.0:
            continue
        if v <= 0.0:
            return math.inf
        total += u * math.log(u / v)
    return total


def entropic_grad_hess(terms, z, n):
    """Dense gradient and n x n Hessian of ``entropic_objective``, assembled
    term by term from the derivatives of ``u ln(u / v)``."""
    g = np.zeros(n)
    h = np.zeros((n, n))
    for k in range(terms.numer.size):
        u, idx, c, v = _term(terms, k, z)
        i = terms.numer[k]
        g[i] += math.log(u / v) + 1.0
        g[idx] -= (u / v) * c
        h[i, i] += 1.0 / u
        h[i, idx] -= c / v
        h[idx, i] -= c / v
        h[np.ix_(idx, idx)] += (u / v**2) * np.outer(c, c)
    return g, h


def _sigma(poly, x, y):
    """The worst-case row mass sigma[x, y] of a ``set_chain.InvariantPolytope``
    as ``(idx, coef, const)``, meaning ``coef @ z[idx] + const``, or None
    where it vanishes identically: the couplings gamma^x[:, y] for r > 0,
    else p(x, y) nu[x], a constant for a fixed law."""
    if poly.r > 0.0:
        col = poly.gam_ids[x, :, y]
        col = col[col >= 0]
        return (col, np.ones(col.size), 0.0) if col.size else None
    p = float(poly.spec.kernel.rows[x, y])
    if p <= MASS_ZERO:
        return None
    if poly.nu_ids is None:
        return np.zeros(0, dtype=np.int64), np.zeros(0), p * float(poly.fixed[x])
    return poly.nu_ids[x : x + 1], np.array([p]), 0.0


def polytope_terms_by_pairs(poly):
    """The terms of ``sum tau ln(tau / sigma)`` over a polytope, one (x, y)
    pair at a time in tau numbering order, as the arrays of
    ``_entropic.Terms``: (numer, idx, coef, term, const)."""
    numer, idx, coef, term, const = [], [], [], [], []
    for x, y in poly.taus():
        sigma = _sigma(poly, x, y)
        if sigma is None:
            sigma = (np.zeros(0, dtype=np.int64), np.zeros(0), 0.0)
        ids, c, k = sigma
        term += [len(numer)] * ids.size
        idx += list(ids)
        coef += list(c)
        numer.append(poly.tau_ids[x, y])
        const.append(k)
    return (
        np.array(numer, dtype=np.int64),
        np.array(idx, dtype=np.int64),
        np.array(coef, dtype=np.float64),
        np.array(term, dtype=np.int64),
        np.array(const, dtype=np.float64),
    )


def dense_polytope_rows(poly, ball_rows=False):
    """Dense rows ``a z = b`` of a ``set_chain.InvariantPolytope``, built one
    row at a time from its variable layout: the polytope's equalities and,
    with ``ball_rows``, the rows sigma[x] = tau[x], in the same order."""
    pk = poly.spec.kernel.rows
    d = poly.spec.space.dist
    n = poly.spec.space.n
    rows = []
    rhs = []

    def eq(ids, coefs, b=0.0, x=None, c=1.0):
        # coefs @ z[ids] = b + c nu[x]; a free nu[x] moves to the left.
        row = np.zeros(poly.count)
        row[ids] += coefs
        if x is not None and poly.nu_ids is None:
            b = float(c * poly.fixed[x])
        elif x is not None:
            row[poly.nu_ids[x]] -= c
        rows.append(row)
        rhs.append(b)

    if poly.r > 0.0:
        rows_x = {x: np.where(pk[x] > MASS_ZERO)[0] for x in poly.states}
        cols_x = {x: rows_x[x] if poly.allow is not None else np.arange(n) for x in poly.states}
        gam_x = {x: poly.gam_ids[x][np.ix_(rows_x[x], cols_x[x])] for x in poly.states}
    if poly.nu_ids is not None:
        eq(poly.nu_ids, 1.0, b=1.0)
    for x in poly.states:
        eq(poly.tau_ids[x][poly.tau_ids[x] >= 0], 1.0, x=x)
    for y in poly.states:
        eq(poly.tau_ids[:, y][poly.tau_ids[:, y] >= 0], 1.0, x=y)
    if poly.r > 0.0:
        for x in poly.states:
            for a, i in enumerate(rows_x[x]):
                eq(gam_x[x][a], 1.0, x=x, c=float(pk[x, i]))
            cost = d[np.ix_(rows_x[x], cols_x[x])].ravel()
            ids = np.append(gam_x[x].ravel(), poly.slack_ids[x])
            eq(ids, np.append(cost, 1.0), x=x, c=poly.r)
    if poly.ball is not None:
        for k, x in enumerate(poly.states):
            eq(poly.g0_ids[k], 1.0, x=x)
        for k, j in enumerate(poly.cols0):
            eq(poly.g0_ids[:, k], 1.0, b=float(poly.ball.center.p[j]))
        cost = d[np.ix_(poly.states, poly.cols0)].ravel()
        ids = np.append(poly.g0_ids.ravel(), poly.s0_id)
        eq(ids, np.append(cost, 1.0), b=float(poly.ball.kappa))
    if ball_rows:
        for x in poly.states:
            for y in range(n):
                tau, sigma = poly.tau_ids[x, y], _sigma(poly, x, y)
                if tau < 0 and sigma is None:
                    continue
                row = np.zeros(poly.count)
                if tau >= 0:
                    row[tau] = 1.0
                if sigma is not None:
                    row[sigma[0]] -= sigma[1]
                rows.append(row)
                rhs.append(0.0 if sigma is None else sigma[2])
    return np.array(rows), np.array(rhs)


def block_hits_reference(plan, length_index, block_index, count):
    """Occupation counts of one path block of ``montecarlo.simulate_paths``,
    walked path-parallel one step at a time over the block's whole draw
    array: the Philox stream keyed by (seed, length index << 32 | block
    index), ``count x length`` uniforms drawn path-major, state k owning the
    draws in [c_{k-1}, c_k) of the cumulative row.

    Returns the distinct count vectors in lexicographic order and their
    multiplicities.
    """
    spec = plan.spec
    ns = spec.space.n
    n = plan.lengths[length_index]
    pi0_cum = np.cumsum(spec.pi0.p)
    pi0_cum[-1] = 1.0
    pcum = np.cumsum(plan.play_kernel.rows, axis=1)
    pcum[:, -1] = 1.0
    key = np.array(
        [np.uint64(plan.seed), np.uint64((length_index << 32) | block_index)],
        dtype=np.uint64,
    )
    u = Generator(Philox(key=key)).random((count, n))
    state = np.searchsorted(pi0_cum, u[:, 0], side="right")
    counts = np.zeros((count, ns), dtype=np.int64)
    rows = np.arange(count)
    counts[rows, state] += 1
    for t in range(1, n):
        state = (u[:, t][:, None] >= pcum[state]).sum(axis=1)
        counts[rows, state] += 1
    return np.unique(counts, axis=0, return_counts=True)


def ball_sup_lp(p, h, dist, r, allow=None):
    """``sup <h, q>`` over ``W1(q, p) <= r`` (and, with ``allow``, q zero off
    ``allow`` except where a source keeps its own mass) as the coupling LP
    in HiGHS: variables gamma[i, j] with row sums p and cost at most r."""
    p = np.asarray(p, dtype=float)
    dist = np.asarray(dist, dtype=float)
    n = p.size
    bounds = [(0.0, None)] * (n * n)
    if allow is not None:
        for i in range(n):
            for j in range(n):
                if i != j and not allow[j]:
                    bounds[i * n + j] = (0.0, 0.0)
    res = linprog(
        -np.tile(np.asarray(h, dtype=float), n),
        A_ub=dist.ravel()[None, :],
        b_ub=[r],
        A_eq=np.kron(np.eye(n), np.ones(n)),
        b_eq=p,
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def max_coordinate_lp(a, b, i):
    """The largest value of coordinate ``i`` over ``{A z = b, z >= 0}``, as
    one HiGHS LP per coordinate."""
    c = np.zeros(a.shape[1])
    c[i] = -1.0
    res = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if res.status == 3:
        return math.inf
    assert res.status == 0, res.message
    return -float(res.fun)


def _invariant_lp(spec, model, c_of_nu):
    model = resolve_model(model, spec.radius)
    radius, allow = _support_mask(model, spec.kernel)
    poly = InvariantPolytope(spec, allow, radius)
    lp = poly.ball_lp()
    c = np.zeros(poly.count)
    c[poly.nu_ids] = c_of_nu
    res = lp.solve(c)
    assert res.status == 0, res.message
    return res, lp


def envelope_lp(spec, model):
    """The stationary envelope as 2n LPs over the invariant-ball polytope:
    ``(lo, hi)``, each coordinate its own HiGHS solve."""
    n = spec.space.n
    lo, hi = np.zeros(n), np.zeros(n)
    for x in range(n):
        e = np.zeros(n)
        e[x] = 1.0
        lo[x] = _invariant_lp(spec, model, e)[0].fun
        hi[x] = -_invariant_lp(spec, model, -e)[0].fun
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def functional_bound_lp(spec, model, weights):
    """``max <weights, nu>`` over the invariant-ball polytope as one LP, with
    the maximizing law."""
    res, lp = _invariant_lp(spec, model, -np.asarray(weights, dtype=float))
    nu, _ = lp.extract(res.x)
    return -float(res.fun), nu


def metric_violations_by_loops(dist):
    """The metric checks of ``chain_core.validate_metric`` for a finite
    square matrix, one scalar comparison at a time: nonzero diagonal, then
    per pair i < j asymmetry and non-positivity, then every triangle
    (i, j, k) in that nesting order."""
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    out = []
    for i in range(n):
        if d[i, i] != 0.0:
            out.append(Violation(f"$.metric[{i}][{i}]", "nonzero diagonal", float(abs(d[i, i]))))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] != d[j, i]:
                out.append(
                    Violation(f"$.metric[{i}][{j}]", "asymmetric entry", float(abs(d[i, j] - d[j, i])))
                )
            if d[i, j] <= 0.0:
                out.append(
                    Violation(f"$.metric[{i}][{j}]", "non-positive off-diagonal distance", float(d[i, j]))
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gap = d[i, k] - (d[i, j] + d[j, k])
                if gap > 1e-12 * max(1.0, d[i, k]):
                    msg = f"triangle inequality fails via {j}: d[{i}][{k}] > d[{i}][{j}] + d[{j}][{k}]"
                    out.append(Violation(f"$.metric[{i}][{k}]", msg, float(gap)))
    return out

"""Path simulation and empirical exponential-rate extraction.

Simulates blocks of independent chain paths under a chosen kernel, counts
how often the occupation law lands inside a target Wasserstein ball, and
fits the exponential decay rate of the hit probability across path
lengths.  Randomness comes from counter-mode Philox streams keyed by
(seed, length index, path block), so results are bit-identical no matter
how the blocks are scheduled across workers.

A block of BLOCK paths draws its uniforms path-major, length draws per
path, TILE paths at a time; consecutive draws continue the stream, so
the tiling does not change which draw a path step uses.  The cumulative
thresholds of all kernel rows merge into one sorted list of breakpoints.
A draw between two consecutive breakpoints sends each state to one fixed
next state, so the kernel becomes one transition table, built once per
call.  Each tile's draws become small-integer interval codes in a few
vectorised passes, stored time-major for the whole block.  A walk step
then moves every path of the block with one add and one gather,
``idx = code[t] + state; state = table[idx]``, and writes the states over
the codes; the occupation counts are taken once the walk ends.  A worker
thus holds TILE x length floats and one length x BLOCK array of small
integers.  The distinct count vectors go to the ball-membership test in
lexicographic order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .chain_core import (
    BallSet,
    ChainSpec,
    Kernel,
    ValidationError,
    Violation,
    _check_ball,
    _fields_equal,
    _unique,
)
from .transport import in_ball

# Fixed path-block size: the unit of work and of random-stream derivation.
BLOCK = 16384

# Paths drawn at a time inside a block; bounds the float draws a worker
# holds to TILE x length.
TILE = 2048

# Guide buckets per merged threshold interval, so that at most about one
# draw in GUIDE_PER_BREAK needs a binary search; GUIDE_MAX bounds the
# guide's size on chains with very many thresholds.
GUIDE_PER_BREAK = 64
GUIDE_MAX = 1 << 16

# Path steps (paths times length, summed over the plan) per worker thread.
# Starting and joining a pool costs about 1.5 ms: on 2 cores, two threads
# beat one on 3- and 7-state chains only from 5e4-1e5 path steps on, so
# smaller plans run inline.
STEPS_PER_WORKER = 50_000

# Lengths enter the slope fit only with at least this many hits; rarer
# counts inflate the variance beyond usefulness.
FIT_MIN_HITS = 10


@dataclass(frozen=True)
class SimPlan:
    """A simulation request: which kernel to play, which ball to hit, which
    path lengths to sweep, and the stream seed."""

    spec: ChainSpec
    play_kernel: Kernel
    ball: BallSet
    lengths: tuple[int, ...]
    paths_per_length: int
    seed: int


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """Per-length tail-probability estimates and the fitted decay slope."""

    lengths: np.ndarray
    hits: np.ndarray
    p_hat: np.ndarray
    slope: float | None
    stderr: float | None
    usable_lengths: np.ndarray
    fit_lengths: np.ndarray
    usable: bool
    status: str

    def __post_init__(self):
        # Read-only copies that keep their dtypes: the counts stay integers.
        for name in ("lengths", "hits", "p_hat", "usable_lengths", "fit_lengths"):
            value = np.array(getattr(self, name))
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    __eq__ = _fields_equal


@dataclass(frozen=True)
class RateVerdict:
    """Outcome of comparing a fitted slope against an analytic rate."""

    status: str  # "pass", "fail" or "insufficient data"
    passed: bool | None
    analytic: float
    slope: float | None
    stderr: float | None
    margin: float | None


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: the ROBUST_LDP_THREADS environment variable overrides
    an explicit request, which overrides machine parallelism."""
    env = os.environ.get("ROBUST_LDP_THREADS")
    if env:
        if not env.strip().isdigit() or int(env) < 1:
            raise ValueError(f"ROBUST_LDP_THREADS must be a positive integer, got {env!r}")
        return int(env)
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        return int(threads)
    return os.cpu_count() or 1


def _validate(plan: SimPlan):
    lengths = plan.lengths
    if len(lengths) == 0:
        raise ValueError("lengths must be nonempty")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly increasing")
    if any(n < 1 for n in lengths):
        raise ValueError("lengths must be positive")
    if plan.paths_per_length < 1:
        raise ValueError("paths_per_length must be >= 1")
    if not 0 <= plan.seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    n = plan.spec.space.n
    if plan.play_kernel.n != n:
        raise ValueError("dimension mismatch")
    _check_ball(plan.ball, n)
    # Row sums stay unchecked: converged worst-case rows can miss 1 by ~1e-4.
    rows = plan.play_kernel.rows
    bad = np.flatnonzero(~(np.isfinite(rows) & (rows >= 0.0)).all(axis=1))
    if bad.size:
        raise ValidationError(
            [Violation(f"play_kernel[{x}]", "entries must be finite numbers >= 0") for x in bad]
        )


class _Walk:
    """The play kernel as one transition table over the merged thresholds.

    ``breaks`` holds every row's cumulative thresholds below 1.0, sorted and
    distinct.  A draw u with j breakpoints at or below it moves state x to
    ``table[j * ns + x]``, the number of row x's thresholds at or below u;
    j * ns is the draw's code.  The table has (len(breaks) + 1) * ns
    entries, at most about ns**3.

    ``guide`` gives the code of every draw in each of its G equal buckets
    of [0, 1), or -1 where a breakpoint lies inside the bucket; only draws
    in such buckets, about one in GUIDE_PER_BREAK or fewer, take a binary
    search.
    """

    def __init__(self, plan: SimPlan):
        ns = plan.spec.space.n
        self.ns = ns
        self.pi0_cum = np.cumsum(plan.spec.pi0.p)
        self.pi0_cum[-1] = 1.0
        cum = np.cumsum(plan.play_kernel.rows, axis=1)[:, :-1]
        self.breaks, _ = _unique(cum[cum < 1.0])
        intervals = self.breaks.size + 1
        # codes, table entries and the -1 mark share the smallest signed type
        self.dtype = np.min_scalar_type(-intervals * ns)
        # A threshold equal to breaks[i] counts from interval i + 1 on; one
        # at or above 1.0 (i = breaks.size) never counts.
        first = (np.searchsorted(self.breaks, cum) + 1) * ns + np.arange(ns)[:, None]
        starts = np.bincount(first.ravel(), minlength=(intervals + 1) * ns)[: intervals * ns]
        self.table = starts.reshape(intervals, ns).cumsum(axis=0).astype(self.dtype).ravel()

        g = min(GUIDE_MAX, 1 << (GUIDE_PER_BREAK * intervals - 1).bit_length())
        scaled = self.breaks * g  # exact: g is a power of two
        lift = np.ceil(scaled).astype(np.intp)  # first bucket wholly at or above
        below = np.bincount(lift, minlength=g + 1)[:g].cumsum()
        self.guide = (below * ns).astype(self.dtype)
        self.guide[scaled[scaled != lift].astype(np.intp)] = -1

    def codes(self, u: np.ndarray) -> np.ndarray:
        """Code of every draw in ``u``: j * ns for the interval j holding it."""
        bucket = np.empty(u.shape, dtype=np.intp)
        # u * G is exact for a power of two G, and the cast floors it
        np.multiply(u, self.guide.size, out=bucket, casting="unsafe")
        code = self.guide.take(bucket)
        flat = code.reshape(-1)
        split = np.flatnonzero(flat < 0)
        flat[split] = np.searchsorted(self.breaks, u.reshape(-1)[split], side="right") * self.ns
        return code


def _block_hits(
    plan: SimPlan, length_index: int, block_index: int, count: int, walk: _Walk | None = None
) -> int:
    if walk is None:
        walk = _Walk(plan)
    n = plan.lengths[length_index]
    key = np.array(
        [np.uint64(plan.seed), np.uint64((length_index << 32) | block_index)],
        dtype=np.uint64,
    )
    gen = Generator(Philox(key=key))
    # Row t holds step t's codes until the walk replaces them by its states.
    path = np.empty((n, count), dtype=walk.dtype)
    for start in range(0, count, TILE):
        m = min(TILE, count - start)
        u = gen.random((m, n))
        code = walk.codes(u)
        code[:, 0] = np.searchsorted(walk.pi0_cum, u[:, 0], side="right")
        path[:, start : start + m] = code.T
    idx = np.empty(count, dtype=np.intp)
    for t in range(1, n):
        np.add(path[t], path[t - 1], out=idx)
        walk.table.take(idx, out=path[t])
    counts = np.empty((walk.ns, count), dtype=np.int32)
    for k in range(walk.ns):
        np.sum(path == k, axis=0, dtype=np.int32, out=counts[k])

    # Distinct count vectors in lexicographic order, with multiplicities.
    counts = counts.T[np.lexsort(counts[::-1])]
    new = np.ones(count, dtype=bool)
    np.any(counts[1:] != counts[:-1], axis=1, out=new[1:])
    first = np.flatnonzero(new)
    mult = np.diff(first, append=count)
    return int(mult[in_ball(plan.spec.space, counts[first] / n, plan.ball)].sum())


def simulate_paths(plan: SimPlan, threads: int | None = None) -> RateEstimate:
    """Estimate the hit probability of the ball event at every length and
    fit the exponential decay rate.

    Deterministic for a fixed plan: the same seed reproduces hit counts
    exactly, independent of the worker count.
    """
    _validate(plan)
    npaths = plan.paths_per_length
    walk = _Walk(plan)

    jobs = []
    for li in range(len(plan.lengths)):
        for bi, start in enumerate(range(0, npaths, BLOCK)):
            jobs.append((li, bi, min(BLOCK, npaths - start)))

    def run(job):
        li, bi, count = job
        return li, _block_hits(plan, li, bi, count, walk)

    hits = np.zeros(len(plan.lengths), dtype=np.int64)
    steps = npaths * sum(plan.lengths)
    workers = min(resolve_threads(threads), len(jobs), max(1, steps // STEPS_PER_WORKER))
    if workers > 1:
        # Longest blocks first, so that the last ones to finish are short.
        jobs.sort(key=lambda job: plan.lengths[job[0]] * job[2], reverse=True)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = map(run, jobs)
    for li, h in results:
        hits[li] += h

    lengths = np.asarray(plan.lengths, dtype=np.int64)
    p_hat = hits / npaths
    usable_lengths = lengths[hits > 0]
    fit_mask = hits >= FIT_MIN_HITS
    fit_lengths = lengths[fit_mask]

    if fit_lengths.size < 2:
        status = (
            "all hit counts are zero"
            if not np.any(hits)
            else f"need at least 2 lengths with >= {FIT_MIN_HITS} hits to fit a slope"
        )
        return RateEstimate(
            lengths, hits, p_hat, None, None, usable_lengths, fit_lengths, False, status
        )

    x = fit_lengths.astype(np.float64)
    y = np.log(p_hat[fit_mask])
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    b = float(((x - xm) * (y - ym)).sum()) / sxx
    slope = -b
    m = x.size
    if m > 2:
        resid = y - (ym + b * (x - xm))
        stderr = math.sqrt(float((resid**2).sum()) / (m - 2) / sxx)
    else:
        stderr = 0.0
    return RateEstimate(
        lengths, hits, p_hat, slope, stderr, usable_lengths, fit_lengths, True, "ok"
    )


def compare_rates(analytic: float, estimate: RateEstimate, rel_tol: float) -> RateVerdict:
    """Pass iff the fitted slope matches the analytic rate within the
    relative tolerance plus two standard errors; a zero analytic rate is
    matched by an absolute criterion instead."""
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValidationError([Violation("rel_tol", "must be a finite number >= 0")])
    if not estimate.usable:
        return RateVerdict("insufficient data", None, analytic, None, None, None)
    slope = estimate.slope
    se = estimate.stderr
    if analytic <= 1e-12:
        margin = 2.0 * se + 1e-3
        passed = abs(slope) <= margin
    else:
        margin = rel_tol * analytic + 2.0 * se
        passed = abs(slope - analytic) <= margin
    return RateVerdict("pass" if passed else "fail", passed, analytic, slope, se, margin)

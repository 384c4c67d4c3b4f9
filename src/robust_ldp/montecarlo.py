"""Path simulation and empirical exponential-rate extraction.

Simulates blocks of independent chain paths under a chosen kernel, counts
how often the occupation law lands inside a target Wasserstein ball, and
fits the exponential decay rate of the hit probability across path
lengths.  Randomness comes from counter-mode Philox streams keyed by
(seed, length index, path block), so results are bit-identical no matter
how the blocks are scheduled across workers.

A block of BLOCK paths draws its uniforms path-major, length draws per
path, TILE paths at a time; consecutive draws continue the stream, so
the tiling does not change which draw a path step uses.  Each tile is
walked time-major on the transpose of its draws: one step of every path
in the tile is a few contiguous array operations, states are kept as
small integers, and the occupation counts are taken once the walk ends.
A worker thus holds O(TILE x length) floats, not the whole block.  The
distinct count vectors go to the ball-membership test in lexicographic
order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .chain_core import BallSet, ChainSpec, Kernel
from .transport import in_ball

# Fixed path-block size: the unit of work and of random-stream derivation.
BLOCK = 16384

# Paths drawn and walked at a time inside a block; bounds a worker's
# working set to a few TILE x length arrays.
TILE = 2048

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

    def __eq__(self, other):
        if not isinstance(other, RateEstimate):
            return NotImplemented
        return (
            np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.hits, other.hits)
            and np.array_equal(self.p_hat, other.p_hat)
            and self.slope == other.slope
            and self.stderr == other.stderr
            and np.array_equal(self.usable_lengths, other.usable_lengths)
            and np.array_equal(self.fit_lengths, other.fit_lengths)
            and self.usable == other.usable
            and self.status == other.status
        )


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
    if plan.play_kernel.n != n or plan.ball.center.n != n:
        raise ValueError("dimension mismatch")


def _block_hits(plan: SimPlan, length_index: int, block_index: int, count: int) -> int:
    spec = plan.spec
    ns = spec.space.n
    n = plan.lengths[length_index]
    pi0_cum = np.cumsum(spec.pi0.p)
    pi0_cum[-1] = 1.0
    # cols[k, x] = P(x, {0..k}); the last cumulative column is 1.0 and no
    # draw reaches it, so it never moves a state and is left out.
    cols = np.cumsum(plan.play_kernel.rows, axis=1)[:, :-1].T.copy()
    state_dtype = np.int8 if ns < 128 else np.intp

    key = np.array(
        [np.uint64(plan.seed), np.uint64((length_index << 32) | block_index)],
        dtype=np.uint64,
    )
    gen = Generator(Philox(key=key))
    counts = np.empty((count, ns), dtype=np.int64)
    for start in range(0, count, TILE):
        m = min(TILE, count - start)
        # Row t of u is the t-th draw of each path in the tile.
        u = gen.random((m, n)).T.copy()
        states = np.empty((n, m), dtype=state_dtype)
        states[0] = np.searchsorted(pi0_cum, u[0], side="right")
        for t in range(1, n):
            # u >= c_k matches searchsorted(side="right"): state k owns [c_{k-1}, c_k)
            np.greater_equal(u[t], cols.take(states[t - 1], axis=1)).sum(
                axis=0, dtype=state_dtype, out=states[t]
            )
        for k in range(ns):
            counts[start : start + m, k] = np.count_nonzero(states == k, axis=0)

    # Distinct count vectors in lexicographic order, with multiplicities.
    counts = counts[np.lexsort(counts.T[::-1])]
    new = np.ones(count, dtype=bool)
    np.any(counts[1:] != counts[:-1], axis=1, out=new[1:])
    first = np.flatnonzero(new)
    mult = np.diff(first, append=count)
    return int(mult[in_ball(spec.space, counts[first] / n, plan.ball)].sum())


def simulate_paths(plan: SimPlan, threads: int | None = None) -> RateEstimate:
    """Estimate the hit probability of the ball event at every length and
    fit the exponential decay rate.

    Deterministic for a fixed plan: the same seed reproduces hit counts
    exactly, independent of the worker count.
    """
    _validate(plan)
    workers = resolve_threads(threads)
    npaths = plan.paths_per_length

    jobs = []
    for li in range(len(plan.lengths)):
        for bi, start in enumerate(range(0, npaths, BLOCK)):
            jobs.append((li, bi, min(BLOCK, npaths - start)))

    def run(job):
        li, bi, count = job
        return li, _block_hits(plan, li, bi, count)

    hits = np.zeros(len(plan.lengths), dtype=np.int64)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for li, h in pool.map(run, jobs):
                hits[li] += h
    else:
        for job in jobs:
            li, h = run(job)
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

"""Shared fixtures: the worked 3-state example chain and random corpora."""

import pathlib

import numpy as np
import pytest

from robust_ldp import BallSet, ChainSpec, Dist, Kernel, MetricSpace

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLE_CHAIN_PATH = REPO_ROOT / "examples" / "eckstein_example.json"

EXAMPLE_KERNEL = np.array(
    [
        [0.6, 0.2, 0.2],
        [0.3, 0.4, 0.3],
        [0.0, 0.3, 0.7],
    ]
)
EXAMPLE_STATIONARY = np.array([3 / 13, 4 / 13, 6 / 13])


@pytest.fixture(scope="session")
def example_space():
    return MetricSpace.discrete(["1", "2", "3"])


@pytest.fixture(scope="session")
def example_spec(example_space):
    """The worked 3-state chain at robustness radius 0.05."""
    return ChainSpec.build(example_space, [0.0, 0.0, 1.0], EXAMPLE_KERNEL, 0.05)


@pytest.fixture(scope="session")
def example_ball(example_space):
    return BallSet(Dist.dirac(2, 3), 0.2)


@pytest.fixture(scope="session")
def example_chain_path():
    assert EXAMPLE_CHAIN_PATH.exists(), (
        f"worked-example chain file {EXAMPLE_CHAIN_PATH} is missing; "
        "it is tracked in git (git checkout -- examples/eckstein_example.json)"
    )
    return str(EXAMPLE_CHAIN_PATH)


def random_metric(rng, n, discrete=False):
    """A random metric space: either 0/1 or Euclidean on random plane points."""
    labels = [f"s{i}" for i in range(n)]
    if discrete:
        return MetricSpace.discrete(labels)
    pts = rng.normal(size=(n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d = d / d.max()
    d = np.where(np.eye(n, dtype=bool), 0.0, np.maximum(d, 0.05))
    d = 0.5 * (d + d.T)
    return MetricSpace.from_matrix(labels, d)


def random_simplex(rng, n, floor=0.0):
    p = rng.dirichlet(np.ones(n))
    if floor > 0.0:
        p = (1.0 - n * floor) * p + floor
    return Dist.from_values(p)


def random_kernel(rng, n, floor=0.02):
    rows = np.stack([random_simplex(rng, n, floor=floor).p for _ in range(n)])
    return Kernel.from_matrix(rows)


def two_state_corpus(count=25, seed=20240):
    """Fixed random two-state instances used by the oracle-equivalence suite."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d12 = float(rng.uniform(0.5, 2.0))
        space = MetricSpace.from_matrix(["a", "b"], [[0.0, d12], [d12, 0.0]])
        kernel = random_kernel(rng, 2, floor=0.05)
        pi0 = random_simplex(rng, 2)
        r = float(rng.uniform(0.0, 0.25))
        spec = ChainSpec.build(space, pi0, kernel, r)
        nu = random_simplex(rng, 2, floor=0.01)
        mu = random_simplex(rng, 2, floor=0.05)
        center = random_simplex(rng, 2)
        kappa = float(rng.uniform(0.05, 0.5)) * d12
        out.append((spec, nu, mu, BallSet(center, kappa)))
    return out


def three_state_corpus(count=8, seed=777):
    """Small 3-state chains (positive kernels, mixed metrics) for the
    invariant suites."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        space = random_metric(rng, 3, discrete=(k % 2 == 0))
        kernel = random_kernel(rng, 3, floor=0.03)
        pi0 = random_simplex(rng, 3)
        r = float(rng.uniform(0.0, 0.15))
        out.append(ChainSpec.build(space, pi0, kernel, r))
    return out


def certificate_corpus(count=8, seed=4242):
    """Chains on 3 to 5 states for the certificate checks, with both metrics,
    kernels missing one off-diagonal entry per row (so the AC variants
    restrict), radius zero and positive, a Dirac target ball, and an AC
    flag on every other pair of chains."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = 3 + k % 3
        space = random_metric(rng, n, discrete=(k % 2 == 0))
        rows = random_kernel(rng, n).rows.copy()
        for x in range(n):
            rows[x, (x + 1 + rng.integers(n - 1)) % n] = 0.0
        kernel = Kernel.from_matrix(rows / rows.sum(axis=1, keepdims=True))
        r = 0.0 if k in (1, 6) else float(rng.uniform(0.03, 0.1))
        spec = ChainSpec.build(space, random_simplex(rng, n), kernel, r)
        ball = BallSet(Dist.dirac(int(rng.integers(n)), n), 0.2 * space.diameter)
        out.append((spec, k % 4 >= 2, ball))
    return out


def polytope_chains(seed=5151):
    """One chain per state count 3..8 and metric (discrete, Euclidean),
    with most rows missing one entry (so the AC variants restrict) and a
    positive radius, plus per chain a target ball whose centre has at
    least two atoms and a fixed law that leaves some states unvisited."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(3, 9):
        for discrete in (True, False):
            space = random_metric(rng, n, discrete=discrete)
            rows = random_kernel(rng, n).rows.copy()
            for x in range(n):
                if rng.random() < 0.7:
                    rows[x, (x + 1 + rng.integers(n - 1)) % n] = 0.0
            kernel = Kernel.from_matrix(rows / rows.sum(axis=1, keepdims=True))
            r = float(rng.uniform(0.02, 0.12))
            spec = ChainSpec.build(space, random_simplex(rng, n), kernel, r)
            center = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.6)
            center[rng.choice(n, 2, replace=False)] += 0.2
            ball = BallSet(Dist.from_values(center / center.sum()), 0.2 * space.diameter)
            fixed = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
            fixed[rng.integers(n)] += 0.2
            out.append((spec, ball, Dist.from_values(fixed / fixed.sum())))
    return out


def multichain_spec(radius=0.05):
    """A 5-state chain on a line with two closed classes, the periodic
    flip {a, b} and {c, d}, and a transient state e that feeds both."""
    pts = np.array([0.0, 1.0, 3.0, 4.0, 2.0])
    space = MetricSpace.from_matrix(list("abcde"), np.abs(pts[:, None] - pts[None, :]) / 4.0)
    kernel = [
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.3, 0.7, 0.0],
        [0.3, 0.0, 0.3, 0.0, 0.4],
    ]
    return ChainSpec.build(space, np.full(5, 0.2), kernel, radius)


def reducible_chains(count=24, seed=7):
    """Sparse chains on 3 to 8 states, half of them block-triangular or
    block-diagonal, so that kernels in the ball often have several closed
    classes or transient states; both metrics, radius 0 to 0.7."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        rows = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < rng.uniform(0.15, 0.9))
        if rng.random() < 0.5:
            cut = int(rng.integers(1, n))
            rows[:cut, cut:] = 0.0
            if rng.random() < 0.5:
                rows[cut:, :cut] = 0.0
        rows[np.arange(n), rng.integers(n, size=n)] += 0.1
        r = float(rng.choice([0.0, 0.01, 0.05, 0.2, 0.7]))
        space = random_metric(rng, n, discrete=bool(rng.integers(2)))
        out.append(ChainSpec.build(space, np.full(n, 1.0 / n), rows / rows.sum(axis=1, keepdims=True), r))
    return out


def slow_reducible_spec(radius=0.0, stay=(0.9, 0.95)):
    """Two lazy walks on 6 states each, slow to mix (each state stays put
    with probability ``stay``), and a state that feeds both: the kernel
    has two closed classes at every radius under the AC variants."""
    def walk(m, stay):
        k = np.eye(m) * stay
        for i in range(m):
            k[i, max(i - 1, 0)] += (1 - stay) / 2
            k[i, min(i + 1, m - 1)] += (1 - stay) / 2
        return k

    kernel = np.zeros((13, 13))
    kernel[:6, :6] = walk(6, stay[0])
    kernel[6:12, 6:12] = walk(6, stay[1])
    kernel[12, [0, 6]] = 0.5
    return ChainSpec.build(MetricSpace.discrete(13), np.full(13, 1 / 13), kernel, radius)


def _sparse_kernel(rng, n, density, first):
    """Random rows with about ``density`` of their entries kept and column 0
    zeroed from row ``first`` on, so that state 0 is transient; a row left
    empty goes to a state other than 0."""
    rows = rng.random((n, n)) * (rng.random((n, n)) < density)
    rows[first:, 0] = 0.0
    for x in range(n):
        if rows[x].sum() == 0.0:
            rows[x, x % (n - 1) + 1] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


def transient_chains(count=60, seed=5):
    """Chains on 3 to 6 states whose state 0 is transient (column 0 is
    zero below row 0), radius 0.05, each with a state for a Dirac ball and
    a random law: at r = 0 and under the AC variants, their programs force
    coordinates to zero.  The discrete metric on odd trials and
    ``|i - j| / n`` on even ones."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        n = int(rng.integers(3, 7))
        labels = [f"s{i}" for i in range(n)]
        if trial % 2:
            space = MetricSpace.discrete(labels)
        else:
            i = np.arange(n)
            space = MetricSpace.from_matrix(labels, np.abs(i[:, None] - i[None, :]) / n)
        kernel = _sparse_kernel(rng, n, 0.5, 1)
        spec = ChainSpec.build(space, np.full(n, 1.0 / n), kernel, 0.05)
        out.append((spec, int(rng.integers(n)), Dist(rng.dirichlet(np.ones(n)))))
    return out


NEAR_TANGENT_FACTORS = (1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-7, 1 + 1e-5, 1 + 1e-3)


def near_tangent_balls(count=40, seed=11):
    """Chains on 3 to 5 states whose state 0 no kernel row enters, with
    Dirac balls at state 0 whose radius is kappa0 = min_y d(0, y) times
    each of NEAR_TANGENT_FACTORS.  No law that leaves state 0 unvisited
    lies closer to the centre, so where such a law is invariant for a
    kernel on the nominal support (always on the discrete metric), the
    balls touch the laws of finite rate.  The discrete metric on even
    trials and ``|x_i - x_j|`` between sorted uniform points on odd ones;
    radius 0.05."""
    rng = np.random.default_rng(seed)
    out = []
    for trial in range(count):
        n = int(rng.integers(3, 6))
        kernel = _sparse_kernel(rng, n, 0.6, 0)
        labels = [f"s{i}" for i in range(n)]
        if trial % 2 == 0:
            space = MetricSpace.discrete(labels)
        else:
            pts = np.sort(rng.random(n))
            space = MetricSpace.from_matrix(labels, np.abs(pts[:, None] - pts[None, :]))
        spec = ChainSpec.build(space, np.full(n, 1.0 / n), kernel, 0.05)
        kappa0 = float(space.dist[0, 1:].min())
        out.append((spec, [BallSet(Dist.dirac(0, n), kappa0 * f) for f in NEAR_TANGENT_FACTORS]))
    return out

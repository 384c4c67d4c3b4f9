"""Seeded input generator for the benchmark workloads.

Every input a workload feeds to the package comes from here and depends
only on the workload seed.  The random-chain recipe matches the one the
test suite uses (random plane points for a Euclidean metric, Dirichlet
kernel rows mixed with a floor) but is rebuilt here so that the benchmark
does not import the tests.

The generator works on plain numbers (JSON-ready lists); ``workloads.py``
builds the package objects from them, so this module needs only numpy.
"""

from __future__ import annotations

import json
import os

import numpy as np

# The worked 3-state example of the README and the acceptance suite.
EXAMPLE_CHAIN = {
    "states": ["1", "2", "3"],
    "metric": "discrete",
    "pi0": [0.0, 0.0, 1.0],
    "kernel": [[0.6, 0.2, 0.2], [0.3, 0.4, 0.3], [0.0, 0.3, 0.7]],
    "r": 0.05,
}
EXAMPLE_CENTER = "3"
EXAMPLE_KAPPA = 0.2

# Sizes, chosen so that a 20 s run of every workload holds several batches
# on a 2-core machine (bench/README.md gives the reasons).  A scaled-rate
# batch has six n = 6 solves, three per metric.  A scaled-mc batch has one
# n = 6 operation and four short n = 7 ones, so that the median latency is
# one of the latter.
RATE_SIZES = (6, 6, 6, 6, 6, 6)
RATE_RADIUS = 0.05
RATE_KAPPA = {True: 0.3, False: 0.1}  # discrete, Euclidean
LLN_SIZES = (12, 16)
LLN_RADIUS = 0.05
MC_SIZES = (6, 7, 7, 7, 7)
MC_RADIUS = 0.05
MC_KAPPA = 0.25
MC_LENGTHS = (10, 12)  # two path blocks per operation, one per length
MC_PATHS = {6: 2048, 7: 160}  # per length
EXAMPLE_LENGTHS = tuple(range(40, 161, 20))
EXAMPLE_PATHS = 32768
EXAMPLE_SWEEP_KAPPAS = (0.15, 0.2, 0.25)
EXAMPLE_SWEEP_RADII = (0.03, 0.05)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """An independent generator for one item of one workload."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def random_metric(rng: np.random.Generator, n: int, discrete: bool) -> np.ndarray | str:
    """The tests' recipe: 0/1, or Euclidean on standard-normal plane points
    scaled to diameter 1 with off-diagonal distances floored at 0.05."""
    if discrete:
        return "discrete"
    pts = rng.normal(size=(n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d = d / d.max()
    d = np.where(np.eye(n, dtype=bool), 0.0, np.maximum(d, 0.05))
    return 0.5 * (d + d.T)


def random_simplex(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    if floor > 0.0:
        p = (1.0 - n * floor) * p + floor
    return p / p.sum()


def random_kernel(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.stack([random_simplex(rng, n, floor=0.02) for _ in range(n)])


def random_chain(rng: np.random.Generator, n: int, discrete: bool, radius: float) -> dict:
    """One chain in the chain-file layout (plain lists, JSON-ready)."""
    metric = random_metric(rng, n, discrete)
    kernel = random_kernel(rng, n)
    pi0 = random_simplex(rng, n)
    return {
        "states": [f"s{i}" for i in range(n)],
        "metric": metric if isinstance(metric, str) else metric.tolist(),
        "pi0": pi0.tolist(),
        "kernel": kernel.tolist(),
        "r": float(radius),
    }


def example_items(seed: int, batch: int) -> dict:
    """Simulation seeds for the CLI runs; the chain itself is fixed."""
    rng = _stream(seed, 0, batch)
    return {"sim_seed": int(rng.integers(0, 2**31))}


def rate_items(seed: int, batch: int) -> list[dict]:
    """One random chain per entry of RATE_SIZES, with a Dirac ball at a
    random state.  The metric alternates between entries and batches."""
    out = []
    for k, n in enumerate(RATE_SIZES):
        discrete = (k + batch) % 2 == 0
        rng = _stream(seed, 1, batch, k)
        chain = random_chain(rng, n, discrete, RATE_RADIUS)
        out.append(
            {
                "name": f"tail_rate[n={n},{'discrete' if discrete else 'euclid'},b={batch},i={k}]",
                "chain": chain,
                "center": int(rng.integers(0, n)),
                "kappa": RATE_KAPPA[discrete],
            }
        )
    return out


def lln_items(seed: int, batch: int) -> list[dict]:
    """One random chain per size; the metric alternates between sizes and
    between batches.  The weights define a linear functional."""
    out = []
    for k, n in enumerate(LLN_SIZES):
        discrete = (k + batch) % 2 == 0
        rng = _stream(seed, 2, batch, k)
        chain = random_chain(rng, n, discrete, LLN_RADIUS)
        weights = rng.uniform(-1.0, 1.0, size=n)
        out.append(
            {
                "name": f"n={n},{'discrete' if discrete else 'euclid'},b={batch}",
                "chain": chain,
                "weights": weights.tolist(),
            }
        )
    return out


def mc_items(seed: int, batch: int) -> list[dict]:
    """One random Euclidean chain per size, simulated under its nominal
    kernel, with a Dirac ball at a random state."""
    out = []
    for k, n in enumerate(MC_SIZES):
        rng = _stream(seed, 3, batch, k)
        chain = random_chain(rng, n, False, MC_RADIUS)
        out.append(
            {
                "name": f"simulate_paths[n={n},euclid,b={batch},i={k}]",
                "chain": chain,
                "center": int(rng.integers(0, n)),
                "kappa": MC_KAPPA,
                "lengths": list(MC_LENGTHS),
                "paths": MC_PATHS[n],
                "sim_seed": int(rng.integers(0, 2**31)),
            }
        )
    return out


ITEMS = {
    "example": example_items,
    "scaled-rate": rate_items,
    "scaled-lln": lln_items,
    "scaled-mc": mc_items,
}


def corpus_bytes(workload: str, seed: int, batches: int) -> bytes:
    """Canonical serialisation of the first ``batches`` batches, used to
    check that one seed always gives the same inputs."""
    doc = [ITEMS[workload](seed, b) for b in range(batches)]
    return json.dumps(doc, sort_keys=True).encode()


def write_example_chain(directory: str) -> str:
    """Write the worked-example chain file and return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "example_chain.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(EXAMPLE_CHAIN, fh)
    return path

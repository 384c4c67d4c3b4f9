"""The four workloads: their operations and the checks on every output.

A workload is a list of batches; a batch is a fixed list of operations
built from the seeded corpus.  An operation is one public call or one CLI
command.  Its result is judged by a check that uses independent calls
(transport LPs, plain numpy linear algebra) rather than the code path that
produced it.  A check returns ``None`` when the output is right, or the
reason it is not.

Outcome of one operation:
- "ok": the output passed its check;
- "failed": an exception, a non-zero exit code, or ``converged: false``;
- "wrong": the output failed its check.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import corpus
import robust_ldp
from robust_ldp import BallSet, ChainSpec, Dist, MetricSpace, SimPlan, Variant, cli, transport

# Worker threads passed explicitly to simulate_paths and envelope.
THREADS = 2

EXAMPLE_NOMINAL = 0.0910
EXAMPLE_ROBUST = 0.0511
EXAMPLE_TOL = 0.002
CERT_TOL = 1e-6
STATIONARY_TOL = 1e-7


# Each workload class sets ``min_batches`` and ``batch_s``, its nominal
# batch time in seconds on a 2-core machine, from which ``worker.py``
# derives the number of batches in a run.


class OpFailed(Exception):
    """The operation ran but reported failure (exit code or convergence)."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    path_steps: int = 0  # paths x length simulated, for path_steps_per_s


def api(name: str, *args, **kwargs) -> Callable[[], object]:
    """A call of the package's public function ``name``, looked up when the
    call runs so that a traced run goes through the wrapper."""
    return lambda: getattr(robust_ldp, name)(*args, **kwargs)


# -- building package objects from corpus items -----------------------------


def build_spec(chain: dict) -> ChainSpec:
    labels = chain["states"]
    if chain["metric"] == "discrete":
        space = MetricSpace.discrete(labels)
    else:
        space = MetricSpace.from_matrix(labels, np.asarray(chain["metric"]))
    return ChainSpec.build(space, chain["pi0"], chain["kernel"], chain["r"])


def stationary_law(kernel: np.ndarray) -> np.ndarray:
    """Invariant law by least squares on (P^T - I) nu = 0, sum nu = 1."""
    n = kernel.shape[0]
    a = np.vstack([kernel.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def kl_rows(nu: np.ndarray, q: np.ndarray, p: np.ndarray) -> float:
    """sum_x nu_x KL(q_x || p_x), with 0 ln 0 = 0."""
    total = 0.0
    for x in range(len(nu)):
        mask = q[x] > 0.0
        if np.any(p[x][mask] <= 0.0):
            return float("inf")
        total += nu[x] * float(np.sum(q[x][mask] * np.log(q[x][mask] / p[x][mask])))
    return total


# -- checks -----------------------------------------------------------------


def certify_rate(spec: ChainSpec, ball: BallSet, report) -> str | None:
    """Re-certify a converged tail-rate report with independent calls."""
    if not report.converged:
        raise OpFailed(f"converged: false (kkt residual {report.residuals.kkt:.2e})")
    space = spec.space
    nu = report.nu_star.p
    dist = transport.w1(space, report.nu_star, ball.center).value
    if dist > ball.kappa + CERT_TOL:
        return f"nu_star lies {dist:.6f} from the center, beyond kappa {ball.kappa}"
    pk = spec.kernel.rows
    pi_hat = report.pi_hat.rows
    for x in np.where(nu > 1e-8)[0]:
        row_hat = np.clip(pi_hat[x], 0.0, None)
        row = transport.w1(space, Dist(row_hat / row_hat.sum()), Dist(pk[x]))
        if row.value > spec.radius + CERT_TOL:
            return f"pi_hat row {x} lies {row.value:.6f} from its nominal row, beyond r"
    q = report.q_star.rows
    invariance = float(np.abs(nu @ q - nu).sum())
    if invariance > CERT_TOL:
        return f"q_star invariance residual {invariance:.2e}"
    value = kl_rows(nu, q, pi_hat)
    if abs(value - report.value) > CERT_TOL * (1.0 + abs(report.value)):
        return f"value {report.value:.8f} differs from sum nu KL(q||pi_hat) = {value:.8f}"
    return None


def check_envelope(lo: np.ndarray, hi: np.ndarray, stationary: np.ndarray) -> str | None:
    if np.any(lo > hi + STATIONARY_TOL):
        return "envelope has lo > hi"
    if np.any(stationary < lo - STATIONARY_TOL) or np.any(stationary > hi + STATIONARY_TOL):
        return "envelope does not contain the nominal stationary law"
    return None


# -- example ----------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _expect_exit(result, what: str) -> dict:
    code, text = result
    if code != 0:
        raise OpFailed(f"{what} exited with code {code}")
    return json.loads(text)


class Example:
    """The worked 3-state chain through the CLI, plus a library sweep."""

    min_batches = 2  # byte-identical output is compared across batches
    batch_s = 3.1

    def __init__(self, seed: int, outdir: str):
        self.chain_path = corpus.write_example_chain(outdir)
        self.sim_seed = corpus.example_items(seed, 0)["sim_seed"]
        self.spec = build_spec(corpus.EXAMPLE_CHAIN)
        self.stationary = stationary_law(self.spec.kernel.rows)
        self.first_output: dict[str, str] = {}

    def commands(self) -> list[tuple[str, list[str], Callable[[dict], str | None]]]:
        ball = ["--center", corpus.EXAMPLE_CENTER, "--kappa", str(corpus.EXAMPLE_KAPPA)]
        lengths = corpus.EXAMPLE_LENGTHS
        sim = ["--lengths", f"{lengths[0]}..{lengths[-1]}:{lengths[1] - lengths[0]}",
               "--paths", str(corpus.EXAMPLE_PATHS), "--seed", str(self.sim_seed),
               "--threads", str(THREADS)]
        return [
            ("check", ["check"], self._check_conditions),
            ("rate", ["rate", *ball], self._rate(EXAMPLE_ROBUST)),
            ("rate-nominal", ["rate", *ball, "--model", "Entropy"], self._rate(EXAMPLE_NOMINAL)),
            ("envelope", ["envelope", "--threads", str(THREADS)], self._envelope),
            ("wasserstein", ["wasserstein", "--mu", "1", "--nu", "3"], self._wasserstein),
            ("simulate", ["simulate", *ball, *sim], self._simulate(EXAMPLE_NOMINAL)),
            ("simulate-worst", ["simulate", *ball, *sim, "--worst-case"],
             self._simulate(EXAMPLE_ROBUST)),
        ]

    @staticmethod
    def _check_conditions(doc):
        return None if doc["m1_holds"] and doc["m2_holds"] else "conditions not witnessed"

    @staticmethod
    def _rate(expected):
        def check(doc):
            if not doc["converged"]:
                raise OpFailed("converged: false")
            if abs(doc["value"] - expected) > EXAMPLE_TOL:
                return f"rate {doc['value']:.4f}, expected {expected} +- {EXAMPLE_TOL}"
            return None
        return check

    def _envelope(self, doc):
        return check_envelope(np.asarray(doc["lo"]), np.asarray(doc["hi"]), self.stationary)

    @staticmethod
    def _wasserstein(doc):
        if abs(doc["value"] - 1.0) > 1e-9 or doc["duality_gap"] > 1e-9:
            return f"W1(1, 3) = {doc['value']} with gap {doc['duality_gap']}, expected 1"
        return None

    @staticmethod
    def _simulate(expected):
        def check(doc):
            est = doc["estimate"]
            hits = np.asarray(est["hits"])
            if np.any(hits < 0) or np.any(hits > corpus.EXAMPLE_PATHS):
                return "hit counts out of range"
            if abs(doc["analytic_rate"] - expected) > EXAMPLE_TOL:
                return f"analytic rate {doc['analytic_rate']:.4f}, expected {expected}"
            return None
        return check

    def ops(self, batch: int) -> list[Op]:
        out = []
        steps = corpus.EXAMPLE_PATHS * sum(corpus.EXAMPLE_LENGTHS)
        for name, args, judge in self.commands():
            argv = [args[0], "--chain", self.chain_path, "--reproducible", *args[1:]]
            out.append(
                Op(
                    f"cli {name}",
                    functools.partial(_cli, argv),
                    self._judge_cli(name, judge),
                    steps if args[0] == "simulate" else 0,
                )
            )
        for r in corpus.EXAMPLE_SWEEP_RADII:
            spec = self.spec.with_radius(r)
            for kappa in corpus.EXAMPLE_SWEEP_KAPPAS:
                ball = BallSet(Dist.dirac(2, 3), kappa)
                out.append(
                    Op(
                        f"tail_rate[kappa={kappa},r={r}]",
                        api("tail_rate", spec, ball),
                        self._judge_sweep(spec, ball, r, kappa),
                    )
                )
        return out

    def _judge_cli(self, name, judge):
        def check(result):
            doc = _expect_exit(result, f"cli {name}")
            text = result[1]
            first = self.first_output.setdefault(name, text)
            if text != first:
                return "output differs from the first --reproducible invocation"
            return judge(doc)
        return check

    @staticmethod
    def _judge_sweep(spec, ball, r, kappa):
        def check(report):
            bad = certify_rate(spec, ball, report)
            at_example = (kappa, r) == (corpus.EXAMPLE_KAPPA, corpus.EXAMPLE_CHAIN["r"])
            if bad is None and at_example and abs(report.value - EXAMPLE_ROBUST) > EXAMPLE_TOL:
                bad = f"rate {report.value:.4f}, expected {EXAMPLE_ROBUST} +- {EXAMPLE_TOL}"
            return bad
        return check


# -- scaled workloads -------------------------------------------------------


class ScaledRate:
    """tail_rate on random chains, n in RATE_SIZES, both metrics."""

    min_batches = 1
    batch_s = 2.7

    def __init__(self, seed: int, outdir: str):
        self.seed = seed

    def ops(self, batch: int) -> list[Op]:
        out = []
        for item in corpus.rate_items(self.seed, batch):
            spec = build_spec(item["chain"])
            ball = BallSet(Dist.dirac(item["center"], spec.space.n), item["kappa"])
            out.append(Op(item["name"], api("tail_rate", spec, ball),
                          functools.partial(certify_rate, spec, ball)))
        return out


class ScaledLLN:
    """Stationary envelopes, functional bounds and condition checks: LPs only."""

    min_batches = 1
    batch_s = 4.8

    def __init__(self, seed: int, outdir: str):
        self.seed = seed

    def ops(self, batch: int) -> list[Op]:
        out = []
        for item in corpus.lln_items(self.seed, batch):
            spec = build_spec(item["chain"])
            pi = stationary_law(spec.kernel.rows)
            w = np.asarray(item["weights"])
            name = item["name"]
            for variant in (Variant.BALL_INDICATOR, Variant.BALL_INDICATOR_AC):
                out.append(Op(f"envelope[{variant.name},{name}]",
                              api("envelope", spec, variant, threads=THREADS),
                              self._judge_envelope(pi)))
            for sign, label in ((1.0, "upper"), (-1.0, "lower")):
                out.append(Op(f"robust_functional_bound[{label},{name}]",
                              api("robust_functional_bound", spec,
                                  Variant.BALL_INDICATOR, sign * w),
                              self._judge_bound(sign * w, pi)))
            out.append(Op(f"check_conditions[{name}]",
                          api("check_conditions", spec),
                          self._judge_conditions(pi)))
        return out

    @staticmethod
    def _judge_envelope(pi):
        return lambda env: check_envelope(env.lo, env.hi, pi)

    @staticmethod
    def _judge_bound(w, pi):
        def check(result):
            best, argmax = result
            if best < float(w @ pi) - STATIONARY_TOL:
                return "bound lies below the functional at the nominal stationary law"
            if abs(float(w @ argmax.p) - best) > CERT_TOL:
                return "bound differs from the functional at its argmax"
            return None
        return check

    @staticmethod
    def _judge_conditions(pi):
        def check(report):
            if not (report.m1_holds and report.m2_holds and report.unique_invariant):
                return "conditions not witnessed on a positive kernel"
            if np.max(np.abs(report.invariant.p - pi)) > STATIONARY_TOL:
                return "invariant law differs from the stationary law"
            return None
        return check


class ScaledMC:
    """simulate_paths on Euclidean chains, where ball membership needs W1."""

    min_batches = 1
    batch_s = 7.2

    def __init__(self, seed: int, outdir: str):
        self.seed = seed

    def ops(self, batch: int) -> list[Op]:
        out = []
        for item in corpus.mc_items(self.seed, batch):
            spec = build_spec(item["chain"])
            n = spec.space.n
            ball = BallSet(Dist.dirac(item["center"], n), item["kappa"])
            plan = SimPlan(spec, spec.kernel, ball, tuple(item["lengths"]), item["paths"],
                           item["sim_seed"])
            out.append(Op(item["name"], api("simulate_paths", plan, threads=THREADS),
                          self._judge(plan),
                          item["paths"] * sum(item["lengths"])))
        return out

    @staticmethod
    def _judge(plan):
        def check(est):
            hits = np.asarray(est.hits)
            if hits.shape != (len(plan.lengths),):
                return "one hit count per length expected"
            if np.any(hits < 0) or np.any(hits > plan.paths_per_length):
                return "hit counts out of range"
            if not np.array_equal(est.p_hat, hits / plan.paths_per_length):
                return "p_hat differs from hits / paths"
            return None
        return check


WORKLOADS = {
    "example": Example,
    "scaled-rate": ScaledRate,
    "scaled-lln": ScaledLLN,
    "scaled-mc": ScaledMC,
}

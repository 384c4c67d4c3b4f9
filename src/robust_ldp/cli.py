"""Command-line front end: chain-spec files, machine-readable reports,
and plot-data emission.

Chain files are UTF-8 JSON documents with keys "states", "metric" (an
n-by-n matrix or the string "discrete"), "pi0", "kernel" and "r".  All
reports are JSON with a "schema_version" field; infinities are encoded as
the strings "inf"/"-inf" to stay within standard JSON.  A report record is
written field by field under the field's own name by ``report_to_dict`` and
read back from its field types by ``parse_report``.

Exit codes, stable for scripting: 0 success, 2 input error, 3 condition
check negative, 4 solver non-convergence, 5 unusable estimate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import typing
from datetime import datetime, timezone

import numpy as np

from .chain_core import (
    BallSet,
    ChainSpec,
    Dist,
    Kernel,
    MetricSpace,
    validate_chain,
)
from .divergence import MODEL_NAMES
from .montecarlo import RateEstimate, SimPlan, compare_rates, resolve_threads, simulate_paths
from .rate_solver import RateReport, sharpness_check, tail_rate
from .set_chain import ConditionReport, Envelope, check_conditions, envelope, robust_functional_bound
from .transport import dual_value, w1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONDITION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_UNUSABLE = 5

SCHEMA_VERSION = "1"


class InputError(Exception):
    """Malformed input, reported with a JSON-path style location."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _need(cond: bool, path: str, message: str):
    if not cond:
        raise InputError(path, message)


def _finite(value: float, path: str) -> float:
    _need(math.isfinite(value), path, "expected a finite number")
    return value


def _as_number(value, path: str) -> float:
    _need(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        return _finite(float(value), path)
    except OverflowError:  # an integer literal beyond the float range
        raise InputError(path, "expected a finite number") from None


def _as_matrix(value, n: int, path: str) -> np.ndarray:
    _need(isinstance(value, list) and len(value) == n, path, f"expected {n} rows")
    out = np.zeros((n, n))
    for i, row in enumerate(value):
        _need(isinstance(row, list) and len(row) == n, f"{path}[{i}]", f"expected {n} entries")
        for j, v in enumerate(row):
            out[i, j] = _as_number(v, f"{path}[{i}][{j}]")
    return out


def load_chain_file(path: str) -> ChainSpec:
    """Parse and validate a chain-spec file; raises InputError carrying the
    JSON path of the first violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError("$", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError("$", f"invalid JSON: {exc}") from None
    _need(isinstance(doc, dict), "$", "expected a JSON object")
    for key in ("states", "metric", "pi0", "kernel", "r"):
        _need(key in doc, f"$.{key}", "missing required key")
    states = doc["states"]
    _need(
        isinstance(states, list) and states and all(isinstance(s, str) for s in states),
        "$.states",
        "expected a nonempty array of strings",
    )
    n = len(states)
    if doc["metric"] == "discrete":
        space = MetricSpace(tuple(states), 1.0 - np.eye(n))
    else:
        space = MetricSpace(tuple(states), _as_matrix(doc["metric"], n, "$.metric"))
    _need(isinstance(doc["pi0"], list) and len(doc["pi0"]) == n, "$.pi0", f"expected {n} entries")
    pi0 = np.array([_as_number(v, f"$.pi0[{i}]") for i, v in enumerate(doc["pi0"])])
    kernel = _as_matrix(doc["kernel"], n, "$.kernel")
    r = _as_number(doc["r"], "$.r")

    raw = ChainSpec(space, Dist(pi0), Kernel(kernel), r)
    violations = validate_chain(raw)
    if violations:
        raise InputError(violations[0].path, violations[0].message)
    # Renormalize once at load; exact thereafter.
    return ChainSpec(space, Dist.from_values(pi0), Kernel.from_matrix(kernel), r)


def parse_dist(arg: str, space: MetricSpace, flag: str) -> Dist:
    """A state label (Dirac) or comma-separated masses."""
    if arg in space.labels:
        return Dist.dirac(space.labels.index(arg), space.n)
    parts = arg.split(",")
    if len(parts) != space.n:
        raise InputError(flag, f"expected a state label or {space.n} comma-separated masses")
    try:
        values = [_finite(float(p), flag) for p in parts]
    except ValueError:
        raise InputError(flag, "expected numeric masses") from None
    try:
        return Dist.from_values(values, path=flag)
    except ValueError as exc:
        raise InputError(flag, str(exc)) from None


def parse_lengths(arg: str, flag: str) -> tuple[int, ...]:
    m = re.fullmatch(r"(\d+)\.\.(\d+):(\d+)", arg)
    if not m:
        raise InputError(flag, "expected A..B:S, e.g. 40..160:20")
    a, b, s = (int(g) for g in m.groups())
    if a < 1 or s < 1 or b < a:
        raise InputError(flag, "need 1 <= A <= B and step >= 1")
    return tuple(range(a, b + 1, s))


def _encode(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        return _encode(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def _decode_float(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


REPORT_KINDS = {
    RateReport: "rate_report",
    Envelope: "envelope",
    ConditionReport: "condition_report",
    RateEstimate: "rate_estimate",
}


def _fields_of(record) -> dict:
    """A record's fields under their own names: a Dist as its masses, a
    Kernel as its rows, a nested record as an object."""
    out = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Dist):
            value = value.p
        elif isinstance(value, Kernel):
            value = value.rows
        elif dataclasses.is_dataclass(value):
            value = _fields_of(value)
        out[f.name] = value
    return out


def report_to_dict(report) -> dict:
    return _encode({
        "schema_version": SCHEMA_VERSION,
        "kind": REPORT_KINDS[type(report)],
        **_fields_of(report),
    })


def _decode_value(tp, value):
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
    if tp is float:
        return _decode_float(value)
    if tp is np.ndarray:
        return np.array(value)
    if isinstance(value, dict):  # a nested record
        return _decode_record(tp, value)
    return tp(value)  # Dist, Kernel, bool, int, str


def _decode_record(cls, doc: dict):
    hints = typing.get_type_hints(cls)
    return cls(**{f.name: _decode_value(hints[f.name], doc[f.name])
                  for f in dataclasses.fields(cls)})


def parse_report(doc: dict):
    """The record a ``report_to_dict`` document describes."""
    kind = doc.get("kind")
    for cls, tag in REPORT_KINDS.items():
        if tag == kind:
            return _decode_record(cls, doc)
    raise InputError("$.kind", f"unknown report kind {kind!r}")


def _emit(payload: dict, args, extra_file: str | None = None):
    doc = dict(payload)
    if not getattr(args, "reproducible", False):
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(_encode(doc), indent=2, sort_keys=True)
    print(text)
    if extra_file:
        with open(extra_file, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def write_plot_csv(path: str, estimate: RateEstimate):
    lines = ["n,hits,p_hat,ln_p_hat"]
    for n, h, p in zip(estimate.lengths, estimate.hits, estimate.p_hat):
        ln_p = math.log(p) if p > 0 else -math.inf
        lines.append(f"{int(n)},{int(h)},{float(p)},{ln_p}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_check(args) -> int:
    spec = load_chain_file(args.chain)
    _need(args.max_exponent is None or args.max_exponent >= 1, "--max-exponent", "must be >= 1")
    report = check_conditions(spec, args.max_exponent)
    _emit(report_to_dict(report), args)
    return EXIT_OK if (report.m1_holds and report.m2_holds) else EXIT_CONDITION


def parse_threads(args) -> int | None:
    _need(args.threads is None or args.threads >= 1, "--threads", "must be >= 1")
    return args.threads


def parse_ball(args, space: MetricSpace) -> BallSet:
    _need(_finite(args.kappa, "--kappa") >= 0.0, "--kappa", "must be nonnegative")
    return BallSet(parse_dist(args.center, space, "--center"), args.kappa)


def cmd_rate(args) -> int:
    spec = load_chain_file(args.chain)
    ball = parse_ball(args, spec.space)
    report = tail_rate(spec, ball, MODEL_NAMES[args.model])
    payload = report_to_dict(report)
    payload["nonvacuous"] = bool(report.value > 0.0)
    payload["sharp"] = (
        sharpness_check(spec, report)
        if report.converged and math.isfinite(report.value)
        else None
    )
    _emit(payload, args, extra_file=args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_envelope(args) -> int:
    spec = load_chain_file(args.chain)
    variant = MODEL_NAMES[args.model]
    threads = resolve_threads(parse_threads(args))
    if args.weights is not None:
        parts = args.weights.split(",")
        if len(parts) != spec.space.n:
            raise InputError("--weights", f"expected {spec.space.n} comma-separated numbers")
        try:
            weights = [_finite(float(p), "--weights") for p in parts]
        except ValueError:
            raise InputError("--weights", "expected numeric weights") from None
        best, argmax = robust_functional_bound(spec, variant, weights)
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "functional_bound",
                "max": best,
                "argmax": argmax.p,
                "weights": weights,
            },
            args,
        )
        return EXIT_OK
    env = envelope(spec, variant, threads=threads)
    payload = report_to_dict(env)
    payload["states"] = list(spec.space.labels)
    _emit(payload, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_chain_file(args.chain)
    ball = parse_ball(args, spec.space)
    _need(_finite(args.rel_tol, "--rel-tol") >= 0.0, "--rel-tol", "must be nonnegative")
    _need(args.paths >= 1, "--paths", "must be >= 1")
    _need(0 <= args.seed < 2**64, "--seed", "must be an unsigned 64-bit integer")
    threads = resolve_threads(parse_threads(args))
    variant = MODEL_NAMES[args.model]
    if args.worst_case:
        solved = tail_rate(spec, ball, variant)
        play, played = solved.pi_hat, "worst_case"
    else:
        solved = tail_rate(spec.with_radius(0.0), ball, variant)
        play, played = spec.kernel, "nominal"
    if not solved.converged:
        _emit(report_to_dict(solved), args)
        return EXIT_NO_CONVERGENCE
    analytic = solved.value
    plan = SimPlan(spec, play, ball, parse_lengths(args.lengths, "--lengths"), args.paths, args.seed)
    estimate = simulate_paths(plan, threads=threads)
    verdict = compare_rates(analytic, estimate, args.rel_tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation",
        "played": played,
        "analytic_rate": analytic,
        "estimate": report_to_dict(estimate),
        "verdict": _fields_of(verdict),
    }
    _emit(payload, args)
    if args.plot:
        write_plot_csv(args.plot, estimate)
    return EXIT_OK if estimate.usable else EXIT_UNUSABLE


def cmd_wasserstein(args) -> int:
    spec = load_chain_file(args.chain)
    mu = parse_dist(args.mu, spec.space, "--mu")
    nu = parse_dist(args.nu, spec.space, "--nu")
    value, plan, potential = w1(spec.space, mu, nu)
    dual = dual_value(potential, mu, nu)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "wasserstein",
            "value": value,
            "plan": plan.gamma,
            "potential": potential.f,
            "duality_gap": abs(value - dual),
        },
        args,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-ldp",
        description="Robust large-deviations rates, worst-case kernels and "
        "stationary envelopes for finite Markov chains with Wasserstein "
        "kernel ambiguity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--chain", required=True, help="chain-spec JSON file")
        p.add_argument(
            "--reproducible",
            action="store_true",
            help="suppress the timestamp field for byte-identical output",
        )

    p = sub.add_parser("check", help="verify the chain conditions")
    common(p)
    p.add_argument("--max-exponent", type=int, default=None, help="search bound (default n^2+n)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rate", help="worst-case tail rate for a Wasserstein ball")
    common(p)
    p.add_argument("--center", required=True, help="ball center: state label or comma-separated masses")
    p.add_argument("--kappa", type=float, required=True, help="ball radius")
    p.add_argument(
        "--model",
        default="RobustEntropy",
        choices=["RobustEntropy", "RobustEntropyAC", "Entropy"],
    )
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("envelope", help="stationary envelope or linear-functional bound")
    common(p)
    p.add_argument(
        "--model", default="BallIndicator", choices=["BallIndicator", "BallIndicatorAC"]
    )
    p.add_argument("--weights", default=None, help="comma-separated weights for a functional bound")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("simulate", help="Monte Carlo validation of the decay rate")
    common(p)
    p.add_argument("--center", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--worst-case", action="store_true", help="simulate under the worst-case kernel")
    p.add_argument("--lengths", default="40..160:20", help="path lengths as A..B:S")
    p.add_argument("--paths", type=int, default=200000, help="paths per length")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rel-tol", type=float, default=0.2, help="relative slope tolerance")
    p.add_argument("--plot", default=None, help="write plot data CSV here")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument(
        "--model",
        default="RobustEntropy",
        choices=["RobustEntropy", "RobustEntropyAC", "Entropy"],
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("wasserstein", help="W1 distance between two laws on the chain's space")
    common(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(func=cmd_wasserstein)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error at {exc.path}: {exc.message}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

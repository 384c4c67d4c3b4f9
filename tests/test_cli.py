import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from robust_ldp import Dist, Kernel, RateEstimate, RateReport, Residuals, cli
from robust_ldp.cli import InputError, main, parse_dist, parse_lengths, parse_report, report_to_dict
from robust_ldp.set_chain import ConditionReport, Envelope

from conftest import EXAMPLE_STATIONARY, REPO_ROOT


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_chain(tmp_path, name="chain.json", **overrides):
    doc = {
        "states": ["1", "2", "3"],
        "metric": "discrete",
        "pi0": [0.0, 0.0, 1.0],
        "kernel": [[0.6, 0.2, 0.2], [0.3, 0.4, 0.3], [0.0, 0.3, 0.7]],
        "r": 0.05,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_example(capsys, example_chain_path):
    code, out, _ = run(capsys, ["check", "--chain", example_chain_path, "--reproducible"])
    assert code == 0
    doc = json.loads(out)
    assert doc["m1_holds"] and doc["m2_holds"]
    assert doc["l0"] == 2 and doc["n0"] == 2
    assert doc["schema_version"] == "1"
    assert "timestamp" not in doc


def test_check_identity_kernel_exits_3(capsys, tmp_path):
    path = write_chain(tmp_path, kernel=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, _ = run(capsys, ["check", "--chain", path, "--reproducible"])
    assert code == 3
    assert not json.loads(out)["m1_holds"]


def test_bad_row_sum_exits_2(capsys, tmp_path):
    path = write_chain(tmp_path, kernel=[[0.6, 0.2, 0.1], [0.3, 0.4, 0.3], [0.0, 0.3, 0.7]])
    code, _, err = run(capsys, ["check", "--chain", path])
    assert code == 2
    assert "$.kernel[0]" in err


@pytest.mark.parametrize("command", [["check"], ["rate", "--center", "a", "--kappa", "0.2"]])
def test_duplicate_state_label_exits_2(capsys, tmp_path, command):
    path = write_chain(tmp_path, states=["a", "a", "b"])
    code, out, err = run(capsys, [command[0], "--chain", path, *command[1:]])
    assert code == 2
    assert "input error at $.states[1]: duplicate label 'a'" in err
    assert out == ""


def test_missing_file_and_bad_json(capsys, tmp_path):
    code, _, err = run(capsys, ["check", "--chain", str(tmp_path / "nope.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["check", "--chain", str(bad)])
    assert code == 2
    assert "invalid JSON" in err


def test_missing_key_has_json_path(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"states": ["a"], "metric": "discrete", "pi0": [1.0]}))
    code, _, err = run(capsys, ["check", "--chain", str(path)])
    assert code == 2
    assert "$.kernel" in err


def test_rate_command_robust_value(capsys, example_chain_path):
    code, out, _ = run(
        capsys,
        ["rate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.2", "--reproducible"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.0511, abs=0.002)
    assert doc["sharp"] is True
    assert doc["nonvacuous"] is True
    assert doc["converged"] is True


def test_rate_command_nominal_value(capsys, tmp_path):
    path = write_chain(tmp_path, r=0.0)
    code, out, _ = run(
        capsys, ["rate", "--chain", path, "--center", "3", "--kappa", "0.2", "--reproducible"]
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0910, abs=0.002)


def test_rate_command_whole_simplex_ball(capsys, example_chain_path):
    code, out, _ = run(
        capsys,
        ["rate", "--chain", example_chain_path, "--center", "3", "--kappa", "1.0", "--reproducible"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 0.0
    assert doc["nonvacuous"] is False


def test_rate_command_small_positive_rate_is_nonvacuous(capsys, example_chain_path):
    # kappa is 1.4e-4 below kappa* = 35/79, where the rate is about 1.5e-8.
    code, out, _ = run(
        capsys,
        ["rate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.4429", "--reproducible"],
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 < doc["value"] < 1e-6
    assert doc["nonvacuous"] is True


def test_rate_out_file(capsys, tmp_path, example_chain_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        [
            "rate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.2",
            "--reproducible", "--out", str(out_file),
        ],
    )
    assert code == 0
    assert json.loads(out_file.read_text())["value"] == json.loads(out)["value"]


def test_envelope_command(capsys, tmp_path):
    path = write_chain(tmp_path, r=0.0)
    code, out, _ = run(capsys, ["envelope", "--chain", path, "--reproducible"])
    assert code == 0
    doc = json.loads(out)
    assert np.max(np.abs(np.array(doc["lo"]) - EXAMPLE_STATIONARY)) <= 1e-6
    assert np.max(np.abs(np.array(doc["hi"]) - EXAMPLE_STATIONARY)) <= 1e-6


def test_envelope_weights(capsys, tmp_path):
    path = write_chain(tmp_path, r=0.0)
    code, out, _ = run(
        capsys, ["envelope", "--chain", path, "--weights", "0,0,1", "--reproducible"]
    )
    assert code == 0
    assert json.loads(out)["max"] == pytest.approx(6 / 13, abs=1e-8)


LAZY_LP_PROBE = """
import contextlib, io, json, sys
import robust_ldp, robust_ldp.cli as cli
from robust_ldp import _entropic, set_chain, transport
from robust_ldp import BallSet, Dist, SimPlan, Variant, robust_functional_bound, simulate_paths


def lazy_modules():  # scipy and numpy.ma
    return sorted(name for name in sys.modules if name.startswith("scipy") or name == "numpy.ma")


chain = sys.argv[1]
loaded = {"import": lazy_modules()}
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["check", "--chain", chain, "--reproducible"]))
    loaded["check"] = lazy_modules()
    codes.append(cli.main(["envelope", "--chain", chain, "--reproducible"]))
    loaded["envelope"] = lazy_modules()
spec = cli.load_chain_file(chain)
bound, _ = robust_functional_bound(spec, Variant.BALL_INDICATOR, [0.0, 0.0, 1.0])
loaded["robust_functional_bound"] = lazy_modules()
ball = BallSet(Dist.dirac(2, 3), 0.2)
estimate = simulate_paths(SimPlan(spec, spec.kernel, ball, (10, 20), 2000, 7), threads=1)
loaded["simulate_paths"] = lazy_modules()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(cli.main(["rate", "--chain", chain, "--center", "3", "--kappa", "0.2", "--reproducible"]))
rate = json.loads(out.getvalue())["value"]
loaded["rate"] = [name for name in ("scipy.linalg", "scipy.optimize", "scipy.sparse") if name in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(cli.main(["rate", "--chain", sys.argv[2], "--center", "e", "--kappa", "0.25",
                           "--model", "Entropy", "--reproducible"]))
entropy_rate = json.loads(out.getvalue())["value"]
loaded["entropy_rate"] = "scipy.optimize" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(cli.main(["wasserstein", "--chain", chain, "--mu", "1", "--nu", "3", "--reproducible"]))
print(json.dumps({
    "loaded": loaded,
    "codes": codes,
    "bound": bound,
    "lengths": estimate.lengths.tolist(),
    "rate": rate,
    "entropy_rate": entropy_rate,
    "value": json.loads(out.getvalue())["value"],
    "shared": transport.linprog is set_chain.linprog is _entropic.linprog,
}))
"""


def test_lp_solver_loads_at_the_first_lp(example_chain_path):
    """In a fresh interpreter, importing the package, running check and
    envelope, a functional bound and a Dirac-centre simulation load no
    scipy module and no ``numpy.ma``; the first rate program, a
    Dirac-centre one, loads scipy's sparse and linalg modules but not its
    LP solver, and reports the worked robust rate.  A nominal (Entropy)
    rate on a kernel with full support has no support mask, so it starts
    the barrier in closed form and still loads no LP solver."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    euclid7 = str(REPO_ROOT / "examples" / "euclid7_chain.json")
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_LP_PROBE, example_chain_path, euclid7],
        env=env, capture_output=True, text=True, check=True,
    )
    doc = json.loads(proc.stdout)
    numpy_only = ("import", "check", "envelope", "robust_functional_bound", "simulate_paths")
    assert {k: doc["loaded"][k] for k in numpy_only} == {k: [] for k in numpy_only}
    assert doc["loaded"]["rate"] == ["scipy.linalg", "scipy.sparse"]
    assert doc["loaded"]["entropy_rate"] is False
    assert doc["codes"] == [0, 0, 0, 0, 0]
    assert doc["entropy_rate"] > 0.0
    assert 0.0 < doc["bound"] < 1.0
    assert doc["lengths"] == [10, 20]
    assert doc["rate"] == pytest.approx(0.0511, abs=0.002)
    assert doc["value"] == pytest.approx(1.0, abs=1e-12)
    assert doc["shared"]


def test_wasserstein_command(capsys, example_chain_path, tmp_path):
    code, out, _ = run(
        capsys,
        ["wasserstein", "--chain", example_chain_path, "--mu", "1", "--nu", "1", "--reproducible"],
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)

    code, out, _ = run(
        capsys,
        ["wasserstein", "--chain", example_chain_path, "--mu", "1", "--nu", "3", "--reproducible"],
    )
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1.0, abs=1e-12)
    assert all(math.copysign(1.0, v) == 1.0 for row in doc["plan"] for v in row)

    two = tmp_path / "two.json"
    two.write_text(
        json.dumps(
            {
                "states": ["a", "b"],
                "metric": [[0.0, 1.0], [1.0, 0.0]],
                "pi0": [1.0, 0.0],
                "kernel": [[0.5, 0.5], [0.5, 0.5]],
                "r": 0.0,
            }
        )
    )
    code, out, _ = run(
        capsys,
        ["wasserstein", "--chain", str(two), "--mu", "0.3,0.7", "--nu", "0.5,0.5", "--reproducible"],
    )
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.2, abs=1e-9)
    assert doc["duality_gap"] <= 1e-9


def test_simulate_command_small(capsys, tmp_path, example_chain_path):
    plot = tmp_path / "plot.csv"
    code, out, _ = run(
        capsys,
        [
            "simulate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.2",
            "--paths", "4000", "--lengths", "20..60:20", "--seed", "5",
            "--reproducible", "--plot", str(plot),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["played"] == "nominal"
    assert doc["estimate"]["usable"] is True
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "n,hits,p_hat,ln_p_hat"
    assert len(lines) == 4


def test_simulate_unusable_exits_5(capsys, tmp_path):
    path = write_chain(
        tmp_path, kernel=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], pi0=[1.0, 0.0, 0.0], r=0.0
    )
    plot = tmp_path / "zero.csv"
    code, out, _ = run(
        capsys,
        [
            "simulate", "--chain", path, "--center", "3", "--kappa", "0.1",
            "--paths", "200", "--lengths", "5..10:5", "--reproducible",
            "--plot", str(plot),
        ],
    )
    assert code == 5
    assert json.loads(out)["verdict"]["status"] == "insufficient data"
    rows = plot.read_text().strip().splitlines()
    assert rows[1].endswith("-inf") and rows[2].endswith("-inf")


@pytest.mark.parametrize("extra", [[], ["--worst-case"]], ids=["nominal", "worst-case"])
def test_simulate_unconverged_rate_exits_4(capsys, monkeypatch, tmp_path, example_chain_path, extra):
    # The rate a simulation is compared with must have converged, whichever
    # kernel is played; otherwise the report is printed and nothing is run.
    real = cli.tail_rate

    def unconverged(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(cli, "tail_rate", unconverged)
    monkeypatch.setattr(cli, "simulate_paths", None)
    plot = tmp_path / "plot.csv"
    code, out, _ = run(capsys, [*SIMULATE[:1], "--chain", example_chain_path, *SIMULATE[1:],
                                *extra, "--reproducible", "--plot", str(plot)])
    assert code == 4
    doc = json.loads(out)
    assert doc["kind"] == "rate_report" and doc["converged"] is False
    assert not plot.exists()


def test_simulate_identity_chain_slope_zero(capsys, tmp_path):
    path = write_chain(
        tmp_path, kernel=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], pi0=[0.0, 0.0, 1.0], r=0.0
    )
    code, out, _ = run(
        capsys,
        [
            "simulate", "--chain", path, "--center", "3", "--kappa", "0",
            "--paths", "500", "--lengths", "5..15:5", "--reproducible",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"]["slope"] == pytest.approx(0.0, abs=1e-12)
    assert doc["analytic_rate"] == 0.0
    assert doc["verdict"]["status"] == "pass"


def test_rate_ac_model(capsys, example_chain_path):
    code, out, _ = run(
        capsys,
        [
            "rate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.2",
            "--model", "RobustEntropyAC", "--reproducible",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.0511, abs=0.002)


TRANSIENT3_CHAIN = str(REPO_ROOT / "examples" / "transient3_chain.json")


def test_rate_on_a_chain_with_a_transient_state(capsys):
    # Three phase-one rounds certify forced zeros before the barrier starts.
    code, out, _ = run(capsys, ["rate", "--chain", TRANSIENT3_CHAIN, "--center", "a",
                                "--kappa", "0.25", "--model", "Entropy", "--reproducible"])
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] and doc["value"] == pytest.approx(0.0033668, abs=1e-7)


@pytest.mark.parametrize("kappa", ["0.220000022", "0.2200000022"])
@pytest.mark.parametrize("model", ["Entropy", "RobustEntropyAC"])
def test_phase_one_start_with_a_zero_coordinate_exits_4(capsys, model, kappa):
    # Just outside the tangent kappa = 0.22, phase one reports a positive
    # least coordinate at a point with an exact zero, from which the barrier
    # cannot start: a degenerate solve, exit 4, not an input error.
    code, out, err = run(capsys, ["rate", "--chain", TRANSIENT3_CHAIN, "--center", "a",
                                  "--kappa", kappa, "--model", model, "--reproducible"])
    assert code == 4 and err == ""
    assert json.loads(out)["converged"] is False


def test_byte_identical_reproducible_output(capsys, example_chain_path):
    _, out1, _ = run(
        capsys,
        ["rate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.2", "--reproducible"],
    )
    _, out2, _ = run(
        capsys,
        ["rate", "--chain", example_chain_path, "--center", "3", "--kappa", "0.2", "--reproducible"],
    )
    assert out1 == out2


def test_timestamp_present_by_default(capsys, example_chain_path):
    _, out, _ = run(capsys, ["check", "--chain", example_chain_path])
    assert "timestamp" in json.loads(out)


def test_parse_lengths():
    assert parse_lengths("40..160:20", "--lengths") == tuple(range(40, 161, 20))
    with pytest.raises(Exception):
        parse_lengths("40..160", "--lengths")


def test_parse_dist_label_and_masses(example_space):
    d = parse_dist("3", example_space, "--center")
    assert np.array_equal(d.p, [0.0, 0.0, 1.0])
    d = parse_dist("0.2,0.3,0.5", example_space, "--center")
    assert np.allclose(d.p, [0.2, 0.3, 0.5])
    with pytest.raises(Exception):
        parse_dist("0.2,0.3", example_space, "--center")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "overrides, path",
    [
        pytest.param({"pi0": [NAN, 0.0, 1.0]}, "$.pi0[0]", id="pi0-nan"),
        pytest.param({"r": NAN}, "$.r", id="r-nan"),
        pytest.param({"r": INF}, "$.r", id="r-inf"),
        pytest.param(
            {"kernel": [[0.6, 0.2, 0.2], [0.3, 0.4, -INF], [0.0, 0.3, 0.7]]},
            "$.kernel[1][2]",
            id="kernel-neg-inf",
        ),
        pytest.param(
            {"metric": [[0, 1, 1], [1, 0, NAN], [1, 1, 0]]}, "$.metric[1][2]", id="metric-nan"
        ),
        pytest.param({"r": 10**400}, "$.r", id="r-int-beyond-float"),
    ],
)
def test_non_finite_file_value_exits_2(capsys, tmp_path, overrides, path):
    chain = write_chain(tmp_path, **overrides)
    code, _, err = run(capsys, ["rate", "--chain", chain, "--center", "3", "--kappa", "0.2"])
    assert code == 2
    assert f"input error at {path}:" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["rate", "--center", "3", "--kappa", "nan"], "--kappa", id="rate-kappa-nan"),
        pytest.param(
            ["simulate", "--center", "3", "--kappa", "inf"], "--kappa", id="simulate-kappa-inf"
        ),
        pytest.param(
            ["simulate", "--center", "3", "--kappa", "-0.1"], "--kappa", id="simulate-kappa-neg"
        ),
        pytest.param(
            ["simulate", "--center", "3", "--kappa", "0.2", "--rel-tol", "nan"],
            "--rel-tol",
            id="rel-tol-nan",
        ),
        pytest.param(["envelope", "--weights", "0,nan,1"], "--weights", id="weights-nan"),
        pytest.param(
            ["rate", "--center", "0.5,nan,0.5", "--kappa", "0.2"], "--center", id="center-nan"
        ),
        pytest.param(
            ["simulate", "--center", "0.5,inf,0.5", "--kappa", "0.2"], "--center", id="center-inf"
        ),
        pytest.param(["wasserstein", "--mu", "nan,0,1", "--nu", "3"], "--mu", id="mu-nan"),
        pytest.param(["wasserstein", "--mu", "1", "--nu", "0,-inf,1"], "--nu", id="nu-neg-inf"),
    ],
)
def test_non_finite_flag_exits_2(capsys, example_chain_path, argv, flag):
    code, _, err = run(capsys, [argv[0], "--chain", example_chain_path, *argv[1:]])
    assert code == 2
    assert f"input error at {flag}:" in err


@pytest.mark.parametrize(
    "argv, where",
    [
        pytest.param(["wasserstein", "--mu", "1", "--nu", "0,-0.5,1.5"], "--nu[1]", id="nu"),
        pytest.param(["wasserstein", "--mu", "0.2,-0.2,1", "--nu", "3"], "--mu[1]", id="mu"),
        pytest.param(
            ["rate", "--center", "0.5,0.6,-0.1", "--kappa", "0.2"], "--center[2]", id="center"
        ),
    ],
)
def test_bad_flag_mass_is_reported_under_the_flag(capsys, example_chain_path, argv, where):
    code, _, err = run(capsys, [argv[0], "--chain", example_chain_path, *argv[1:]])
    assert code == 2
    assert f"{where}: negative mass" in err
    assert "$.pi0" not in err


SIMULATE = ["simulate", "--center", "3", "--kappa", "0.2", "--lengths", "10..20:10"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param([*SIMULATE, "--threads", "0"], "--threads", id="simulate-threads-0"),
        pytest.param(["envelope", "--threads", "-3"], "--threads", id="envelope-threads-neg"),
        pytest.param(
            ["envelope", "--weights", "0,0,1", "--threads", "0"],
            "--threads",
            id="envelope-weights-threads-0",
        ),
        pytest.param([*SIMULATE, "--paths", "0"], "--paths", id="paths-0"),
        pytest.param([*SIMULATE, "--seed", "-1"], "--seed", id="seed-neg"),
        pytest.param([*SIMULATE, "--seed", str(2**64)], "--seed", id="seed-beyond-64-bit"),
        pytest.param([*SIMULATE, "--rel-tol", "-1"], "--rel-tol", id="rel-tol-neg"),
        pytest.param(["check", "--max-exponent", "0"], "--max-exponent", id="max-exponent-0"),
    ],
)
def test_out_of_range_flag_exits_2(capsys, monkeypatch, example_chain_path, argv, flag):
    monkeypatch.delenv("ROBUST_LDP_THREADS", raising=False)
    code, out, err = run(capsys, [argv[0], "--chain", example_chain_path, *argv[1:]])
    assert code == 2
    assert f"input error at {flag}:" in err
    assert out == ""


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_thread_variable_is_named(capsys, monkeypatch, example_chain_path, value):
    monkeypatch.setenv("ROBUST_LDP_THREADS", value)
    code, out, err = run(capsys, ["simulate", "--chain", example_chain_path, *SIMULATE[1:]])
    assert code == 2
    assert "ROBUST_LDP_THREADS" in err
    assert "invalid literal" not in err
    assert out == ""


@pytest.mark.parametrize("weights", [[], ["--weights", "0,0,1"]], ids=["envelope", "weights"])
@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_envelope_checks_the_thread_variable(capsys, monkeypatch, example_chain_path, value, weights):
    monkeypatch.setenv("ROBUST_LDP_THREADS", value)
    code, out, err = run(capsys, ["envelope", "--chain", example_chain_path, *weights])
    assert code == 2
    assert "ROBUST_LDP_THREADS" in err
    assert out == ""


def test_bad_center_exits_2(capsys, example_chain_path):
    code, _, err = run(
        capsys,
        ["rate", "--chain", example_chain_path, "--center", "zzz,1", "--kappa", "0.1"],
    )
    assert code == 2


def round_trip(record):
    return parse_report(json.loads(json.dumps(report_to_dict(record))))


def test_report_round_trips(example_spec):
    report = RateReport(
        0.0511,
        Dist(np.array([0.042, 0.158, 0.8])),
        Kernel(example_spec.kernel.rows),
        Kernel(example_spec.kernel.rows),
        Residuals(1e-10, 1e-12, 1e-14),
        True,
    )
    assert round_trip(report) == report

    infinite = RateReport(
        math.inf, report.nu_star, report.q_star, report.pi_hat, report.residuals, True
    )
    doc = report_to_dict(infinite)
    assert doc["value"] == "inf"
    again = parse_report(json.loads(json.dumps(doc)))
    assert again == infinite

    env = Envelope(np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6]))
    assert round_trip(env) == env

    cond = ConditionReport(True, 2, 2, True, Dist(np.array([0.5, 0.5])), True, None)
    assert round_trip(cond) == cond

    no_invariant = ConditionReport(False, None, None, False, None, False, "no support cycle")
    assert round_trip(no_invariant) == no_invariant

    est = RateEstimate(
        np.array([40, 60]),
        np.array([100, 10]),
        np.array([0.01, 0.001]),
        0.09,
        0.002,
        np.array([40, 60]),
        np.array([40, 60]),
        True,
        "ok",
    )
    assert round_trip(est) == est

    unusable = RateEstimate(
        np.array([5, 10]),
        np.array([0, 0]),
        np.array([0.0, 0.0]),
        None,
        None,
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        False,
        "all hit counts are zero",
    )
    assert round_trip(unusable) == unusable

    # generic dispatch
    assert parse_report(report_to_dict(report)) == report

    with pytest.raises(InputError) as raised:
        parse_report({"kind": "nope"})
    assert raised.value.path == "$.kind"

import time

import numpy as np
import pytest

from robust_ldp import (
    ChainSpec,
    Dist,
    Kernel,
    MetricSpace,
    ValidationError,
    empirical_measure,
    k_step_kernel,
    validate_chain,
)
from robust_ldp.chain_core import validate_metric

from oracles import metric_violations_by_loops


def test_example_chain_is_valid(example_spec):
    assert validate_chain(example_spec) == []


def test_bad_row_sum_names_the_row(example_space):
    kernel = Kernel(np.array([[0.6, 0.2, 0.2], [0.3, 0.3, 0.3], [0.0, 0.3, 0.7]]))
    spec = ChainSpec(example_space, Dist.dirac(2, 3), kernel, 0.05)
    violations = validate_chain(spec)
    assert len(violations) == 1
    assert violations[0].path == "$.kernel[1]"
    assert violations[0].magnitude == pytest.approx(0.1)


def test_triangle_violation_names_the_triple():
    dist = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    space = MetricSpace(("a", "b", "c"), dist)
    spec = ChainSpec(space, Dist.dirac(0, 3), Kernel(np.eye(3)), 0.0)
    violations = validate_chain(spec)
    paths = {v.path for v in violations}
    assert "$.metric[0][1]" in paths
    assert any("via 2" in v.message for v in violations)


def test_negative_radius_flagged(example_space):
    spec = ChainSpec(example_space, Dist.dirac(2, 3), Kernel(np.eye(3)), -0.1)
    assert any(v.path == "$.r" for v in validate_chain(spec))


def test_non_finite_values_flagged(example_space):
    nan = float("nan")
    spec = ChainSpec(example_space, Dist(np.array([nan, 0.0, 1.0])), Kernel(np.eye(3)), nan)
    paths = {v.path for v in validate_chain(spec)}
    assert {"$.pi0[0]", "$.r"} <= paths
    spec = ChainSpec(example_space, Dist.dirac(2, 3), Kernel(np.eye(3)), float("inf"))
    assert any(v.path == "$.r" for v in validate_chain(spec))
    with pytest.raises(ValidationError):
        Dist.from_values([nan, 0.5, 0.5])


def test_factories_reject_bad_input():
    with pytest.raises(ValidationError):
        Dist.from_values([0.5, 0.6])
    with pytest.raises(ValidationError):
        Dist.from_values([-0.1, 1.1])
    with pytest.raises(ValidationError):
        Kernel.from_matrix([[0.9, 0.0], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        MetricSpace.from_matrix(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])


def test_duplicate_label_is_rejected():
    with pytest.raises(ValidationError) as info:
        MetricSpace.from_matrix(["a", "b", "a"], 1.0 - np.eye(3))
    assert [(v.path, v.message) for v in info.value.violations] == [
        ("$.states[2]", "duplicate label 'a'")
    ]


def test_load_normalization_is_exact():
    d = Dist.from_values([0.3 + 2e-13, 0.7])
    assert d.p.sum() == pytest.approx(1.0, abs=0)


def test_arrays_are_frozen(example_spec):
    with pytest.raises(ValueError):
        example_spec.kernel.rows[0, 0] = 0.0


def test_k_step_identity(example_spec):
    assert k_step_kernel(example_spec.kernel, 1) == example_spec.kernel


def test_k_step_two_steps(example_spec):
    two = k_step_kernel(example_spec.kernel, 2)
    assert two.rows[2, 0] == pytest.approx(0.09, abs=1e-15)


def test_k_step_absorbing_state():
    kernel = Kernel.from_matrix([[1.0, 0.0], [0.4, 0.6]])
    for k in (1, 2, 5, 17):
        assert np.allclose(k_step_kernel(kernel, k).rows[0], [1.0, 0.0])


def test_k_step_rejects_nonpositive(example_spec):
    with pytest.raises(ValueError):
        k_step_kernel(example_spec.kernel, 0)


def test_chapman_kolmogorov():
    rng = np.random.default_rng(5)
    kernel = Kernel.from_matrix(rng.dirichlet(np.ones(4), size=4))
    for j, k in [(1, 2), (2, 3), (3, 4)]:
        lhs = k_step_kernel(kernel, j + k).rows
        rhs = k_step_kernel(kernel, j).rows @ k_step_kernel(kernel, k).rows
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize(
    "path,expected",
    [
        ((2, 2, 2), [0.0, 0.0, 1.0]),
        ((0, 1, 0, 1), [0.5, 0.5, 0.0]),
        ((0, 1, 2, 2), [0.25, 0.25, 0.5]),
    ],
)
def test_empirical_measure(path, expected):
    em = empirical_measure(path, 3)
    assert np.array_equal(em.p, np.array(expected))
    assert em.p.sum() == 1.0


def test_empirical_measure_exact_simplex():
    rng = np.random.default_rng(11)
    for _ in range(20):
        path = rng.integers(0, 5, size=int(rng.integers(1, 400)))
        em = empirical_measure(path, 5)
        assert abs(em.p.sum() - 1.0) <= 1e-12


def test_empirical_measure_empty_path():
    with pytest.raises(ValueError, match="empty path"):
        empirical_measure([], 3)


def test_dirac_and_labels(example_space):
    assert example_space.index_of("3") == 2
    with pytest.raises(KeyError):
        example_space.index_of("nope")
    d = Dist.dirac(1, 3)
    assert np.array_equal(d.p, [0.0, 1.0, 0.0])


def test_discrete_space_detection(example_space):
    assert example_space.is_discrete
    other = MetricSpace.from_matrix(["a", "b"], [[0.0, 2.0], [2.0, 0.0]])
    assert not other.is_discrete


def test_metric_violations_match_the_scalar_loops():
    """The vectorised metric check reports what the one-comparison-at-a-time
    loops report, in the same order, on a corpus of broken metrics."""
    rng = np.random.default_rng(130)
    corpus = [np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])]
    for n in (2, 3, 4, 6, 9):
        for _ in range(6):
            d = rng.uniform(0.1, 2.0, size=(n, n))
            d = 0.5 * (d + d.T)
            np.fill_diagonal(d, 0.0)
            mode = rng.integers(4 if n > 2 else 3)
            i, j = rng.choice(n, 2, replace=False)
            if mode == 0:
                d[i, j] += 0.5
            elif mode == 1:
                d[i, j] = d[j, i] = -rng.uniform(0.0, 1.0) * (rng.random() < 0.5)
            elif mode == 2:
                d[i, i] = 0.3
            else:
                d[i, j] = d[j, i] = 10.0
            corpus.append(d)
    for d in corpus:
        space = MetricSpace(tuple(str(k) for k in range(d.shape[0])), d)
        got = validate_metric(space)
        assert got == metric_violations_by_loops(d)
    assert sum(bool(metric_violations_by_loops(d)) for d in corpus) == len(corpus)


def test_large_chain_builds_quickly():
    """Building a 130-state discrete chain, metric checks included, takes
    under 0.2 s."""
    n = 130
    rows = np.random.default_rng(131).dirichlet(np.ones(n), size=n)
    start = time.perf_counter()
    ChainSpec.build(MetricSpace.discrete(n), np.full(n, 1.0 / n), rows, 0.05)
    assert time.perf_counter() - start < 0.2

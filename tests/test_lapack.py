"""``_lapack`` against ``scipy.linalg.cho_factor``/``cho_solve``: the same
LAPACK routines without scipy's argument handling, so the same bits.

Each test unbinds the routines first, so the binding at the first
``cho_factor`` call is exercised too.
"""

import numpy as np
import pytest
import scipy.linalg

from robust_ldp import _lapack


@pytest.fixture(autouse=True)
def unbound(monkeypatch):
    monkeypatch.setattr(_lapack, "_potrf", None)
    monkeypatch.setattr(_lapack, "_potrs", None)


@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_factor_and_solve_are_bit_identical_to_scipy(n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    b = rng.standard_normal(n)
    bs = rng.standard_normal((n, 3))

    c = _lapack.cho_factor(a)
    ref, _ = scipy.linalg.cho_factor(a, lower=True)
    assert np.array_equal(np.tril(c), np.tril(ref))
    for rhs in (b, bs):
        x = _lapack.cho_solve(c, rhs)
        assert np.array_equal(x, scipy.linalg.cho_solve((ref, True), rhs))


def test_not_positive_definite_raises_linalg_error():
    with pytest.raises(scipy.linalg.LinAlgError, match="not positive definite"):
        _lapack.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_nan_raises_value_error():
    with pytest.raises(ValueError):
        _lapack.cho_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_empty_matrix():
    c = _lapack.cho_factor(np.empty((0, 0)))
    assert c.shape == (0, 0)
    assert _lapack.cho_solve(c, np.empty(0)).shape == (0,)

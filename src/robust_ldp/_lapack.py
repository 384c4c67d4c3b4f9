"""Cholesky factor and solve straight through LAPACK.

These call the routines ``scipy.linalg.cho_factor``/``cho_solve`` call
(``potrf``/``potrs``), on float64 and the lower triangle only, without
scipy's per-call argument handling, which costs more than the
factorisation itself on the small matrices of the Newton step.  Results
are bit-identical to scipy's.  The routines are bound at the first
``cho_factor`` call, so importing this module loads numpy only.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

_potrf = _potrs = None


def _bind() -> None:
    global _potrf, _potrs
    from scipy.linalg import get_lapack_funcs

    _potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix ``a`` (the strict
    upper triangle of the result is left as ``a`` had it).

    Raises LinAlgError when ``a`` is not positive definite and ValueError
    when it holds NaN or infinity.
    """
    a = np.asarray_chkfinite(a)
    if a.size == 0:
        return np.empty_like(a, dtype=np.float64)
    if _potrf is None:
        _bind()
    c, info = _potrf(a, lower=True, clean=False)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` given the lower factor ``c = cho_factor(a)``."""
    if b.size == 0:
        return np.empty_like(b, dtype=np.float64)
    x, info = _potrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x

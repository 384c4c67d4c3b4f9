"""Core domain types for finite metric state spaces, distributions and kernels.

All numeric payloads are float64 numpy arrays frozen at construction time.
Factory classmethods (``from_*``) validate and normalize their input once;
the plain dataclass constructors perform no checks, so that
:func:`validate_chain` can inspect arbitrary, possibly broken, data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

# Simplex membership tolerance: inputs whose mass is within this of 1 are
# renormalized once at load time and treated as exact afterwards.
PROB_ATOL = 1e-12

# A probability mass is treated as zero iff it is <= this threshold.
MASS_ZERO = 1e-14


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _fields_equal(self, other) -> bool:
    """``__eq__`` for records that hold arrays: the same type, and every
    field equal by ``np.array_equal``."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array, or the distinct rows of a 2-D
    one, in increasing (lexicographic) order, and the index of each input's
    one among them: ``np.unique(keys, axis=0, return_inverse=True)``, which
    imports ``numpy.ma`` at its first call."""
    rows = keys[:, None] if keys.ndim == 1 else keys
    # lexsort's last key is the primary one
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.empty(order.size, dtype=bool)
    first[:1] = True
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    return keys[order[first]], inverse


@dataclass(frozen=True)
class Violation:
    """A single invariant violation, reported as data rather than an error.

    ``path`` uses JSON-path style addressing rooted at the chain file
    schema, e.g. ``$.kernel[2]`` or ``$.metric[0][2]``.
    """

    path: str
    message: str
    magnitude: float | None = None

    def __str__(self) -> str:
        if self.magnitude is None:
            return f"{self.path}: {self.message}"
        return f"{self.path}: {self.message} (magnitude {self.magnitude:.3g})"


class ValidationError(ValueError):
    """Raised by the validating factories when invariants fail."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A finite point set with a symmetric distance matrix.

    The matrix must be a genuine metric: zero diagonal, symmetry, strict
    positivity off the diagonal and the triangle inequality.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "dist", _frozen(self.dist))

    __eq__ = _fields_equal

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(np.max(self.dist))

    @property
    def is_discrete(self) -> bool:
        """True when the metric is the 0/1 discrete metric."""
        n = self.n
        return bool(np.array_equal(self.dist, 1.0 - np.eye(n)))

    @classmethod
    def from_matrix(cls, labels: Sequence[str], dist) -> "MetricSpace":
        space = cls(tuple(labels), dist)
        violations = validate_metric(space)
        if violations:
            raise ValidationError(violations)
        return space

    @classmethod
    def discrete(cls, labels: Sequence[str] | int) -> "MetricSpace":
        """The 0/1 metric on ``labels`` (or on ``n`` numbered states)."""
        if isinstance(labels, int):
            labels = [str(i + 1) for i in range(labels)]
        n = len(labels)
        return cls(tuple(labels), 1.0 - np.eye(n))

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown state label {label!r}") from None


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability vector on the states of a :class:`MetricSpace`."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _frozen(self.p))

    __eq__ = _fields_equal

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @classmethod
    def from_values(cls, values, path: str = "$.pi0") -> "Dist":
        """A validated, normalised law; violations are reported under
        ``path``."""
        d = cls(values)
        violations = validate_dist(d, path)
        if violations:
            raise ValidationError(violations)
        return cls(d.p / d.p.sum())

    @classmethod
    def dirac(cls, index: int, n: int) -> "Dist":
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p)

    def support(self, tol: float = MASS_ZERO) -> np.ndarray:
        """Boolean mask of states carrying mass above ``tol``."""
        return self.p > tol


@dataclass(frozen=True, eq=False)
class Kernel:
    """A row-stochastic transition matrix; row x is the law of the next step
    from state x."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen(self.rows))

    __eq__ = _fields_equal

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "Kernel":
        k = cls(matrix)
        violations = validate_kernel(k)
        if violations:
            raise ValidationError(violations)
        rows = k.rows / k.rows.sum(axis=1, keepdims=True)
        return cls(rows)


@dataclass(frozen=True)
class ChainSpec:
    """A Markov chain with transition-kernel ambiguity radius ``radius``.

    Each row of the true kernel is only known to lie within Wasserstein-1
    distance ``radius`` of the corresponding nominal row.
    """

    space: MetricSpace
    pi0: Dist
    kernel: Kernel
    radius: float

    @classmethod
    def build(cls, space: MetricSpace, pi0, kernel, radius: float) -> "ChainSpec":
        if not isinstance(pi0, Dist):
            pi0 = Dist.from_values(pi0)
        if not isinstance(kernel, Kernel):
            kernel = Kernel.from_matrix(kernel)
        spec = cls(space, pi0, kernel, float(radius))
        violations = validate_chain(spec)
        if violations:
            raise ValidationError(violations)
        return spec

    def with_radius(self, radius: float) -> "ChainSpec":
        return replace(self, radius=float(radius))


@dataclass(frozen=True)
class BallSet:
    """The closed Wasserstein-1 ball of radius ``kappa`` around ``center``."""

    center: Dist
    kappa: float


def _check_ball(ball: BallSet, n: int):
    """A ``ValidationError`` naming ``center`` or ``kappa`` unless the ball's
    centre is a law and its radius a finite number >= 0."""
    if ball.center.n != n:
        raise ValueError("dimension mismatch")
    violations = validate_dist(ball.center, "center")
    if violations:
        raise ValidationError(violations)
    if not (math.isfinite(ball.kappa) and ball.kappa >= 0.0):
        raise ValidationError([Violation("kappa", "ball radius must be a finite number >= 0")])


def validate_metric(space: MetricSpace) -> list[Violation]:
    out: list[Violation] = []
    seen: set[str] = set()
    for i, label in enumerate(space.labels):
        if label in seen:
            out.append(Violation(f"$.states[{i}]", f"duplicate label {label!r}"))
        seen.add(label)
    d = space.dist
    n = space.n
    if d.shape != (n, n):
        out.append(Violation("$.metric", f"expected shape {(n, n)}, got {d.shape}"))
        return out
    for i, j in np.argwhere(~np.isfinite(d)):
        out.append(Violation(f"$.metric[{i}][{j}]", "non-finite distance"))
    if out:
        return out
    for i in range(n):
        if d[i, i] != 0.0:
            out.append(Violation(f"$.metric[{i}][{i}]", "nonzero diagonal", float(abs(d[i, i]))))
    iu, ju = np.triu_indices(n, 1)
    asym = d[iu, ju] != d[ju, iu]
    nonpos = d[iu, ju] <= 0.0
    for t in np.flatnonzero(asym | nonpos):
        i, j = iu[t], ju[t]
        if asym[t]:
            out.append(
                Violation(f"$.metric[{i}][{j}]", "asymmetric entry", float(abs(d[i, j] - d[j, i])))
            )
        if nonpos[t]:
            out.append(Violation(f"$.metric[{i}][{j}]", "non-positive off-diagonal distance", float(d[i, j])))
    # Triangle check, always on: for each i, one (j, k) array of the gaps
    # d[i, k] - (d[i, j] + d[j, k]).
    for i in range(n):
        gap = d[i][None, :] - (d[i][:, None] + d)
        for j, k in np.argwhere(gap > 1e-12 * np.maximum(1.0, d[i])[None, :]):
            out.append(
                Violation(
                    f"$.metric[{i}][{k}]",
                    f"triangle inequality fails via {j}: d[{i}][{k}] > d[{i}][{j}] + d[{j}][{k}]",
                    float(gap[j, k]),
                )
            )
    return out


def validate_dist(dist: Dist, path: str = "$.pi0") -> list[Violation]:
    out: list[Violation] = []
    p = dist.p
    if p.ndim != 1:
        out.append(Violation(path, f"expected a vector, got shape {p.shape}"))
        return out
    for i in np.flatnonzero(~(p >= 0.0) | np.isinf(p)):  # NaN fails p >= 0
        if not np.isfinite(p[i]):
            out.append(Violation(f"{path}[{i}]", "non-finite mass"))
        else:
            out.append(Violation(f"{path}[{i}]", "negative mass", float(-p[i])))
    gap = abs(float(p.sum()) - 1.0)
    if gap > PROB_ATOL:
        out.append(Violation(path, "mass does not sum to 1", gap))
    return out


def validate_kernel(kernel: Kernel, path: str = "$.kernel") -> list[Violation]:
    out: list[Violation] = []
    rows = kernel.rows
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        out.append(Violation(path, f"expected a square matrix, got shape {rows.shape}"))
        return out
    for x in range(rows.shape[0]):
        out.extend(validate_dist(Dist(rows[x]), path=f"{path}[{x}]"))
    return out


def validate_chain(spec: ChainSpec) -> list[Violation]:
    """Check every invariant of a chain spec; an empty list means valid."""
    out = validate_metric(spec.space)
    out.extend(validate_dist(spec.pi0))
    out.extend(validate_kernel(spec.kernel))
    n = spec.space.n
    if spec.pi0.p.ndim == 1 and spec.pi0.n != n:
        out.append(Violation("$.pi0", f"length {spec.pi0.n} does not match {n} states"))
    if spec.kernel.rows.ndim == 2 and spec.kernel.n != n:
        out.append(Violation("$.kernel", f"size {spec.kernel.n} does not match {n} states"))
    if not np.isfinite(spec.radius):
        out.append(Violation("$.r", "non-finite robustness radius"))
    elif spec.radius < 0.0:
        out.append(Violation("$.r", "negative robustness radius", float(-spec.radius)))
    return out


def k_step_kernel(kernel: Kernel, k: int) -> Kernel:
    """The k-fold composition of the kernel; row x is the law of step k
    started from x."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return Kernel(np.linalg.matrix_power(kernel.rows, k))


def empirical_measure(path: Iterable[int], n_states: int) -> Dist:
    """Occupation frequencies of a state-index path.

    p[i] is the fraction of time the path spends in state i.
    """
    idx = np.asarray(list(path), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty path")
    if idx.min() < 0 or idx.max() >= n_states:
        raise ValueError("path contains out-of-range state indices")
    counts = np.bincount(idx, minlength=n_states)
    return Dist(counts / idx.size)

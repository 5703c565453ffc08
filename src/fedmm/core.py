"""Vector arithmetic, decision-pair iterates, feasible sets, projections, geometric sums.

All operations are pure value arithmetic on float64 arrays: no shared mutable
state, safe to call from any number of threads. Sums over agents always
accumulate in ascending agent index so that results are reproducible no matter
how agent work is scheduled.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

UNCONSTRAINED = "unconstrained"
BALL = "ball"


class DimensionMismatchError(ValueError):
    """An operand's dimension differs from what the set or problem expects."""

    def __init__(self, expected: int, actual: int, what: str = "vector"):
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected dimension {expected}, got {actual}")


def as_vector(v, dim: int | None = None, what: str = "vector") -> Vector:
    """Coerce ``v`` to a 1-D float64 array, optionally checking its length.
    A 1-D float64 ``ndarray`` is returned as it is."""
    arr = v
    if not (type(arr) is np.ndarray and arr.dtype == np.float64 and arr.ndim == 1):
        arr = np.atleast_1d(np.asarray(v, dtype=np.float64))
        if arr.ndim != 1:
            raise ValueError(f"{what}: expected a 1-D array, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(dim, arr.shape[0], what)
    return arr


def as_count(value, what: str) -> int:
    """``value`` as a Python int, refused with a ``ValueError`` unless it is
    a Python or numpy integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_finite(arr: Vector, what: str = "vector") -> Vector:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def norm(v) -> float:
    v = as_vector(v)
    return float(np.sqrt(np.dot(v, v)))


def ascending_sum(X: np.ndarray) -> np.ndarray:
    """Sum of the rows of X, accumulated in ascending row order.

    ``np.add.accumulate`` (``np.cumsum``) adds row after row;
    ``X.sum(axis=0)`` does not promise that order and sums an (m, 1) array
    pairwise once m >= 8.
    """
    return np.add.accumulate(X, axis=0)[-1]


def geometric_sums(ratio, K: int) -> np.ndarray:
    """sum_{j<K} r^j, K >= 1, for every entry r of ``ratio``, elementwise, by
    binary doubling: O(log K) array steps, memory flat in K. Over the bits of
    K after the leading one, the n = K >> (shift + 1) terms so far double,
    S(2n) = S(n) (1 + r^n), and a set bit adds one, S(n + 1) = 1 + r S(n).
    Each r^n is one rounded ``ratio ** n``: powers by repeated squaring would
    double their relative error at every level.
    """
    ratio = np.asarray(ratio, dtype=np.float64)
    sums = np.ones(ratio.shape)
    for shift in reversed(range(operator.index(K).bit_length() - 1)):
        sums *= 1.0 + ratio ** (K >> (shift + 1))
        if K >> shift & 1:
            sums = 1.0 + ratio * sums
    return sums


def average_vectors(vectors: Sequence[Vector]) -> Vector:
    """Mean of equal-length vectors (a list, or the rows of an array),
    accumulated in ascending index order.

    The fixed accumulation order is the determinism contract for every
    server-side aggregation: two runs with identical inputs produce bitwise
    identical results.
    """
    if len(vectors) == 0:
        raise ValueError("cannot average an empty collection of vectors")
    if not isinstance(vectors, np.ndarray):
        dim = len(vectors[0])
        for v in vectors:
            if len(v) != dim:
                raise DimensionMismatchError(dim, len(v))
    X = np.asarray(vectors, dtype=np.float64)
    return ascending_sum(X) / len(X)


# ---------------------------------------------------------------------------
# iterates
# ---------------------------------------------------------------------------

@dataclass
class Iterate:
    """The concatenated decision pair z = (x, y) that the algorithms transform."""

    x: Vector
    y: Vector

    def __post_init__(self):
        self.x = check_finite(as_vector(self.x), "x")
        self.y = check_finite(as_vector(self.y), "y")
        if self.x.shape[0] < 1 or self.y.shape[0] < 1:
            raise ValueError("iterate blocks must have dimension >= 1")

    @property
    def p(self) -> int:
        return self.x.shape[0]

    @property
    def q(self) -> int:
        return self.y.shape[0]

    @property
    def stacked(self) -> Vector:
        return np.concatenate([self.x, self.y])

    def copy(self) -> "Iterate":
        return Iterate(self.x.copy(), self.y.copy())

    @staticmethod
    def zeros(p: int, q: int) -> "Iterate":
        return Iterate(np.zeros(p), np.zeros(q))


def optimality_gap(z: Iterate, z_star: Iterate) -> float:
    """Squared distance to the reference pair, x block plus y block."""
    if (z.p, z.q) != (z_star.p, z_star.q):
        raise ValueError("iterates have mismatched dimensions")
    dx = z.x - z_star.x
    dy = z.y - z_star.y
    return float(np.dot(dx, dx) + np.dot(dy, dy))


# ---------------------------------------------------------------------------
# feasible sets and projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibleSet:
    """Projection-capable constraint region: all of R^dim or a Euclidean ball.

    These two kinds cover every experiment in scope (unconstrained quadratics
    and a unit-ball-bounded perturbation); the unconstrained case is modeled
    explicitly rather than as a huge ball so its projection is an exact
    identity.
    """

    kind: str
    dim: int
    center: Vector | None = None
    radius: float | None = None

    @staticmethod
    def unconstrained(dim: int) -> "FeasibleSet":
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        return FeasibleSet(UNCONSTRAINED, dim)

    @staticmethod
    def ball(center, radius: float) -> "FeasibleSet":
        center = check_finite(as_vector(center), "ball center")
        if not 0 < radius < np.inf:
            raise ValueError(f"ball radius must be finite and positive, got {radius}")
        return FeasibleSet(BALL, center.shape[0], center, float(radius))

    def project(self, v) -> Vector:
        """Euclidean nearest point of the set; identity when already inside."""
        v = as_vector(v, dim=self.dim, what="point to project")
        if self.kind == UNCONSTRAINED:
            return v.copy()
        delta = v - self.center
        dist = norm(delta)
        if dist <= self.radius:
            return v.copy()
        return self.center + delta * (self.radius / dist)


@dataclass(frozen=True)
class ProductSet:
    """Cartesian product X x Y; projections act independently per block."""

    set_x: FeasibleSet
    set_y: FeasibleSet

    @staticmethod
    def unconstrained(p: int, q: int) -> "ProductSet":
        return ProductSet(FeasibleSet.unconstrained(p), FeasibleSet.unconstrained(q))

    def project(self, z: Iterate) -> Iterate:
        return Iterate(self.set_x.project(z.x), self.set_y.project(z.y))

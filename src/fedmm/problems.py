"""Local objective oracles and the federated minimax problems built from them.

Two problem families are provided:

* ``UncoupledQuadratic`` -- per-agent f_i(x, y) = 1/2 x'Q_i x - 1/2 y'Q_i y
  + a_i'x - c_i'y with Q_i symmetric PSD. Generated federations have
  a_i = 2c_i. ``ScalarTwoAgent`` is its d = 1 instance with two agents,
  Q = (2, 8) and a = c = (-1, -32), whose minimax point is x* = y* = 3.3.
* ``RobustLinearRegression`` -- per-agent least squares under an adversarial
  input shift y constrained to a Euclidean ball.

Oracles are immutable after construction; evaluation is reentrant and
thread-safe.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    DimensionMismatchError,
    FeasibleSet,
    Iterate,
    ProductSet,
    Vector,
    as_vector,
    ascending_sum,
    average_vectors,
)


class UnsupportedProblemError(ValueError):
    """The requested operation has no implementation for this problem kind."""


class SingularProblemError(ValueError):
    """A linear system that the operation relies on is numerically singular."""


FD_STEP = 1e-5  # central-difference step of ``finite_difference_gradients``


class LocalObjective(ABC):
    """One agent's differentiable objective f_i(x, y).

    Implementations expose the value and both partial gradients; ``p`` and
    ``q`` are the decision dimensions of the min and max player.
    """

    p: int
    q: int

    @abstractmethod
    def value(self, x: Vector, y: Vector) -> float: ...

    @abstractmethod
    def grad_x(self, x: Vector, y: Vector) -> Vector: ...

    @abstractmethod
    def grad_y(self, x: Vector, y: Vector) -> Vector: ...


def finite_difference_gradients(obj: LocalObjective, x, y) -> tuple[Vector, Vector]:
    """Central-difference estimate of (grad_x, grad_y) using only ``value``.

    Deliberately independent of the oracle's analytic gradients so it can
    serve as a correctness check for them.
    """
    x = as_vector(x, obj.p, "x")
    y = as_vector(y, obj.q, "y")
    gx = np.zeros(obj.p)
    for k in range(obj.p):
        e = np.zeros(obj.p)
        e[k] = FD_STEP
        gx[k] = (obj.value(x + e, y) - obj.value(x - e, y)) / (2.0 * FD_STEP)
    gy = np.zeros(obj.q)
    for k in range(obj.q):
        e = np.zeros(obj.q)
        e[k] = FD_STEP
        gy[k] = (obj.value(x, y + e) - obj.value(x, y - e)) / (2.0 * FD_STEP)
    return gx, gy


class QuadraticAgent(LocalObjective):
    """f(x, y) = 1/2 x'Qx - 1/2 y'Qy + a'x - c'y with symmetric Q."""

    def __init__(self, Q, a, c):
        Q = np.asarray(Q, dtype=np.float64)
        a = as_vector(a)
        c = as_vector(c)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if Q.shape[0] != a.shape[0]:
            raise DimensionMismatchError(Q.shape[0], a.shape[0], "a")
        if Q.shape[0] != c.shape[0]:
            raise DimensionMismatchError(Q.shape[0], c.shape[0], "c")
        # exact symmetry first: np.allclose costs more than the rest of the
        # constructor
        if not ((Q == Q.T).all()
                or np.allclose(Q, Q.T, rtol=0, atol=1e-10 * (1 + np.abs(Q).max()))):
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.a = a
        self.c = c
        self.p = self.q = c.shape[0]

    def value(self, x, y):
        x = as_vector(x, self.p, "x")
        y = as_vector(y, self.q, "y")
        return float(
            0.5 * x @ self.Q @ x - 0.5 * y @ self.Q @ y + self.a @ x - self.c @ y
        )

    def grad_x(self, x, y):
        x = as_vector(x, self.p, "x")
        return self.Q @ x + self.a

    def grad_y(self, x, y):
        y = as_vector(y, self.q, "y")
        return -(self.Q @ y) - self.c


class RlrAgent(LocalObjective):
    """Mean squared residual under input shift y, plus a ridge term on x.

    f(x, y) = (1/n) sum_j (x'(a_j + y) - b_j)^2 + 1/2 ||x||^2.

    This per-agent oracle keeps the raw samples, which the dataset container
    stores and replays, and evaluates the definition directly. Value and
    gradients depend on the data only through the O(d^2) statistics A'A, A'1,
    A'b, 1'b, b'b and n; ``RobustLinearRegression.stacked_field`` and
    ``total_losses`` use those, at a cost independent of n.
    """

    def __init__(self, features, targets):
        A = np.asarray(features, dtype=np.float64)
        b = as_vector(targets)
        if A.ndim != 2:
            raise ValueError(f"features must be a 2-D array, got shape {A.shape}")
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(A.shape[0], b.shape[0], "targets")
        if A.shape[0] < 1:
            raise ValueError("need at least one sample")
        self.A = A
        self.b = b
        self.n = A.shape[0]
        self.p = self.q = A.shape[1]

    def _residuals(self, x, y):
        return (self.A + y) @ x - self.b

    def value(self, x, y):
        x = as_vector(x, self.p, "x")
        y = as_vector(y, self.q, "y")
        r = self._residuals(x, y)
        return float(np.dot(r, r) / self.n + 0.5 * np.dot(x, x))

    def grad_x(self, x, y):
        x = as_vector(x, self.p, "x")
        y = as_vector(y, self.q, "y")
        r = self._residuals(x, y)
        return (2.0 / self.n) * ((self.A + y).T @ r) + x

    def grad_y(self, x, y):
        x = as_vector(x, self.p, "x")
        y = as_vector(y, self.q, "y")
        r = self._residuals(x, y)
        return (2.0 / self.n) * float(np.sum(r)) * x


class MinimaxProblem:
    """m local objectives plus the feasible product set: the simulated federation.

    The global objective is the plain average f = (1/m) sum_i f_i; all
    agent-indexed reductions run in ascending order.
    """

    def __init__(self, agents: Sequence[LocalObjective], sets: ProductSet | None = None):
        agents = list(agents)
        if len(agents) == 0:
            raise ValueError("a problem needs at least one agent")
        p, q = agents[0].p, agents[0].q
        for i, a in enumerate(agents):
            if (a.p, a.q) != (p, q):
                raise DimensionMismatchError(p, a.p, f"agent {i} dims")
        if sets is None:
            sets = ProductSet.unconstrained(p, q)
        if sets.set_x.dim != p or sets.set_y.dim != q:
            raise DimensionMismatchError(p, sets.set_x.dim, "feasible set dims")
        self.agents = agents
        self.sets = sets
        self.p = p
        self.q = q

    @property
    def m(self) -> int:
        return len(self.agents)

    def _check(self, z: Iterate) -> Iterate:
        if z.p != self.p or z.q != self.q:
            raise DimensionMismatchError(self.p + self.q, z.p + z.q, "iterate")
        return z

    def stacked_field(self, Z: np.ndarray) -> np.ndarray:
        """Every agent's GDA field at its own point: row i of the result is
        F_i = (grad_x f_i, -grad_y f_i) at row i = (x_i, y_i) of the (m, p + q)
        stack Z. Negation is exact, so the y half is bitwise -grad_y f_i.

        This default asks each agent's oracle in ascending order; the problem
        families below override it with one batched evaluation.
        """
        p = self.p
        return np.array([np.concatenate((a.grad_x(z[:p], z[p:]), -a.grad_y(z[:p], z[p:])))
                         for a, z in zip(self.agents, Z)])

    def gda_field(self, z: Iterate) -> Vector:
        """The monotone operator F(z) = (grad_x f, -grad_y f) of the averaged
        objective: the ascending average of every agent's field at z."""
        self._check(z)
        return average_vectors(self.stacked_field(z.stacked[None].repeat(self.m, axis=0)))

    def global_grad(self, z: Iterate) -> tuple[Vector, Vector]:
        """Arithmetic mean of local gradients, ascending agent order."""
        F = self.gda_field(z)
        return F[:self.p], -F[self.p:]


class UncoupledQuadratic(MinimaxProblem):
    """Quadratic family with x and y uncoupled and agent-specific Q_i, a_i, c_i.

    The x-linear terms ``a_list`` default to 2c_i, the generated family.
    The problem owns its curvature facts, the stack ``Q`` (m, d, d), its
    ascending sum ``Q_sum`` and ``spectra``; every consumer reads them here.
    """

    def __init__(self, Q_list, c_list, sets: ProductSet | None = None, *, a_list=None):
        if len(Q_list) != len(c_list):
            raise ValueError("need one c per Q")
        if a_list is not None and len(a_list) != len(c_list):
            raise ValueError("need one a per c")
        # stored once, stacked (m, d, d), (m, d) and (m, d); each agent holds
        # views. Doubling is exact, so a = 2c is bitwise the generated x term
        self.Q = np.array(Q_list, dtype=np.float64)
        self.c = np.array(c_list, dtype=np.float64)
        self.a = 2.0 * self.c if a_list is None else np.array(a_list, dtype=np.float64)
        # read-only, like the agents' views of it: Q_sum and spectra never go stale
        self.Q.flags.writeable = False
        agents = [QuadraticAgent(Q, a, c) for Q, a, c in zip(self.Q, self.a, self.c)]
        super().__init__(agents, sets)
        # the field's offset (a_i, c_i) as one (m, 2d) array, and the (m, 1)
        # curvature column of a d = 1 federation; see stacked_field
        self._offset = np.concatenate((self.a, self.c), axis=1)
        self._curv_col = self.Q[:, :, 0] if self.p == 1 else None
        # positive definiteness of sum(Q_i) guarantees a unique stationary pair;
        # copied, so that the (m, d, d) buffer of running sums is not kept
        self.Q_sum = ascending_sum(self.Q).copy()
        self.Q_sum.flags.writeable = False
        try:
            np.linalg.cholesky(self.Q_sum)
        except np.linalg.LinAlgError as exc:
            raise SingularProblemError(
                "sum of per-agent curvature matrices is not positive definite"
            ) from exc

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues w (m, d), ascending, and eigenvectors V (m, d, d) of
        every Q_i, read-only, from one batched ``eigh`` on first use."""
        w, V = np.linalg.eigh(self.Q)
        w.flags.writeable = V.flags.writeable = False
        return w, V

    def stacked_field(self, Z):
        # F_i = Q_i (x_i, y_i) + (a_i, c_i): one broadcast np.matmul runs the
        # matrix-vector product of Q_i @ x per agent and block, so rows equal
        # the agent oracles bit for bit (np.einsum would not, nor Q_i times the
        # (d, 2) matrix [x_i, y_i], a matrix-matrix kernel). For d = 1 it is
        # one multiplication, which the elementwise product gives at less cost
        if self._curv_col is not None:
            F = self._curv_col * Z
        else:
            m, d = self.m, self.p
            F = np.matmul(self.Q[:, None], Z.reshape(m, 2, d, 1)).reshape(m, 2 * d)
        F += self._offset
        return F


class ScalarTwoAgent(UncoupledQuadratic):
    """Two heterogeneous scalar agents with minimax point x* = y* = 3.3.

    f_1(x, y) = x^2 - y^2 - (x - y), f_2(x, y) = 4x^2 - 4y^2 - 32(x - y);
    unconstrained, p = q = 1: the d = 1 quadratic with Q = (2, 8) and
    a = c = (-1, -32).
    """

    def __init__(self):
        super().__init__([[[2.0]], [[8.0]]], [[-1.0], [-32.0]], a_list=[[-1.0], [-32.0]])


class RobustLinearRegression(MinimaxProblem):
    """Federated robust least squares: min over x, max over ||y|| <= radius."""

    def __init__(self, features_per_agent, targets_per_agent, y_radius: float = 1.0):
        if len(features_per_agent) != len(targets_per_agent):
            raise ValueError("need one target vector per feature matrix")
        agents = [
            RlrAgent(A, b) for A, b in zip(features_per_agent, targets_per_agent)
        ]
        d = agents[0].p
        sets = ProductSet(
            FeasibleSet.unconstrained(d), FeasibleSet.ball(np.zeros(d), y_radius)
        )
        super().__init__(agents, sets)
        # per-agent sufficient statistics from one batched Gram matrix and one
        # column sum of Z = [A, b], samples zero-padded to a common count
        # (padding rows add nothing): G = A'A, h = A'b, s = A'1, beta = 1'b
        n = [a.n for a in agents]
        Z = np.zeros((self.m, max(n), d + 1))
        for i, a in enumerate(agents):
            Z[i, :a.n, :d] = a.A
            Z[i, :a.n, d] = a.b
        S = np.matmul(Z.transpose(0, 2, 1), Z)
        sums = Z.sum(axis=1)
        self._gram, self._feat_target = S[:, :d, :d], S[:, :d, d]
        # b'b as ``RlrAgent.value`` forms it at x = 0, not the Gram entry
        # S[:, d, d]: the total loss of the zero model is then bitwise the sum
        # of the agents' values, never an ulp below the loss at y = 0
        self._target_sq = np.array([np.dot(a.b, a.b) for a in agents])
        self._feat_sum, self._target_sum = sums[:, :d], sums[:, d]
        self._n = np.array(n, dtype=np.float64)
        self._grad_scale = (2.0 / self._n)[:, None]
        self._neg_scale = -self._grad_scale  # exact: the y half of the field

    def stacked_field(self, Z):
        # with t = x'y the residual is r = Ax + t1 - b, so 1'r = s'x + nt - beta
        # and (A + 1y')'r = Gx + ts - h + y(1'r). X and Y come from one
        # transposing copy, which costs less than strided reads of Z
        m, d = self.m, self.p
        X, Y = Z.reshape(m, 2, d).transpose(1, 0, 2).copy()
        t = np.add.reduce(X * Y, axis=1)
        rsum = (np.add.reduce(self._feat_sum * X, axis=1) + self._n * t
                - self._target_sum)[:, None]
        Ar = (np.matmul(self._gram, X[:, :, None])[:, :, 0]
              + t[:, None] * self._feat_sum - self._feat_target)
        return np.concatenate((self._grad_scale * (Ar + Y * rsum) + X,
                               (self._neg_scale * rsum) * X), axis=1)

    def total_losses(self, x: Vector, Y: np.ndarray) -> np.ndarray:
        """Sum over agents of f_i(x, y) for every row y of the (k, q) stack Y.

        With t = x'y the residual sum of squares ||Ax + t1 - b||^2 is
        x'(Gx - 2h) + b'b + t(2(s'x - beta) + nt), so each agent's loss costs
        O(d^2) whatever n is; agents are summed in ascending order. Forming
        it from the statistics cancels where the fit is close, so it agrees
        with ``RlrAgent.value`` to about 1e-14 relative, not to the last bit.
        """
        t = Y @ x
        fit = (np.matmul(self._gram, x) - 2.0 * self._feat_target) @ x + self._target_sq
        slope = 2.0 * (self._feat_sum @ x - self._target_sum)
        n = self._n[:, None]
        rss = fit[:, None] + t * (slope[:, None] + n * t)
        return ascending_sum(rss / n + 0.5 * np.dot(x, x))


# ---------------------------------------------------------------------------
# ground-truth solvers and constants
# ---------------------------------------------------------------------------

def require_quadratic(problem: MinimaxProblem, message: str) -> UncoupledQuadratic:
    """``problem`` if it is a quadratic family, else an error: ``message``
    with ``{}`` filled by the problem's type."""
    if not isinstance(problem, UncoupledQuadratic):
        raise UnsupportedProblemError(message.format(type(problem).__name__))
    return problem


def closed_form_minimax(problem: MinimaxProblem) -> Iterate:
    """The unique interior stationary pair, where the averaged gradient vanishes.

    For the quadratic family x* = -(sum Q_i)^-1 sum a_i and
    y* = -(sum Q_i)^-1 sum c_i, one solve per block: a single two-column
    solve rounds the scalar problem's x* to 3.3000000000000003 instead of
    33/10. Robust linear regression has no closed form.
    """
    problem = require_quadratic(problem, "no closed-form minimax point for {}")
    return Iterate(*(-solve_checked(problem.Q_sum, ascending_sum(v))
                     for v in (problem.a, problem.c)))


def solve_checked(A: np.ndarray, b: Vector) -> Vector:
    """A^-1 b for one right-hand side, refused if A is numerically singular."""
    try:
        s = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError("curvature system is singular") from exc
    # not core.norm: its input coercion, eight times per scalar fixed-point
    # study, cost about 3 % of that study's set-up
    r = A @ s - b
    residual = float(np.sqrt(np.dot(r, r)))
    if residual > 1e-6 * (1.0 + float(np.sqrt(np.dot(b, b)))):
        raise SingularProblemError(
            f"linear solve residual {residual:.3e} too large; system near-singular"
        )
    return s


def estimate_constants(problem: MinimaxProblem) -> tuple[float, float]:
    """(mu, L): worst strong-convexity and smoothness constants over agents.

    mu is the smallest eigenvalue over all per-agent curvature matrices and L
    the largest, from one batched ``eigvalsh`` of a quadratic family's ``Q``.
    """
    problem = require_quadratic(
        problem, "constants are not estimated for {}; supply stepsizes explicitly")
    eigs = np.linalg.eigvalsh(problem.Q)
    return float(eigs[:, 0].min()), float(eigs[:, -1].max())

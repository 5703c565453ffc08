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

import sys
from abc import ABC, abstractmethod
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    UNCONSTRAINED,
    DimensionMismatchError,
    FeasibleSet,
    Iterate,
    ProductSet,
    Vector,
    as_vector,
    ascending_sum,
    average_vectors,
    check_finite,
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

    def _pair(self, x, y) -> tuple[Vector, Vector]:
        """x and y as checked float64 vectors of dimensions p and q."""
        return as_vector(x, self.p, "x"), as_vector(y, self.q, "y")


def finite_difference_gradients(obj: LocalObjective, x, y) -> tuple[Vector, Vector]:
    """Central-difference estimate of (grad_x, grad_y) using only ``value``.

    Deliberately independent of the oracle's analytic gradients so it can
    serve as a correctness check for them.
    """
    p = obj.p
    z = np.concatenate(obj._pair(x, y))
    steps = np.eye(z.size) * FD_STEP  # row k moves coordinate k of z = (x, y)
    g = np.array([obj.value(u[:p], u[p:]) - obj.value(v[:p], v[p:])
                  for u, v in zip(z + steps, z - steps)]) / (2.0 * FD_STEP)
    return g[:p], g[p:]


class QuadraticAgent(LocalObjective):
    """f(x, y) = 1/2 x'Qx - 1/2 y'Qy + a'x - c'y with symmetric Q.

    Both gradients read their row of one two-row product [x; y] Q', the
    product ``UncoupledQuadratic.stacked_field`` forms per agent, so the
    batched field equals them bit for bit; no row depends on the other's values.
    """

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
        if not (Q == Q.T).all():
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.a = a
        self.c = c
        self.p = self.q = c.shape[0]

    def value(self, x, y):
        x, y = self._pair(x, y)
        return float(
            0.5 * x @ self.Q @ x - 0.5 * y @ self.Q @ y + self.a @ x - self.c @ y
        )

    def _products(self, x, y):
        return np.stack(self._pair(x, y)) @ self.Q.T

    def grad_x(self, x, y):
        return self._products(x, y)[0] + self.a

    def grad_y(self, x, y):
        return -self._products(x, y)[1] - self.c


class RlrAgent(LocalObjective):
    """Mean squared residual under input shift y, plus a ridge term on x.

    f(x, y) = (1/n) sum_j (x'(a_j + y) - b_j)^2 + 1/2 ||x||^2.

    This per-agent oracle keeps read-only copies of the raw samples, which
    the dataset container stores and replays, and evaluates the definition
    directly; it is the reference the batched paths are tested against.
    With t = x'y the residuals are r = Vv for V = [A, 1, -b] and
    v = (x, t, 1), so value and gradients depend on the data only through
    the Gram matrix V'V, from which ``RobustLinearRegression`` builds the
    arrays its field and its total loss read, at a cost independent of n.
    """

    def __init__(self, features, targets):
        # copies, so that no caller can change the samples behind the
        # statistics a federation built from them
        A = np.array(features, dtype=np.float64)
        b = as_vector(targets).copy()
        if A.ndim != 2:
            raise ValueError(f"features must be a 2-D array, got shape {A.shape}")
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(A.shape[0], b.shape[0], "targets")
        if A.shape[0] < 1:
            raise ValueError("need at least one sample")
        # one scan per array finds a non-finite entry (NaN propagates through
        # the max) and gives max|V| for V = [A, 1, -b], which bounds the
        # statistics a federation builds from it
        self.magnitude = 1.0
        for name, values in (("features", A), ("targets", b)):
            largest = float(np.abs(values).max())
            if not largest < np.inf:
                raise ValueError(f"{name} contains non-finite entries")
            self.magnitude = max(self.magnitude, largest)
        A.flags.writeable = b.flags.writeable = False
        self.A = A
        self.b = b
        self.n = A.shape[0]
        self.p = self.q = A.shape[1]

    def _residuals(self, x, y):
        """The checked pair (x, y) and the residuals r = (A + y)x - b."""
        x, y = self._pair(x, y)
        return x, y, (self.A + y) @ x - self.b

    def value(self, x, y):
        x, _, r = self._residuals(x, y)
        return float(np.dot(r, r) / self.n + 0.5 * np.dot(x, x))

    def grad_x(self, x, y):
        x, y, r = self._residuals(x, y)
        return (2.0 / self.n) * ((self.A + y).T @ r) + x

    def grad_y(self, x, y):
        x, _, r = self._residuals(x, y)
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
        for block, dim, feasible in (("x", p, sets.set_x), ("y", q, sets.set_y)):
            if feasible.dim != dim:
                raise DimensionMismatchError(dim, feasible.dim, f"feasible set {block}")
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

        The result is a new, writable array that shares no memory with Z or
        with the problem's own arrays, and the caller owns it: the round
        engine updates it in place. Every override keeps this rule.

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
        # views. Doubling is exact, so a = 2c is bitwise the generated x term;
        # each stack is checked finite before the agents' symmetry test reads Q
        self.Q = check_finite(np.array(Q_list, dtype=np.float64), "Q")
        self.c = check_finite(np.array(c_list, dtype=np.float64), "c")
        with np.errstate(over="ignore"):
            self.a = 2.0 * self.c if a_list is None else np.array(a_list, dtype=np.float64)
        check_finite(self.a, "a")
        # read-only, like the agents' views of them: Q_sum, spectra and the
        # field's offset never go stale
        self.Q.flags.writeable = self.a.flags.writeable = self.c.flags.writeable = False
        agents = [QuadraticAgent(Q, a, c) for Q, a, c in zip(self.Q, self.a, self.c)]
        super().__init__(agents, sets)
        # the field's offset (a_i, c_i) as one (m, 2d) array and, for d = 1,
        # the curvature (Q_i, Q_i) at the same (m, 2) shape; see stacked_field
        self._offset = np.concatenate((self.a, self.c), axis=1)
        self._offset.flags.writeable = False
        self._curv = self.Q[:, 0].repeat(2, axis=1) if self.p == 1 else None
        if self._curv is not None:
            self._curv.flags.writeable = False
        # positive definiteness of sum(Q_i) guarantees a unique stationary pair;
        # copied, so that the (m, d, d) buffer of running sums is not kept. A
        # sum past the largest float is refused, not warned about
        with np.errstate(over="ignore"):
            self.Q_sum = check_finite(ascending_sum(self.Q).copy(), "Q_sum")
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
        # F_i = Q_i (x_i, y_i) + (a_i, c_i): one np.matmul forms, per agent,
        # the two-row product [x_i; y_i] Q_i', which reads Q_i once in a
        # matrix-matrix kernel and is already in F's layout. The agent oracles
        # form the same product, so rows equal them bit for bit. For d = 1 it
        # is one multiplication per entry: an elementwise product with the
        # (m, 2) curvature, the stack's own shape, so numpy does not broadcast
        if self._curv is not None:
            F = self._curv * Z
        else:
            m, d = self.m, self.p
            F = np.matmul(Z.reshape(m, 2, d), self.Q.transpose(0, 2, 1)).reshape(m, 2 * d)
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
    """Federated robust least squares: min over x, max over ||y|| <= radius.

    The batched paths read the agents' samples only through ``lifted``,
    two read-only arrays of their statistics built on first use, or at
    construction when the samples' size cannot rule out their overflow,
    so that such samples are refused before any run.
    """

    def __init__(self, features_per_agent, targets_per_agent, y_radius: float = 1.0):
        if len(features_per_agent) != len(targets_per_agent):
            raise ValueError("need one target vector per feature matrix")
        agents = [RlrAgent(A, b) for A, b in zip(features_per_agent, targets_per_agent)]
        d = agents[0].p if agents else 1  # an empty federation is the base class's to refuse
        super().__init__(agents, ProductSet(FeasibleSet.unconstrained(d),
                                            FeasibleSet.ball(np.zeros(d), y_radius)))
        # every entry of lifted, and every partial sum that forms one, is at
        # most max(n, m, 2) max|V|^2 + 1 in size. Unless twice that (room for
        # rounding) is below the largest float, lifted is built now, and its
        # check refuses the samples if a statistic overflowed
        n, largest = max(a.n for a in agents), max(a.magnitude for a in agents)
        if not 2.0 * (max(n, self.m, 2) * largest * largest + 1.0) < sys.float_info.max:
            self.lifted

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # statistics past the largest float are refused
    def lifted(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, Sbar), read-only, from one batched Gram matrix on first use.

        An agent's residuals under a shift y with t = x'y are r = Vv for
        V = [A, 1, -b] and v = (x, t, 1), so V'V = [[G, s, -h], [s', n, -beta],
        [-h', -beta, b'b]] (G = A'A, s = A'1, h = A'b, beta = 1'b) is in v's
        order and signs. The field stack L (m, d + 2, d + 2) is (2/n) V'V with
        the ridge on the x diagonal and a last row -rho, so L v = ((2/n)A'r + x,
        rho, -rho), rho = (2/n)1'r; see ``stacked_field``. Sbar (d + 2, d + 2)
        is the federation Gram matrix sum_i V_i'V_i / n_i, summed in ascending
        agent order, so the total loss is v'Sbar v + m||x||^2/2.
        """
        m, d, agents = self.m, self.p, self.agents
        # samples are zero-padded to a common count; a padding row is zero in
        # every column of V, the column of ones included, so it adds nothing
        n = np.array([a.n for a in agents], dtype=np.float64)
        V = np.zeros((m, max(a.n for a in agents), d + 2))
        for i, a in enumerate(agents):
            V[i, :a.n, :d] = a.A
            V[i, :a.n, d + 1] = -a.b
        V[:, :, d] = np.arange(V.shape[1]) < n[:, None]
        S = np.matmul(V.transpose(0, 2, 1), V)
        L = S * (2.0 / n)[:, None, None]
        L[:, d, d] = 2.0
        L[:, range(d), range(d)] += 1.0
        L[:, d + 1] = -L[:, d]
        # b'b as ``RlrAgent.value`` forms it at x = 0, not the Gram entry: the
        # total loss of the zero model is then bitwise the sum of the agents'
        # values, never an ulp below the loss at y = 0
        S[:, d + 1, d + 1] = [np.dot(a.b, a.b) for a in agents]
        S /= n[:, None, None]
        # copied, so that the (m, d + 2, d + 2) buffer of running sums is not kept
        Sbar = ascending_sum(S).copy()
        check_finite(L, "lifted")
        check_finite(Sbar, "lifted")
        L.flags.writeable = Sbar.flags.writeable = False
        return L, Sbar

    def stacked_field(self, Z):
        """Every agent's GDA field at its own row of Z, from one batched
        product of the lifted stack L with v_i = (x_i, x_i'y_i, 1): with the
        residuals r_i = V_i v_i its rows give (2/n_i)A_i'r_i + x_i and +-rho_i,
        and F_i = (that + rho_i y_i, -rho_i x_i), the rho terms one broadcast
        product with the reversed view (y_i, x_i) of row i. Agrees with the
        agents' oracles to a few rounding units of the size of the terms,
        not to the last bit.
        """
        m, d = self.m, self.p
        halves = Z.reshape(m, 2, d)
        X = halves[:, 0]
        v = np.empty((m, d + 2, 1))
        v[:, :d, 0] = X
        v[:, d, 0] = np.einsum("ij,ij->i", X, halves[:, 1])
        v[:, d + 1] = 1.0
        W = np.matmul(self.lifted[0], v)
        F = W[:, d:] * halves[:, ::-1]
        F[:, 0] += W[:, :d, 0]
        return F.reshape(m, 2 * d)

    def total_losses(self, x: Vector, ts) -> list[float]:
        """Sum over agents of f_i(x, y) at a shift y with x'y = t, for every
        t in ``ts``: each agent's loss depends on y only through t.

        The sum is v'Sbar v + m||x||^2/2 at v = (x, t, 1), read from the
        federation Gram matrix Sbar of ``lifted`` in O(d^2) whatever m and n
        are: of Su = Sbar[:, :d] x + Sbar[:, d + 1], the rows (x, 1) give the
        fit at t = 0 and row t the slope, and Sbar[d, d] = m. Forming it from
        the statistics cancels where the fit is close, so it agrees with
        ``RlrAgent.value`` to about 1e-14 relative, not to the last bit; at
        x = 0 it is bitwise the sum of the agents' values.
        """
        d, Sbar = self.p, self.lifted[1]
        Su = Sbar[:, :d] @ x + Sbar[:, d + 1]
        fit = float(Su[:d] @ x + Su[d + 1])
        slope = float(Su[d])
        ridge = 0.5 * self.m * float(x @ x)
        return [fit + t * (2.0 * slope + self.m * t) + ridge for t in ts]


# ---------------------------------------------------------------------------
# ground-truth solvers and constants
# ---------------------------------------------------------------------------

def require_family(problem: MinimaxProblem, family: type, message: str):
    """``problem`` if it is an instance of ``family``, else an error:
    ``message`` with ``{}`` filled by the problem's type."""
    if not isinstance(problem, family):
        raise UnsupportedProblemError(message.format(type(problem).__name__))
    return problem


def closed_form_minimax(problem: MinimaxProblem) -> Iterate:
    """The unique stationary pair of an unconstrained quadratic family.

    x* = -(sum Q_i)^-1 sum a_i and y* = -(sum Q_i)^-1 sum c_i, one solve per
    block: a single two-column solve rounds the scalar problem's x* to
    3.3000000000000003 instead of 33/10. Feasible sets are refused, since a
    binding one moves the saddle point; RLR has no closed form.
    """
    problem = require_family(problem, UncoupledQuadratic, "no closed-form minimax point for {}")
    kinds = problem.sets.set_x.kind, problem.sets.set_y.kind
    if kinds != (UNCONSTRAINED, UNCONSTRAINED):
        raise UnsupportedProblemError(
            "no closed-form minimax point under the feasible sets x: {}, y: {}".format(*kinds))
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
    the largest, read from a quadratic family's ``spectra``.
    """
    problem = require_family(problem, UncoupledQuadratic,
                             "constants are not estimated for {}; supply stepsizes explicitly")
    w, _ = problem.spectra
    return float(w[:, 0].min()), float(w[:, -1].max())

"""Metrics, closed-form fixed points, robust-loss evaluation, theory checks.

Everything here is a stateless function over immutable problems; results are
deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import (
    LOCAL_SGDA,
    AlgoConfig,
    _check_divergence,
    _round,
    local_sgda_residual,
)
from .core import Iterate, Vector, as_vector, ascending_sum, norm, optimality_gap
from .problems import (
    MinimaxProblem,
    RobustLinearRegression,
    ScalarTwoAgent,
    UncoupledQuadratic,
    closed_form_minimax,
    require_quadratic,
    solve_checked,
)


LIMIT_TOL = 1e-13  # relative per-round displacement that ends ``local_sgda_limit``
SAMPLE_SCALE = 10.0  # standard deviation of the property checks' random points
MONOTONICITY_SLACK = 1e-9  # absolute tolerance of ``check_strong_monotonicity``
POWER_BLOCK = 1 << 17  # powers a ``_geometric_sums`` block holds when K <= it (1 MiB)


class UnstableStepsizeError(ValueError):
    """The requested stepsize leaves the scheme's stability region."""


# ---------------------------------------------------------------------------
# fixed points of the uncorrected local scheme on quadratic federations
# ---------------------------------------------------------------------------

def _geometric_sums(ratio: np.ndarray, K: int) -> np.ndarray:
    """sum_{j<K} r^j for every entry r of ``ratio``, term by term.

    Powers are formed for a block of entries at a time, each with its whole
    row of K powers, so a block holds at most max(POWER_BLOCK, K) powers
    besides the K exponents: memory is flat in K up to ``POWER_BLOCK`` and
    grows linearly in K beyond it. Each entry's
    sum is the pairwise sum ``np.sum`` takes over its own row of powers, so
    the result is bitwise that of one (..., K) array of every power.
    """
    flat = ratio.reshape(-1)
    powers = np.arange(K)
    rows = max(1, POWER_BLOCK // K)
    sums = np.empty_like(flat)
    for start in range(0, flat.size, rows):
        sums[start:start + rows] = np.sum(flat[start:start + rows, None] ** powers, axis=-1)
    return sums.reshape(ratio.shape)


def local_sgda_fixed_point(
    problem: UncoupledQuadratic, K: int, eta_x: float, eta_y: float
) -> Iterate:
    """Exact fixed point of the uncorrected K-step scheme on a quadratic
    federation.

    With B_i = I - eta Q_i and S_i = sum_{j<K} B_i^j, agent i's K local steps
    take x to B_i^K x - eta S_i a_i, and I - B_i^K = eta S_i Q_i, so the
    averaged endpoint returns to x exactly at
    x_fp = -(sum_i S_i Q_i)^-1 sum_i S_i a_i; the y block is the same with
    c_i and eta_y. S_i shares the eigenvectors of Q_i, and its eigenvalues
    are the geometric sums, evaluated term by term. With K = 1 the fixed
    point is the true minimax point; for K >= 2 and heterogeneous agents it
    is biased away from it.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    problem = require_quadratic(problem, "no closed-form Local SGDA fixed point for {}")
    w, V = problem.spectra
    Vt = V.transpose(0, 2, 1)
    weighted = {}  # stepsize -> (sum_i S_i Q_i, eigenvalues of every S_i)
    blocks = []
    for eta, linear in ((eta_x, problem.a), (eta_y, problem.c)):
        if eta not in weighted:
            ratio = 1.0 - eta * w
            if not (eta > 0 and ratio.min() > -1.0):
                raise UnstableStepsizeError(
                    f"stepsize {eta} is unstable for local curvature {float(w.max())}"
                )
            weights = _geometric_sums(ratio, K)
            SQ = np.matmul(V * (weights * w)[:, None, :], Vt)
            weighted[eta] = ascending_sum(SQ), weights[:, :, None]
        SQ_sum, weights = weighted[eta]
        Sa = np.matmul(V, weights * np.matmul(Vt, linear[:, :, None]))[:, :, 0]
        blocks.append(-solve_checked(SQ_sum, ascending_sum(Sa)))
    return Iterate(*blocks)


def local_sgda_fixed_point_closed_form(K: int, eta_x: float, eta_y: float) -> Iterate:
    """``local_sgda_fixed_point`` of the two-agent scalar problem."""
    return local_sgda_fixed_point(ScalarTwoAgent(), K, eta_x, eta_y)


@dataclass
class LimitResult:
    iterate: Iterate
    rounds: int
    converged: bool


def local_sgda_limit(
    problem: MinimaxProblem,
    K: int,
    eta_x: float,
    eta_y: float,
    *,
    max_rounds: int = 200_000,
) -> LimitResult:
    """Iterate the uncorrected scheme from the origin until the per-round
    displacement falls below ``LIMIT_TOL * (1 + |z|)``; an independent
    oracle for the closed form."""
    p, m, z = problem.p, problem.m, np.zeros(problem.p + problem.q)
    config = AlgoConfig(LOCAL_SGDA, eta_x, eta_y, K, max_rounds, Iterate(z[:p], z[p:]))
    # overflow in a diverging run is left to the divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_rounds + 1):
            z_next = _round(problem, config, z, problem.stacked_field(z[None].repeat(m, 0)))
            _check_divergence(LOCAL_SGDA, t, z_next)
            # two dots each: one over all p + q entries would sum in another order
            step, z = z_next - z, z_next
            moved = float(np.sqrt(np.dot(step[:p], step[:p]) + np.dot(step[p:], step[p:])))
            if moved <= LIMIT_TOL * (1.0 + float(np.sqrt(np.dot(z[:p], z[:p])
                                                         + np.dot(z[p:], z[p:])))):
                return LimitResult(Iterate(z[:p], z[p:]), t, True)
    return LimitResult(Iterate(z[:p], z[p:]), max_rounds, False)


@dataclass
class FixedPointReport:
    """Closed-form fixed point versus the true minimax point and versus the
    long-run limit of the actual iteration."""

    K: int
    eta_x: float
    eta_y: float
    z_fixed: Iterate
    z_star: Iterate
    gap: float
    residual_norm: float
    z_simulated: Iterate
    sim_agreement: float
    rounds: int  # simulated rounds, LimitResult.rounds
    converged: bool


def fixed_point_report(
    K: int, eta_x: float, eta_y: float, *, max_rounds: int = 200_000
) -> FixedPointReport:
    """Build the fixed-point study for the two-agent scalar problem;
    ``max_rounds`` caps the simulation."""
    problem = ScalarTwoAgent()
    z_fixed = local_sgda_fixed_point(problem, K, eta_x, eta_y)
    z_star = closed_form_minimax(problem)
    residual = local_sgda_residual(problem, z_fixed, K, eta_x, eta_y)
    limit = local_sgda_limit(problem, K, eta_x, eta_y, max_rounds=max_rounds)
    return FixedPointReport(
        K=K,
        eta_x=eta_x,
        eta_y=eta_y,
        z_fixed=z_fixed,
        z_star=z_star,
        gap=optimality_gap(z_fixed, z_star),
        residual_norm=norm(residual),
        z_simulated=limit.iterate,
        sim_agreement=float(np.sqrt(optimality_gap(limit.iterate, z_fixed))),
        rounds=limit.rounds,
        converged=limit.converged,
    )


# ---------------------------------------------------------------------------
# robust loss
# ---------------------------------------------------------------------------

@dataclass
class RobustLossResult:
    value: float
    y: Vector
    iterations: int  # always 0: the maximizer is found in closed form


def robust_loss(problem: RobustLinearRegression, x_hat) -> RobustLossResult:
    """Worst-case total loss of the model ``x_hat`` over the feasible shift ball.

    Every agent's loss depends on the shift y only through t = x'y and is
    convex in it (the y-Hessian is 2 x x'), so the maximum over the ball
    ||y - center|| <= R lies at one of the two points center +- R x/||x||.
    Both are evaluated in one call of ``problem.total_losses``, from the
    problem's O(d^2) per-agent statistics (no sample is touched and no array
    grows with n), and the larger is returned; for x = 0 the loss is constant
    in y and the center is returned. Note this is the SUM of per-agent losses,
    not their mean: it exceeds the averaged objective by a factor of m.
    """
    x = as_vector(x_hat, problem.p, "x_hat")
    ball = problem.sets.set_y
    if np.any(x):
        step = x * (ball.radius / norm(x))
        candidates = ball.center + np.array([step, -step])
    else:
        candidates = np.array([ball.center])
    values = problem.total_losses(x, candidates)
    best = int(np.argmax(values))
    return RobustLossResult(float(values[best]), candidates[best], 0)


# ---------------------------------------------------------------------------
# theory property checks
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityReport:
    passed: bool
    mu: float
    trials: int
    min_ratio: float
    witness: tuple[Iterate, Iterate] | None = None


def _sampled_pairs(problem: MinimaxProblem, trials: int, seed: int):
    """Yield (z, z', d, |d|^2, F(z) - F(z')) with d = z - z' for ``trials``
    random pairs, skipping coincident ones; F is the stacked descent/ascent
    field."""
    rng = np.random.default_rng(seed)
    p, q = problem.p, problem.q
    for _ in range(trials):
        z = Iterate(rng.normal(0.0, SAMPLE_SCALE, p), rng.normal(0.0, SAMPLE_SCALE, q))
        zp = Iterate(rng.normal(0.0, SAMPLE_SCALE, p), rng.normal(0.0, SAMPLE_SCALE, q))
        diff = z.stacked - zp.stacked
        dsq = float(np.dot(diff, diff))
        if dsq == 0.0:
            continue
        yield z, zp, diff, dsq, problem.gda_field(z) - problem.gda_field(zp)


def check_strong_monotonicity(
    problem: MinimaxProblem, mu: float, trials: int, *, seed: int = 0
) -> MonotonicityReport:
    """Sample random pairs and test
    <F(z)-F(z'), z-z'> >= mu |z-z'|^2 - MONOTONICITY_SLACK for the stacked
    descent/ascent field F; reports the smallest observed curvature ratio
    and a witness pair on failure."""
    min_ratio = np.inf
    witness = None
    passed = True
    for z, zp, diff, dsq, dfield in _sampled_pairs(problem, trials, seed):
        lhs = float(np.dot(dfield, diff))
        ratio = lhs / dsq
        if ratio < min_ratio:
            min_ratio = ratio
        if lhs < mu * dsq - MONOTONICITY_SLACK and witness is None:
            passed = False
            witness = (z, zp)
    return MonotonicityReport(passed, mu, trials, float(min_ratio), witness)


@dataclass
class ContractionReport:
    passed: bool
    eta: float
    bound: float
    trials: int
    max_ratio: float
    witness: tuple[Iterate, Iterate] | None = None


def check_contraction(
    problem: MinimaxProblem,
    mu: float,
    L: float,
    eta: float,
    trials: int,
    *,
    seed: int = 0,
) -> ContractionReport:
    """Test that the damped field u -> u - eta F(u) shrinks squared distances
    by at least the factor 1 - eta (2 mu - eta L^2) on random pairs."""
    bound = 1.0 - eta * (2.0 * mu - eta * L**2)
    max_ratio = -np.inf
    witness = None
    passed = True
    for z, zp, diff, dsq, dfield in _sampled_pairs(problem, trials, seed):
        step_diff = diff - eta * dfield
        lhs = float(np.dot(step_diff, step_diff))
        ratio = lhs / dsq
        if ratio > max_ratio:
            max_ratio = ratio
        if lhs > bound * dsq * (1.0 + 1e-10) + 1e-12 and witness is None:
            passed = False
            witness = (z, zp)
    return ContractionReport(passed, eta, bound, trials, float(max_ratio), witness)

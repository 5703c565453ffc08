"""Metrics, closed-form fixed points, robust-loss evaluation, theory checks.

Everything here is a stateless function over immutable problems; results are
deterministic given their inputs. ``local_sgda_limit``, ``LimitResult`` and
``LIMIT_TOL`` live with the round engine in ``algorithms`` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import (
    LIMIT_TOL,
    LimitResult,
    check_round_inputs,
    local_sgda_limit,
    local_sgda_residual,
)
from .core import (Iterate, Vector, as_count, as_vector, ascending_sum, geometric_sums, norm,
                   optimality_gap)
from .problems import (
    MinimaxProblem,
    RobustLinearRegression,
    ScalarTwoAgent,
    UncoupledQuadratic,
    closed_form_minimax,
    require_family,
    solve_checked,
)


SAMPLE_SCALE = 10.0  # standard deviation of the property checks' random points
MONOTONICITY_SLACK = 1e-9  # absolute tolerance of ``check_strong_monotonicity``


class UnstableStepsizeError(ValueError):
    """The requested stepsize leaves the scheme's stability region."""


# ---------------------------------------------------------------------------
# fixed points of the uncorrected local scheme on quadratic federations
# ---------------------------------------------------------------------------

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
    are the geometric sums of ``core.geometric_sums``, the evaluator the
    FedGDA-GT round map also reads: O(log K) array steps, memory flat in K.
    With K = 1 the fixed point is the true minimax point; for K >= 2 and
    heterogeneous agents it is biased away from it.
    """
    K = check_round_inputs(K, eta_x, eta_y)
    problem = require_family(problem, UncoupledQuadratic,
                             "no closed-form Local SGDA fixed point for {}")
    w, V = problem.spectra
    Vt = V.transpose(0, 2, 1)
    weighted = {}  # stepsize -> (sum_i S_i Q_i, eigenvalues of every S_i)
    blocks = []
    for eta, linear in ((eta_x, problem.a), (eta_y, problem.c)):
        if eta not in weighted:
            ratio = 1.0 - eta * w
            if not ratio.min() > -1.0:
                raise UnstableStepsizeError(
                    f"stepsize {eta} is unstable for local curvature {float(w.max())}"
                )
            weights = geometric_sums(ratio, K)
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
    ||y - center|| <= R lies at one of the two points center +- R x/||x||,
    where t = center'x +- R||x||. ``problem.total_losses`` evaluates both
    values as scalars from the (d + 2) x (d + 2) federation Gram matrix Sbar
    of ``problem.lifted``, in O(d^2) whatever m and n are, and the larger is
    returned with its point; for x = 0 the loss is constant in y and the
    center is returned. Note this is the SUM of per-agent losses, not their
    mean: it exceeds the averaged objective by a factor of m. Any other
    problem type is refused with ``UnsupportedProblemError``.
    """
    problem = require_family(problem, RobustLinearRegression, "no robust loss for {}")
    x = as_vector(x_hat, problem.p, "x_hat")
    ball = problem.sets.set_y
    t = float(ball.center @ x)
    if not x.any():
        (value,) = problem.total_losses(x, (t,))
        return RobustLossResult(value, ball.center.copy(), 0)
    x_norm = norm(x)
    reach = ball.radius * x_norm
    value, lower = problem.total_losses(x, (t + reach, t - reach))
    step = x * (ball.radius / x_norm)
    if lower > value:
        value, step = lower, -step
    return RobustLossResult(value, ball.center + step, 0)


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


def _scan_pairs(problem: MinimaxProblem, trials, seed, lhs_of, fails, **constants):
    """(trials, lhs / |d|^2 of every pair, the first pair where fails(lhs, |d|^2)
    holds or None) over ``trials`` random pairs (z, z'), coincident ones
    skipped, with d = z - z' and lhs = lhs_of(d, F(z) - F(z')) for the stacked
    descent/ascent field F. A pair whose field difference or lhs is not
    finite fails too, and its ratio is NaN: an overflowing field bounds
    nothing. Fewer than one trial is refused, and so is a constant that is
    not finite: a check would pass on nothing."""
    trials = as_count(trials, "trials")
    seed = as_count(seed, "seed")
    if trials < 1:
        raise ValueError(f"a property check needs trials >= 1, got {trials}")
    if not all(map(np.isfinite, constants.values())):
        raise ValueError(f"a property check needs finite constants, got {constants}")
    rng = np.random.default_rng(seed)
    p, q = problem.p, problem.q
    ratios, witness = [], None
    # overflow in the field is reported as a failed pair, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(trials):
            z = Iterate(rng.normal(0.0, SAMPLE_SCALE, p), rng.normal(0.0, SAMPLE_SCALE, q))
            zp = Iterate(rng.normal(0.0, SAMPLE_SCALE, p), rng.normal(0.0, SAMPLE_SCALE, q))
            diff = z.stacked - zp.stacked
            dsq = float(np.dot(diff, diff))
            if dsq == 0.0:
                continue
            dfield = problem.gda_field(z) - problem.gda_field(zp)
            lhs = lhs_of(diff, dfield)
            finite = np.isfinite(lhs) and np.isfinite(dfield).all()
            ratios.append(lhs / dsq if finite else np.nan)
            if witness is None and (not finite or fails(lhs, dsq)):
                witness = (z, zp)
    return trials, ratios, witness


def check_strong_monotonicity(
    problem: MinimaxProblem, mu: float, trials: int, *, seed: int = 0
) -> MonotonicityReport:
    """Sample random pairs and test
    <F(z)-F(z'), z-z'> >= mu |z-z'|^2 - MONOTONICITY_SLACK for the stacked
    descent/ascent field F; reports the smallest observed curvature ratio
    and a witness pair on failure."""
    trials, ratios, witness = _scan_pairs(
        problem, trials, seed, lambda diff, dfield: float(np.dot(dfield, diff)),
        lambda lhs, dsq: lhs < mu * dsq - MONOTONICITY_SLACK, mu=mu)
    # np.min, unlike min, lets the NaN of a pair that overflowed through
    return MonotonicityReport(witness is None, mu, trials,
                              float(np.min([np.inf, *ratios])), witness)


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
    by at least the factor 1 - eta (2 mu - eta L^2) on random pairs; eta is
    held to the round engine's stepsize rule."""
    check_round_inputs(1, eta)
    bound = 1.0 - eta * (2.0 * mu - eta * L**2)

    def lhs_of(diff, dfield):
        step_diff = diff - eta * dfield
        return float(np.dot(step_diff, step_diff))

    trials, ratios, witness = _scan_pairs(
        problem, trials, seed, lhs_of,
        lambda lhs, dsq: lhs > bound * dsq * (1.0 + 1e-10) + 1e-12, mu=mu, L=L)
    return ContractionReport(witness is None, eta, bound, trials,
                             float(np.max([-np.inf, *ratios])), witness)

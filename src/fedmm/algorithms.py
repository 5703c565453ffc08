"""The three optimization procedures and their fixed-point diagnostics.

One driver runs the rounds of all three methods, and both round studies
iterate it: ``run_algorithm`` records every round and ``local_sgda_limit``
stops at its displacement test. ``AlgoConfig.algo`` names the method:

* GDA -- centralized simultaneous descent/ascent, projected onto X x Y.
* Local SGDA -- uncorrected K-step local updates, then server averaging
  (full gradients, no projection anywhere, matching its pseudocode literally).
* FedGDA-GT -- the same local updates plus the gradient-tracking correction;
  the server projects the averaged iterate onto the feasible product set.

``gda_step`` is a separately written centralized step that tests hold the
engine against. ``check_round_inputs`` is the one rule on every K and stepsize
that the functions here and in ``analysis`` take.

All three step z = (x, y) down the GDA field F = (grad_x f, -grad_y f).
Within a round the m agents share nothing, so the driver advances them
together as the rows of one (m, p + q) stack, allocated once per run and
refilled with the synchronized iterate every round, beside a stepsize built
once at the stack's shape: a local step is one batched ``stacked_field``
call and a few in-place updates, none of which broadcasts. The server
averages in ascending row order and projects block by block, in place,
skipping unconstrained blocks. ``local_sgda_limit`` takes the norms of its
stop test only in rounds that a certified screen on the largest entries
does not already fail.
The centralized step is computed as the average of per-agent steps
(algebraically identical to stepping along the averaged gradient), so a K=1
local run and a centralized run produce bitwise identical traces.

Per round, FedGDA-GT broadcasts both the iterate and the averaged gradient;
round counts below count server synchronizations, so message volume is twice
the round count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .core import (UNCONSTRAINED, Iterate, Vector, as_count, ascending_sum, average_vectors,
                   geometric_sums, optimality_gap)
from .problems import MinimaxProblem, UncoupledQuadratic, estimate_constants, require_family

GDA = "GDA"
LOCAL_SGDA = "LocalSGDA"
FEDGDA_GT = "FedGDAGT"
ALGORITHMS = (GDA, LOCAL_SGDA, FEDGDA_GT)

DIVERGENCE_LIMIT = 1e12
LIMIT_TOL = 1e-13  # relative per-round displacement that ends ``local_sgda_limit``
ETA_GRID_SIZE = 46  # halvings of 2/L that ``auto_eta_fedgda`` scans
# round map norms within this of each other tie in ``auto_eta_fedgda``; the
# larger stepsize wins
_TIE_TOL = 1e-12


class DivergenceError(RuntimeError):
    """The server iterate left the trust region; the stepsize is unstable."""

    def __init__(self, algo: str, round_index: int, magnitude: float):
        self.round_index = round_index
        reason = (f"iterate magnitude {magnitude:.3e} exceeds {DIVERGENCE_LIMIT:.0e}"
                  if np.isfinite(magnitude) else "iterate is not finite")
        super().__init__(f"{algo} diverged at round {round_index}: {reason}")


def check_round_inputs(K, *etas: float) -> int:
    """K as an int once it is an integer >= 1 and every stepsize is finite and positive."""
    if not all(0 < eta < np.inf for eta in etas):
        raise ValueError("stepsizes must be finite and positive")
    K = as_count(K, "K")
    if K < 1:
        raise ValueError("K must be >= 1")
    return K


@dataclass
class AlgoConfig:
    """Stepsizes, local-update count, round budget and start point of one run."""

    algo: str
    eta_x: float
    eta_y: float
    K: int
    rounds: int
    init: Iterate

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}; choose from {ALGORITHMS}")
        self.K = check_round_inputs(self.K, self.eta_x, self.eta_y)
        if self.algo == GDA and self.K != 1:
            raise ValueError("GDA performs exactly one update per round; K must be 1")
        if self.algo == FEDGDA_GT and self.eta_x != self.eta_y:
            raise ValueError("FedGDA-GT uses a single stepsize; eta_x must equal eta_y")
        self.rounds = as_count(self.rounds, "rounds")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")


@dataclass
class RoundRecord:
    round: int
    iterate: Iterate
    grad_norm: float
    gap_sq: float | None = None
    robust_loss: float | None = None
    elapsed_ns: int = 0


@dataclass
class RunTrace:
    """One record per communication round, including round 0 at the start point."""

    config: AlgoConfig
    records: list[RoundRecord] = field(default_factory=list)

    @property
    def final(self) -> Iterate:
        return self.records[-1].iterate


# ---------------------------------------------------------------------------
# centralized reference step
# ---------------------------------------------------------------------------

def gda_step(
    problem: MinimaxProblem, z: Iterate, eta_x: float, eta_y: float
) -> Iterate:
    """One centralized step: descend x, ascend y along the averaged gradient,
    then project onto the feasible product set.

    Computed as the ascending-index average of per-agent single steps, which
    shares the federated reduction arithmetic. Written independently of the
    round engine below, so tests can hold the engine against it.
    """
    problem._check(z)
    xs = [z.x - eta_x * agent.grad_x(z.x, z.y) for agent in problem.agents]
    ys = [z.y + eta_y * agent.grad_y(z.x, z.y) for agent in problem.agents]
    return problem.sets.project(Iterate(average_vectors(xs), average_vectors(ys)))


# ---------------------------------------------------------------------------
# round engine
# ---------------------------------------------------------------------------

def _stacked_eta(problem: MinimaxProblem, eta_x: float, eta_y: float) -> np.ndarray:
    """Stepsize of every entry of the (m, p + q) agent stack: eta_x on the x
    block, eta_y on the y block. Built once per run at the stack's shape, so
    that no local step broadcasts or converts a Python float."""
    eta = np.empty((problem.m, problem.p + problem.q))
    eta[:, :problem.p] = eta_x
    eta[:, problem.p:] = eta_y
    return eta


def _round(problem: MinimaxProblem, config: AlgoConfig, eta: np.ndarray, t: int, Z: np.ndarray,
           F: np.ndarray, Fbar: Vector | None = None) -> tuple[Vector, float]:
    """Round t of ``config.algo`` from the synchronized iterate, held in every
    row of the (m, p + q) stack Z. F is every agent's field there, ``Fbar``
    its agent average (needed by FedGDA-GT only) and eta ``_stacked_eta``'s.

    Every agent walks K local steps, the first along F, and the server
    averages the endpoints in ascending row order. FedGDA-GT adds to each
    local field the correction Fbar - F, which vanishes identically in the
    homogeneous case. Z and F are consumed: every step, the first included,
    updates both in place, and every operand of a step has the stack's shape;
    ``Fbar`` is left as it is. GDA and FedGDA-GT project the average onto X
    and Y, each block in place and only where it is constrained; Local SGDA
    applies no projection.

    Returns the new iterate and its largest absolute entry. An iterate whose
    entry is not finite or exceeds ``DIVERGENCE_LIMIT`` raises ``DivergenceError``.
    """
    tracking = config.algo == FEDGDA_GT
    if tracking:
        C = Fbar - F
    for step in range(config.K):
        if step:
            F = problem.stacked_field(Z)
        if tracking:
            F += C
        F *= eta
        Z -= F
    z = ascending_sum(Z) / problem.m
    if config.algo != LOCAL_SGDA:
        p, sets = problem.p, problem.sets
        for part, feasible in ((z[:p], sets.set_x), (z[p:], sets.set_y)):
            if feasible.kind != UNCONSTRAINED:
                part[...] = feasible.project(part)
    # np.maximum, unlike max(), keeps a NaN, and a NaN fails the comparison
    magnitude = float(np.maximum.reduce(np.abs(z)))
    if not magnitude <= DIVERGENCE_LIMIT:
        raise DivergenceError(config.algo, t, magnitude)
    return z, magnitude


def _block_norm(v: Vector, p: int) -> float:
    """|v| as x's dot plus y's: one dot over all p + q entries sums in another order."""
    return float(np.sqrt(np.dot(v[:p], v[:p]) + np.dot(v[p:], v[p:])))


def _rounds(problem: MinimaxProblem, config: AlgoConfig) -> Iterator[tuple]:
    """Yield (t, z, F, Fbar, magnitude) for t = 0, ..., ``config.rounds``: the
    synchronized iterate, every agent's field there, its average (FedGDA-GT
    only, else None) and z's largest absolute entry (None at t = 0). Resuming
    runs round t + 1, which consumes F. Stepsize and stack are built once."""
    eta = _stacked_eta(problem, config.eta_x, config.eta_y)
    Z, z, magnitude = np.empty(eta.shape), config.init.stacked, None
    for t in range(config.rounds + 1):
        if t:
            z, magnitude = _round(problem, config, eta, t, Z, F, Fbar)
        Z[...] = z
        F = problem.stacked_field(Z)
        Fbar = average_vectors(F) if config.algo == FEDGDA_GT else None
        yield t, z, F, Fbar, magnitude


def run_algorithm(
    problem: MinimaxProblem,
    config: AlgoConfig,
    *,
    z_star: Iterate | None = None,
    robust_loss_fn: Callable[[Iterate], float] | None = None,
) -> RunTrace:
    """Run ``config.algo`` for ``config.rounds`` rounds from ``config.init``.

    Every agent's field is taken, and averaged, once per synchronized
    iterate: it gives the recorded gradient norm and the next round's first
    local step (and, for FedGDA-GT, the tracking correction). Local SGDA
    with K = 1 is exactly the centralized method: its trace coincides
    bitwise with iterating ``gda_step`` on unconstrained problems. Overflow
    in a diverging run is left to the divergence check, which reports it.
    """
    problem._check(config.init)
    start = time.perf_counter_ns()
    trace = RunTrace(config)
    p = problem.p
    with np.errstate(over="ignore", invalid="ignore"):
        for t, z, F, Fbar, _ in _rounds(problem, config):
            # read before the next round consumes F
            Fbar = average_vectors(F) if Fbar is None else Fbar
            it = Iterate(z[:p].copy(), z[p:].copy())
            trace.records.append(RoundRecord(
                round=t,
                iterate=it,
                grad_norm=_block_norm(Fbar, p),
                gap_sq=optimality_gap(it, z_star) if z_star is not None else None,
                robust_loss=robust_loss_fn(it) if robust_loss_fn is not None else None,
                elapsed_ns=time.perf_counter_ns() - start,
            ))
    return trace


# ``AlgoConfig.algo`` names the method; the per-method names stay for callers
# that import them
local_sgda = fedgda_gt = run_algorithm


# ---------------------------------------------------------------------------
# fixed-point diagnostics
# ---------------------------------------------------------------------------

def local_sgda_residual(
    problem: MinimaxProblem, z: Iterate, K: int, eta_x: float, eta_y: float
) -> Vector:
    """Averaged sum of local gradients along every agent's K-step path from z,
    one ``stacked_field`` call per local step.

    A point is a fixed point of the uncorrected scheme exactly when this
    vanishes; with K = 1 it reduces to the averaged gradient, so it measures
    how far the scheme's limits drift from true stationarity.
    """
    K = check_round_inputs(K, eta_x, eta_y)
    problem._check(z)
    eta = _stacked_eta(problem, eta_x, eta_y)
    Z = z.stacked[None].repeat(problem.m, axis=0)
    acc = np.zeros(Z.shape)
    for step in range(K):
        if step:
            Z = Z - eta * F
        F = problem.stacked_field(Z)
        acc += F
    r = average_vectors(acc)
    return np.concatenate((r[:problem.p], -r[problem.p:]))


@dataclass
class LimitResult:
    iterate: Iterate
    rounds: int
    converged: bool


def _stop_screen(n: int) -> Callable[[float, float], bool]:
    """Whether a round of ``local_sgda_limit`` on n-entry iterates certainly
    fails its stop test ||step|| <= LIMIT_TOL (1 + ||z||), read from the
    largest absolute entries of the step and of the new iterate z alone.

    It does when max|step| > LIMIT_TOL (1 + sqrt(n) max|z|) (1 + s), since
    ||step|| >= max|step| and ||z|| <= sqrt(n) max|z|. The slack s covers the
    rounding of both computed norms, length-n sums of squares, and of this
    bound: sized by n as ``_diagonal_slack`` sizes the search's allowance,
    and never below 1e-10. Squares of entries above LIMIT_TOL neither
    underflow nor, below ``DIVERGENCE_LIMIT``, overflow, so the screen
    never skips a round that the computed test accepts.
    """
    root_n = float(np.sqrt(n))
    tol = LIMIT_TOL * (1.0 + max(_MIN_SLACK, _SLACK_FACTOR * (n + 3) * np.finfo(float).eps))
    return lambda step_max, magnitude: step_max > tol * (1.0 + root_n * magnitude)


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
    oracle for the closed form.

    The norms of the stop test are taken only in rounds that
    ``_stop_screen`` does not already fail, so the stop round and the
    returned iterate are bitwise those of testing every round."""
    max_rounds = as_count(max_rounds, "max_rounds")
    p, z = problem.p, np.zeros(problem.p + problem.q)
    config = AlgoConfig(LOCAL_SGDA, eta_x, eta_y, K, max_rounds, Iterate(z[:p], z[p:]))
    moving = _stop_screen(len(z))
    # overflow in a diverging run is left to the divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        for t, z_next, _, _, magnitude in _rounds(problem, config):
            # |step| has the norm of the step, bit for bit: its squares are the same
            step, z = np.abs(z_next - z), z_next
            if not t or moving(float(np.maximum.reduce(step)), magnitude):
                continue
            if _block_norm(step, p) <= LIMIT_TOL * (1.0 + _block_norm(z, p)):
                return LimitResult(Iterate(z[:p], z[p:]), t, True)
    return LimitResult(Iterate(z[:p], z[p:]), max_rounds, False)


# ---------------------------------------------------------------------------
# stepsize selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaSelection:
    """A chosen stepsize plus the operator norm of the induced round map.

    ``round_map_norm`` < 1 certifies geometric decay: every per-round
    squared-distance ratio is bounded by its square.
    """

    eta: float
    round_map_norm: float


def conservative_eta(mu: float, L: float, K: int) -> float:
    """Half the minimum of the two closed-form stability ceilings; mu and L finite and positive."""
    K = check_round_inputs(K)
    if not 0 < mu < np.inf:
        raise ValueError(f"the conservative stepsize needs a finite mu > 0, got {mu}")
    if not 0 < L < np.inf:
        raise ValueError(f"the conservative stepsize needs a finite L > 0, got {L}")
    return 0.5 * min(2.0 * mu / L**2, 1.0 / (2.0 * mu * K))


def _round_map_weights(w: np.ndarray, eta: float | np.ndarray, K: int) -> np.ndarray:
    """Eigenvalues eta sum_{j<K} (1 - eta w)^j of eta S_i at the curvature eigenvalues w,
    elementwise: an eta (n, 1, 1) gives n candidates' weights, each bitwise its own call's."""
    return eta * geometric_sums(1.0 - eta * w, K)


def _round_map(V: np.ndarray, geo: np.ndarray, Qbar: np.ndarray) -> np.ndarray:
    """I - Sbar Qbar, where Sbar = (1/m) sum_i V_i diag(geo_i) V_i' averages
    the agents' eta S_i."""
    S = np.matmul(V * geo[:, None, :], V.transpose(0, 2, 1))
    return np.eye(len(Qbar)) - (ascending_sum(S) / len(V)) @ Qbar


# relative allowance for rounding in ``_round_map_lower_bound``. The diagonal
# is a length-m d dot product of length-d ones; the map is a length-d
# product, an m-term average and a length-d product; their worst-case errors
# and the norm's come to at most about (m + 3)(d + 3) eps, 3e-13 on the
# 20-agent, d = 50 benchmark federation. The allowance is 128 times that at
# every size, and never below 1e-10
_SLACK_FACTOR = 128.0
_MIN_SLACK = 1e-10


def _diagonal_slack(m: int, d: int) -> float:
    return max(_MIN_SLACK, _SLACK_FACTOR * (m + 3) * (d + 3) * np.finfo(float).eps)


def _diagonal_terms(V: np.ndarray, Qbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stepsize-independent arrays of the round map's diagonal.

    Entry k of the diagonal is
    1 - (1/m) sum_i sum_l V_i[k, l] (V_i' Qbar)[l, k] geo_il, so column (i, l)
    of the (d, m d) array holds V_i[:, l] * (V_i' Qbar)[l, :].
    The second array, (d,), holds the column norms ||Qbar[:, k]||, which
    bound the sum's terms.
    """
    m, d = V.shape[:2]
    # filled through its (k, i, l) view, without a transposed copy
    terms = np.empty((d, m, d))
    VtQ = np.matmul(V.transpose(0, 2, 1), Qbar)
    np.multiply(V.transpose(1, 0, 2), VtQ.transpose(2, 0, 1), out=terms)
    return terms.reshape(d, m * d), np.linalg.norm(Qbar, axis=0)


def _round_map_lower_bound(terms: tuple[np.ndarray, np.ndarray], geo: np.ndarray) -> np.ndarray:
    """Lower bounds (n,) on the computed ``np.linalg.norm(M, 2)`` of the maps
    built from each of the n weights ``geo`` (n, m, d), by their diagonals,
    ||M|| >= max_k |M_kk|, all from one (d, m d) x (m d, n) product.

    Every diagonal entry is reduced by ``_diagonal_slack(m, d)`` times a bound on
    the sum of its terms' absolute values, which covers the rounding of this
    evaluation, of ``_round_map`` and of the norm, so the bound holds for the
    norm as computed, not only for the exact map.
    """
    products, column_norms = terms
    n, m, d = geo.shape
    diagonal = 1.0 - products @ geo.reshape(n, m * d).T / m
    # sum_l |V_i[k, l] (V_i' Qbar)[l, k] geo_il| <= ||geo_i|| ||Qbar[:, k]||,
    # by Cauchy-Schwarz over the unit rows and columns of V_i; the same bound
    # covers the products that ``_round_map`` takes in another order
    magnitude = 1.0 + np.linalg.norm(geo, axis=2).sum(axis=1) / m * column_norms[:, None]
    return np.max(np.abs(diagonal) - _diagonal_slack(m, d) * magnitude, axis=0)


def fedgda_round_map(problem: MinimaxProblem, eta: float, K: int) -> np.ndarray:
    """Exact linear round map of the gradient-tracking scheme on quadratic
    families (identical for the x and y blocks).

    With B_i = I - eta Q_i and S_i = sum_{j<K} B_i^j, every local step of
    agent i moves along the global gradient gbar plus Q_i times its drift,
    so the agent ends the round at x - eta S_i gbar, and the average is
    x - eta Sbar (Qbar x + abar). The map is I - eta Sbar Qbar, which equals
    (1/m) sum_i [B_i^K - eta S_i (Qbar - Q_i)] since B_i^K = I - eta S_i Q_i.
    """
    K = check_round_inputs(K, eta)
    problem = require_family(problem, UncoupledQuadratic, "no round map for {}")
    w, V = problem.spectra
    return _round_map(V, _round_map_weights(w, eta, K), problem.Q_sum / problem.m)


def fedgda_round_map_norm(problem: MinimaxProblem, eta: float, K: int) -> float:
    return float(np.linalg.norm(fedgda_round_map(problem, eta, K), 2))


def auto_eta_fedgda(problem: MinimaxProblem, K: int) -> EtaSelection:
    """Pick a stepsize for the gradient-tracking scheme on quadratic families.

    Scans a geometric grid below the per-step stability ceiling 2/L and keeps
    the stepsize whose exact round map has the smallest operator norm (larger
    stepsize wins ties within ``_TIE_TOL``). The closed-form conservative value is
    among the candidates whenever mu > 0, so the selection never does worse
    than it; with a singular agent curvature (mu <= 0) the grid stands alone.

    A candidate's map is built and normed only if it can still win:
    ``_round_map_lower_bound`` bounds every candidate's norm from below by its
    map's diagonal, all in one matrix product instead of d x d products and
    an SVD each. A candidate whose bound exceeds the best norm so far
    by more than the tie tolerance can neither beat nor tie it, and the
    running best is the one a scan of every candidate holds at that point, so
    the selection is bitwise that of building every map. Usually one or two
    maps get built.
    """
    K = check_round_inputs(K)
    mu, L = estimate_constants(problem)
    candidates = [2.0 / L * 0.5**j for j in range(1, ETA_GRID_SIZE + 1)]
    if mu > 0:
        candidates.append(conservative_eta(mu, L, K))
    # estimate_constants refused every problem but a quadratic family
    w, V = problem.spectra
    Qbar = problem.Q_sum / problem.m
    geos = _round_map_weights(w, np.array(candidates)[:, None, None], K)
    bounds = _round_map_lower_bound(_diagonal_terms(V, Qbar), geos)
    best: EtaSelection | None = None
    for eta, geo, bound in zip(candidates, geos, bounds):
        if best is not None and bound > best.round_map_norm + _TIE_TOL:
            continue
        s = float(np.linalg.norm(_round_map(V, geo, Qbar), 2))
        if best is None or s < best.round_map_norm - _TIE_TOL or (
            abs(s - best.round_map_norm) <= _TIE_TOL and eta > best.eta
        ):
            best = EtaSelection(eta, s)
    return best

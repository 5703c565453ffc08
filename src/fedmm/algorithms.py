"""The three optimization procedures and their fixed-point diagnostics.

One round engine and one runner, ``run_algorithm``, serve all three methods;
``AlgoConfig.algo`` names the method:

* GDA -- centralized simultaneous descent/ascent, projected onto X x Y.
* Local SGDA -- uncorrected K-step local updates, then server averaging
  (full gradients, no projection anywhere, matching its pseudocode literally).
* FedGDA-GT -- the same local updates plus the gradient-tracking correction;
  the server projects the averaged iterate onto the feasible product set.

``gda_step`` is a separately written centralized step that tests hold the
engine against.

All three step z = (x, y) down the GDA field F = (grad_x f, -grad_y f).
Within one communication round the m agents share nothing, so the engine
advances all of them together as the rows z_i of one (m, p + q) array: a
local step is one batched ``stacked_field`` call and one array update. Every
server aggregation is a deterministic ascending-index reduction over rows.
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
from typing import Callable

import numpy as np

from .core import Iterate, Vector, ascending_sum, average_vectors, optimality_gap
from .problems import MinimaxProblem, estimate_constants, require_quadratic

GDA = "GDA"
LOCAL_SGDA = "LocalSGDA"
FEDGDA_GT = "FedGDAGT"
ALGORITHMS = (GDA, LOCAL_SGDA, FEDGDA_GT)

DIVERGENCE_LIMIT = 1e12
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
        if not (0 < self.eta_x < np.inf and 0 < self.eta_y < np.inf):
            raise ValueError("stepsizes must be finite and positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.algo == GDA and self.K != 1:
            raise ValueError("GDA performs exactly one update per round; K must be 1")
        if self.algo == FEDGDA_GT and self.eta_x != self.eta_y:
            raise ValueError("FedGDA-GT uses a single stepsize; eta_x must equal eta_y")
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

def _stacked_eta(problem: MinimaxProblem, eta_x: float, eta_y: float):
    """Stepsize of z = (x, y): the scalar, or each block's over its entries."""
    return eta_x if eta_x == eta_y else np.repeat([eta_x, eta_y], [problem.p, problem.q])


def _round(problem: MinimaxProblem, config: AlgoConfig, z: Vector, F: np.ndarray,
           Fbar: Vector | None = None) -> Vector:
    """One communication round of ``config.algo`` from the synchronized
    iterate z, where F is every agent's field at z and ``Fbar`` its agent
    average (needed by FedGDA-GT only).

    Every agent walks K local steps, the first along the supplied field, and
    the server averages the endpoints. FedGDA-GT adds to each local field
    the correction Fbar - F, which vanishes identically in the homogeneous
    case. GDA and FedGDA-GT project the average onto X and Y; Local SGDA
    applies no projection.
    """
    eta = _stacked_eta(problem, config.eta_x, config.eta_y)
    tracking = config.algo == FEDGDA_GT
    if tracking:
        C = Fbar - F
    Z = z
    for step in range(config.K):
        if step:
            F = problem.stacked_field(Z)
        if tracking:
            F = F + C
        Z = Z - eta * F
    z = average_vectors(Z)
    if config.algo == LOCAL_SGDA:
        return z
    p, sets = problem.p, problem.sets
    return np.concatenate((sets.set_x.project(z[:p]), sets.set_y.project(z[p:])))


def _check_divergence(algo: str, round_index: int, z: Vector) -> None:
    # np.maximum, unlike max(), keeps a NaN, and a NaN fails the comparison
    magnitude = float(np.maximum.reduce(np.abs(z)))
    if not magnitude <= DIVERGENCE_LIMIT:
        raise DivergenceError(algo, round_index, magnitude)


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
    p, m, z = problem.p, problem.m, config.init.stacked
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.rounds + 1):
            if t:
                z = _round(problem, config, z, F, Fbar)
                _check_divergence(config.algo, t, z)
            F = problem.stacked_field(z[None].repeat(m, axis=0))
            Fbar = average_vectors(F)
            fx, fy = Fbar[:p], Fbar[p:]
            it = Iterate(z[:p].copy(), z[p:].copy())
            trace.records.append(RoundRecord(
                round=t,
                iterate=it,
                # two dots: one over all p + q entries would sum in another order
                grad_norm=float(np.sqrt(np.dot(fx, fx) + np.dot(fy, fy))),
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
    if K < 1:
        raise ValueError("K must be >= 1")
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
    """Half the minimum of the two closed-form stability ceilings."""
    return 0.5 * min(2.0 * mu / L**2, 1.0 / (2.0 * mu * K))


def _round_map_weights(w: np.ndarray, eta: float, K: int) -> np.ndarray:
    """Eigenvalues geo = eta sum_{j<K} (1 - eta w)^j of eta S_i at the
    curvature eigenvalues w, in closed form.

    ``analysis.local_sgda_fixed_point`` sums the same series term by term
    instead: that keeps its output bitwise as it was, and stays accurate at
    small eta w, where this closed form needs its series branch.
    """
    # geo = (1 - (1 - eta w)^K) / w, except the quotient cancels
    # catastrophically as eta*w -> 0; switch to its series there
    small = np.abs(eta * w) < 1e-8
    return np.where(
        small,
        eta * K * (1.0 - 0.5 * (K - 1) * eta * w),
        (1.0 - (1.0 - eta * w) ** K) / np.where(small, 1.0, w),
    )


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


def _round_map_lower_bound(terms: tuple[np.ndarray, np.ndarray], geo: np.ndarray) -> float:
    """A lower bound on the computed ``np.linalg.norm(M, 2)`` of the round map
    built from ``geo``, from its diagonal: ||M|| >= max_k |M_kk|.

    Every diagonal entry is reduced by ``_diagonal_slack(m, d)`` times a bound on
    the sum of its terms' absolute values, which covers the rounding of this
    evaluation, of ``_round_map`` and of the norm, so the bound holds for the
    norm as computed, not only for the exact map.
    """
    products, column_norms = terms
    m, d = geo.shape
    diagonal = 1.0 - products @ geo.reshape(-1) / m
    # sum_l |V_i[k, l] (V_i' Qbar)[l, k] geo_il| <= ||geo_i|| ||Qbar[:, k]||,
    # by Cauchy-Schwarz over the unit rows and columns of V_i; the same bound
    # covers the products that ``_round_map`` takes in another order
    magnitude = 1.0 + np.linalg.norm(geo, axis=1).sum() / m * column_norms
    return float(np.max(np.abs(diagonal) - _diagonal_slack(m, d) * magnitude))


def fedgda_round_map(problem: MinimaxProblem, eta: float, K: int) -> np.ndarray:
    """Exact linear round map of the gradient-tracking scheme on quadratic
    families (identical for the x and y blocks).

    With B_i = I - eta Q_i and S_i = sum_{j<K} B_i^j, every local step of
    agent i moves along the global gradient gbar plus Q_i times its drift,
    so the agent ends the round at x - eta S_i gbar, and the average is
    x - eta Sbar (Qbar x + abar). The map is I - eta Sbar Qbar, which equals
    (1/m) sum_i [B_i^K - eta S_i (Qbar - Q_i)] since B_i^K = I - eta S_i Q_i.
    """
    problem = require_quadratic(problem, "no round map for {}")
    w, V = problem.spectra
    return _round_map(V, _round_map_weights(w, eta, K), problem.Q_sum / problem.m)


def fedgda_round_map_norm(problem: MinimaxProblem, eta: float, K: int) -> float:
    return float(np.linalg.norm(fedgda_round_map(problem, eta, K), 2))


def auto_eta_fedgda(problem: MinimaxProblem, K: int) -> EtaSelection:
    """Pick a stepsize for the gradient-tracking scheme on quadratic families.

    Scans a geometric grid below the per-step stability ceiling 2/L and keeps
    the stepsize whose exact round map has the smallest operator norm (larger
    stepsize wins ties within ``_TIE_TOL``). The closed-form conservative value is
    always among the candidates, so the selection never does worse than it.

    A candidate's map is built and normed only if it can still win: before
    building, ``_round_map_lower_bound`` bounds its norm from below by the
    map's diagonal, one (d, m d) matrix-vector product instead of d x d
    products and an SVD. A candidate whose bound exceeds the best norm so far
    by more than the tie tolerance can neither beat nor tie it, and the
    running best is the one a scan of every candidate holds at that point, so
    the selection is bitwise that of building every map. Usually one or two
    maps get built.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    # mu and L come from eigvalsh, not from the eigh spectra below: on 130
    # of 133 quadratic federations checked, benchmark seeds 0, 7 and 11 among
    # them, the extremes of the two differ in the last bits (mu on 122, L on
    # 108), which moves the grid and the selected stepsize
    mu, L = estimate_constants(problem)
    candidates = [2.0 / L * 0.5**j for j in range(1, ETA_GRID_SIZE + 1)]
    candidates.append(conservative_eta(mu, L, K))
    # estimate_constants refused every problem but a quadratic family
    w, V = problem.spectra
    Qbar = problem.Q_sum / problem.m
    terms = _diagonal_terms(V, Qbar)
    best: EtaSelection | None = None
    for eta in candidates:
        geo = _round_map_weights(w, eta, K)
        if best is not None and (
            _round_map_lower_bound(terms, geo) > best.round_map_norm + _TIE_TOL
        ):
            continue
        s = float(np.linalg.norm(_round_map(V, geo, Qbar), 2))
        if best is None or s < best.round_map_norm - _TIE_TOL or (
            abs(s - best.round_map_norm) <= _TIE_TOL and eta > best.eta
        ):
            best = EtaSelection(eta, s)
    return best

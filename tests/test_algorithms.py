import numpy as np
import pytest

from fedmm import algorithms, analysis
from fedmm.algorithms import (
    DIVERGENCE_LIMIT,
    ETA_GRID_SIZE,
    FEDGDA_GT,
    GDA,
    LIMIT_TOL,
    LOCAL_SGDA,
    AlgoConfig,
    DivergenceError,
    EtaSelection,
    _TIE_TOL,
    _block_norm,
    _diagonal_slack,
    _diagonal_terms,
    _round,
    _round_map_lower_bound,
    _round_map_weights,
    _stop_screen,
    auto_eta_fedgda,
    conservative_eta,
    fedgda_round_map,
    fedgda_round_map_norm,
    gda_step,
    local_sgda_limit,
    local_sgda_residual,
    run_algorithm,
)
from fedmm.analysis import local_sgda_fixed_point
from fedmm.core import FeasibleSet, Iterate, ProductSet, average_vectors, geometric_sums
from fedmm.datagen import QuadraticGenSpec, RlrGenSpec, gen_quadratic, gen_rlr
from fedmm.problems import (
    MinimaxProblem,
    RobustLinearRegression,
    ScalarTwoAgent,
    UncoupledQuadratic,
    UnsupportedProblemError,
    closed_form_minimax,
    estimate_constants,
)


def small_quadratic(m=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    Qs, cs = [], []
    for _ in range(m):
        A = rng.normal(size=(d + 2, d))
        Qs.append(A.T @ A)
        cs.append(rng.normal(size=d))
    return UncoupledQuadratic(Qs, cs)


def independent_x_term_quadratic(m=4, d=6, seed=12):
    rng = np.random.default_rng(seed)
    Qs = [A.T @ A for A in rng.normal(size=(m, d + 3, d))]
    return UncoupledQuadratic(Qs, rng.normal(size=(m, d)), a_list=rng.normal(size=(m, d)))


FEDERATIONS = {
    **{f"quad-seed-{seed}": (lambda seed=seed: gen_quadratic(
        QuadraticGenSpec(m=20, d=50, n_i=500, seed=seed))) for seed in (0, 7, 11)},
    "scalar2": ScalarTwoAgent,
    "independent-a": independent_x_term_quadratic,
    "small": lambda: small_quadratic(m=4, d=5, seed=10),
}
SEARCH_CASES = [(name, K) for name in FEDERATIONS if name != "small" for K in (1, 20, 50)]


@pytest.fixture(scope="module")
def federation():
    """Each federation of ``FEDERATIONS``, built once per module."""
    built = {}

    def get(name):
        if name not in built:
            built[name] = FEDERATIONS[name]()
        return built[name]

    return get


@pytest.fixture(scope="module")
def exhaustive_scan(federation):
    """Every candidate of the stepsize grid, in the search's order, with the
    public ``fedgda_round_map_norm`` of its map, computed once per case."""
    scans = {}

    def get(name, K):
        if (name, K) not in scans:
            prob = federation(name)
            mu, L = estimate_constants(prob)
            candidates = [2.0 / L * 0.5**j for j in range(1, ETA_GRID_SIZE + 1)]
            candidates.append(conservative_eta(mu, L, K))
            scans[name, K] = [(eta, fedgda_round_map_norm(prob, eta, K)) for eta in candidates]
        return scans[name, K]

    return get


class TestGdaStep:
    def test_stationary_point_is_fixed(self):
        prob = ScalarTwoAgent()
        z = Iterate(np.array([3.3]), np.array([3.3]))
        for eta in (0.01, 0.1, 1.0):
            z_next = gda_step(prob, z, eta, eta)
            assert abs(z_next.x[0] - 3.3) <= 1e-12
            assert abs(z_next.y[0] - 3.3) <= 1e-12

    def test_step_from_origin(self):
        # averaged gradients at (0,0): grad_x = (-1 - 32)/2 = -16.5,
        # grad_y = (1 + 32)/2 = 16.5, so descent/ascent lands at (1.65, 1.65)
        prob = ScalarTwoAgent()
        z = gda_step(prob, Iterate.zeros(1, 1), 0.1, 0.1)
        assert z.x[0] == pytest.approx(1.65, abs=1e-12)
        assert z.y[0] == pytest.approx(1.65, abs=1e-12)

    def test_zero_stepsize_is_identity(self):
        prob = ScalarTwoAgent()
        z = Iterate(np.array([0.37]), np.array([-2.11]))
        z_next = gda_step(prob, z, 0.0, 0.0)
        assert np.array_equal(z_next.x, z.x)
        assert np.array_equal(z_next.y, z.y)

    def test_projects_onto_product_set(self):
        sets = ProductSet(
            FeasibleSet.unconstrained(2), FeasibleSet.ball(np.zeros(2), 0.5)
        )
        prob = UncoupledQuadratic(
            [np.eye(2)], [np.array([5.0, 0.0])], sets=sets
        )
        z = gda_step(prob, Iterate.zeros(2, 2), 0.9, 0.9)
        assert np.linalg.norm(z.y) <= 0.5 + 1e-12


class CountingAgent:
    """Delegates to a local objective and counts its gradient calls."""

    def __init__(self, agent):
        self.agent = agent
        self.p, self.q = agent.p, agent.q
        self.calls_x = self.calls_y = 0

    def grad_x(self, x, y):
        self.calls_x += 1
        return self.agent.grad_x(x, y)

    def grad_y(self, x, y):
        self.calls_y += 1
        return self.agent.grad_y(x, y)


class TestRoundEngine:
    def test_gda_run_equals_iterated_gda_step_on_ball_bitwise(self):
        # large offsets put y* far outside the radius-0.5 ball, so the
        # projection is active in most rounds
        rng = np.random.default_rng(11)
        Qs = [a.T @ a for a in (rng.normal(size=(5, 3)) for _ in range(3))]
        cs = [rng.normal(scale=5.0, size=3) for _ in range(3)]
        sets = ProductSet(FeasibleSet.unconstrained(3), FeasibleSet.ball(np.zeros(3), 0.5))
        prob = UncoupledQuadratic(Qs, cs, sets=sets)
        init = Iterate(rng.normal(size=3), np.zeros(3))
        eta_x, eta_y = 2e-2, 3e-2
        trace = run_algorithm(prob, AlgoConfig(GDA, eta_x, eta_y, 1, 40, init))
        z = init.copy()
        on_boundary = 0
        for t in range(1, 41):
            z = gda_step(prob, z, eta_x, eta_y)
            rec = trace.records[t].iterate
            assert np.array_equal(z.x, rec.x)
            assert np.array_equal(z.y, rec.y)
            on_boundary += abs(np.linalg.norm(z.y) - 0.5) <= 1e-12
        assert on_boundary >= 30

    @pytest.mark.parametrize("algo,K", [(GDA, 1), (LOCAL_SGDA, 4), (FEDGDA_GT, 4)])
    def test_one_gradient_pair_per_agent_per_synchronized_iterate(self, algo, K):
        # R rounds visit R + 1 synchronized iterates; each agent's gradient
        # there is taken once, plus K - 1 more along each local path
        m, R = 3, 5
        agents = [CountingAgent(a) for a in small_quadratic(m=m, seed=12).agents]
        prob = MinimaxProblem(agents)
        cfg = AlgoConfig(algo, 1e-3, 1e-3, K, R, Iterate.zeros(5, 5))
        run_algorithm(prob, cfg)
        expected = K * R + 1
        assert [a.calls_x for a in agents] == [expected] * m
        assert [a.calls_y for a in agents] == [expected] * m

    def test_z_star_of_wrong_dimension_rejected(self):
        prob = small_quadratic(seed=3)
        cfg = AlgoConfig(GDA, 1e-3, 1e-3, 1, 2, Iterate.zeros(5, 5))
        with pytest.raises(ValueError, match="mismatched dimensions"):
            run_algorithm(prob, cfg, z_star=Iterate.zeros(1, 1))


def quadratic_on_y_ball():
    # large offsets put y* far outside the radius-0.5 ball
    rng = np.random.default_rng(21)
    Qs = [a.T @ a for a in (rng.normal(size=(6, 4)) for _ in range(3))]
    cs = [rng.normal(scale=5.0, size=4) for _ in range(3)]
    sets = ProductSet(FeasibleSet.unconstrained(4), FeasibleSet.ball(np.zeros(4), 0.5))
    return UncoupledQuadratic(Qs, cs, sets=sets)


def rlr_on_small_ball():
    spec = RlrGenSpec(m=4, d=3, n_i=20, alpha=5.0, seed=22)
    prob = gen_rlr(spec)
    return RobustLinearRegression([a.A for a in prob.agents], [a.b for a in prob.agents],
                                  y_radius=0.05)


def split_block_run(problem, config):
    """(x, y, grad_norm) at every round of ``config.algo``, from a loop over
    the per-agent oracles that steps x down grad_x and y up grad_y as two
    blocks, each with its own stepsize, in ascending agent order."""
    x, y = config.init.x, config.init.y
    records = []
    for t in range(config.rounds + 1):
        if t:
            xs, ys = [], []
            for agent in problem.agents:
                xi, yi = x, y
                for _ in range(config.K):
                    xi, yi = (xi - config.eta_x * agent.grad_x(xi, yi),
                              yi + config.eta_y * agent.grad_y(xi, yi))
                xs.append(xi)
                ys.append(yi)
            x, y = average_vectors(xs), average_vectors(ys)
            if config.algo != LOCAL_SGDA:
                x, y = problem.sets.set_x.project(x), problem.sets.set_y.project(y)
        gx = average_vectors([a.grad_x(x, y) for a in problem.agents])
        gy = average_vectors([a.grad_y(x, y) for a in problem.agents])
        records.append((x, y, float(np.sqrt(np.dot(gx, gx) + np.dot(gy, gy)))))
    return records


class TestStackedEngine:
    """Each family's batched oracle against the same agents run through the
    default per-agent loop of a plain ``MinimaxProblem``, and the stacked
    iterate against x and y stepped as two blocks."""

    @pytest.mark.parametrize("algo,K,etas,make", [
        (GDA, 1, (2e-2, 3e-2), quadratic_on_y_ball),
        (LOCAL_SGDA, 5, (2e-3, 3e-3), quadratic_on_y_ball),
        # the plain problem over RLR agents: the batched statistics agree
        # with the agents' per-sample oracles to rounding only
        (LOCAL_SGDA, 5, (3e-3, 1e-3), lambda: MinimaxProblem(rlr_on_small_ball().agents)),
    ], ids=["gda-quadratic-ball", "lsgda-quadratic", "lsgda-rlr-agents"])
    def test_unequal_stepsizes_match_a_split_block_loop_bitwise(self, algo, K, etas, make):
        # eta_x != eta_y steps the stacked iterate with a vector of stepsizes
        prob = make()
        init = Iterate(np.full(prob.p, 0.5), np.full(prob.q, -0.2))
        cfg = AlgoConfig(algo, *etas, K, 30, init)
        trace = run_algorithm(prob, cfg)
        reference = split_block_run(prob, cfg)
        assert len(trace.records) == len(reference) == 31
        for rec, (x, y, grad_norm) in zip(trace.records, reference):
            assert np.array_equal(rec.iterate.x, x)
            assert np.array_equal(rec.iterate.y, y)
            assert rec.grad_norm == grad_norm

    @pytest.mark.parametrize("algo,K", [(GDA, 1), (LOCAL_SGDA, 6), (FEDGDA_GT, 6)])
    @pytest.mark.parametrize("make,eta,rtol", [
        (ScalarTwoAgent, 1e-2, 0.0),
        (quadratic_on_y_ball, 2e-2, 0.0),
        (rlr_on_small_ball, 2e-3, 1e-12),
    ], ids=["scalar2", "quadratic-ball", "rlr"])
    def test_run_matches_per_agent_loop(self, make, eta, rtol, algo, K):
        prob = make()
        loop = MinimaxProblem(list(prob.agents), prob.sets)
        eta_x, eta_y = (eta, eta) if algo == FEDGDA_GT else (eta, 1.5 * eta)
        init = Iterate(np.full(prob.p, 0.5), np.full(prob.q, -0.2))
        cfg = AlgoConfig(algo, eta_x, eta_y, K, 30, init)
        stacked, looped = run_algorithm(prob, cfg), run_algorithm(loop, cfg)
        assert len(stacked.records) == len(looped.records) == 31
        for a, b in zip(stacked.records, looped.records):
            for u, v in ((a.iterate.x, b.iterate.x), (a.iterate.y, b.iterate.y)):
                if rtol == 0.0:
                    assert np.array_equal(u, v)
                else:
                    assert np.linalg.norm(u - v) <= rtol * np.linalg.norm(v)
            assert abs(a.grad_norm - b.grad_norm) <= rtol * b.grad_norm
        if prob.sets.set_y.kind == "ball" and algo != LOCAL_SGDA:
            radius = prob.sets.set_y.radius
            on_ball = [abs(np.linalg.norm(r.iterate.y) - radius) <= 1e-12
                       for r in stacked.records[1:]]
            assert sum(on_ball) >= 20


def out_of_place_round(problem, config, z, F, Fbar):
    """One round of ``config.algo`` from z as the engine took it with a new
    array for every operation: the reference of the in-place engine."""
    eta = (config.eta_x if config.eta_x == config.eta_y
           else np.repeat([config.eta_x, config.eta_y], [problem.p, problem.q]))
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
    if config.algo != LOCAL_SGDA:
        p, sets = problem.p, problem.sets
        z = np.concatenate((sets.set_x.project(z[:p]), sets.set_y.project(z[p:])))
    return z


class TestInPlaceRound:
    @pytest.mark.parametrize("algo,K", [(GDA, 1), (LOCAL_SGDA, 1), (LOCAL_SGDA, 5),
                                        (FEDGDA_GT, 1), (FEDGDA_GT, 5)])
    @pytest.mark.parametrize("make,eta", [
        (lambda: small_quadratic(m=4, d=5, seed=30), 2e-2),
        (quadratic_on_y_ball, 2e-2),
        (rlr_on_small_ball, 2e-3),
        (ScalarTwoAgent, 1e-2),
    ], ids=["quadratic", "quadratic-ball", "rlr", "scalar2"])
    def test_round_equals_an_out_of_place_round_bitwise(self, make, eta, algo, K):
        prob = make()
        # unequal stepsizes step with a vector of them; FedGDA-GT takes one
        eta_x, eta_y = (eta, eta) if algo == FEDGDA_GT else (eta, 1.5 * eta)
        init = Iterate(np.full(prob.p, 0.5), np.full(prob.q, -0.2))
        cfg = AlgoConfig(algo, eta_x, eta_y, K, 20, init)
        eta = algorithms._stacked_eta(prob, eta_x, eta_y)
        z = init.stacked
        on_ball = 0
        for t in range(1, cfg.rounds + 1):
            Z = z[None].repeat(prob.m, axis=0)
            F = prob.stacked_field(Z)
            Fbar = average_vectors(F)
            before = Fbar.copy()
            expected = out_of_place_round(prob, cfg, z, F.copy(), Fbar)
            z_next, magnitude = _round(prob, cfg, eta, t, Z, F, Fbar)
            assert np.array_equal(z_next, expected)
            assert magnitude == np.abs(expected).max()
            # the stack and the field are consumed; the average is not
            assert np.array_equal(Fbar, before)
            z = z_next
            on_ball += abs(np.linalg.norm(z[prob.p:]) - 0.5) <= 1e-12
        if make is quadratic_on_y_ball and algo != LOCAL_SGDA:
            assert on_ball >= 10


class TestLocalSgda:
    def test_k1_trace_bitwise_equals_gda_iteration(self):
        prob = small_quadratic(seed=2)
        init = Iterate(np.full(5, 0.2), np.full(5, -0.4))
        eta_x, eta_y = 3e-3, 2e-3
        trace = run_algorithm(prob, AlgoConfig(LOCAL_SGDA, eta_x, eta_y, 1, 50, init))
        z = init.copy()
        for t in range(1, 51):
            z = gda_step(prob, z, eta_x, eta_y)
            rec = trace.records[t].iterate
            assert np.array_equal(z.x, rec.x)
            assert np.array_equal(z.y, rec.y)

    def test_single_agent_round_equals_hand_written_local_loop_bitwise(self):
        prob = small_quadratic(m=1, seed=1)
        agent = prob.agents[0]
        init = Iterate(np.full(5, 0.3), np.full(5, -0.1))
        eta_x, eta_y = 1e-3, 2e-3
        trace = run_algorithm(prob, AlgoConfig(LOCAL_SGDA, eta_x, eta_y, 7, 1, init))
        x, y = init.x, init.y
        for _ in range(7):
            gx = agent.grad_x(x, y)
            gy = agent.grad_y(x, y)
            x = x - eta_x * gx
            y = y + eta_y * gy
        assert np.array_equal(trace.final.x, x)
        assert np.array_equal(trace.final.y, y)

    def test_trace_shape_and_round_indices(self):
        prob = ScalarTwoAgent()
        cfg = AlgoConfig(LOCAL_SGDA, 1e-3, 1e-3, 4, 12, Iterate.zeros(1, 1))
        trace = run_algorithm(prob, cfg)
        assert len(trace.records) == 13
        assert [r.round for r in trace.records] == list(range(13))
        assert np.array_equal(trace.final.x, trace.records[-1].iterate.x)

    def test_round_zero_records_the_start_point(self):
        prob = ScalarTwoAgent()
        init = Iterate(np.array([0.9]), np.array([1.1]))
        trace = run_algorithm(prob, AlgoConfig(LOCAL_SGDA, 1e-3, 1e-3, 3, 2, init))
        assert np.array_equal(trace.records[0].iterate.x, init.x)

    def test_divergence_guard_names_round(self):
        prob = ScalarTwoAgent()
        cfg = AlgoConfig(LOCAL_SGDA, 10.0, 10.0, 5, 100, Iterate(np.ones(1), np.ones(1)))
        with pytest.raises(DivergenceError) as ei:
            run_algorithm(prob, cfg)
        assert ei.value.round_index >= 1
        assert "round" in str(ei.value)

    def test_divergence_message_names_a_finite_magnitude_or_non_finite_iterate(self):
        assert str(DivergenceError(GDA, 4, 2.5e12)) == (
            "GDA diverged at round 4: iterate magnitude 2.500e+12 exceeds 1e+12")
        for magnitude in (np.nan, np.inf):
            assert str(DivergenceError(GDA, 4, magnitude)) == (
                "GDA diverged at round 4: iterate is not finite")

    def test_a_run_that_overflows_stops_at_the_divergence_check_without_warnings(self):
        # pyproject.toml turns a RuntimeWarning into an error
        prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=20.0, seed=11))
        cfg = AlgoConfig(LOCAL_SGDA, 1e-3, 1e-3, 10, 20, Iterate.zeros(5, 5))
        with pytest.raises(DivergenceError, match="round 1: iterate is not finite"):
            run_algorithm(prob, cfg)

    def test_gap_recorded_when_z_star_given(self):
        prob = ScalarTwoAgent()
        star = closed_form_minimax(prob)
        cfg = AlgoConfig(LOCAL_SGDA, 1e-3, 1e-3, 2, 3, Iterate.zeros(1, 1))
        trace = run_algorithm(prob, cfg, z_star=star)
        assert trace.records[0].gap_sq == pytest.approx(2 * 3.3**2, rel=1e-12)
        trace_no_star = run_algorithm(prob, cfg)
        assert trace_no_star.records[0].gap_sq is None


class TestFedgdaGt:
    def test_stays_at_minimax_point(self):
        prob = ScalarTwoAgent()
        star = closed_form_minimax(prob)
        cfg = AlgoConfig(FEDGDA_GT, 0.01, 0.01, 7, 200, star)
        trace = run_algorithm(prob, cfg, z_star=star)
        assert max(r.gap_sq for r in trace.records) <= 1e-20

    @pytest.mark.parametrize("K", [1, 5, 10])
    def test_homogeneous_round_equals_k_gda_steps_bitwise(self, K):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(10, 6))
        Q, c = A.T @ A, rng.normal(size=6)
        prob = UncoupledQuadratic([Q, Q], [c, c])
        mu, L = estimate_constants(prob)
        eta = mu / L**2
        init = Iterate(rng.normal(size=6), rng.normal(size=6))
        trace = run_algorithm(prob, AlgoConfig(FEDGDA_GT, eta, eta, K, 100, init))
        z = init.copy()
        for t in range(1, 101):
            for _ in range(K):
                z = gda_step(prob, z, eta, eta)
            rec = trace.records[t].iterate
            assert np.array_equal(z.x, rec.x)
            assert np.array_equal(z.y, rec.y)

    def test_geometric_decay_on_heterogeneous_quadratic(self):
        prob = small_quadratic(m=4, d=6, seed=5)
        star = closed_form_minimax(prob)
        sel = auto_eta_fedgda(prob, 8)
        assert sel.round_map_norm < 1
        cfg = AlgoConfig(FEDGDA_GT, sel.eta, sel.eta, 8, 40, Iterate.zeros(6, 6))
        trace = run_algorithm(prob, cfg, z_star=star)
        gaps = [r.gap_sq for r in trace.records]
        bound = sel.round_map_norm**2
        for t in range(len(gaps) - 1):
            if gaps[t] <= 1e-22:
                break
            assert gaps[t + 1] <= bound * gaps[t] * (1 + 1e-9) + 1e-300

    def test_projection_applied_at_aggregation(self):
        sets = ProductSet(
            FeasibleSet.unconstrained(2), FeasibleSet.ball(np.zeros(2), 0.1)
        )
        prob = UncoupledQuadratic([np.eye(2)], [np.array([3.0, 0.0])], sets=sets)
        cfg = AlgoConfig(FEDGDA_GT, 0.2, 0.2, 3, 20, Iterate.zeros(2, 2))
        trace = run_algorithm(prob, cfg)
        for rec in trace.records:
            assert np.linalg.norm(rec.iterate.y) <= 0.1 + 1e-12


class TestResidual:
    def test_k1_at_minimax_point_vanishes(self):
        prob = ScalarTwoAgent()
        star = closed_form_minimax(prob)
        res = local_sgda_residual(prob, star, 1, 0.001, 0.001)
        assert np.linalg.norm(res) <= 1e-12

    def test_k2_at_minimax_point_matches_unrolled_oracle(self):
        # independent two-step unroll per agent, written out longhand
        prob = ScalarTwoAgent()
        eta = 0.001
        star = closed_form_minimax(prob)
        total_x, total_y = 0.0, 0.0
        for curv, offset in ((2.0, 1.0), (8.0, 32.0)):
            x0, y0 = star.x[0], star.y[0]
            gx0 = curv * x0 - offset
            gy0 = -curv * y0 + offset
            x1 = x0 - eta * gx0
            y1 = y0 + eta * gy0
            gx1 = curv * x1 - offset
            gy1 = -curv * y1 + offset
            total_x += gx0 + gx1
            total_y += gy0 + gy1
        expected = np.array([total_x / 2.0, total_y / 2.0])
        res = local_sgda_residual(prob, star, 2, eta, eta)
        np.testing.assert_allclose(res, expected, atol=1e-12)
        assert np.linalg.norm(res) > 0.01  # the bias is visibly nonzero

    def test_small_at_converged_iterate_while_gradient_is_not(self):
        from fedmm.analysis import local_sgda_limit

        prob = ScalarTwoAgent()
        limit = local_sgda_limit(prob, 10, 0.001, 0.001)
        assert limit.converged
        z = limit.iterate
        res = local_sgda_residual(prob, z, 10, 0.001, 0.001)
        tol = 1e-6 * (1 + np.linalg.norm(z.stacked))
        assert np.linalg.norm(res) <= tol
        gx, gy = prob.global_grad(z)
        assert np.sqrt(np.dot(gx, gx) + np.dot(gy, gy)) > 10 * tol

    def test_rejects_k_below_one(self):
        prob = ScalarTwoAgent()
        with pytest.raises(ValueError):
            local_sgda_residual(prob, Iterate.zeros(1, 1), 0, 0.1, 0.1)

    @pytest.mark.parametrize("eta_x", [np.nan, -0.1])
    def test_rejects_a_stepsize_that_is_not_finite_and_positive(self, eta_x):
        with pytest.raises(ValueError, match="^stepsizes must be finite and positive$"):
            local_sgda_residual(ScalarTwoAgent(), Iterate.zeros(1, 1), 3, eta_x, 0.1)

    @pytest.mark.parametrize("make", [ScalarTwoAgent, lambda: small_quadratic(m=4, d=5, seed=3)])
    @pytest.mark.parametrize("K", [1, 2, 10])
    def test_batched_path_equals_the_per_agent_oracles_bitwise(self, make, K):
        # a plain MinimaxProblem asks each agent's own oracle
        prob = make()
        loop = MinimaxProblem(list(prob.agents), prob.sets)
        rng = np.random.default_rng(K)
        for _ in range(20):
            z = Iterate(rng.normal(0, 3, prob.p), rng.normal(0, 3, prob.q))
            assert np.array_equal(local_sgda_residual(prob, z, K, 0.01, 0.02),
                                  local_sgda_residual(loop, z, K, 0.01, 0.02))

    def test_rlr_batched_path_matches_the_per_agent_oracles(self):
        prob = gen_rlr(RlrGenSpec(m=3, d=4, n_i=8, alpha=2.0, seed=5))
        loop = MinimaxProblem(list(prob.agents), prob.sets)
        z = Iterate(np.full(4, 0.3), np.full(4, -0.2))
        res, ref = local_sgda_residual(prob, z, 5, 1e-3, 1e-3), local_sgda_residual(loop, z, 5, 1e-3, 1e-3)
        assert np.linalg.norm(res - ref) <= 1e-12 * np.linalg.norm(ref)


def local_sgda_rounds(problem, K, eta_x, eta_y, rounds):
    """The stacked iterates of ``rounds`` Local SGDA rounds from the origin,
    round 0 included, each one ``out_of_place_round`` from a new stack: an
    oracle that shares no loop with ``local_sgda_limit``."""
    config = AlgoConfig(LOCAL_SGDA, eta_x, eta_y, K, rounds, Iterate.zeros(problem.p, problem.q))
    zs = [config.init.stacked]
    for _ in range(rounds):
        F = problem.stacked_field(zs[-1][None].repeat(problem.m, axis=0))
        zs.append(out_of_place_round(problem, config, zs[-1], F, None))
    return zs


def constant_drift(s):
    """A d = 1 federation whose Local SGDA rounds at eta = K = 1 add s to x,
    for s near 2.5e11: 2**-60 x is below half an ulp of s for every x up to
    1e12, so the field's x entry rounds to -s."""
    return UncoupledQuadratic([[[2.0**-60]]], [[0.0]], a_list=[[-s]])


class TestSimulatedLimit:
    @pytest.mark.parametrize("max_rounds", [1, 2, 37])
    def test_a_capped_run_returns_the_engines_iterate_unconverged(self, max_rounds):
        prob = ScalarTwoAgent()
        limit = local_sgda_limit(prob, 10, 1e-5, 1e-5, max_rounds=max_rounds)
        assert (limit.rounds, limit.converged) == (max_rounds, False)
        expected = local_sgda_rounds(prob, 10, 1e-5, 1e-5, max_rounds)[-1]
        assert np.array_equal(limit.iterate.stacked, expected)

    @pytest.mark.parametrize("make,K,eta_x,eta_y", [
        *[(ScalarTwoAgent, K, eta, eta) for K in (1, 5, 10) for eta in (0.1, 5e-4)],
        (lambda: small_quadratic(m=4, d=5, seed=3), 5, 2e-3, 1e-3),
    ])
    def test_stop_round_and_iterate_are_those_of_testing_every_round(
            self, monkeypatch, make, K, eta_x, eta_y):
        prob = make()
        norms = []
        monkeypatch.setattr(algorithms, "_block_norm",
                            lambda v, p: norms.append(v) or _block_norm(v, p))
        limit = local_sgda_limit(prob, K, eta_x, eta_y)
        assert limit.converged
        zs = local_sgda_rounds(prob, K, eta_x, eta_y, limit.rounds)
        stops = [_block_norm(z - z_prev, prob.p) <= LIMIT_TOL * (1.0 + _block_norm(z, prob.p))
                 for z_prev, z in zip(zs, zs[1:])]
        assert stops.index(True) == limit.rounds - 1
        assert np.array_equal(limit.iterate.stacked, zs[-1])
        # the screen acted: the norms were not taken in every round
        assert 2 <= len(norms) < 2 * limit.rounds

    @pytest.mark.parametrize("n,p", [(2, 1), (10, 5), (100, 50)])
    @pytest.mark.parametrize("magnitude", [0.0, 1.0, 3.3, 1e6, DIVERGENCE_LIMIT])
    def test_screen_never_skips_a_round_the_stop_test_accepts(self, n, p, magnitude):
        # adversarial for both of its bounds: ||step|| = max|step| for a step
        # with one nonzero entry, ||z|| = sqrt(n) max|z| for equal magnitudes
        z = np.full(n, magnitude)
        z[::2] *= -1.0
        moving = _stop_screen(n)
        edge = LIMIT_TOL * (1.0 + _block_norm(z, p))
        # the screen's own threshold, found by bisection over the floats
        below, above = edge, 2.0 * edge
        assert not moving(below, magnitude) and moving(above, magnitude)
        while np.nextafter(below, np.inf) < above:
            middle = below + (above - below) / 2.0
            if moving(middle, magnitude):
                above = middle
            else:
                below = middle
        # the screen's threshold is within 1e-9 of the test's boundary
        assert above <= edge * (1.0 + 1e-9)
        for index in (0, n - 1):
            for centre in (edge, above):
                step_max = centre
                for _ in range(50):
                    step_max = np.nextafter(step_max, 0.0)
                outcomes = set()
                for _ in range(100):
                    step = np.zeros(n)
                    step[index] = step_max
                    accepts = _block_norm(step, p) <= LIMIT_TOL * (1.0 + _block_norm(z, p))
                    skips = moving(step_max, magnitude)
                    assert not (accepts and skips), (step_max, magnitude)
                    outcomes.add((accepts, skips))
                    step_max = np.nextafter(step_max, np.inf)
                # each sweep crosses its boundary
                assert len(outcomes) == 2

    @pytest.mark.parametrize("study", ["run_algorithm", "local_sgda_limit"])
    def test_an_iterate_at_the_divergence_limit_is_accepted(self, study):
        prob = constant_drift(2.5e11)
        if study == "run_algorithm":
            config = AlgoConfig(LOCAL_SGDA, 1.0, 1.0, 1, 4, Iterate.zeros(1, 1))
            final = run_algorithm(prob, config).final
        else:
            limit = local_sgda_limit(prob, 1, 1.0, 1.0, max_rounds=4)
            assert (limit.rounds, limit.converged) == (4, False)
            final = limit.iterate
        assert (final.x[0], final.y[0]) == (DIVERGENCE_LIMIT, 0.0)

    @pytest.mark.parametrize("study", ["run_algorithm", "local_sgda_limit"])
    def test_an_iterate_one_ulp_past_the_divergence_limit_diverges(self, study):
        beyond = np.nextafter(DIVERGENCE_LIMIT, np.inf)
        prob = constant_drift(beyond / 4.0)
        x = 0.0
        for _ in range(4):
            x = x - (2.0**-60 * x - beyond / 4.0)
        assert x == beyond
        with pytest.raises(DivergenceError) as ei:
            if study == "run_algorithm":
                run_algorithm(prob, AlgoConfig(LOCAL_SGDA, 1.0, 1.0, 1, 10, Iterate.zeros(1, 1)))
            else:
                local_sgda_limit(prob, 1, 1.0, 1.0, max_rounds=10)
        assert ei.value.round_index == 4
        assert str(ei.value).startswith("LocalSGDA diverged at round 4: iterate magnitude 1.000e+12")


class FieldCounter:
    """Counts the problem's ``stacked_field`` calls in ``field_calls``."""

    field_calls = 0

    def stacked_field(self, Z):
        self.field_calls += 1
        return super().stacked_field(Z)


class CountingScalar(FieldCounter, ScalarTwoAgent):
    pass


class CountingQuadratic(FieldCounter, UncoupledQuadratic):
    pass


def counting_quadratic():
    quad = small_quadratic(m=4, d=5, seed=3)
    return CountingQuadratic(quad.Q, quad.c)


# (problem, eta_x, eta_y) at which the limit converges for K = 1 and K = 5
COUNTED = {"scalar2": (CountingScalar, 0.1, 0.1), "quadratic": (counting_quadratic, 2e-3, 1e-3)}


class TestOracleCounts:
    @pytest.fixture
    def averages(self, monkeypatch):
        calls = []
        monkeypatch.setattr(algorithms, "average_vectors",
                            lambda F: calls.append(len(F)) or average_vectors(F))
        return calls

    @pytest.mark.parametrize("rounds", [0, 1, 6])
    @pytest.mark.parametrize("algo,K", [(GDA, 1), (LOCAL_SGDA, 1), (LOCAL_SGDA, 5),
                                        (FEDGDA_GT, 1), (FEDGDA_GT, 5)])
    @pytest.mark.parametrize("name", COUNTED)
    def test_a_run_takes_a_field_per_local_step_and_an_average_per_iterate(
            self, averages, name, algo, K, rounds):
        make, eta, _ = COUNTED[name]
        prob = make()
        run_algorithm(prob, AlgoConfig(algo, eta, eta, K, rounds, Iterate.zeros(prob.p, prob.q)))
        # the start point's field, then K per round: the first local step of
        # a round moves along the field taken at its synchronized iterate
        assert prob.field_calls == 1 + rounds * K
        assert averages == [prob.m] * (rounds + 1)

    @pytest.mark.parametrize("max_rounds", [3, 200_000])
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("name", COUNTED)
    def test_the_limit_takes_a_field_per_local_step_and_no_average(
            self, averages, name, K, max_rounds):
        make, eta_x, eta_y = COUNTED[name]
        prob = make()
        limit = local_sgda_limit(prob, K, eta_x, eta_y, max_rounds=max_rounds)
        assert limit.converged == (max_rounds > 3)
        # one more, unused, at the iterate it stops at: the driver takes the
        # field at every iterate it yields. A driver that takes it lazily
        # saves that call and updates this pin
        assert prob.field_calls == limit.rounds * K + 1
        assert averages == []


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            AlgoConfig("SGD", 0.1, 0.1, 1, 1, Iterate.zeros(1, 1))

    def test_gda_requires_k1(self):
        with pytest.raises(ValueError):
            AlgoConfig(GDA, 0.1, 0.1, 2, 1, Iterate.zeros(1, 1))

    def test_fedgda_requires_single_eta(self):
        with pytest.raises(ValueError):
            AlgoConfig(FEDGDA_GT, 0.1, 0.2, 1, 1, Iterate.zeros(1, 1))

    def test_positive_stepsizes_required(self):
        with pytest.raises(ValueError):
            AlgoConfig(GDA, 0.0, 0.1, 1, 1, Iterate.zeros(1, 1))

    @pytest.mark.parametrize("algo,eta_x,eta_y", [
        (GDA, np.inf, 0.1), (LOCAL_SGDA, 0.1, np.inf), (FEDGDA_GT, np.inf, np.inf),
        (GDA, np.nan, 0.1),
    ])
    def test_stepsizes_must_be_finite(self, algo, eta_x, eta_y):
        with pytest.raises(ValueError, match="stepsizes must be finite and positive"):
            AlgoConfig(algo, eta_x, eta_y, 1, 1, Iterate.zeros(1, 1))

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            AlgoConfig(GDA, 0.1, 0.1, 1, -1, Iterate.zeros(1, 1))

    @pytest.mark.parametrize("K, message", [
        (0, "K must be >= 1"), (-3, "K must be >= 1"), (2.5, r"K must be an integer, got 2\.5"),
    ], ids=["0", "-3", "2.5"])
    def test_k_below_one_rejected(self, K, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AlgoConfig(LOCAL_SGDA, 0.1, 0.1, K, 1, Iterate.zeros(1, 1))

    def test_rounds_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^rounds must be an integer, got 2\.5$"):
            AlgoConfig(LOCAL_SGDA, 0.1, 0.1, 2, 2.5, Iterate.zeros(1, 1))

    def test_counts_are_kept_as_python_ints(self):
        cfg = AlgoConfig(LOCAL_SGDA, 0.1, 0.1, np.int64(2), np.uint8(3), Iterate.zeros(1, 1))
        assert (type(cfg.K), type(cfg.rounds)) == (int, int)



class TestStepsizeSelection:
    def test_round_map_single_agent_matches_analytic_norm(self):
        # one agent: the map is (I - eta Q)^K exactly
        Q = np.diag([1.0, 4.0])
        prob = UncoupledQuadratic([Q], [np.zeros(2)])
        eta, K = 0.1, 5
        M = fedgda_round_map(prob, eta, K)
        np.testing.assert_allclose(M, np.diag([(1 - 0.1) ** 5, (1 - 0.4) ** 5]),
                                   atol=1e-14)
        assert fedgda_round_map_norm(prob, eta, K) == pytest.approx(0.9**5, abs=1e-12)

    def test_round_map_predicts_observed_contraction(self):
        prob = small_quadratic(m=3, d=4, seed=6)
        star = closed_form_minimax(prob)
        eta, K = auto_eta_fedgda(prob, 5).eta, 5
        M = fedgda_round_map(prob, eta, K)
        rng = np.random.default_rng(7)
        dx = rng.normal(size=4)
        z0 = Iterate(star.x + dx, star.y.copy())
        trace = run_algorithm(prob, AlgoConfig(FEDGDA_GT, eta, eta, K, 1, z0))
        observed = trace.records[1].iterate.x - star.x
        np.testing.assert_allclose(observed, M @ dx, atol=1e-9 * (1 + np.linalg.norm(dx)))

    def test_auto_eta_certifies_contraction(self):
        prob = small_quadratic(m=4, d=5, seed=8)
        for K in (1, 10, 25):
            sel = auto_eta_fedgda(prob, K)
            assert sel.round_map_norm < 1
            assert sel.eta > 0

    def test_auto_eta_never_worse_than_conservative_formula(self):
        prob = small_quadratic(m=3, d=4, seed=9)
        mu, L = estimate_constants(prob)
        K = 10
        sel = auto_eta_fedgda(prob, K)
        fallback = fedgda_round_map_norm(prob, conservative_eta(mu, L, K), K)
        assert sel.round_map_norm <= fallback + 1e-12

    @pytest.mark.parametrize("name,K", SEARCH_CASES + [("small", 10)])
    def test_auto_eta_is_argmin_of_public_round_map_norm_bitwise(
        self, federation, exhaustive_scan, name, K
    ):
        # the reference builds and norms every candidate's map through the
        # public norm; the search skips the maps that cannot win, and must
        # pick the identical candidate with the identical norm
        best = None
        for eta, s in exhaustive_scan(name, K):
            if best is None or s < best.round_map_norm - _TIE_TOL or (
                abs(s - best.round_map_norm) <= _TIE_TOL and eta > best.eta
            ):
                best = EtaSelection(eta, s)
        assert auto_eta_fedgda(federation(name), K) == best

    @pytest.mark.parametrize("name,K", SEARCH_CASES)
    def test_diagonal_bound_is_below_every_candidate_norm(
        self, federation, exhaustive_scan, name, K
    ):
        # every candidate's bound from one batched call, each below the norm
        # of its own map
        prob = federation(name)
        w, V = prob.spectra
        terms = _diagonal_terms(V, prob.Q_sum / prob.m)
        scan = exhaustive_scan(name, K)
        etas = np.array([eta for eta, _ in scan])
        bounds = _round_map_lower_bound(terms, _round_map_weights(w, etas[:, None, None], K))
        assert bounds.shape == (ETA_GRID_SIZE + 1,)
        for bound, (_, norm) in zip(bounds, scan):
            assert bound <= norm
            # a d = 1 map is its own diagonal: the bound is sharp but for
            # the rounding allowance, 1e-10 of terms of order one
            if name == "scalar2":
                assert norm - bound <= 1e-9

    def test_rounding_allowance_grows_with_the_federation(self):
        assert _diagonal_slack(2, 1) == _diagonal_slack(20, 50) == 1e-10
        eps = np.finfo(float).eps
        assert _diagonal_slack(1000, 2000) == 128.0 * 1003 * 2003 * eps > 1e-10

    def test_search_builds_a_candidate_that_ties_the_best(self, monkeypatch):
        # past the selected eta the norm dips and climbs back above the best
        # before the next grid point up, 2 eta. A candidate there whose norm
        # exceeds the best by less than the tie tolerance wins by its larger
        # stepsize, so the search must build it even when its lower bound is
        # as sharp as can be: its own norm
        prob, K = ScalarTwoAgent(), 20
        best = auto_eta_fedgda(prob, K)
        lo, hi = best.eta, 2.0 * best.eta
        for _ in range(200):
            tied = 0.5 * (lo + hi)
            excess = fedgda_round_map_norm(prob, tied, K) - best.round_map_norm
            if 0.0 < excess <= _TIE_TOL:
                break
            lo, hi = (tied, hi) if excess <= 0.0 else (lo, tied)
        else:
            pytest.fail("no stepsize ties the best from above")
        _, V = prob.spectra
        monkeypatch.setattr(algorithms, "conservative_eta", lambda mu, L, K: tied)
        monkeypatch.setattr(
            algorithms, "_round_map_lower_bound",
            lambda terms, geos: np.array([np.linalg.norm(
                algorithms._round_map(V, geo, prob.Q_sum / prob.m), 2) for geo in geos]),
        )
        assert auto_eta_fedgda(prob, K) == EtaSelection(tied, fedgda_round_map_norm(prob, tied, K))

    def test_search_builds_only_the_maps_that_can_win(self, federation, monkeypatch):
        prob = federation("quad-seed-7")
        expected = auto_eta_fedgda(prob, 20)
        build = algorithms._round_map
        builds = []

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(algorithms, "_round_map", counted)
        assert auto_eta_fedgda(prob, 20) == expected
        assert 1 <= len(builds) <= 3  # of ETA_GRID_SIZE + 1 = 47 candidates

    @pytest.mark.parametrize("name,K", [("quad-seed-7", 20), ("scalar2", 50), ("small", 10)])
    def test_batched_weights_equal_each_candidates_bitwise(self, federation, name, K):
        # the search weighs all candidates in one broadcast; elementwise, so
        # each candidate's weights are bitwise those of its own call
        w, _ = federation(name).spectra
        etas = 2.0 / w.max() * 0.5 ** np.arange(1, ETA_GRID_SIZE + 1)
        batched = _round_map_weights(w, etas[:, None, None], K)
        for eta, geo in zip(etas, batched):
            assert np.array_equal(geo, _round_map_weights(w, float(eta), K))

    @pytest.mark.parametrize("Q", [
        [[[0.0]], [[2.0]]],
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    ], ids=["scalar", "diagonal"])
    def test_a_singular_agent_curvature_is_searched_on_the_grid(self, Q):
        # sum Q_i is positive definite, so the problem is well posed, but
        # mu = 0 has no conservative stepsize. Along every eigenvector one
        # agent has curvature 0 and the other L, so at eta = 1/(2L) and K = 5
        # the map is 1 - (eta L K + 1 - (1 - eta L)^K) / 4 = 17/128 times I
        prob = UncoupledQuadratic(Q, np.ones((2, len(Q[0]))))
        mu, L = estimate_constants(prob)
        assert mu == 0.0
        grid = [2.0 / L * 0.5**j for j in range(1, ETA_GRID_SIZE + 1)]
        sel = auto_eta_fedgda(prob, 5)
        assert sel == EtaSelection(0.5 / L, 0.1328125)
        assert sel.eta in grid
        assert min(fedgda_round_map_norm(prob, eta, 5) for eta in grid) == 0.1328125

    @pytest.mark.parametrize("mu", [0.0, -1e-16, np.nan, np.inf])
    def test_conservative_eta_refuses_a_curvature_floor_that_is_not_finite_and_positive(self, mu):
        with pytest.raises(ValueError, match=r"^the conservative stepsize needs a finite mu > 0, got "):
            conservative_eta(mu, 2.0, 5)

    @pytest.mark.parametrize("L", [0.0, -2.0, np.inf, np.nan])
    def test_conservative_eta_refuses_a_smoothness_that_is_not_finite_and_positive(self, L):
        with pytest.raises(ValueError, match=r"^the conservative stepsize needs a finite L > 0, got "):
            conservative_eta(1.0, L, 5)

    @pytest.mark.parametrize("K, message", [
        (-3, "K must be >= 1"), (2.5, r"K must be an integer, got 2\.5")])
    def test_conservative_eta_holds_k_to_the_round_rule(self, K, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            conservative_eta(1.0, 2.0, K)

    @pytest.mark.parametrize("name,K,eta", [
        ("quad-seed-0", 1, 0.0002993943442946296),
        ("quad-seed-0", 20, 0.0002993943442946296),
        ("quad-seed-0", 50, 0.0001496971721473148),
        ("quad-seed-7", 1, 0.0003002746327313128),
        ("quad-seed-7", 20, 0.0003002746327313128),
        ("quad-seed-7", 50, 0.0001501373163656564),
        ("quad-seed-11", 1, 0.00030657331326329907),
        ("quad-seed-11", 20, 0.00030657331326329907),
        ("quad-seed-11", 50, 0.00015328665663164954),
        ("scalar2", 1, 0.125),
        ("scalar2", 20, 0.015625),
        ("scalar2", 50, 0.0078125),
    ])
    def test_selected_stepsizes_are_pinned(self, federation, name, K, eta):
        # the benchmark and acceptance traces run at these stepsizes; a
        # selection that moves by one bit changes their bytes
        assert auto_eta_fedgda(federation(name), K).eta == eta

    @pytest.mark.parametrize("K, message", [
        (0, "K must be >= 1"), (-2, "K must be >= 1"), (2.5, r"K must be an integer, got 2\.5"),
    ], ids=["0", "-2", "2.5"])
    def test_auto_eta_rejects_k_below_one(self, K, message):
        with pytest.raises(ValueError, match=message):
            auto_eta_fedgda(ScalarTwoAgent(), K)

    @pytest.mark.parametrize("eta, K, message", [
        (1e-3, 0, "K must be >= 1"), (1e-3, -2, "K must be >= 1"),
        (1e-3, 2.5, r"K must be an integer, got 2\.5"),
        (np.nan, 3, "stepsizes must be finite and positive"),
    ], ids=["K0", "K-2", "K2.5", "eta-nan"])
    def test_round_map_refuses_invalid_round_inputs(self, eta, K, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fedgda_round_map_norm(ScalarTwoAgent(), eta, K)

    def test_round_map_refused_for_non_quadratic_problems(self):
        prob = gen_rlr(RlrGenSpec(m=3, d=2, n_i=5, alpha=1.0, seed=0))
        with pytest.raises(UnsupportedProblemError):
            fedgda_round_map(prob, 1e-3, 5)
        with pytest.raises(UnsupportedProblemError):
            auto_eta_fedgda(prob, 5)

    def test_one_eigendecomposition_per_problem(self, monkeypatch):
        # the constants, the stepsize search, the public round map and the
        # Local SGDA fixed point all read the problem's cached spectra
        prob = small_quadratic(m=4, d=5, seed=11)
        calls = {"eigh": [], "eigvalsh": []}

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(a, *args, **kwargs):
                calls[name].append(np.shape(a))
                return original(a, *args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        mu, L = estimate_constants(prob)
        eta = auto_eta_fedgda(prob, 10).eta
        fedgda_round_map(prob, eta, 10)
        fedgda_round_map(prob, 0.5 * eta, 3)
        local_sgda_fixed_point(prob, 10, eta, eta)
        assert calls == {"eigh": [(4, 5, 5)], "eigvalsh": []}
        # the constants are the extreme eigenvalues of the spectra, bitwise
        w, _ = prob.spectra
        assert (mu, L) == (min(w_i[0] for w_i in w), max(w_i[-1] for w_i in w))

    def test_one_evaluator_of_the_local_step_sums(self, monkeypatch):
        # the round map, the stepsize search and the Local SGDA fixed point
        # all take S_i's eigenvalues from core.geometric_sums, one call per
        # stepsize (the search weighs every candidate in one call), at the
        # ratios 1 - eta w of the cached spectra
        prob = small_quadratic(m=4, d=5, seed=11)
        w, _ = prob.spectra
        calls = []

        def counted(ratio, K):
            calls.append((ratio, K))
            return geometric_sums(ratio, K)

        for module in (algorithms, analysis):
            monkeypatch.setattr(module, "geometric_sums", counted)
        eta = 1e-3
        fedgda_round_map(prob, eta, 10)
        fedgda_round_map_norm(prob, 0.5 * eta, 3)
        (ratio, K), (half, K_half) = calls
        assert K == 10 and np.array_equal(ratio, 1.0 - eta * w)
        assert K_half == 3 and np.array_equal(half, 1.0 - 0.5 * eta * w)
        calls.clear()
        auto_eta_fedgda(prob, 10)
        ((ratios, K),) = calls
        assert K == 10 and ratios.shape == (ETA_GRID_SIZE + 1, *w.shape)
        for eta_x, eta_y, count in ((eta, eta, 1), (eta, 2 * eta, 2)):
            calls.clear()
            local_sgda_fixed_point(prob, 7, eta_x, eta_y)
            assert len(calls) == count
            assert [K for _, K in calls] == [7] * count
            assert np.array_equal(calls[0][0], 1.0 - eta_x * w)
            assert np.array_equal(calls[-1][0], 1.0 - eta_y * w)

    def test_scalar_two_agent_selection_is_stable(self):
        prob = ScalarTwoAgent()
        sel = auto_eta_fedgda(prob, 20)
        assert sel.round_map_norm < 1
        cfg = AlgoConfig(FEDGDA_GT, sel.eta, sel.eta, 20, 100, Iterate.zeros(1, 1))
        trace = run_algorithm(prob, cfg, z_star=closed_form_minimax(prob))
        assert trace.records[-1].gap_sq <= 1e-16


class TestRoundMapOracle:
    @pytest.mark.parametrize("name", ["scalar2", "quad-seed-0", "quad-seed-7", "quad-seed-11"])
    @pytest.mark.parametrize("K", [1, 5, 20])
    def test_one_engine_round_applies_the_round_map_to_both_blocks(self, federation, name, K):
        # FedGDA-GT fixes the minimax point z*, so one round of the engine
        # from z lands at z* + M(z - z*) in each block, with the same M
        prob = federation(name)
        star = closed_form_minimax(prob)
        eta = auto_eta_fedgda(prob, K).eta
        M = fedgda_round_map(prob, eta, K)
        rng = np.random.default_rng(K)
        start = Iterate(
            star.x + rng.normal(0.0, 1.0 + np.linalg.norm(star.x), prob.p),
            star.y + rng.normal(0.0, 1.0 + np.linalg.norm(star.y), prob.q),
        )
        after = run_algorithm(prob, AlgoConfig(FEDGDA_GT, eta, eta, K, 1, start)).final
        for got, z, fixed in ((after.x, start.x, star.x), (after.y, start.y, star.y)):
            step = M @ (z - fixed)
            assert np.linalg.norm(got - (fixed + step)) <= 1e-12 * np.linalg.norm(step)


class TestRoundMapMatrixPowerOracle:
    @pytest.mark.parametrize("name", ["scalar2", "small", "independent-a"])
    @pytest.mark.parametrize("K", [1, 5, 20])
    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_round_map_matches_the_per_agent_form(self, federation, name, K, scale):
        # the map as the per-agent sum the engine's arithmetic suggests,
        # (1/m) sum_i [B_i^K - eta sum_{j<K} B_i^j (Qbar - Q_i)], built from
        # matrix powers with no eigendecomposition
        prob = federation(name)
        eta = scale / estimate_constants(prob)[1]
        Qbar = prob.Q_sum / prob.m
        expected = np.zeros_like(Qbar)
        for Q_i in prob.Q:
            B = np.eye(prob.p) - eta * Q_i
            S = sum(np.linalg.matrix_power(B, j) for j in range(K))
            expected += np.linalg.matrix_power(B, K) - eta * S @ (Qbar - Q_i)
        expected /= prob.m
        M = fedgda_round_map(prob, eta, K)
        assert np.linalg.norm(M - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("study", [
    lambda K: AlgoConfig(LOCAL_SGDA, 1e-3, 1e-3, K, 1, Iterate.zeros(1, 1)),
    lambda K: fedgda_round_map(ScalarTwoAgent(), 1e-3, K),
    lambda K: auto_eta_fedgda(ScalarTwoAgent(), K),
    lambda K: conservative_eta(1.0, 2.0, K),
    lambda K: local_sgda_residual(ScalarTwoAgent(), Iterate.zeros(1, 1), K, 1e-3, 1e-3),
    lambda K: algorithms.local_sgda_limit(ScalarTwoAgent(), K, 1e-3, 1e-3),
    lambda K: local_sgda_fixed_point(ScalarTwoAgent(), K, 1e-3, 1e-3),
], ids=["AlgoConfig", "fedgda_round_map", "auto_eta_fedgda", "conservative_eta",
        "local_sgda_residual", "local_sgda_limit", "local_sgda_fixed_point"])
def test_every_function_taking_k_refuses_zero_local_steps(study):
    with pytest.raises(ValueError, match="^K must be >= 1$"):
        study(0)

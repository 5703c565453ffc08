import tracemalloc

import numpy as np
import pytest

from fedmm import analysis
from fedmm.analysis import (
    _geometric_sums,
    UnstableStepsizeError,
    check_contraction,
    check_strong_monotonicity,
    fixed_point_report,
    local_sgda_fixed_point,
    local_sgda_fixed_point_closed_form,
    local_sgda_limit,
    optimality_gap,
    robust_loss,
)
from fedmm.algorithms import (
    LOCAL_SGDA,
    AlgoConfig,
    DivergenceError,
    auto_eta_fedgda,
    run_algorithm,
)
from fedmm.core import Iterate
from fedmm.datagen import QuadraticGenSpec, RlrGenSpec, gen_quadratic, gen_rlr
from fedmm.problems import (
    RobustLinearRegression,
    ScalarTwoAgent,
    UncoupledQuadratic,
    UnsupportedProblemError,
    closed_form_minimax,
    estimate_constants,
)


def tiny_rlr(m=3, d=1, n=1, seed=0):
    rng = np.random.default_rng(seed)
    feats = [rng.normal(size=(n, d)) for _ in range(m)]
    tgts = [rng.normal(size=n) for _ in range(m)]
    return RobustLinearRegression(feats, tgts)


class TestClosedFormFixedPoint:
    @pytest.mark.parametrize("eta", [0.2, 0.1, 0.01, 0.001])
    def test_k1_collapses_to_minimax_point(self, eta):
        z = local_sgda_fixed_point_closed_form(1, eta, eta)
        assert z.x[0] == pytest.approx(3.3, abs=1e-12)
        assert z.y[0] == pytest.approx(3.3, abs=1e-12)

    def test_small_stepsize_limit_recovers_minimax_point(self):
        z = local_sgda_fixed_point_closed_form(10, 1e-9, 1e-9)
        assert z.x[0] == pytest.approx(3.3, abs=1e-6)

    @pytest.mark.parametrize("K", [1, 10, 20, 50])
    def test_formula_agrees_with_simulated_limit(self, K):
        # two independent oracles: closed-form evaluation vs a long run
        z_formula = local_sgda_fixed_point_closed_form(K, 0.001, 0.001)
        limit = local_sgda_limit(ScalarTwoAgent(), K, 0.001, 0.001)
        assert limit.converged
        assert abs(z_formula.x[0] - limit.iterate.x[0]) <= 1e-6
        assert abs(z_formula.y[0] - limit.iterate.y[0]) <= 1e-6

    def test_bias_grows_with_k(self):
        gaps = []
        for K in (1, 10, 20, 50):
            z = local_sgda_fixed_point_closed_form(K, 0.001, 0.001)
            gaps.append(abs(z.x[0] - 3.3))
        assert gaps[0] <= 1e-12
        assert gaps[1] < gaps[2] < gaps[3]
        assert gaps[1] > 0

    def test_distinct_stepsizes_act_per_block(self):
        z = local_sgda_fixed_point_closed_form(10, 0.001, 0.002)
        zx = local_sgda_fixed_point_closed_form(10, 0.001, 0.001)
        zy = local_sgda_fixed_point_closed_form(10, 0.002, 0.002)
        assert z.x[0] == zx.x[0]
        assert z.y[0] == zy.y[0]

    def test_unstable_stepsize_raises(self):
        with pytest.raises(UnstableStepsizeError):
            local_sgda_fixed_point_closed_form(10, 0.5, 0.5)  # |1 - 0.5*8| = 3

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            local_sgda_fixed_point_closed_form(0, 0.001, 0.001)


def scalar_fixed_coordinate(K, eta):
    """The two-agent scalar fixed point written out: the offsets and the
    curvature values, each weighted by sum_{j<K} (1 - eta curv)^j, and their quotient."""
    num = 0.0
    den = 0.0
    for curv, offset in ((2.0, 1.0), (8.0, 32.0)):
        weights = float(np.sum((1.0 - eta * curv) ** np.arange(K)))
        num += offset * weights
        den += curv * weights
    return num / den


class TestLocalSgdaFixedPoint:
    @pytest.mark.parametrize("K", [1, 10, 20, 50])
    @pytest.mark.parametrize("etas", [(1e-3, 2e-3), (5e-4, 1e-4), (0.1, 0.2), (0.2, 0.01)])
    def test_scalar_instance_equals_the_longhand_formula_bitwise(self, K, etas):
        eta_x, eta_y = etas
        expected = (scalar_fixed_coordinate(K, eta_x), scalar_fixed_coordinate(K, eta_y))
        for z in (local_sgda_fixed_point_closed_form(K, eta_x, eta_y),
                  local_sgda_fixed_point(ScalarTwoAgent(), K, eta_x, eta_y)):
            assert (z.x[0], z.y[0]) == expected

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_matches_the_simulated_limit_on_benchmark_federations(self, seed):
        prob = gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=seed))
        eta = auto_eta_fedgda(prob, 20).eta
        z = local_sgda_fixed_point(prob, 20, eta, eta)
        limit = local_sgda_limit(prob, 20, eta, eta)
        assert limit.converged
        ref = limit.iterate.stacked
        assert np.linalg.norm(z.stacked - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_predicts_the_benchmark_plateau(self):
        # the quad-federation compare: LocalSGDA's gap_sq stalls at the
        # squared distance from its fixed point to the minimax point
        prob = gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=7))
        eta = auto_eta_fedgda(prob, 20).eta
        z_star = closed_form_minimax(prob)
        plateau = optimality_gap(local_sgda_fixed_point(prob, 20, eta, eta), z_star)
        config = AlgoConfig(LOCAL_SGDA, eta, eta, 20, 60, Iterate.zeros(50, 50))
        final = run_algorithm(prob, config, z_star=z_star).records[-1].gap_sq
        assert plateau == pytest.approx(135.92, abs=0.01)
        assert final == pytest.approx(plateau, rel=1e-6)

    def test_own_x_term_and_distinct_stepsizes(self):
        rng = np.random.default_rng(3)
        Qs = [(lambda A: A.T @ A)(rng.normal(size=(6, 4))) for _ in range(3)]
        prob = UncoupledQuadratic(Qs, rng.normal(size=(3, 4)), a_list=rng.normal(size=(3, 4)))
        _, L = estimate_constants(prob)
        eta_x, eta_y = 0.2 / L, 0.1 / L
        z = local_sgda_fixed_point(prob, 5, eta_x, eta_y)
        limit = local_sgda_limit(prob, 5, eta_x, eta_y)
        assert limit.converged
        ref = limit.iterate.stacked
        assert np.linalg.norm(z.stacked - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.array_equal(z.x, local_sgda_fixed_point(prob, 5, eta_x, eta_x).x)
        assert np.array_equal(z.y, local_sgda_fixed_point(prob, 5, eta_y, eta_y).y)

    def test_an_overflowing_limit_stops_at_the_divergence_check(self):
        # pyproject.toml turns a RuntimeWarning into an error
        prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=20.0, seed=11))
        with pytest.raises(DivergenceError, match="round 1: iterate is not finite"):
            local_sgda_limit(prob, 10, 1e-3, 1e-3)

    def test_k1_is_the_minimax_point(self):
        prob = gen_quadratic(QuadraticGenSpec(m=4, d=6, n_i=12, seed=7))
        _, L = estimate_constants(prob)
        z = local_sgda_fixed_point(prob, 1, 0.5 / L, 0.5 / L)
        star = closed_form_minimax(prob)
        assert np.linalg.norm(z.stacked - star.stacked) <= 1e-10 * np.linalg.norm(star.stacked)

    @pytest.mark.parametrize("scale", [2.01, 2.5, 10.0])
    def test_unstable_stepsize_on_a_multidimensional_federation(self, scale):
        prob = gen_quadratic(QuadraticGenSpec(m=4, d=6, n_i=12, seed=7))
        _, L = estimate_constants(prob)
        with pytest.raises(UnstableStepsizeError):
            local_sgda_fixed_point(prob, 10, 1e-3 / L, scale / L)
        with pytest.raises(UnstableStepsizeError):
            local_sgda_fixed_point(prob, 10, scale / L, 1e-3 / L)

    def test_nonpositive_stepsize_rejected(self):
        with pytest.raises(UnstableStepsizeError):
            local_sgda_fixed_point(ScalarTwoAgent(), 10, 0.0, 0.001)

    def test_refuses_a_non_quadratic_problem(self):
        with pytest.raises(UnsupportedProblemError):
            local_sgda_fixed_point(tiny_rlr(), 10, 0.001, 0.001)


class TestGeometricSums:
    @pytest.fixture(scope="class")
    def eigenvalues(self):
        return gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=7)).spectra[0]

    @pytest.mark.parametrize("block", [analysis.POWER_BLOCK, 100])
    @pytest.mark.parametrize("K", [1, 7, 10, 20, 50, 129, 2000])
    def test_blocked_sums_equal_the_full_array_of_powers_bitwise(
        self, eigenvalues, monkeypatch, K, block
    ):
        # a block of 100 powers puts row boundaries inside every K here
        monkeypatch.setattr(analysis, "POWER_BLOCK", block)
        w = eigenvalues
        for eta in (1e-3 / w.max(), 1.9 / w.max()):
            ratio = 1.0 - eta * w
            full = np.sum(ratio[..., None] ** np.arange(K), axis=-1)
            assert np.array_equal(_geometric_sums(ratio, K), full)

    def test_fixed_point_memory_does_not_grow_with_K(self, eigenvalues):
        # every power at once would be 8 m d K bytes: 15.3 MiB here
        prob = gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=7))
        eta = 1e-3 / eigenvalues.max()
        tracemalloc.start()
        try:
            local_sgda_fixed_point(prob, 2000, eta, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFixedPointReport:
    def test_k1_gap_is_negligible(self):
        report = fixed_point_report(1, 0.1, 0.1)
        assert report.gap <= 1e-10
        assert report.sim_agreement <= 1e-6

    def test_k10_reports_positive_gap_and_small_residual(self):
        report = fixed_point_report(10, 0.001, 0.001)
        assert report.gap > 1e-5
        assert report.residual_norm <= 1e-10
        assert report.sim_agreement <= 1e-6
        assert report.z_star.x[0] == pytest.approx(3.3)
        assert report.converged is True
        assert 1 < report.rounds < 200_000


    def test_reports_unconverged_simulation(self):
        report = fixed_point_report(10, 1e-5, 1e-5, max_rounds=10)
        assert report.converged is False
        assert report.rounds == 10


class TestOptimalityGap:
    def test_zero_iff_equal(self):
        z = Iterate(np.array([1.0, 2.0]), np.array([3.0]))
        assert optimality_gap(z, z.copy()) == 0.0

    def test_unit_offset_in_x(self):
        z = Iterate(np.array([1.0, 2.0]), np.array([3.0]))
        shifted = Iterate(z.x + np.array([1.0, 0.0]), z.y.copy())
        assert optimality_gap(shifted, z) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = Iterate(rng.normal(size=3), rng.normal(size=2))
        b = Iterate(rng.normal(size=3), rng.normal(size=2))
        assert optimality_gap(a, b) == optimality_gap(b, a)

    def test_matches_closed_form_study(self):
        z_fix = local_sgda_fixed_point_closed_form(10, 0.001, 0.001)
        star = Iterate(np.array([3.3]), np.array([3.3]))
        expected = (z_fix.x[0] - 3.3) ** 2 + (z_fix.y[0] - 3.3) ** 2
        assert optimality_gap(z_fix, star) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            optimality_gap(Iterate.zeros(2, 1), Iterate.zeros(1, 1))


class TestRobustLoss:
    def test_zero_model_gives_constant_objective(self):
        prob = tiny_rlr(m=3, d=2, n=4, seed=2)
        res = robust_loss(prob, np.zeros(2))
        expected = sum(float(np.dot(a.b, a.b)) / a.n for a in prob.agents)
        assert res.value == pytest.approx(expected, rel=1e-12)
        np.testing.assert_array_equal(res.y, np.zeros(2))  # the ball center

    def test_matches_grid_search_oracle_in_1d(self):
        prob = tiny_rlr(m=3, d=1, n=1, seed=3)
        x_hat = np.array([0.8])
        res = robust_loss(prob, x_hat)
        grid = np.arange(-1.0, 1.0 + 1e-5, 1e-5)
        # the definition sum_i [mean((x (a_ij + y) - b_ij)^2) + x^2 / 2],
        # evaluated on the whole grid at once
        totals = np.zeros_like(grid)
        for a in prob.agents:
            r = x_hat[0] * (a.A[:, 0] + grid[:, None]) - a.b
            totals += np.mean(r * r, axis=1) + 0.5 * x_hat[0] ** 2
        for k in (0, grid.size // 2, grid.size - 1):
            oracle = sum(a.value(x_hat, grid[k:k + 1]) for a in prob.agents)
            assert totals[k] == pytest.approx(oracle, rel=1e-12)
        assert res.value == pytest.approx(totals.max(), abs=1e-4)

    def test_dominates_value_at_zero_shift(self):
        prob = tiny_rlr(m=4, d=3, n=5, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x_hat = rng.normal(size=3)
            res = robust_loss(prob, x_hat)
            at_zero = sum(a.value(x_hat, np.zeros(3)) for a in prob.agents)
            assert res.value >= at_zero - 1e-10

    def test_dominates_sampled_shifts_inside_and_on_the_ball(self):
        prob = tiny_rlr(m=3, d=3, n=4, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(10):
            x_hat = rng.normal(size=3)
            res = robust_loss(prob, x_hat)
            assert np.linalg.norm(res.y) == pytest.approx(1.0, rel=1e-12)
            dirs = rng.normal(size=(2000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = rng.uniform(size=2000) ** (1.0 / 3.0)
            radii[:1000] = 1.0
            for y in dirs * radii[:, None]:
                total = sum(a.value(x_hat, y) for a in prob.agents)
                assert res.value >= total * (1.0 - 1e-12)

    @pytest.mark.parametrize("case", ["alpha1", "alpha5", "alpha20", "ragged", "radius0.05"])
    def test_statistics_match_the_per_agent_definition(self, case):
        rng = np.random.default_rng(21)
        if case.startswith("alpha"):
            prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=float(case[5:]), seed=11))
        elif case == "ragged":
            counts = (6, 9, 4)
            prob = RobustLinearRegression([rng.normal(1.0, 2.0, size=(n, 4)) for n in counts],
                                          [rng.normal(size=n) for n in counts])
        else:
            base = gen_rlr(RlrGenSpec(m=4, d=3, n_i=20, alpha=5.0, seed=3))
            prob = RobustLinearRegression([a.A for a in base.agents],
                                          [a.b for a in base.agents], y_radius=0.05)
        ball = prob.sets.set_y
        models = [rng.normal(size=prob.p) * scale for scale in (1e-3, 1.0, 10.0) * 67][:200]
        for x in models + [np.zeros(prob.p)]:
            # the definition: each agent's own `value` at both candidate shifts
            if np.any(x):
                step = x * (ball.radius / np.linalg.norm(x))
                shifts = [ball.center + step, ball.center - step]
            else:
                shifts = [ball.center]
            totals = [sum(a.value(x, y) for a in prob.agents) for y in shifts]
            best = int(np.argmax(totals))
            res = robust_loss(prob, x)
            assert abs(res.value - totals[best]) <= 1e-13 * totals[best]
            assert np.array_equal(res.y, shifts[best])

    @pytest.mark.parametrize("alpha, seed", [(1.0, 5), (5.0, 4), (20.0, 2012)])
    def test_zero_model_loss_is_bitwise_the_sum_of_agent_values(self, alpha, seed):
        # so the robust loss at the usual starting point x = 0 is never an ulp
        # below the loss at y = 0 that callers compare it with
        prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=alpha, seed=seed))
        x = np.zeros(5)
        assert robust_loss(prob, x).value == sum(a.value(x, x) for a in prob.agents)

    def test_deterministic(self):
        prob = tiny_rlr(m=2, d=3, n=4, seed=6)
        x_hat = np.array([0.3, -0.7, 1.1])
        r1 = robust_loss(prob, x_hat)
        r2 = robust_loss(prob, x_hat)
        assert r1.value == r2.value
        assert np.array_equal(r1.y, r2.y)

    def test_final_shift_is_feasible(self):
        prob = tiny_rlr(m=2, d=3, n=4, seed=7)
        res = robust_loss(prob, np.array([1.0, 2.0, -0.5]))
        assert np.linalg.norm(res.y) <= 1.0 + 1e-12


class TestStrongMonotonicityCheck:
    def test_passes_with_true_constant(self):
        prob = ScalarTwoAgent()
        report = check_strong_monotonicity(prob, 2.0, 500, seed=8)
        assert report.passed
        assert report.witness is None
        assert report.min_ratio >= 2.0 - 1e-9

    def test_overclaimed_constant_fails_with_witness(self):
        prob = ScalarTwoAgent()
        mu, L = estimate_constants(prob)
        report = check_strong_monotonicity(prob, L + 1.0, 500, seed=9)
        assert not report.passed
        assert report.witness is not None
        z, zp = report.witness
        diff = z.stacked - zp.stacked
        lhs = float(np.dot(prob.gda_field(z) - prob.gda_field(zp), diff))
        assert lhs < (L + 1.0) * float(np.dot(diff, diff)) - 1e-9

    def test_isotropic_single_agent_ratio_is_exactly_one(self):
        prob = UncoupledQuadratic([np.eye(3)], [np.zeros(3)])
        report = check_strong_monotonicity(prob, 1.0, 200, seed=10)
        assert report.passed
        assert report.min_ratio == 1.0


class TestContractionCheck:
    @pytest.mark.parametrize("factor", [0.1, 0.5, 0.9])
    def test_damped_field_contracts(self, factor):
        prob = ScalarTwoAgent()
        mu, L = estimate_constants(prob)
        eta = factor * 2 * mu / L**2
        report = check_contraction(prob, mu, L, eta, 1000, seed=11)
        assert report.passed
        assert report.max_ratio <= report.bound + 1e-9
        assert report.bound < 1

    def test_flags_violations_for_overclaimed_mu(self):
        prob = ScalarTwoAgent()
        mu, L = estimate_constants(prob)
        # claiming mu = L drives the bound to zero at eta = 1/L, while the
        # slow coordinate still contracts only by (1 - 2/L)^2
        report = check_contraction(prob, L, L, 1.0 / L, 200, seed=12)
        assert not report.passed
        assert report.witness is not None

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fedmm import algorithms, analysis
from fedmm.analysis import (
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
    FEDGDA_GT,
    LOCAL_SGDA,
    AlgoConfig,
    DivergenceError,
    auto_eta_fedgda,
    run_algorithm,
)
from fedmm.core import Iterate, geometric_sums
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


STATISTICS_CASES = ["alpha1", "alpha5", "alpha20", "ragged", "radius0.05"]


def statistics_case(case, rng):
    """The RLR federations the statistics tests run on; ``rng`` draws the
    ragged one's samples."""
    if case.startswith("alpha"):
        return gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=float(case[5:]), seed=11))
    if case == "ragged":
        counts = (6, 9, 4)
        return RobustLinearRegression([rng.normal(1.0, 2.0, size=(n, 4)) for n in counts],
                                      [rng.normal(size=n) for n in counts])
    base = gen_rlr(RlrGenSpec(m=4, d=3, n_i=20, alpha=5.0, seed=3))
    return RobustLinearRegression([a.A for a in base.agents],
                                  [a.b for a in base.agents], y_radius=0.05)


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

    @pytest.mark.parametrize("max_rounds", [2.5, "3"])
    def test_limit_names_its_own_round_cap(self, max_rounds):
        with pytest.raises(ValueError, match=f"^max_rounds must be an integer, got {max_rounds!r}$"):
            local_sgda_limit(ScalarTwoAgent(), 2, 0.01, 0.01, max_rounds=max_rounds)

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
    curvature values, each weighted by sum_{j<K} (1 - eta curv)^j from
    ``geometric_sums``, and their quotient."""
    num = 0.0
    den = 0.0
    for curv, offset in ((2.0, 1.0), (8.0, 32.0)):
        weights = float(geometric_sums(1.0 - eta * curv, K))
        num += offset * weights
        den += curv * weights
    return num / den


def exact_geometric_sum(r, K):
    """sum_{j<K} r^j in exact rational arithmetic, r a float."""
    r = Fraction(r)
    return Fraction(K) if r == 1 else (1 - r**K) / (1 - r)


def exact_scalar_fixed_coordinate(K, eta):
    """The two-agent scalar fixed point in exact rational arithmetic, at
    the float stepsize ``eta`` and the float curvatures 1 - eta curv."""
    weights = [exact_geometric_sum(1.0 - eta * curv, K) for curv in (2.0, 8.0)]
    return (weights[0] + 32 * weights[1]) / (2 * weights[0] + 8 * weights[1])


class TestLocalSgdaFixedPoint:
    @pytest.mark.parametrize("K", [1, 10, 20, 50])
    @pytest.mark.parametrize("etas", [(1e-3, 2e-3), (5e-4, 1e-4), (0.1, 0.2), (0.2, 0.01)])
    def test_scalar_instance_equals_the_longhand_formula_bitwise(self, K, etas):
        eta_x, eta_y = etas
        expected = (scalar_fixed_coordinate(K, eta_x), scalar_fixed_coordinate(K, eta_y))
        for z in (local_sgda_fixed_point_closed_form(K, eta_x, eta_y),
                  local_sgda_fixed_point(ScalarTwoAgent(), K, eta_x, eta_y)):
            assert (z.x[0], z.y[0]) == expected

    @pytest.mark.parametrize("K", [1, 10, 20, 50])
    @pytest.mark.parametrize("etas", [(1e-3, 2e-3), (5e-4, 1e-4), (0.1, 0.2), (0.2, 0.01)])
    def test_scalar_instance_is_within_four_ulps_of_the_exact_fixed_point(self, K, etas):
        # the longhand test above holds the formula's plumbing; this one the
        # numbers, against the fixed point of the rounded curvatures
        # 1 - eta curv, summed and divided exactly
        z = local_sgda_fixed_point(ScalarTwoAgent(), K, *etas)
        for value, eta in ((z.x[0], etas[0]), (z.y[0], etas[1])):
            exact = exact_scalar_fixed_coordinate(K, eta)
            assert abs(Fraction(float(value)) - exact) <= 4 * Fraction(np.spacing(float(exact)))

    @pytest.mark.parametrize("case", ["scalar2", "quad-seed7"])
    @pytest.mark.parametrize("K", [2, 5, 20])
    @pytest.mark.parametrize("eta_L", [1e-3, 1e-2, 1e-1])
    def test_bias_law_to_first_order_in_eta(self, case, K, eta_L):
        # The law, from sum_i S_i (Q_i x + a_i) = 0 with S_i = K I -
        # eta K(K - 1)/2 Q_i + O(eta^2): each block of z_fp - z* is
        # eta (K - 1)/2 Q_sum^-1 sum_i Q_i g_i up to a relative O(eta L), with
        # g_i = Q_i x* + a_i (x block) or Q_i y* + c_i (y block). z* and the
        # prediction come from plain solves, not from the fixed point's
        # geometric sums.
        prob = (ScalarTwoAgent() if case == "scalar2" else
                gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=7)))
        eta = eta_L / estimate_constants(prob)[1]
        fixed = local_sgda_fixed_point(prob, K, eta, eta)
        Q_sum = prob.Q.sum(axis=0)
        for z_fp, linear in ((fixed.x, prob.a), (fixed.y, prob.c)):
            star = np.linalg.solve(Q_sum, -linear.sum(axis=0))
            g = prob.Q @ star + linear
            bias = eta * (K - 1) / 2 * np.linalg.solve(Q_sum, np.einsum("ijk,ik->j", prob.Q, g))
            error = z_fp - star
            assert np.linalg.norm(error - bias) <= eta_L * np.linalg.norm(error)

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
        assert plateau == pytest.approx(149.78, abs=0.01)
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
        with pytest.raises(ValueError, match="^stepsizes must be finite and positive$"):
            local_sgda_fixed_point(ScalarTwoAgent(), 10, 0.0, 0.001)

    def test_refuses_a_non_quadratic_problem(self):
        with pytest.raises(UnsupportedProblemError):
            local_sgda_fixed_point(tiny_rlr(), 10, 0.001, 0.001)

    @pytest.mark.parametrize("study", [local_sgda_fixed_point, local_sgda_limit])
    def test_closed_form_and_simulated_limit_refuse_a_non_integer_k(self, study):
        with pytest.raises(ValueError, match=r"^K must be an integer, got 2\.5$"):
            study(ScalarTwoAgent(), 2.5, 1e-3, 1e-3)

    def test_the_simulated_limit_is_the_round_engines(self):
        assert analysis.local_sgda_limit is algorithms.local_sgda_limit


class TestGeometricSums:
    @pytest.fixture(scope="class")
    def eigenvalues(self):
        return gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=7)).spectra[0]

    # r = 1 - eta w across (-1, 1]: eta w below 1e-8 and up to 1e-6, where
    # the closed form (1 - r^K) / (1 - r) cancels, moderate, and r near -1
    RATIOS = np.concatenate([
        [1.0], 1.0 - 10.0 ** np.linspace(-16, -8.01, 9), 1.0 - 10.0 ** np.linspace(-8, -6.01, 9),
        1.0 - 10.0 ** np.linspace(-6, -0.1, 13), np.linspace(-0.95, 0.95, 11),
        -1.0 + 10.0 ** np.linspace(-12, -1, 12),
    ])
    # error bound, in units of eps sum_j |r|^j. On these ratios the doubling
    # evaluator stays within 2.0 of them and term-by-term sums within 1.5;
    # powers by repeated squaring reach 88 and the closed form 5e6
    UNITS = 4

    @pytest.mark.parametrize("K", [1, 2, 3, 7, 10, 20, 50, 129, 1000])
    def test_sums_are_within_the_bound_of_the_exact_sums(self, K):
        eps = Fraction(np.finfo(float).eps)
        for r, total in zip(self.RATIOS, geometric_sums(self.RATIOS, K)):
            scale = exact_geometric_sum(abs(r), K)
            assert abs(Fraction(float(total)) - exact_geometric_sum(r, K)) <= self.UNITS * eps * scale

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
    def test_other_problem_types_are_refused(self):
        rlr = tiny_rlr(m=3, d=2, n=4, seed=2)
        for problem, x in ((ScalarTwoAgent(), [1.0]),
                           (MinimaxProblem(rlr.agents, rlr.sets), [1.0, 0.5])):
            with pytest.raises(UnsupportedProblemError,
                               match=f"^no robust loss for {type(problem).__name__}$"):
                robust_loss(problem, x)

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

    @pytest.mark.parametrize("case", STATISTICS_CASES)
    def test_statistics_match_the_per_agent_definition(self, case):
        rng = np.random.default_rng(21)
        prob = statistics_case(case, rng)
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

    @pytest.mark.parametrize("case", STATISTICS_CASES)
    def test_total_loss_is_the_quadratic_form_of_the_federation_gram(self, case):
        # r_i = V_i v with V_i = [A_i, 1, -b_i] and v = (x, x'y, 1), so the
        # summed agent values are v'Sbar v + m|x|^2/2 for the federation Gram
        # matrix Sbar = sum_i V_i'V_i / n_i
        rng = np.random.default_rng(21)
        prob = statistics_case(case, rng)
        d, ball = prob.p, prob.sets.set_y
        Sbar = prob.lifted[1]
        assert Sbar.shape == (d + 2, d + 2) and np.array_equal(Sbar, Sbar.T)
        models = [rng.normal(size=d) * scale for scale in (1e-3, 1.0, 10.0) * 20]
        for x in models + [np.zeros(d)]:
            # a shift inside the ball, then one on its boundary
            for y in (ball.center + 0.5 * ball.radius * rng.uniform(size=d) / np.sqrt(d),
                      ball.project(ball.center + rng.normal(size=d))):
                v = np.concatenate((x, [x @ y, 1.0]))
                total = sum(a.value(x, y) for a in prob.agents)
                assert abs(v @ Sbar @ v + 0.5 * prob.m * (x @ x) - total) <= 1e-13 * total

    @pytest.mark.parametrize("alpha, seed", [(1.0, 5), (5.0, 4), (20.0, 2012)])
    def test_zero_model_loss_is_bitwise_the_sum_of_agent_values(self, alpha, seed):
        # so the robust loss at the usual starting point x = 0 is never an ulp
        # below the loss at y = 0 that callers compare it with
        prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=alpha, seed=seed))
        x = np.zeros(5)
        assert robust_loss(prob, x).value == sum(a.value(x, x) for a in prob.agents)

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("alpha, eta", [(1.0, 5e-3), (5.0, 1e-3), (20.0, 1e-4)])
    def test_recorded_loss_never_below_the_loss_at_zero_shift(self, alpha, eta, seed):
        # the rlr-robust benchmark's output check, with no tolerance: every
        # recorded robust loss of both methods is >= the summed agent values
        # at y = 0, including round 0 at x = 0, where the two are equal
        prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=alpha, seed=seed))
        y0 = np.zeros(5)
        for algo in (LOCAL_SGDA, FEDGDA_GT):
            config = AlgoConfig(algo, eta, eta, 10, 20, Iterate.zeros(5, 5))
            trace = run_algorithm(prob, config,
                                  robust_loss_fn=lambda z: robust_loss(prob, z.x).value)
            assert len(trace.records) == 21
            for rec in trace.records:
                floor = float(sum(a.value(rec.iterate.x, y0) for a in prob.agents))
                assert rec.robust_loss >= floor, (algo, rec.round)

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


def exact_residuals(agent, x, y):
    """Agent's shifted rows u_j = a_j + y and residuals r_j = x'u_j - b_j in
    exact rational arithmetic, with |r|_j = |x|'|u_j| + |b_j|, the sum of the
    absolute values of r_j's terms."""
    rows = [[Fraction(float(a)) + yk for a, yk in zip(row, y)] for row in agent.A]
    r, r_abs = [], []
    for u, b in zip(rows, map(Fraction, agent.b.tolist())):
        r.append(sum(xk * uk for xk, uk in zip(x, u)) - b)
        r_abs.append(sum(abs(xk * uk) for xk, uk in zip(x, u)) + abs(b))
    return rows, r, r_abs


def exact_total_loss(prob, x, y):
    """(sum_i f_i(x, y), the same sum over the absolute values of its terms),
    both exact, from the per-sample definition."""
    x, y = list(map(Fraction, x.tolist())), list(map(Fraction, y.tolist()))
    ridge = sum(xk * xk for xk in x) / 2
    total = total_abs = Fraction(0)
    for agent in prob.agents:
        _, r, r_abs = exact_residuals(agent, x, y)
        total += sum(v * v for v in r) / agent.n + ridge
        total_abs += sum(v * v for v in r_abs) / agent.n + ridge
    return total, total_abs


class TestExactRlrOracle:
    """The per-sample RLR definition evaluated in ``fractions.Fraction`` on a
    tiny federation with unequal sample counts. The float field and robust
    loss must lie within a few rounding units of the sum of the absolute
    values of the definition's terms: a bound that holds whatever form
    (samples or statistics) the float code evaluates."""

    counts = (3, 5, 4)
    # (longest sum + a few) rounding units: n_max + d + 4, doubled
    tol = 2 * (max(counts) + 2 + 4) * np.finfo(np.float64).eps

    def problem(self):
        rng = np.random.default_rng(40)
        return RobustLinearRegression([rng.normal(1.0, 2.0, size=(n, 2)) for n in self.counts],
                                      [rng.normal(size=n) for n in self.counts], y_radius=0.5)

    def test_field_rows(self):
        prob = self.problem()
        rng = np.random.default_rng(41)
        for scale in (1e-2, 1.0, 10.0):
            for _ in range(10):
                Z = rng.normal(0.0, scale, size=(prob.m, 4))
                F = prob.stacked_field(Z)
                for agent, z, f in zip(prob.agents, Z, F):
                    x, y = list(map(Fraction, z[:2].tolist())), list(map(Fraction, z[2:].tolist()))
                    rows, r, r_abs = exact_residuals(agent, x, y)
                    scale_n = Fraction(2, agent.n)
                    exact = [scale_n * sum(rj * u[k] for rj, u in zip(r, rows)) + x[k]
                             for k in range(2)]
                    exact += [-scale_n * sum(r) * xk for xk in x]
                    bound = [scale_n * sum(ra * abs(u[k]) for ra, u in zip(r_abs, rows))
                             + abs(x[k]) for k in range(2)]
                    bound += [scale_n * sum(r_abs) * abs(xk) for xk in x]
                    for got, want, size in zip(f.tolist(), exact, bound):
                        assert abs(Fraction(got) - want) <= self.tol * size

    def test_robust_loss_is_the_worse_ball_candidate(self):
        prob = self.problem()
        ball = prob.sets.set_y
        rng = np.random.default_rng(42)
        for scale in (1e-2, 1.0, 10.0):
            for _ in range(10):
                x = rng.normal(0.0, scale, size=2)
                res = robust_loss(prob, x)
                step = x * (ball.radius / np.linalg.norm(x))
                candidates = [ball.center + step, ball.center - step]
                assert any(np.array_equal(res.y, y) for y in candidates)
                other = next(y for y in candidates if not np.array_equal(res.y, y))
                worst, worst_abs = exact_total_loss(prob, x, res.y)
                rival, rival_abs = exact_total_loss(prob, x, other)
                assert abs(Fraction(res.value) - worst) <= self.tol * worst_abs
                assert worst >= rival - self.tol * (worst_abs + rival_abs)


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


@pytest.mark.parametrize("check", [
    lambda trials: check_strong_monotonicity(ScalarTwoAgent(), 2.0, trials),
    lambda trials: check_contraction(ScalarTwoAgent(), 2.0, 8.0, 0.01, trials),
], ids=["monotonicity", "contraction"])
@pytest.mark.parametrize("trials", [0, -1])
def test_property_check_that_samples_nothing_is_refused(check, trials):
    # with no pair drawn there is nothing that could fail, so no pass to report
    with pytest.raises(ValueError, match="trials >= 1"):
        check(trials)


@pytest.mark.parametrize("check", [
    lambda trials, seed: check_strong_monotonicity(ScalarTwoAgent(), 2.0, trials, seed=seed),
    lambda trials, seed: check_contraction(ScalarTwoAgent(), 2.0, 8.0, 0.01, trials, seed=seed),
], ids=["monotonicity", "contraction"])
@pytest.mark.parametrize("trials, seed, message", [
    (2.5, 0, r"trials must be an integer, got 2\.5"),
    # a seed of None would draw from the OS and give another answer every call
    (5, None, "seed must be an integer, got None"),
    (5, 1.5, r"seed must be an integer, got 1\.5"),
])
def test_property_check_counts_must_be_integers(check, trials, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(trials, seed)


@pytest.mark.parametrize("check", [
    lambda trials: check_strong_monotonicity(ScalarTwoAgent(), 2.0, trials),
    lambda trials: check_contraction(ScalarTwoAgent(), 2.0, 8.0, 0.01, trials),
], ids=["monotonicity", "contraction"])
def test_property_report_keeps_the_python_int_it_read(check):
    report = check(np.int64(5))
    assert report.trials == 5 and type(report.trials) is int


@pytest.mark.parametrize("check", [
    lambda c: check_strong_monotonicity(ScalarTwoAgent(), c, 50),
    lambda c: check_contraction(ScalarTwoAgent(), c, 8.0, 0.01, 50),
    lambda c: check_contraction(ScalarTwoAgent(), 2.0, c, 0.01, 50),
], ids=["monotonicity-mu", "contraction-mu", "contraction-L"])
@pytest.mark.parametrize("constant", [np.nan, np.inf, -np.inf])
def test_property_check_refuses_a_constant_that_is_not_finite(check, constant):
    # no comparison with NaN holds and an infinite constant decides every
    # pair alike, so such a check would pass or fail on nothing it measured
    with pytest.raises(ValueError, match="^a property check needs finite constants, got "):
        check(constant)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -0.01])
def test_contraction_check_holds_eta_to_the_round_rule(eta):
    with pytest.raises(ValueError, match="^stepsizes must be finite and positive$"):
        check_contraction(ScalarTwoAgent(), 2.0, 8.0, eta, 50)


def reference_pairs(problem, trials, seed):
    """The sampled pairs as the per-check loops drew them."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        z = Iterate(rng.normal(0.0, 10.0, problem.p), rng.normal(0.0, 10.0, problem.q))
        zp = Iterate(rng.normal(0.0, 10.0, problem.p), rng.normal(0.0, 10.0, problem.q))
        diff = z.stacked - zp.stacked
        dsq = float(np.dot(diff, diff))
        if dsq == 0.0:
            continue
        yield z, zp, diff, dsq, problem.gda_field(z) - problem.gda_field(zp)


def reference_monotonicity(problem, mu, trials, seed):
    """(passed, min_ratio, witness) of a running minimum over the pairs."""
    min_ratio, witness, passed = np.inf, None, True
    for z, zp, diff, dsq, dfield in reference_pairs(problem, trials, seed):
        lhs = float(np.dot(dfield, diff))
        if lhs / dsq < min_ratio:
            min_ratio = lhs / dsq
        if lhs < mu * dsq - 1e-9 and witness is None:
            passed, witness = False, (z, zp)
    return passed, float(min_ratio), witness


def reference_contraction(problem, mu, L, eta, trials, seed):
    """(passed, max_ratio, bound, witness) of a running maximum over the pairs."""
    bound = 1.0 - eta * (2.0 * mu - eta * L**2)
    max_ratio, witness, passed = -np.inf, None, True
    for z, zp, diff, dsq, dfield in reference_pairs(problem, trials, seed):
        step_diff = diff - eta * dfield
        lhs = float(np.dot(step_diff, step_diff))
        if lhs / dsq > max_ratio:
            max_ratio = lhs / dsq
        if lhs > bound * dsq * (1.0 + 1e-10) + 1e-12 and witness is None:
            passed, witness = False, (z, zp)
    return passed, float(max_ratio), bound, witness


def witness_bytes(witness):
    return None if witness is None else [(z.x.tobytes(), z.y.tobytes()) for z in witness]


class TestOnePairScan:
    """Both checks' reports are bitwise those of their own loops over the pairs."""

    FEDERATIONS = {
        "quadratic": lambda: gen_quadratic(QuadraticGenSpec(m=4, d=6, n_i=12, seed=3)),
        "rlr": lambda: gen_rlr(RlrGenSpec(m=3, d=4, n_i=9, alpha=5.0, seed=2)),
        "ragged-rlr": lambda: statistics_case("ragged", np.random.default_rng(17)),
        "scalar2": ScalarTwoAgent,
    }

    # RLR is not monotone at the sampled scale: mu = -1e3 passes there
    @pytest.mark.parametrize("mu", [-1e3, 0.5, 50.0])
    @pytest.mark.parametrize("family", sorted(FEDERATIONS))
    def test_monotonicity_report(self, family, mu):
        prob = self.FEDERATIONS[family]()
        report = check_strong_monotonicity(prob, mu, 300, seed=4)
        passed, min_ratio, witness = reference_monotonicity(prob, mu, 300, 4)
        assert (report.passed, report.mu, report.trials) == (passed, mu, 300)
        assert report.min_ratio.hex() == min_ratio.hex()
        assert witness_bytes(report.witness) == witness_bytes(witness)

    @pytest.mark.parametrize("mu, L, eta", [(-1e4, 10.0, 0.005), (0.5, 10.0, 0.005),
                                            (1.0, 1.0, 0.5)])
    @pytest.mark.parametrize("family", sorted(FEDERATIONS))
    def test_contraction_report(self, family, mu, L, eta):
        prob = self.FEDERATIONS[family]()
        report = check_contraction(prob, mu, L, eta, 300, seed=5)
        passed, max_ratio, bound, witness = reference_contraction(prob, mu, L, eta, 300, 5)
        assert (report.passed, report.eta, report.trials) == (passed, eta, 300)
        assert (report.max_ratio.hex(), report.bound.hex()) == (max_ratio.hex(), bound.hex())
        assert witness_bytes(report.witness) == witness_bytes(witness)

    def test_the_constants_make_both_outcomes(self):
        # the bitwise cases above see passing and failing checks on every family
        for make in self.FEDERATIONS.values():
            prob = make()
            assert {check_strong_monotonicity(prob, mu, 300, seed=4).passed
                    for mu in (-1e3, 50.0)} == {True, False}
            assert {check_contraction(prob, *c, 300, seed=5).passed
                    for c in ((-1e4, 10.0, 0.005), (1.0, 1.0, 0.5))} == {True, False}


class TestOverflowingField:
    """A field that overflows at the sampled points bounds nothing: the first
    pair whose field difference is not finite fails either check, and the
    check reports its extreme ratio as NaN."""

    @pytest.mark.parametrize("check, extreme", [
        (lambda prob, trials, seed: check_strong_monotonicity(prob, 1.0, trials, seed=seed),
         "min_ratio"),
        (lambda prob, trials, seed: check_contraction(prob, 1.0, 2.0, 0.1, trials, seed=seed),
         "max_ratio"),
    ], ids=["monotonicity", "contraction"])
    @pytest.mark.parametrize("trials", [1, 20])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_fails_with_the_first_overflowing_pair_as_witness(self, check, extreme, trials,
                                                             seed):
        prob = UncoupledQuadratic([[[1e308]]], [[0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            first = next((z, zp) for z, zp, _, _, dfield in reference_pairs(prob, trials, seed)
                         if not np.isfinite(dfield).all())
        report = check(prob, trials, seed)
        assert report.passed is False
        assert witness_bytes(report.witness) == witness_bytes(first)
        # the sampled ratios are inf, or inf and NaN: a min or max that
        # skipped NaN would claim unbounded curvature, or none
        assert np.isnan(getattr(report, extreme))


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

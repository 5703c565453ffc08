import numpy as np
import pytest

from fedmm.core import DimensionMismatchError, Iterate
from fedmm.problems import (
    MinimaxProblem,
    QuadraticAgent,
    RlrAgent,
    RobustLinearRegression,
    ScalarTwoAgent,
    SingularProblemError,
    UncoupledQuadratic,
    UnsupportedProblemError,
    closed_form_minimax,
    estimate_constants,
    finite_difference_gradients,
)
from fedmm.datagen import QuadraticGenSpec, gen_quadratic


def random_quadratic(m=3, d=5, seed=0, scale=1.0) -> UncoupledQuadratic:
    rng = np.random.default_rng(seed)
    Qs, cs = [], []
    for _ in range(m):
        A = rng.normal(0, scale, size=(d + 3, d))
        Qs.append(A.T @ A)
        cs.append(rng.normal(size=d))
    return UncoupledQuadratic(Qs, cs)


def random_rlr(m=3, d=4, n=6, seed=0) -> RobustLinearRegression:
    rng = np.random.default_rng(seed)
    feats = [rng.normal(size=(n, d)) for _ in range(m)]
    tgts = [rng.normal(size=n) for _ in range(m)]
    return RobustLinearRegression(feats, tgts)


class TestScalarTwoAgent:
    def test_gradient_formulas(self):
        prob = ScalarTwoAgent()
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.normal(0, 3, size=2)
            a1, a2 = prob.agents
            assert a1.grad_x([x], [y])[0] == pytest.approx(2 * x - 1, abs=1e-12)
            assert a1.grad_y([x], [y])[0] == pytest.approx(-2 * y + 1, abs=1e-12)
            assert a2.grad_x([x], [y])[0] == pytest.approx(8 * x - 32, abs=1e-12)
            assert a2.grad_y([x], [y])[0] == pytest.approx(-8 * y + 32, abs=1e-12)

    def test_objective_values(self):
        prob = ScalarTwoAgent()
        x, y = 1.7, -0.3
        f1 = x**2 - y**2 - (x - y)
        f2 = 4 * x**2 - 4 * y**2 - 32 * (x - y)
        assert prob.agents[0].value([x], [y]) == pytest.approx(f1, rel=1e-14)
        assert prob.agents[1].value([x], [y]) == pytest.approx(f2, rel=1e-14)

    def test_global_grad_vanishes_at_minimax_point(self):
        prob = ScalarTwoAgent()
        gx, gy = prob.global_grad(Iterate(np.array([3.3]), np.array([3.3])))
        assert abs(gx[0]) <= 1e-12
        assert abs(gy[0]) <= 1e-12

    def test_closed_form_is_3_3(self):
        z = closed_form_minimax(ScalarTwoAgent())
        assert z.x[0] == pytest.approx(3.3, abs=1e-15)
        assert z.y[0] == pytest.approx(3.3, abs=1e-15)

    def test_closed_form_equals_the_scalar_quotient_bitwise(self):
        # the summed offsets over the summed curvature, (1 + 32) / (2 + 8)
        z = closed_form_minimax(ScalarTwoAgent())
        assert z.x[0] == (1.0 + 32.0) / (2.0 + 8.0) == 33 / 10
        assert z.y[0] == 33 / 10

    def test_is_the_d1_instance_of_the_quadratic_family(self):
        prob = ScalarTwoAgent()
        assert isinstance(prob, UncoupledQuadratic)
        assert prob.Q.shape == (2, 1, 1) and prob.m == 2 and prob.p == prob.q == 1
        assert np.array_equal(prob.Q[:, 0, 0], [2.0, 8.0])
        assert np.array_equal(prob.a[:, 0], [-1.0, -32.0])
        assert np.array_equal(prob.c[:, 0], [-1.0, -32.0])

    def test_constants(self):
        assert estimate_constants(ScalarTwoAgent()) == (2.0, 8.0)


class TestGlobalGrad:
    def test_single_agent_problem_equals_agent_gradient(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 4))
        c = rng.normal(size=4)
        agent = QuadraticAgent(A.T @ A, 2 * c, c)
        prob = MinimaxProblem([agent])
        z = Iterate(rng.normal(size=4), rng.normal(size=4))
        gx, gy = prob.global_grad(z)
        assert np.array_equal(gx, agent.grad_x(z.x, z.y))
        assert np.array_equal(gy, agent.grad_y(z.x, z.y))

    def test_dimension_mismatch(self):
        prob = ScalarTwoAgent()
        with pytest.raises(DimensionMismatchError):
            prob.global_grad(Iterate(np.zeros(2), np.zeros(1)))

    def test_quadratic_gradient_formulas(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(7, 3))
        Q, c = A.T @ A, rng.normal(size=3)
        agent = QuadraticAgent(Q, 2 * c, c)
        x, y = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(agent.grad_x(x, y), Q @ x + 2 * c, atol=1e-12)
        np.testing.assert_allclose(agent.grad_y(x, y), -(Q @ y) - c, atol=1e-12)

    def test_quadratic_with_its_own_x_term(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(7, 3))
        Q, a, c = A.T @ A, rng.normal(size=3), rng.normal(size=3)
        agent = QuadraticAgent(Q, a, c)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert agent.value(x, y) == pytest.approx(
            0.5 * x @ Q @ x - 0.5 * y @ Q @ y + a @ x - c @ y, rel=1e-14)
        np.testing.assert_allclose(agent.grad_x(x, y), Q @ x + a, atol=1e-12)
        np.testing.assert_allclose(agent.grad_y(x, y), -(Q @ y) - c, atol=1e-12)
        fx, fy = finite_difference_gradients(agent, x, y)
        assert np.linalg.norm(fx - agent.grad_x(x, y)) <= 1e-5 * (1 + np.linalg.norm(fx))
        assert np.linalg.norm(fy - agent.grad_y(x, y)) <= 1e-5 * (1 + np.linalg.norm(fy))

    def test_rlr_gradient_formulas(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        agent = RlrAgent(A, b)
        x, y = rng.normal(size=3), rng.normal(size=3)
        r = (A + y) @ x - b
        gx = 2.0 / 5 * (A + y).T @ r + x
        gy = 2.0 / 5 * np.sum(r) * x
        np.testing.assert_allclose(agent.grad_x(x, y), gx, atol=1e-12)
        np.testing.assert_allclose(agent.grad_y(x, y), gy, atol=1e-12)


class TestClosedForm:
    def test_identity_system(self):
        prob = UncoupledQuadratic([np.eye(3)], [np.array([1.0, 0.0, 0.0])])
        z = closed_form_minimax(prob)
        np.testing.assert_allclose(z.x, [-2.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(z.y, [-1.0, 0.0, 0.0], atol=1e-14)

    def test_gradient_residual_small_on_random_instance(self):
        prob = random_quadratic(m=3, d=5, seed=8)
        z = closed_form_minimax(prob)
        gx, gy = prob.global_grad(z)
        assert np.sqrt(np.dot(gx, gx) + np.dot(gy, gy)) <= 1e-9

    def test_residual_scales_with_offsets(self):
        prob = random_quadratic(m=2, d=4, seed=9, scale=3.0)
        z = closed_form_minimax(prob)
        gx, gy = prob.global_grad(z)
        Sc = prob.c.sum(axis=0)
        assert np.sqrt(np.dot(gx, gx) + np.dot(gy, gy)) <= 1e-9 * (
            1 + np.linalg.norm(Sc)
        )

    def test_independent_x_term_sets_the_x_block(self):
        base = random_quadratic(m=3, d=4, seed=22)
        a = np.random.default_rng(23).normal(size=(3, 4))
        prob = UncoupledQuadratic(base.Q, base.c, a_list=a)
        z = closed_form_minimax(prob)
        gx, gy = prob.global_grad(z)
        assert np.linalg.norm(gx) <= 1e-9 * (1 + np.linalg.norm(a.sum(axis=0)))
        assert np.array_equal(z.y, closed_form_minimax(base).y)

    def test_unsupported_for_rlr(self):
        with pytest.raises(UnsupportedProblemError):
            closed_form_minimax(random_rlr())

    def test_singular_curvature_rejected_at_construction(self):
        with pytest.raises(SingularProblemError):
            UncoupledQuadratic([np.zeros((2, 2))], [np.zeros(2)])


def power_iteration_extremes(Q, iters=20000, tol=1e-13):
    """Largest/smallest eigenvalue oracle independent of LAPACK eigensolves."""

    def largest(M):
        v = np.ones(M.shape[0]) / np.sqrt(M.shape[0])
        lam = 0.0
        for _ in range(iters):
            w = M @ v
            nw = np.linalg.norm(w)
            v_next = w / nw
            lam_next = float(v_next @ M @ v_next)
            if abs(lam_next - lam) <= tol * max(1.0, abs(lam_next)):
                return lam_next
            v, lam = v_next, lam_next
        return lam

    lmax = largest(Q)
    shift = lmax + 1.0
    lmin = shift - largest(shift * np.eye(Q.shape[0]) - Q)
    return lmin, lmax


class TestEstimateConstants:
    def test_diagonal(self):
        prob = UncoupledQuadratic([np.diag([1.0, 4.0])], [np.zeros(2)])
        mu, L = estimate_constants(prob)
        assert mu == pytest.approx(1.0, abs=1e-12)
        assert L == pytest.approx(4.0, abs=1e-12)

    def test_matches_power_iteration_oracle(self):
        prob = random_quadratic(m=3, d=6, seed=10)
        mu, L = estimate_constants(prob)
        assert mu <= L
        mins, maxes = [], []
        for agent in prob.agents:
            lmin, lmax = power_iteration_extremes(agent.Q)
            mins.append(lmin)
            maxes.append(lmax)
        assert mu == pytest.approx(min(mins), rel=1e-6)
        assert L == pytest.approx(max(maxes), rel=1e-6)

    def test_unsupported_for_rlr(self):
        with pytest.raises(UnsupportedProblemError):
            estimate_constants(random_rlr())

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_batched_spectra_equal_per_agent_eigh_bitwise(self, seed):
        prob = gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=seed))
        w, V = prob.spectra
        for i, Q in enumerate(prob.Q):
            w_i, V_i = np.linalg.eigh(Q)
            assert np.array_equal(w[i], w_i) and np.array_equal(V[i], V_i)


class TestCurvatureFacts:
    def test_spectra_are_computed_once_and_read_only(self):
        prob = random_quadratic(m=3, d=4, seed=24)
        w, V = prob.spectra
        assert prob.spectra[0] is w and prob.spectra[1] is V
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            V[0, 0, 0] = 1.0

    def test_curvature_stack_and_sum_are_read_only(self):
        prob = random_quadratic(m=3, d=4, seed=25)
        assert prob.Q_sum.base is None  # not a view of the (m, d, d) running sums
        for arr in (prob.Q, prob.Q_sum, prob.agents[0].Q):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_curvature_sum_is_the_ascending_loop_bitwise(self):
        prob = random_quadratic(m=5, d=3, seed=26)
        total = prob.Q[0].copy()
        for Q in prob.Q[1:]:
            total = total + Q
        assert np.array_equal(prob.Q_sum, total)

    def test_constants_refused_for_hand_built_quadratic_agents(self):
        # curvature facts belong to UncoupledQuadratic, not to agent lists
        prob = MinimaxProblem(random_quadratic(m=2, d=3, seed=27).agents)
        with pytest.raises(UnsupportedProblemError, match="supply stepsizes explicitly"):
            estimate_constants(prob)


class TestFiniteDifferences:
    @pytest.mark.parametrize("family", ["scalar2", "quadratic", "rlr"])
    def test_gradients_match_central_differences(self, family):
        if family == "scalar2":
            prob = ScalarTwoAgent()
        elif family == "quadratic":
            prob = random_quadratic(m=3, d=4, seed=11)
        else:
            prob = random_rlr(m=3, d=4, n=6, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = rng.normal(size=prob.p)
            y = rng.normal(size=prob.q)
            for agent in prob.agents:
                fx, fy = finite_difference_gradients(agent, x, y)
                gx, gy = agent.grad_x(x, y), agent.grad_y(x, y)
                assert np.linalg.norm(fx - gx) <= 1e-5 * (1 + np.linalg.norm(gx))
                assert np.linalg.norm(fy - gy) <= 1e-5 * (1 + np.linalg.norm(gy))


def split_rows(prob, Z):
    """(X, Y) halves of a stacked (m, p + q) array."""
    return Z[:, :prob.p], Z[:, prob.p:]


class TestStackedOracle:
    """``stacked_field`` puts agent i's field (grad_x, -grad_y) at row i of Z
    in row i of its result."""

    @pytest.mark.parametrize("family", ["scalar2", "quadratic", "quadratic-d1", "agent-list"])
    def test_rows_equal_agent_oracles_bitwise(self, family):
        prob = {"scalar2": ScalarTwoAgent,
                "quadratic": lambda: random_quadratic(m=4, seed=15),
                "quadratic-d1": lambda: random_quadratic(m=9, d=1, seed=15),
                # no batched override: the default asks each agent's oracle
                "agent-list": lambda: MinimaxProblem(random_rlr(m=3, d=4, n=6, seed=15).agents),
                }[family]()
        rng = np.random.default_rng(16)
        for _ in range(100):
            Z = rng.normal(0, 3, size=(prob.m, prob.p + prob.q))
            F = prob.stacked_field(Z)
            assert F.shape == Z.shape
            X, Y = split_rows(prob, Z)
            FX, FY = split_rows(prob, F)
            for i, agent in enumerate(prob.agents):
                assert np.array_equal(FX[i], agent.grad_x(X[i], Y[i]))
                assert np.array_equal(FY[i], -agent.grad_y(X[i], Y[i]))

    @pytest.mark.parametrize("make", [ScalarTwoAgent,
                                      lambda: random_quadratic(m=9, d=1, seed=24)])
    def test_d1_product_equals_the_batched_matmul_bitwise(self, make):
        # d = 1 multiplies elementwise instead of calling np.matmul
        prob = make()
        rng = np.random.default_rng(25)
        for _ in range(100):
            Z = rng.normal(0, 3, size=(prob.m, 2))
            X, Y = split_rows(prob, Z)
            FX, FY = split_rows(prob, prob.stacked_field(Z))
            assert np.array_equal(FX, np.matmul(prob.Q, X[:, :, None])[:, :, 0] + prob.a)
            assert np.array_equal(FY, np.matmul(prob.Q, Y[:, :, None])[:, :, 0] + prob.c)

    def test_rlr_rows_match_agent_oracles_and_central_differences(self):
        # unequal sample counts, so the zero padding of the batched
        # statistics is exercised too
        rng = np.random.default_rng(17)
        counts = (6, 9, 4)
        prob = RobustLinearRegression([rng.normal(1.0, 2.0, size=(n, 4)) for n in counts],
                                      [rng.normal(size=n) for n in counts])
        for _ in range(100):
            Z = rng.normal(size=(prob.m, prob.p + prob.q))
            X, Y = split_rows(prob, Z)
            FX, FY = split_rows(prob, prob.stacked_field(Z))
            for i, agent in enumerate(prob.agents):
                gx, gy = agent.grad_x(X[i], Y[i]), agent.grad_y(X[i], Y[i])
                assert np.linalg.norm(FX[i] - gx) <= 1e-12 * np.linalg.norm(gx)
                assert np.linalg.norm(FY[i] + gy) <= 1e-12 * np.linalg.norm(gy)
                fx, fy = finite_difference_gradients(agent, X[i], Y[i])
                assert np.linalg.norm(fx - FX[i]) <= 1e-5 * (1 + np.linalg.norm(FX[i]))
                assert np.linalg.norm(fy + FY[i]) <= 1e-5 * (1 + np.linalg.norm(FY[i]))

    def test_global_grad_and_gda_field_share_one_average(self):
        prob = random_quadratic(m=5, d=3, seed=28)
        z = Iterate(np.full(3, 0.7), np.full(3, -1.2))
        F = prob.gda_field(z)
        gx, gy = prob.global_grad(z)
        assert np.array_equal(F, np.concatenate([gx, -gy]))
        for g, agent_grad in ((gx, "grad_x"), (gy, "grad_y")):
            rows = [getattr(a, agent_grad)(z.x, z.y) for a in prob.agents]
            assert np.array_equal(g, np.add.accumulate(rows, axis=0)[-1] / prob.m)

    def test_global_grad_is_the_average_of_the_per_agent_loop(self):
        prob = random_rlr(m=3, d=4, n=6, seed=18)
        loop = MinimaxProblem(list(prob.agents), prob.sets)
        z = Iterate(np.random.default_rng(19).normal(size=4), np.full(4, 0.3))
        for (g, ref) in zip(prob.global_grad(z), loop.global_grad(z)):
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_quadratic_agents_hold_views_of_the_stacked_arrays(self):
        prob = random_quadratic(m=3, d=4, seed=20)
        assert prob.Q.shape == (3, 4, 4) and prob.c.shape == (3, 4)
        assert np.array_equal(prob.a, 2.0 * prob.c)
        for i, agent in enumerate(prob.agents):
            assert agent.Q.base is prob.Q and agent.c.base is prob.c
            assert agent.a.base is prob.a
            assert np.shares_memory(agent.Q, prob.Q[i])


class TestOperatorProperties:
    @pytest.mark.parametrize("make", [ScalarTwoAgent, lambda: random_quadratic(seed=13)])
    def test_strong_monotonicity_on_1000_pairs(self, make):
        prob = make()
        mu, _ = estimate_constants(prob)
        rng = np.random.default_rng(14)
        for _ in range(1000):
            z = Iterate(rng.normal(0, 5, prob.p), rng.normal(0, 5, prob.q))
            zp = Iterate(rng.normal(0, 5, prob.p), rng.normal(0, 5, prob.q))
            diff = z.stacked - zp.stacked
            lhs = np.dot(prob.gda_field(z) - prob.gda_field(zp), diff)
            assert lhs >= mu * np.dot(diff, diff) - 1e-9

    @pytest.mark.parametrize("make", [ScalarTwoAgent, lambda: random_quadratic(seed=15)])
    def test_lipschitz_on_1000_pairs(self, make):
        prob = make()
        _, L = estimate_constants(prob)
        rng = np.random.default_rng(16)
        for _ in range(1000):
            z = Iterate(rng.normal(0, 5, prob.p), rng.normal(0, 5, prob.q))
            zp = Iterate(rng.normal(0, 5, prob.p), rng.normal(0, 5, prob.q))
            diff = z.stacked - zp.stacked
            lhs = np.linalg.norm(prob.gda_field(z) - prob.gda_field(zp))
            assert lhs <= L * np.linalg.norm(diff) * (1 + 1e-12) + 1e-12


class TestValidation:
    def test_agents_must_share_dims(self):
        a1 = QuadraticAgent(np.eye(2), np.zeros(2), np.zeros(2))
        a2 = QuadraticAgent(np.eye(3), np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            MinimaxProblem([a1, a2])

    def test_empty_agent_list_rejected(self):
        with pytest.raises(ValueError):
            MinimaxProblem([])

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            QuadraticAgent(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), np.zeros(2))

    def test_rlr_sample_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RlrAgent(np.zeros((4, 2)), np.zeros(3))

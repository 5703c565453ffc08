import warnings
from fractions import Fraction

import numpy as np
import pytest

from fedmm.core import DimensionMismatchError, FeasibleSet, Iterate, ProductSet
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
    solve_checked,
)
from fedmm.datagen import QuadraticGenSpec, RlrGenSpec, gen_quadratic, gen_rlr


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

    @pytest.mark.parametrize("block", ["x", "y"])
    def test_refused_under_a_feasible_set(self, block):
        # the interior point is not the saddle once a ball binds: with a
        # y-ball of half the radius of |y*| it lies outside the ball
        base = random_quadratic(m=4, d=4, seed=31)
        z = closed_form_minimax(base)
        radius = 0.5 * np.linalg.norm(z.y if block == "y" else z.x)
        ball, free = FeasibleSet.ball(np.zeros(4), radius), FeasibleSet.unconstrained(4)
        sets = ProductSet(ball, free) if block == "x" else ProductSet(free, ball)
        prob = UncoupledQuadratic(base.Q, base.c, sets)
        kinds = "x: ball, y: unconstrained" if block == "x" else "x: unconstrained, y: ball"
        with pytest.raises(UnsupportedProblemError,
                           match=f"^no closed-form minimax point under the feasible sets {kinds}$"):
            closed_form_minimax(prob)


class TestSolveChecked:
    def test_singular_matrix_refused(self):
        with pytest.raises(SingularProblemError, match="^curvature system is singular$"):
            solve_checked(np.zeros((2, 2)), np.ones(2))

    def test_ill_conditioned_matrix_refused_by_its_residual(self):
        # the 14 x 14 Hilbert matrix: LAPACK returns a solution whose
        # residual is far above the 1e-6 bound
        H = 1.0 / (np.arange(14)[:, None] + np.arange(14) + 1.0)
        b = np.random.default_rng(0).normal(size=14)
        with pytest.raises(SingularProblemError,
                           match=r"^linear solve residual \S+ too large; system near-singular$"):
            solve_checked(H, b)


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

    def test_linear_terms_and_field_offset_are_read_only(self):
        # a writable c would let the agents' oracles and the batched field,
        # whose offset is a copy of (a, c), disagree
        prob = random_quadratic(m=3, d=4, seed=29)
        agent = prob.agents[0]
        for arr in (prob.a, prob.c, prob._offset, agent.a, agent.c):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 10.0
        Z = np.ones((3, 8))
        assert np.array_equal(prob.stacked_field(Z)[0, 4:], -agent.grad_y(Z[0, :4], Z[0, 4:]))

    def test_rlr_samples_and_statistics_cannot_change_after_construction(self):
        rng = np.random.default_rng(30)
        feats = [rng.normal(size=(n, 3)) for n in (4, 6)]
        tgts = [rng.normal(size=n) for n in (4, 6)]
        prob = RobustLinearRegression(feats, tgts)
        reference = RlrAgent(feats[0].copy(), tgts[0].copy())
        feats[0][0, 0] += 5.0  # the caller's arrays: the problem keeps copies
        tgts[0][0] -= 3.0
        agent = prob.agents[0]
        x, y = np.ones(3), np.zeros(3)
        F = prob.stacked_field(np.tile(np.concatenate((x, y)), (2, 1)))
        gx = agent.grad_x(x, y)
        assert np.array_equal(gx, reference.grad_x(x, y))
        assert np.linalg.norm(F[0, :3] - gx) <= 1e-12 * np.linalg.norm(gx)
        for arr in (agent.A, agent.b, *prob.lifted):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1.0

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


def two_block_differences(agent, x, y):
    """Central differences with one loop per block, the x loop first."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    step = 1e-5
    gx = np.zeros(agent.p)
    for k in range(agent.p):
        e = np.zeros(agent.p)
        e[k] = step
        gx[k] = (agent.value(x + e, y) - agent.value(x - e, y)) / (2.0 * step)
    gy = np.zeros(agent.q)
    for k in range(agent.q):
        e = np.zeros(agent.q)
        e[k] = step
        gy[k] = (agent.value(x, y + e) - agent.value(x, y - e)) / (2.0 * step)
    return gx, gy


def ragged_rlr(seed=17):
    rng = np.random.default_rng(seed)
    counts = (6, 9, 4)
    return RobustLinearRegression([rng.normal(1.0, 2.0, size=(n, 4)) for n in counts],
                                  [rng.normal(size=n) for n in counts])


class TestOneCentralDifferenceLoop:
    # one loop over z = (x, y) perturbs the same coordinate by the same step
    # and divides the same difference as a loop per block
    FEDERATIONS = {
        "quadratic": lambda: gen_quadratic(QuadraticGenSpec(m=4, d=6, n_i=12, seed=3)),
        "rlr": lambda: gen_rlr(RlrGenSpec(m=3, d=4, n_i=9, alpha=5.0, seed=2)),
        "ragged-rlr": ragged_rlr,
        "scalar2": ScalarTwoAgent,
    }

    @pytest.mark.parametrize("family", sorted(FEDERATIONS))
    def test_bitwise_the_loops_per_block(self, family):
        prob = self.FEDERATIONS[family]()
        rng = np.random.default_rng(20)
        for _ in range(20):
            x, y = rng.normal(0.0, 3.0, size=prob.p), rng.normal(0.0, 3.0, size=prob.q)
            for agent in prob.agents:
                got = finite_difference_gradients(agent, x, y)
                want = two_block_differences(agent, x, y)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def split_rows(prob, Z):
    """(X, Y) halves of a stacked (m, p + q) array."""
    return Z[:, :prob.p], Z[:, prob.p:]


class TestStackedOracle:
    """``stacked_field`` puts agent i's field (grad_x, -grad_y) at row i of Z
    in row i of its result."""

    # the benchmark's d = 50 and sizes on both sides of BLAS kernel block edges
    dims = (2, 7, 16, 17, 50, 65)

    @pytest.mark.parametrize("family", ["scalar2", "quadratic", "quadratic-d1", "agent-list",
                                        *(f"quadratic-d{d}" for d in dims)])
    def test_rows_equal_agent_oracles_bitwise(self, family):
        makers = {"scalar2": ScalarTwoAgent,
                  "quadratic": lambda: random_quadratic(m=4, seed=15),
                  "quadratic-d1": lambda: random_quadratic(m=9, d=1, seed=15),
                  # no batched override: the default asks each agent's oracle
                  "agent-list": lambda: MinimaxProblem(random_rlr(m=3, d=4, n=6, seed=15).agents),
                  }
        makers.update({f"quadratic-d{d}": lambda d=d: random_quadratic(m=4, d=d, seed=15)
                       for d in self.dims})
        prob = makers[family]()
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

    @pytest.mark.parametrize("make", [
        ScalarTwoAgent,
        lambda: random_quadratic(m=4, seed=26),
        lambda: random_rlr(m=3, d=4, n=6, seed=26),
        lambda: MinimaxProblem(random_rlr(m=3, d=4, n=6, seed=26).agents),
    ], ids=["scalar2", "quadratic", "rlr", "agent-list"])
    def test_field_is_a_new_writable_array_the_caller_owns(self, make):
        # the round engine updates the returned field in place
        prob = make()
        Z = np.random.default_rng(27).normal(0, 3, size=(prob.m, prob.p + prob.q))
        Z_before = Z.copy()
        F = prob.stacked_field(Z)
        first = F.copy()
        assert F.flags.writeable
        owned = [Z, *(getattr(prob, name) for name in ("Q", "a", "c", "_offset")
                      if hasattr(prob, name))]
        if isinstance(prob, RobustLinearRegression):
            owned += prob.lifted
        assert not any(np.shares_memory(F, array) for array in owned)
        F[...] = np.nan
        assert np.array_equal(Z, Z_before)
        assert np.array_equal(prob.stacked_field(Z), first)

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

    def test_agent_gradient_reads_only_its_own_block(self):
        # both gradients come from one two-row product; each row must not
        # depend on the values in the other
        agent = random_quadratic(m=1, d=50, seed=31).agents[0]
        rng = np.random.default_rng(32)
        x, y = rng.normal(size=50), rng.normal(size=50)
        gx, gy = agent.grad_x(x, y), agent.grad_y(x, y)
        for scale in (0.0, 1e-3, 1.0, 1e6):
            other = rng.normal(0.0, scale, size=50)
            assert np.array_equal(agent.grad_x(x, other), gx)
            assert np.array_equal(agent.grad_y(other, y), gy)

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


class TestExactQuadraticOracle:
    """The quadratic field evaluated in ``fractions.Fraction``: every row of
    ``stacked_field`` must lie within 2(d + 2) rounding units of the sum of
    the absolute values of the terms of Q_i x_i + a_i and Q_i y_i + c_i, a
    bound that holds whatever order BLAS sums the terms in."""

    @pytest.mark.parametrize("d", [7, 17])
    def test_field_rows(self, d):
        rng = np.random.default_rng(33)
        base = random_quadratic(m=3, d=d, seed=34)
        prob = UncoupledQuadratic(base.Q, base.c, a_list=rng.normal(size=(3, d)))
        tol = 2 * (d + 2) * np.finfo(np.float64).eps
        for scale in (1e-2, 1.0, 10.0):
            for _ in range(5):
                Z = rng.normal(0.0, scale, size=(prob.m, 2 * d))
                F = prob.stacked_field(Z)
                for Q, a, c, z, f in zip(prob.Q, prob.a, prob.c, Z, F):
                    Q = [list(map(Fraction, row)) for row in Q.tolist()]
                    for block, offset in ((slice(0, d), a), (slice(d, 2 * d), c)):
                        v = list(map(Fraction, z[block].tolist()))
                        for row, shift, got in zip(Q, offset.tolist(), f[block].tolist()):
                            terms = [q * vk for q, vk in zip(row, v)] + [Fraction(shift)]
                            size = sum(abs(t) for t in terms)
                            assert abs(Fraction(got) - sum(terms)) <= tol * size


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
        for family in (UncoupledQuadratic, RobustLinearRegression):
            with pytest.raises(ValueError, match="^a problem needs at least one agent$"):
                family([], [])

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError):
            QuadraticAgent(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_a_one_ulp_asymmetry_is_refused(self, scale):
        # symmetry is exact: spectra read one triangle of Q and the field the
        # whole matrix, so they must be the same matrix
        Q = np.array([[scale, 0.5 * scale], [0.5 * scale, scale]])
        QuadraticAgent(Q, np.zeros(2), np.zeros(2))
        Q[1, 0] = np.nextafter(Q[1, 0], np.inf)
        assert np.abs(Q).max() == scale
        with pytest.raises(ValueError, match="^Q must be symmetric$"):
            QuadraticAgent(Q, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="^Q must be symmetric$"):
            UncoupledQuadratic([np.eye(2), Q], np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["Q", "c", "a"])
    def test_non_finite_quadratic_data_is_refused(self, field, bad):
        # refused before the symmetry test, which would warn on a NaN Q
        data = dict(Q=[np.eye(2), 2 * np.eye(2)], c=np.ones((2, 2)), a=np.ones((2, 2)))
        data[field] = np.array(data[field], dtype=float)
        data[field][1, 0] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
            UncoupledQuadratic(data["Q"], data["c"], a_list=data["a"])

    def test_an_x_term_2c_past_the_largest_float_is_refused(self):
        with pytest.raises(ValueError, match="^a contains non-finite entries$"):
            UncoupledQuadratic([[[1.0]]], [[1e308]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["features", "targets"])
    def test_non_finite_rlr_samples_are_refused(self, field, bad):
        rng = np.random.default_rng(4)
        data = dict(features=rng.normal(size=(2, 5, 3)), targets=rng.normal(size=(2, 5)))
        data[field][1, 2] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite entries$"):
            RobustLinearRegression(data["features"], data["targets"])

    def test_a_curvature_sum_past_the_largest_float_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Q_sum contains non-finite entries$"):
                UncoupledQuadratic([[[1e308]], [[1e308]]], [[0.0], [0.0]])

    # a Gram entry 1e400 in the field stack; b'b = 1e400 in the loss
    # matrix only; two agents' statistics 2e308 in their federation sum
    @pytest.mark.parametrize("features, targets", [
        ([[[1e200]]], [[1.0]]),
        ([[[1.0]]], [[1e200]]),
        ([[[1e154, 1e154]], [[1e154, 1e154]]], [[1.0], [1.0]]),
    ], ids=["features", "targets", "federation"])
    def test_rlr_statistics_past_the_largest_float_are_refused(self, features, targets):
        # at construction, so a run on such samples fails before it starts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^lifted contains non-finite entries$"):
                RobustLinearRegression(features, targets)

    def test_rlr_statistics_near_the_largest_float_are_built_at_construction(self):
        # max|V|^2 = 6.4e307: the size bound cannot rule out overflow, but
        # the largest statistic, 2 max|V|^2 in the field stack, is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = RobustLinearRegression([[[8e153]]], [[1.0]])
        assert "lifted" in vars(prob)
        assert prob.lifted[0][0, 0, 0] == 2.0 * 8e153 ** 2 + 1.0

    def test_rlr_builds_only_its_own_feasible_sets(self, monkeypatch):
        def unconstrained(p, q):
            raise AssertionError("an unconstrained product set was built")

        monkeypatch.setattr(ProductSet, "unconstrained", staticmethod(unconstrained))
        sets = RobustLinearRegression(np.ones((1, 2, 3)), np.ones((1, 2)), y_radius=0.5).sets
        assert (sets.set_x, sets.set_y.radius) == (FeasibleSet.unconstrained(3), 0.5)

    def test_rlr_statistics_of_ordinary_samples_wait_for_first_use(self):
        prob = RobustLinearRegression(np.full((2, 5, 3), -1e100), np.full((2, 5), 1e100))
        assert "lifted" not in vars(prob)
        assert np.isfinite(prob.lifted[1]).all()

    def test_rlr_sample_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            RlrAgent(np.zeros((4, 2)), np.zeros(3))

    @pytest.mark.parametrize("block", ["x", "y"])
    def test_feasible_set_of_another_dimension_names_its_block(self, block):
        wide, fits = FeasibleSet.ball(np.zeros(3), 1.0), FeasibleSet.unconstrained(2)
        sets = ProductSet(wide, fits) if block == "x" else ProductSet(fits, wide)
        with pytest.raises(DimensionMismatchError,
                           match=f"^feasible set {block}: expected dimension 2, got 3$"):
            UncoupledQuadratic([np.eye(2)], [np.ones(2)], sets=sets)

    def test_quadratic_agent_needs_a_square_q(self):
        with pytest.raises(ValueError, match=r"^Q must be square, got shape \(2, 3\)$"):
            QuadraticAgent(np.ones((2, 3)), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("term", ["a", "c"])
    def test_quadratic_agent_terms_need_q_length(self, term):
        a, c = (np.zeros(3), np.zeros(2)) if term == "a" else (np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionMismatchError,
                           match=f"^{term}: expected dimension 2, got 3$"):
            QuadraticAgent(np.eye(2), a, c)

    def test_quadratic_family_needs_one_c_per_q(self):
        with pytest.raises(ValueError, match="^need one c per Q$"):
            UncoupledQuadratic([np.eye(2), np.eye(2)], [np.ones(2)])

    def test_quadratic_family_needs_one_a_per_c(self):
        with pytest.raises(ValueError, match="^need one a per c$"):
            UncoupledQuadratic([np.eye(2)], [np.ones(2)], a_list=[np.ones(2), np.ones(2)])

    def test_rlr_features_must_be_2d(self):
        with pytest.raises(ValueError,
                           match=r"^features must be a 2-D array, got shape \(3,\)$"):
            RlrAgent(np.zeros(3), np.zeros(3))

    def test_rlr_needs_a_sample(self):
        with pytest.raises(ValueError, match="^need at least one sample$"):
            RlrAgent(np.zeros((0, 2)), np.zeros(0))

    def test_rlr_needs_one_target_vector_per_feature_matrix(self):
        with pytest.raises(ValueError, match="^need one target vector per feature matrix$"):
            RobustLinearRegression([np.ones((3, 2)), np.ones((3, 2))], [np.ones(3)])

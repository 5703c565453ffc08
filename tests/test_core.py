import numpy as np
import pytest

from fedmm.core import (
    BALL,
    DimensionMismatchError,
    FeasibleSet,
    Iterate,
    ProductSet,
    as_vector,
    average_vectors,
)


class TestProjection:
    def test_ball_exterior_point_scaled_to_boundary(self):
        s = FeasibleSet.ball(np.zeros(2), 1.0)
        np.testing.assert_allclose(s.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_ball_interior_point_fixed(self):
        s = FeasibleSet.ball(np.zeros(2), 1.0)
        np.testing.assert_array_equal(s.project([0.3, 0.4]), [0.3, 0.4])

    def test_unconstrained_identity(self):
        s = FeasibleSet.unconstrained(2)
        np.testing.assert_array_equal(s.project([-7.2, 5.1]), [-7.2, 5.1])

    def test_offset_ball(self):
        s = FeasibleSet.ball([5.0, 0.0], 2.0)
        np.testing.assert_allclose(s.project([9.0, 0.0]), [7.0, 0.0], atol=1e-14)

    def test_dimension_mismatch_names_dims(self):
        s = FeasibleSet.ball(np.zeros(3), 1.0)
        with pytest.raises(DimensionMismatchError) as ei:
            s.project([1.0, 2.0])
        assert ei.value.expected == 3
        assert ei.value.actual == 2

    @pytest.mark.parametrize("kind", ["unconstrained", BALL])
    def test_idempotent(self, kind):
        rng = np.random.default_rng(0)
        if kind == BALL:
            s = FeasibleSet.ball(rng.normal(size=4), 0.7)
            tol = 1e-12
        else:
            s = FeasibleSet.unconstrained(4)
            tol = 0.0
        for _ in range(200):
            v = rng.normal(0, 3, size=4)
            once = s.project(v)
            twice = s.project(once)
            assert np.max(np.abs(twice - once)) <= tol

    @pytest.mark.parametrize("kind", ["unconstrained", BALL])
    def test_nonexpansive_on_1000_pairs(self, kind):
        rng = np.random.default_rng(1)
        if kind == BALL:
            s = FeasibleSet.ball(rng.normal(size=3), 1.3)
        else:
            s = FeasibleSet.unconstrained(3)
        for _ in range(1000):
            a = rng.normal(0, 5, size=3)
            b = rng.normal(0, 5, size=3)
            lhs = np.linalg.norm(s.project(a) - s.project(b))
            rhs = np.linalg.norm(a - b)
            assert lhs <= rhs + 1e-12

    def test_projection_lands_inside(self):
        rng = np.random.default_rng(2)
        s = FeasibleSet.ball(rng.normal(size=5), 0.9)
        for _ in range(500):
            v = rng.normal(0, 10, size=5)
            p = s.project(v)
            assert np.linalg.norm(p - s.center) <= s.radius + 1e-12

    def test_ball_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            FeasibleSet.ball(np.zeros(2), 0.0)

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_ball_radius_must_be_finite(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            FeasibleSet.ball(np.zeros(2), radius)

    def test_product_set_blocks_are_independent(self):
        ps = ProductSet(FeasibleSet.unconstrained(2), FeasibleSet.ball(np.zeros(2), 1.0))
        z = ps.project(Iterate(np.array([5.0, -5.0]), np.array([3.0, 4.0])))
        np.testing.assert_array_equal(z.x, [5.0, -5.0])
        np.testing.assert_allclose(z.y, [0.6, 0.8], atol=1e-15)


class TestVecOps:
    def test_average_is_ascending_and_deterministic(self):
        rng = np.random.default_rng(3)
        vs = [rng.normal(size=6) for _ in range(7)]
        first = average_vectors(vs)
        second = average_vectors(vs)
        assert np.array_equal(first, second)
        # explicit ascending accumulation reproduces it bitwise
        acc = vs[0].copy()
        for v in vs[1:]:
            acc += v
        assert np.array_equal(first, acc / 7)

    def test_average_rejects_empty(self):
        with pytest.raises(ValueError):
            average_vectors([])

    @pytest.mark.parametrize("shape", [(2, 1), (7, 1), (8, 1), (20, 1), (200, 1), (10, 5),
                                       (20, 50), (1000, 50), (3, 10000)])
    def test_average_equals_hand_written_ascending_loop_bitwise(self, shape):
        m = shape[0]
        rng = np.random.default_rng(list(shape))
        for _ in range(20):
            # row scales from 1e-8 to 1e8, so any other summation order shows
            X = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=(m, 1))
            acc = X[0].copy()
            for row in X[1:]:
                acc += row
            expected = acc / m
            assert np.array_equal(average_vectors(X), expected)
            assert np.array_equal(average_vectors(list(X)), expected)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_average_of_equal_rows_is_the_row_bitwise(self, m):
        # so a homogeneous FedGDA-GT round has a zero correction for these m
        # (README's contract); 3 x and 5 x round, so m = 3 or 8 need not hold
        rng = np.random.default_rng(m)
        row = rng.normal(size=100_000) * 10.0 ** rng.uniform(-100.0, 100.0, size=100_000)
        assert np.array_equal(average_vectors(np.tile(row, (m, 1))), row)

    def test_average_rejects_ragged_list(self):
        with pytest.raises(DimensionMismatchError) as ei:
            average_vectors([np.zeros(3), np.ones(3), np.zeros(2)])
        assert (ei.value.expected, ei.value.actual) == (3, 2)


class TestIterate:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Iterate(np.array([np.nan]), np.array([0.0]))
        with pytest.raises(ValueError):
            Iterate(np.array([0.0]), np.array([np.inf]))

    def test_stacked_and_dims(self):
        z = Iterate(np.array([1.0, 2.0]), np.array([3.0]))
        assert (z.p, z.q) == (2, 1)
        np.testing.assert_array_equal(z.stacked, [1.0, 2.0, 3.0])

    def test_copy_is_independent(self):
        z = Iterate(np.array([1.0]), np.array([2.0]))
        c = z.copy()
        c.x[0] = 9.0
        assert z.x[0] == 1.0

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 0)])
    def test_rejects_an_empty_block(self, p, q):
        with pytest.raises(ValueError, match="^iterate blocks must have dimension >= 1$"):
            Iterate(np.zeros(p), np.zeros(q))


class TestInputChecks:
    def test_unconstrained_set_needs_a_dimension(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            FeasibleSet.unconstrained(0)

    def test_as_vector_refuses_a_matrix(self):
        with pytest.raises(ValueError, match=r"^x: expected a 1-D array, got shape \(2, 2\)$"):
            as_vector(np.eye(2), what="x")

    def test_as_vector_returns_a_float64_vector_as_it_is(self):
        v = np.arange(3.0)
        assert as_vector(v, 3) is v
        with pytest.raises(DimensionMismatchError):
            as_vector(v, 4)
        # anything else is converted to a native float64 vector
        for other in ([0.0, 1.0, 2.0], np.arange(3), v.astype(">f8")):
            converted = as_vector(other, 3)
            assert converted.dtype == np.float64 and converted.dtype.isnative
            assert np.array_equal(converted, v)

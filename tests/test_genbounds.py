import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fedmm.datagen import RlrGenSpec, gen_rlr
from fedmm.genbounds import (
    SIGMA_BLOCK_ROWS,
    BoundInputs,
    FiniteHypothesisSample,
    bound_terms,
    concentration_term,
    estimate_rademacher,
    massart_bound,
    population_risk_bound,
    vc_rademacher_bound,
    worst_case_risk_bound,
)


def rademacher_by_definition(table, m, n, pairs, seed):
    """(value, stderr) of 2 * pairs draws from the whole pairs x mn sign
    matrix at once: each row sigma is used as sigma and as -sigma, so a
    pair's mean of the two draws' maxima is (max - min) of sigma . loss / 2mn."""
    mn = m * n
    signs = np.random.default_rng(seed).integers(0, 2, size=(pairs, mn), dtype=bool)
    sigma = 2.0 * signs.astype(np.float64) - 1.0
    correlations = sigma @ table.T
    gaps = (correlations.max(axis=1) - correlations.min(axis=1)) / (2 * mn)
    stderr = float(gaps.std(ddof=1) / math.sqrt(pairs)) if pairs > 1 else 0.0
    return float(gaps.mean()), stderr


def rademacher_by_enumeration(table, m, n):
    """E[max_rows sigma . loss] / mn exactly, over all 2^mn sign vectors: an
    oracle that shares nothing with the estimator's sign stream."""
    mn = m * n
    codes = np.arange(2**mn)[:, None] >> np.arange(mn)
    sigma = 2.0 * (codes & 1) - 1.0
    return float((sigma @ table.T).max(axis=1).mean() / mn)


def sign_closed(rows):
    """The table of ``rows`` and their negations."""
    return np.vstack([rows, -rows])


def make_inputs(**overrides):
    base = dict(m=3, n=50, M_i=[0.5, 1.5, 2.5], cover_size=7, delta=0.05,
                epsilon=0.01, L_y=2.0, rademacher=0.3)
    base.update(overrides)
    return BoundInputs(**base)


class TestPopulationRiskBound:
    def test_all_slack_terms_vanish(self):
        inputs = make_inputs(M_i=[0.0, 0.0, 0.0], rademacher=0.0, L_y=0.0)
        assert population_risk_bound(inputs, 1.7) == 1.7

    def test_hand_arithmetic_instance(self):
        # m=1, n=100, M=1, |cover|=1, delta=1/e, R=0, L_y=0:
        # slack = sqrt(1/(2*100) * log(e)) = 0.07071067811865475
        inputs = BoundInputs(m=1, n=100, M_i=[1.0], cover_size=1,
                             delta=math.exp(-1), epsilon=1.0, L_y=0.0,
                             rademacher=0.0)
        assert population_risk_bound(inputs, 0.0) == pytest.approx(
            0.07071067811865475, abs=1e-12
        )

    def test_worked_instance(self):
        inputs = make_inputs()
        assert population_risk_bound(inputs, 1.2) == pytest.approx(
            2.059188835882141, abs=1e-12
        )
        terms = bound_terms(inputs)
        assert terms["concentration_term"] == pytest.approx(
            0.21918883588214122, abs=1e-12
        )
        assert terms["rademacher_term"] == 0.6
        assert terms["lipschitz_term"] == 0.04

    def test_doubling_n_scales_concentration_by_inv_sqrt2(self):
        inputs = make_inputs()
        doubled = make_inputs(n=100)
        a = bound_terms(inputs)["concentration_term"]
        b = bound_terms(doubled)["concentration_term"]
        assert b == pytest.approx(a / math.sqrt(2), rel=1e-14)

    def test_agnostic_special_case_substitution(self):
        # per-agent bounds m * y_i * M reduce the concentration term to
        # M * sqrt(sum(y_i^2) / (2n) * log(cover/delta))
        m, n, M = 4, 30, 2.0
        y = np.array([0.1, 0.2, 0.3, 0.4])
        inputs = BoundInputs(m=m, n=n, M_i=m * y * M, cover_size=5, delta=0.1,
                             epsilon=0.5, L_y=0.0, rademacher=0.0)
        expected = M * math.sqrt(float(np.dot(y, y)) / (2 * n) * math.log(5 / 0.1))
        assert bound_terms(inputs)["concentration_term"] == pytest.approx(
            expected, rel=1e-14
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            make_inputs(delta=1.0)
        with pytest.raises(ValueError):
            make_inputs(delta=0.0)
        with pytest.raises(ValueError):
            make_inputs(cover_size=0)
        with pytest.raises(ValueError):
            make_inputs(M_i=[1.0])  # wrong length
        with pytest.raises(ValueError):
            make_inputs(epsilon=0.0)
        with pytest.raises(ValueError):
            make_inputs(rademacher=-0.1)

    @pytest.mark.parametrize("field,value,message", [
        ("M_i", [0.5, np.nan, 2.5], "loss bounds M_i must be finite"),
        ("M_i", [0.5, 1.5, np.inf], "loss bounds M_i must be finite"),
        ("epsilon", np.inf, "epsilon must be finite"),
        ("epsilon", np.nan, "epsilon must be finite"),
        ("L_y", np.nan, "L_y and rademacher must be finite"),
        ("L_y", np.inf, "L_y and rademacher must be finite"),
        ("rademacher", np.nan, "L_y and rademacher must be finite"),
        ("rademacher", np.inf, "L_y and rademacher must be finite"),
    ])
    def test_non_finite_inputs_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            make_inputs(**{field: value})

    @pytest.mark.parametrize("m, n", [(0, 50), (3, 0)])
    def test_needs_an_agent_and_a_sample(self, m, n):
        with pytest.raises(ValueError, match="^m and n must be >= 1$"):
            make_inputs(m=m, n=n)


def overflowing_inputs(overrides):
    return BoundInputs(**{**dict(m=2, n=3, M_i=[1, 2], cover_size=2, delta=0.5,
                                 epsilon=1, L_y=0, rademacher=0), **overrides})


class TestOverflowRefused:
    # finite inputs whose bound overflows a float: 1e200 squared in sum M_i^2,
    # and products past the largest float, also of a numpy scalar
    OVERFLOWING = {
        "M_i": (dict(M_i=[1e200, 2], vc_dim=1), "concentration_term = inf"),
        "rademacher": (dict(rademacher=1e308), "rademacher_term = inf"),
        "numpy-scalar": (dict(rademacher=np.float64(1e308)), "rademacher_term = inf"),
        "lipschitz": (dict(L_y=1e300, epsilon=1e300), "lipschitz_term = inf"),
    }
    # finite bounds of inputs whose quotient cover_size / delta no float
    # holds: a cover size no float holds, a quotient past the largest float
    # (also with a numpy integer cover size), and that log times a zero sum
    # of squares. The concentration term is the whole bound here
    FINITE = {
        "int": (dict(cover_size=10**400), 13.857362546511288),
        "log": (dict(cover_size=10**23, delta=1e-300), 12.44768205528206),
        "numpy-int": (dict(cover_size=np.int64(10**18), delta=1e-300), 12.350962003457687),
        "zero-M_i": (dict(M_i=[0, 0], cover_size=10**23, delta=1e-300), 0.0),
    }
    EVALUATORS = {
        "bound_terms": bound_terms,
        "population_risk_bound": lambda inputs: population_risk_bound(inputs, 0.0),
        "worst_case_risk_bound": lambda inputs: worst_case_risk_bound(inputs, 0.0),
    }

    def refuses(self, evaluate, inputs, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"the inputs overflow the bounds ({named})")):
                evaluate(inputs)

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_every_bound_refuses_without_a_warning(self, case, evaluator):
        overrides, named = self.OVERFLOWING[case]
        self.refuses(self.EVALUATORS[evaluator], overflowing_inputs(overrides), named)

    def test_concentration_term_refuses_on_its_own(self):
        overrides, named = self.OVERFLOWING["M_i"]
        self.refuses(concentration_term, overflowing_inputs(overrides), named)

    @pytest.mark.parametrize("case", sorted(FINITE))
    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    def test_a_quotient_no_float_holds_gives_the_finite_bound(self, case, evaluator):
        overrides, value = self.FINITE[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = self.EVALUATORS[evaluator](overflowing_inputs(overrides))
        if evaluator == "bound_terms":
            bound = bound["concentration_term"]
        assert bound == value

    @pytest.mark.parametrize("case", sorted(FINITE))
    def test_concentration_term_is_finite_on_its_own(self, case):
        overrides, value = self.FINITE[case]
        assert concentration_term(overflowing_inputs(overrides)) == value

    # counts no float holds: m^2 n and m n / d past the largest float, and
    # terms of about 1e-200 whose quotient alone would underflow
    def test_a_sample_count_no_float_holds_gives_the_finite_term(self):
        inputs = BoundInputs(m=1, n=10**400, M_i=[1.0], cover_size=2, delta=0.5,
                             epsilon=1, L_y=0, rademacher=0)
        expected = math.sqrt(math.log(2.0)) * 1e-200  # sqrt(2 log 2 / (2 10^400))
        assert concentration_term(inputs) == pytest.approx(expected, rel=1e-15)
        assert population_risk_bound(inputs, 0.0) == concentration_term(inputs)

    def test_vc_bound_of_a_sample_count_no_float_holds_is_finite(self):
        expected = math.sqrt(2.0 * (1.0 + 400 * math.log(10.0))) * 1e-200
        assert vc_rademacher_bound(1, 10**400, 1, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_vc_bound_of_a_dimension_no_float_holds_is_finite(self):
        # 2.0 * d overflows; the quotient 2 d max / (m^2 n) is formed exactly
        # and rounded once, so it reads as the plain formula on its value
        assert vc_rademacher_bound(1, 10**400, 10**400, 1.0) == math.sqrt(2.0)
        assert vc_rademacher_bound(3, 10**400, 10**400, 2.5) == math.sqrt(
            5 / 9 * (1.0 + math.log(3.0)))
        assert vc_rademacher_bound(1, 10**400, 10**399, 1e300) == pytest.approx(
            math.sqrt(2e299 * (1.0 + math.log(10.0))), rel=1e-15)

    @pytest.mark.parametrize("m, n, M_i, cover_size, delta, d", [
        (3, 50, [0.5, 1.5, 2.5], 7, 0.05, 4),  # README's bounds example
        (2, 3, [1.0, 2.0], 2, 0.5, 1),
        (7, 2**40 + 1, [0.3] * 7, 10**6, 1e-6, 33),
    ], ids=["readme", "small", "large-n"])
    def test_counts_a_float_holds_keep_the_formulas_bits(self, m, n, M_i, cover_size, delta, d):
        inputs = BoundInputs(m=m, n=n, M_i=M_i, cover_size=cover_size, delta=delta,
                             epsilon=1, L_y=0, rademacher=0)
        S = inputs.sum_M_i_sq
        assert concentration_term(inputs) == math.sqrt(
            S / (2.0 * m**2 * n) * (math.log(cover_size) - math.log(delta)))
        assert vc_rademacher_bound(m, n, d, S) == math.sqrt(
            2.0 * d * S / (m**2 * n) * (1.0 + math.log(m * n / d)))

    def test_sum_of_finite_terms_that_overflows_is_refused(self):
        inputs = make_inputs(rademacher=0.6e308, L_y=0.6e308, epsilon=1.0)
        assert all(map(math.isfinite, bound_terms(inputs).values()))
        with pytest.raises(ValueError, match=r"overflow the bounds \(risk_bound = inf\)"):
            population_risk_bound(inputs, 0.0)

    def test_sum_of_squares_overflows_to_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_inputs(M_i=[1e200, 2.0, 0.0]).sum_M_i_sq == math.inf
        assert make_inputs().sum_M_i_sq == 0.25 + 2.25 + 6.25

    @pytest.mark.parametrize("max_sum", [math.inf])
    def test_vc_bound_refuses_overflow(self, max_sum):
        self.refuses(lambda s: vc_rademacher_bound(2, 3, 1, s), max_sum,
                     "vc_rademacher_bound = inf")

    def test_vc_bound_whose_float_numerator_overflows_is_finite(self):
        # 2.0 * 1e308 is inf; the exact numerator gives sqrt(2e308 / 12 (1 + log 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = vc_rademacher_bound(2, 3, 1, 1e308)
        assert bound == 6.821240685325086e+153
        assert bound == pytest.approx(math.sqrt(1e308 / 6 * (1.0 + math.log(6.0))), rel=1e-14)


class TestIntegerInputs:
    """Counts are read with operator.index: numpy integers become Python ints,
    and a value that is not an integer is refused in one line."""

    def test_numpy_integers_are_python_ints(self):
        inputs = make_inputs(m=np.int64(3), n=np.int32(50), cover_size=np.int64(7),
                             vc_dim=np.uint8(4))
        assert [type(getattr(inputs, name)) for name in ("m", "n", "cover_size", "vc_dim")] \
            == [int] * 4
        assert bound_terms(inputs) == bound_terms(make_inputs(vc_dim=4))

    @pytest.mark.parametrize("field, value", [
        ("m", 3.0), ("n", 50.0), ("cover_size", 2.5), ("cover_size", np.float64(7.0)),
        ("vc_dim", 1.0), ("m", "3"),
    ])
    def test_bound_inputs_refuse_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            make_inputs(**{field: value})

    @pytest.mark.parametrize("m, n, field", [(2.0, 2, "m"), (2, np.float64(2.0), "n")])
    def test_sample_refuses_non_integers(self, m, n, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            FiniteHypothesisSample(np.zeros((2, 4)), m=m, n=n)

    def test_sample_keeps_python_ints(self):
        sample = FiniteHypothesisSample(np.zeros((2, 4)), m=np.int64(2), n=np.int8(2))
        assert (type(sample.m), type(sample.n)) == (int, int)

    def test_draw_count_must_be_an_integer(self):
        sample = FiniteHypothesisSample(np.eye(4), m=2, n=2)
        with pytest.raises(ValueError, match=r"^num_sigma_draws must be an integer, got 10\.0$"):
            estimate_rademacher(sample, 10.0, seed=0)
        assert estimate_rademacher(sample, np.int64(10), seed=0) \
            == estimate_rademacher(sample, 10, seed=0)

    @pytest.mark.parametrize("seed", [None, 1.5, "3"])
    def test_seed_must_be_an_integer(self, seed):
        # a seed of None would draw from the OS and give another estimate every call
        sample = FiniteHypothesisSample(np.eye(4), m=2, n=2)
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            estimate_rademacher(sample, 10, seed)


class TestWorstCaseBound:
    def test_reduces_to_population_bound_for_constant_inputs(self):
        inputs = make_inputs()
        g = 2.4
        assert worst_case_risk_bound(inputs, g) == population_risk_bound(inputs, g)

    def test_dominates_empirical_value(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            inputs = make_inputs(
                M_i=rng.uniform(0.1, 3.0, size=3),
                rademacher=float(rng.uniform(0, 1)),
            )
            g = float(rng.normal())
            assert worst_case_risk_bound(inputs, g) >= g


class TestMonotonicity:
    """Raising any slack input (or shrinking delta / n) never shrinks the bound."""

    def test_randomized_perturbations(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            inputs = make_inputs(
                m=3,
                n=int(rng.integers(10, 200)),
                M_i=rng.uniform(0.0, 3.0, size=3),
                cover_size=int(rng.integers(1, 50)),
                delta=float(rng.uniform(0.01, 0.99)),
                epsilon=float(rng.uniform(0.001, 2.0)),
                L_y=float(rng.uniform(0.0, 5.0)),
                rademacher=float(rng.uniform(0.0, 2.0)),
            )
            base = population_risk_bound(inputs, 0.0)
            idx = int(rng.integers(0, 3))
            bumped_M = inputs.M_i.copy()
            bumped_M[idx] += rng.uniform(0.1, 1.0)
            grown = [
                make_inputs(n=inputs.n, M_i=bumped_M, cover_size=inputs.cover_size,
                            delta=inputs.delta, epsilon=inputs.epsilon,
                            L_y=inputs.L_y, rademacher=inputs.rademacher),
                make_inputs(n=inputs.n, M_i=inputs.M_i,
                            cover_size=inputs.cover_size + 5, delta=inputs.delta,
                            epsilon=inputs.epsilon, L_y=inputs.L_y,
                            rademacher=inputs.rademacher),
                make_inputs(n=inputs.n, M_i=inputs.M_i,
                            cover_size=inputs.cover_size, delta=inputs.delta / 2,
                            epsilon=inputs.epsilon, L_y=inputs.L_y,
                            rademacher=inputs.rademacher),
                make_inputs(n=inputs.n, M_i=inputs.M_i,
                            cover_size=inputs.cover_size, delta=inputs.delta,
                            epsilon=inputs.epsilon * 1.5, L_y=inputs.L_y,
                            rademacher=inputs.rademacher),
                make_inputs(n=inputs.n, M_i=inputs.M_i,
                            cover_size=inputs.cover_size, delta=inputs.delta,
                            epsilon=inputs.epsilon, L_y=inputs.L_y + 0.5,
                            rademacher=inputs.rademacher),
                make_inputs(n=inputs.n, M_i=inputs.M_i,
                            cover_size=inputs.cover_size, delta=inputs.delta,
                            epsilon=inputs.epsilon, L_y=inputs.L_y,
                            rademacher=inputs.rademacher + 0.25),
            ]
            for g in grown:
                assert population_risk_bound(g, 0.0) >= base - 1e-12
            if inputs.n > 10:
                shrunk_n = make_inputs(
                    n=inputs.n - 5, M_i=inputs.M_i, cover_size=inputs.cover_size,
                    delta=inputs.delta, epsilon=inputs.epsilon, L_y=inputs.L_y,
                    rademacher=inputs.rademacher,
                )
                assert population_risk_bound(shrunk_n, 0.0) >= base - 1e-12


class TestVcBound:
    def test_d_equals_mn_drops_log_term(self):
        m, n = 2, 8
        max_sum = 3.0
        expected = math.sqrt(2 * (m * n) * max_sum / (m**2 * n))
        assert vc_rademacher_bound(m, n, m * n, max_sum) == pytest.approx(
            expected, rel=1e-14
        )

    def test_hand_arithmetic_instance(self):
        assert vc_rademacher_bound(10, 100, 5, 10.0) == pytest.approx(
            0.2509644868611501, abs=1e-12
        )

    def test_homogeneous_scaling_in_loss_bounds(self):
        a = vc_rademacher_bound(4, 25, 3, 7.0)
        b = vc_rademacher_bound(4, 25, 3, 7.0 * 9.0)  # scaling M by 3 scales M^2 by 9
        assert b == pytest.approx(3.0 * a, rel=1e-14)

    def test_rejects_sauer_regime_violation(self):
        with pytest.raises(ValueError, match="m\\*n >= d"):
            vc_rademacher_bound(2, 3, 7, 1.0)

    @pytest.mark.parametrize("args, message", [
        ((0, 3, 1, 1.0), "m and n must be >= 1"),
        ((2, 0, 1, 1.0), "m and n must be >= 1"),
        ((2, 3, 0, 1.0), "d must be >= 1"),
        ((2, 3, 1, -1.0), "max_sum_Mi2 must be nonnegative"),
        ((2, 3, 1, math.nan), "max_sum_Mi2 must be nonnegative"),
        ((2.0, 3, 1, 1.0), r"m must be an integer, got 2\.0"),
        ((2, 3.0, 1, 1.0), r"n must be an integer, got 3\.0"),
        ((2, 3, 1.5, 1.0), r"d must be an integer, got 1\.5"),
    ])
    def test_rejects_invalid_arguments(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            vc_rademacher_bound(*args)


class TestRademacherEstimator:
    def test_single_candidate_estimate_is_exactly_zero(self):
        # sigma and -sigma cancel exactly; the enumerated expectation is zero too
        table = np.random.default_rng(2).normal(size=(1, 10))
        est = estimate_rademacher(FiniteHypothesisSample(table, m=2, n=5), 10_000, seed=3)
        assert (est.value, est.stderr) == (0.0, 0.0)
        assert rademacher_by_enumeration(table, 2, 5) == pytest.approx(0.0, abs=1e-15)

    def test_sign_flip_pair_with_unit_entries_is_exactly_one(self):
        sample = FiniteHypothesisSample(np.array([[1.0], [-1.0]]), m=1, n=1)
        est = estimate_rademacher(sample, 64, seed=4)
        assert est.value == 1.0

    @pytest.mark.parametrize("table, estimate", [
        ([[1e308, 1e308]], "rademacher_estimate = nan"),
        ([[1e308, 1e308], [0.0, 0.0]], "rademacher_estimate = inf"),
    ], ids=["one-row", "zero-row"])
    def test_overflowing_correlations_are_refused(self, table, estimate):
        # finite losses whose correlations 1e308 + 1e308 overflow: refused as
        # the bounds refuse, with no numpy warning
        sample = FiniteHypothesisSample(table, m=1, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"the inputs overflow the bounds ({estimate})") + "$"):
                estimate_rademacher(sample, 20, seed=0)

    @pytest.mark.parametrize("table, cap", [
        # log 1 = 0: one candidate has no complexity
        ([[1e308, 1e308]], 0.0),
        ([[1e308, 1e308], [0.0, 0.0]], 1e308 * math.sqrt(2.0) * math.sqrt(2.0 * math.log(2.0)) / 2),
    ], ids=["one-row", "zero-row"])
    def test_massart_cap_of_rows_whose_squares_overflow(self, table, cap):
        # the squared row norm 2e616 overflows, the cap does not
        sample = FiniteHypothesisSample(table, m=1, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert massart_bound(sample) == pytest.approx(cap, rel=4e-16, abs=0.0)

    def test_the_scaled_row_norm_is_the_row_norm(self):
        # to rounding, wherever the plain norm's squares neither overflow nor underflow
        rng = np.random.default_rng(8)
        for scale in (1e-100, 1e-3, 1.0, 1e150):
            table = scale * rng.normal(size=(6, 12))
            sample = FiniteHypothesisSample(table, m=3, n=4)
            r = float(np.max(np.linalg.norm(table, axis=1)))
            assert massart_bound(sample) == pytest.approx(
                r * math.sqrt(2 * math.log(6)) / 12, rel=1e-15, abs=0.0)

    def test_massart_cap_past_the_largest_float_is_refused(self):
        # the row norm 2.1e308 itself overflows
        sample = FiniteHypothesisSample([[1.5e308, 1.5e308], [0.0, 0.0]], m=1, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("(massart_bound = inf)")):
                massart_bound(sample)

    def test_nonnegative_for_sign_flip_closed_sets(self):
        rng = np.random.default_rng(5)
        sample = FiniteHypothesisSample(sign_closed(rng.normal(size=(6, 12))), m=3, n=4)
        est = estimate_rademacher(sample, 2_000, seed=6)
        assert est.value >= 0.0

    def test_massart_cap_holds(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            table = rng.normal(size=(8, 15))
            sample = FiniteHypothesisSample(table, m=3, n=5)
            est = estimate_rademacher(sample, 10_000, seed=seed)
            assert est.value <= massart_bound(sample) + 4 * est.stderr

    def test_a_few_draw_estimate_can_exceed_the_massart_cap(self):
        # the cap bounds the estimator's expectation, not one estimate: on
        # {u, -u} with u = ones(4) a pair's value is |sum_j sigma_j| / 4, which
        # is 1 when all four signs agree, above the cap 2 sqrt(2 log 2) / 4
        sample = FiniteHypothesisSample(sign_closed(np.ones((1, 4))), m=2, n=2)
        cap = massart_bound(sample)
        assert cap == pytest.approx(0.5887, abs=1e-4)
        assert rademacher_by_enumeration(sample.loss_table, 2, 2) == 0.375 <= cap
        assert estimate_rademacher(sample, 2, seed=0).value == 1.0 > cap

    def test_deterministic_given_seed(self):
        table = np.arange(12.0).reshape(3, 4)
        sample = FiniteHypothesisSample(table, m=2, n=2)
        e1 = estimate_rademacher(sample, 500, seed=11)
        e2 = estimate_rademacher(sample, 500, seed=11)
        assert (e1.value, e1.stderr) == (e2.value, e2.stderr)

    @pytest.mark.parametrize("m, n", [(7, 13), (9, 11)])
    @pytest.mark.parametrize("pairs", [1, SIGMA_BLOCK_ROWS - 1, SIGMA_BLOCK_ROWS,
                                       SIGMA_BLOCK_ROWS + 1, 10_000])
    def test_blocks_match_the_whole_sign_matrix(self, m, n, pairs):
        table = np.random.default_rng([m, n]).normal(size=(3, m * n)) ** 2
        est = estimate_rademacher(FiniteHypothesisSample(table, m=m, n=n), 2 * pairs, seed=8)
        value, stderr = rademacher_by_definition(table, m, n, pairs, seed=8)
        assert est.num_draws == 2 * pairs
        assert est.value == pytest.approx(value, rel=1e-15, abs=0.0)
        assert est.stderr == pytest.approx(stderr, rel=1e-15, abs=0.0)

    def test_benchmark_table_is_bitwise_equal_and_memory_bounded(self):
        # per-sample squared losses of 40 seeded models on an rlr federation,
        # the (40, 500) table of the rlr-robust benchmark workload
        prob = gen_rlr(RlrGenSpec(m=10, d=5, n_i=50, alpha=20.0, seed=11))
        models = np.random.default_rng([11, 1]).normal(size=(40, prob.p))
        table = np.concatenate([(a.A @ models.T - a.b[:, None]).T ** 2 for a in prob.agents],
                               axis=1)
        sample = FiniteHypothesisSample(table, m=10, n=50)
        tracemalloc.start()
        try:
            est = estimate_rademacher(sample, 20_000, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the whole sign matrix alone is 80 MB
        assert (est.value, est.stderr) == rademacher_by_definition(table, 10, 50, 10_000, 5)

    @pytest.mark.parametrize("seed", [0, 5, 8, 11])
    @pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 91, 128_000, 128_001])
    def test_signs_from_raw_words_are_those_of_integers(self, seed, count):
        # the identity the estimator's sign draw rests on: a bool draw of
        # integers(0, 2) is the bits of the raw 64-bit words, low bit first
        words = np.random.default_rng(seed).bit_generator.random_raw(-(-count // 64))
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=count,
                             bitorder="little")
        expected = np.random.default_rng(seed).integers(0, 2, size=count, dtype=bool)
        assert np.array_equal(bits.view(bool), expected)

    def test_sign_blocks_use_up_whole_words(self):
        # a row count that is a multiple of 64 makes every block but the last
        # a multiple of 64 signs, so no block leaves part of a raw word to the next
        assert SIGMA_BLOCK_ROWS % 64 == 0

    @pytest.mark.parametrize("m, n", [(7, 13), (8, 16)])
    def test_sign_sums_match_the_exact_expectation(self, m, n):
        # an oracle that shares nothing with the sign stream: on {u, -u} with
        # u = ones(mn) a draw's maximum is |sum_j sigma_j| / mn, whose
        # expectation is sum_k |2k - mn| C(mn, k) / (2^mn mn) exactly
        mn = m * n
        u = np.ones(mn)
        est = estimate_rademacher(FiniteHypothesisSample(np.vstack([u, -u]), m=m, n=n),
                                  20_000, seed=9)
        exact = sum(abs(2 * k - mn) * math.comb(mn, k) for k in range(mn + 1)) / (2**mn * mn)
        assert abs(est.value - exact) <= 4 * est.stderr

    @pytest.mark.parametrize("table, m, n", [
        (np.random.default_rng(21).normal(size=(5, 12)) ** 2, 3, 4),
        (sign_closed(np.random.default_rng(22).normal(size=(4, 14))), 2, 7),
    ], ids=["squared-losses", "sign-closed"])
    def test_estimate_is_near_the_enumerated_expectation(self, table, m, n):
        est = estimate_rademacher(FiniteHypothesisSample(table, m=m, n=n), 20_000, seed=10)
        assert est.stderr > 0.0
        assert abs(est.value - rademacher_by_enumeration(table, m, n)) <= 4 * est.stderr

    @pytest.mark.parametrize("table", [
        np.random.default_rng(13).normal(size=(6, 20)) ** 2,
        sign_closed(np.ones((1, 20))),
    ], ids=["squared-losses", "sign-closed"])
    def test_stderr_matches_the_spread_over_seeds(self, table):
        # the stderr of 64 pairs against the spread of 200 seeded estimates,
        # within a factor 1.2; a stderr over the 128 draws reads 0.58 of the
        # spread on the squared losses and 1.44 on {u, -u}, whose pairs'
        # two draws are equal
        sample = FiniteHypothesisSample(table, m=4, n=5)
        estimates = [estimate_rademacher(sample, 128, seed) for seed in range(200)]
        spread = np.std([est.value for est in estimates], ddof=1)
        ratio = spread / np.mean([est.stderr for est in estimates])
        assert 1 / 1.2 < ratio < 1.2

    def test_sample_keeps_its_own_read_only_table(self):
        table = np.random.default_rng(3).random((3, 6))
        sample = FiniteHypothesisSample(table, m=2, n=3)
        before = estimate_rademacher(sample, 100, seed=0)
        table[0, 0] = np.nan
        assert estimate_rademacher(sample, 100, seed=0) == before
        assert not sample.loss_table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sample.loss_table[0, 0] = 1.0

    def test_rejects_empty_or_misshapen_tables(self):
        with pytest.raises(ValueError):
            FiniteHypothesisSample(np.zeros((0, 4)), m=2, n=2)
        with pytest.raises(ValueError):
            FiniteHypothesisSample(np.zeros((3, 5)), m=2, n=2)
        with pytest.raises(ValueError):
            FiniteHypothesisSample(np.full((2, 4), np.nan), m=2, n=2)

    @pytest.mark.parametrize("draws", [0, 1, 3, 20_001, -2])
    def test_refuses_a_draw_count_that_is_not_positive_and_even(self, draws):
        sample = FiniteHypothesisSample(np.zeros((2, 4)), m=2, n=2)
        with pytest.raises(ValueError, match="^" + re.escape(
                "num_sigma_draws must be a positive even number (each sign vector is "
                f"also used negated), got {draws}") + "$"):
            estimate_rademacher(sample, draws, seed=0)

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0)])
    def test_rejects_an_empty_federation(self, m, n):
        with pytest.raises(ValueError, match="^m and n must be >= 1$"):
            FiniteHypothesisSample(np.zeros((2, 4)), m=m, n=n)

    def test_rejects_a_table_that_is_not_2d(self):
        with pytest.raises(ValueError, match=r"^loss table must be 2-D, got shape \(4,\)$"):
            FiniteHypothesisSample(np.zeros(4), m=2, n=2)

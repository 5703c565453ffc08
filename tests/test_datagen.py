import hashlib
import re
import struct
import time

import numpy as np
import pytest

from fedmm.datagen import (
    KIND_QUADRATIC,
    KIND_RLR,
    MAGIC,
    QuadraticGenSpec,
    RlrGenSpec,
    _quadratic_agent_data,
    gen_quadratic,
    gen_rlr,
    load_dataset,
    save_dataset,
    substreams,
)
from fedmm.core import FeasibleSet, ProductSet
from fedmm.problems import (
    RobustLinearRegression,
    ScalarTwoAgent,
    UncoupledQuadratic,
    closed_form_minimax,
)


def sample_recipe(rngs, i, d, n, alpha):
    """Agent i's (Q_i, c_i) from n_i drawn samples: the law gen_quadratic
    draws from its sufficient statistics. ``rngs`` are the generators of
    agent i's subs 0-3; sub 0 holds A_i, sub 3 eps_i."""
    A = rngs[0].normal(0.0, 2.0 / i, size=(n, d))
    mu = rngs[1].normal(alpha, 1.0, size=d)
    theta = rngs[2].normal(mu, 1.0)
    eps = rngs[3].normal(0.0, 0.5, size=n)
    b = A @ theta + eps
    return A.T @ A, A.T @ b


def theta_draw(rngs, d, alpha):
    """theta_i from fresh generators of subs 1 and 2."""
    mu = rngs[0].normal(alpha, 1.0, size=d)
    return rngs[1].normal(mu, 1.0)


class TestQuadraticGeneration:
    def test_same_seed_bitwise_identical(self):
        spec = QuadraticGenSpec(m=3, d=4, n_i=10, seed=42)
        p1, p2 = gen_quadratic(spec), gen_quadratic(spec)
        for a1, a2 in zip(p1.agents, p2.agents):
            assert np.array_equal(a1.Q, a2.Q)
            assert np.array_equal(a1.c, a2.c)

    def test_agent_streams_survive_changing_m(self):
        p2 = gen_quadratic(QuadraticGenSpec(m=2, d=4, n_i=10, seed=42))
        p3 = gen_quadratic(QuadraticGenSpec(m=3, d=4, n_i=10, seed=42))
        assert np.array_equal(p2.agents[0].Q, p3.agents[0].Q)
        assert np.array_equal(p2.agents[1].c, p3.agents[1].c)

    @pytest.mark.parametrize("i", [1, 2])
    def test_scalar_instance_replays_the_substreams(self, i):
        # at d = 1, L is the root of one chi^2(n) draw and sub 0 holds no
        # normal: Q = s^2 chi^2 and c = Q theta + s sqrt(chi^2) g / 2
        seed, n, s = 5, 9, 2.0 / i
        prob = gen_quadratic(QuadraticGenSpec(m=2, d=1, n_i=n, seed=seed))
        alpha_rng, chi2_rng, mu_rng, theta_rng, g_rng = substreams(
            [(seed, 0, 0)] + [(seed, i, sub) for sub in range(4)])
        alpha = float(alpha_rng.normal(0.0, 10.0))
        chi2 = float(chi2_rng.chisquare(n))
        mu = float(mu_rng.normal(alpha, 1.0))
        theta = float(theta_rng.normal(mu, 1.0))
        g = float(g_rng.standard_normal())
        Q = s * s * chi2
        assert prob.Q[i - 1, 0, 0] == pytest.approx(Q, rel=1e-15)
        assert prob.c[i - 1, 0] == pytest.approx(Q * theta + 0.5 * s * np.sqrt(chi2) * g,
                                                  rel=1e-14)

    def test_substreams_replay_in_the_documented_order(self):
        # sub 0: the d chi^2 draws of diag(L), then the normals below it row
        # by row; sub 1: mu; sub 2: theta; sub 3: g
        seed, m, d, n = 3, 3, 4, 7
        prob = gen_quadratic(QuadraticGenSpec(m=m, d=d, n_i=n, seed=seed))
        alpha_rng, *rngs = substreams(
            [(seed, 0, 0)] + [(seed, i, sub) for i in range(1, m + 1) for sub in range(4)])
        alpha = float(alpha_rng.normal(0.0, 10.0))
        for i in range(1, m + 1):
            rng, mu_rng, theta_rng, g_rng = rngs[4 * i - 4:4 * i]
            L = np.diag(np.sqrt(rng.chisquare([n - k for k in range(d)])))
            for j in range(1, d):
                L[j, :j] = rng.standard_normal(j)
            B = (2.0 / i) * L
            mu = mu_rng.normal(alpha, 1.0, size=d)
            theta = theta_rng.normal(mu, 1.0)
            g = g_rng.standard_normal(d)
            np.testing.assert_allclose(prob.Q[i - 1], B @ B.T, rtol=1e-14, atol=0)
            np.testing.assert_allclose(prob.c[i - 1], B @ B.T @ theta + 0.5 * B @ g,
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", [
        QuadraticGenSpec(m=3, d=4, n_i=10, seed=42),
        QuadraticGenSpec(m=20, d=50, n_i=500, seed=7),
    ], ids=["small", "benchmark"])
    def test_every_q_is_symmetric_bitwise(self, spec):
        Q = gen_quadratic(spec).Q
        assert np.array_equal(Q, Q.transpose(0, 2, 1))

    @pytest.mark.parametrize("n_i", [10**12, 2**64 - 1], ids=["1e12", "u64-max"])
    def test_draws_do_not_grow_with_the_sample_count(self, n_i):
        # the sample recipe would ask for n_i * d floats here
        start = time.perf_counter()
        prob = gen_quadratic(QuadraticGenSpec(m=2, d=3, n_i=n_i, seed=1))
        assert time.perf_counter() - start < 1.0
        assert np.isfinite(prob.Q).all() and np.isfinite(prob.c).all()
        for Q in prob.Q:
            np.linalg.cholesky(Q)  # raises unless positive definite

    def test_benchmark_scale_instance_is_solvable(self):
        prob = gen_quadratic(QuadraticGenSpec(m=20, d=50, n_i=500, seed=7))
        z = closed_form_minimax(prob)
        gx, gy = prob.global_grad(z)
        Sc = prob.c.sum(axis=0)
        residual = np.sqrt(np.dot(gx, gx) + np.dot(gy, gy))
        assert residual <= 1e-9 * (1 + np.linalg.norm(Sc))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadraticGenSpec(m=0, d=2, n_i=4, seed=0)
        with pytest.raises(ValueError):
            QuadraticGenSpec(m=1, d=5, n_i=4, seed=0)  # n_i < d
        with pytest.raises(ValueError):
            QuadraticGenSpec(m=1, d=1, n_i=1, seed=-1)


# the law of one agent's (Q, c), compared between the two recipes on agent 1
# (s = 2) at d = 3, n_i = 5: the generator over seeds 0..N-1 and the sample
# recipe over the disjoint seeds N..2N-1, so the two samples are independent.
# alpha = 0: it shifts theta, which none of the statistics below depends on
LAW_SEEDS, LAW_D, LAW_N, LAW_S = 4000, 3, 5, 2.0


def law_draws(recipe, seeds):
    """(Q, r) per seed, with r = c - Q theta the noise term A'eps. Every
    seed's generators, subs 0-3 for the recipe and 1-2 again for theta,
    are keyed in one call."""
    subs = (0, 1, 2, 3, 1, 2)
    rngs = substreams((seed, 1, sub) for seed in seeds for sub in subs)
    Q, r = [], []
    for k in range(0, len(rngs), len(subs)):
        q, c = recipe(rngs[k:k + 4], 1, LAW_D, LAW_N, 0.0)
        Q.append(q)
        r.append(c - q @ theta_draw(rngs[k + 4:k + 6], LAW_D, 0.0))
    return np.array(Q), np.array(r)


@pytest.fixture(scope="module")
def law():
    # the agent data of gen_quadratic, without building each federation
    return (law_draws(_quadratic_agent_data, range(LAW_SEEDS)),
            law_draws(sample_recipe, range(LAW_SEEDS, 2 * LAW_SEEDS)))


def law_statistics(Q, r):
    return {
        "Q00": Q[:, 0, 0], "Q01": Q[:, 0, 1],
        "Q00^2": Q[:, 0, 0] ** 2, "Q01^2": Q[:, 0, 1] ** 2,
        "det Q": np.linalg.det(Q), "lambda_min": np.linalg.eigvalsh(Q)[:, 0],
        "r0^2": r[:, 0] ** 2, "r0 r1": r[:, 0] * r[:, 1], "r0^2/Q00": r[:, 0] ** 2 / Q[:, 0, 0],
    }


class TestQuadraticLaw:
    def test_generated_and_sampled_statistics_agree(self, law):
        generated, sampled = (law_statistics(*draws) for draws in law)
        z = {name: (generated[name].mean() - sampled[name].mean())
             / np.sqrt((generated[name].var(ddof=1) + sampled[name].var(ddof=1)) / LAW_SEEDS)
             for name in generated}
        assert len(z) == 9
        assert {name: round(v, 2) for name, v in z.items() if abs(v) > 4} == {}

    def test_closed_form_moments(self, law):
        # Wishart_d(s^2 I, n): E Q = n s^2 I, E det Q = n (n-1) (n-2) s^6 at d = 3
        Q, _ = law[0]
        n, s2 = LAW_N, LAW_S**2
        se = Q.std(axis=0, ddof=1) / np.sqrt(LAW_SEEDS)
        assert (np.abs(Q.mean(axis=0) - n * s2 * np.eye(LAW_D)) <= 4 * se).all()
        det = np.linalg.det(Q)
        expected = n * (n - 1) * (n - 2) * s2**3
        assert abs(det.mean() - expected) <= 4 * det.std(ddof=1) / np.sqrt(LAW_SEEDS)


@pytest.mark.parametrize("d, n_i, reason", [
    (5, 4, r"n_i must be >= d: the chi\^2\(n_i - k \+ 1\) factors of Q_i, k = 1\.\.d, "
           r"need at least one degree of freedom"),
    (2, 2**64, r"n_i must be below 2\^64, the container's u64 field"),
], ids=["below-d", "past-u64"])
def test_sample_count_rules_give_their_reason(d, n_i, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        QuadraticGenSpec(m=1, d=d, n_i=n_i, seed=0)


@pytest.mark.parametrize("make", [
    lambda **counts: QuadraticGenSpec(**{"m": 2, "d": 3, "n_i": 4, "seed": 0, **counts}),
    lambda **counts: RlrGenSpec(**{"m": 2, "d": 3, "n_i": 4, "seed": 0, **counts}, alpha=1.0),
], ids=["quadratic", "rlr"])
@pytest.mark.parametrize("field, value", [
    ("m", 2.5), ("d", 3.0), ("n_i", np.float64(4.0)), ("seed", 1.5), ("seed", None),
])
def test_spec_counts_must_be_integers(make, field, value):
    # a float seed would generate the data of its integer part
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        make(**{field: value})


def test_spec_keeps_python_ints():
    spec = RlrGenSpec(m=np.int64(2), d=np.uint8(3), n_i=np.int32(4), alpha=1.0, seed=np.uint64(7))
    assert [type(getattr(spec, f)) for f in ("m", "d", "n_i", "seed")] == [int] * 4
    assert spec == RlrGenSpec(m=2, d=3, n_i=4, alpha=1.0, seed=7)


class TestRlrGeneration:
    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_alpha_must_be_finite_and_nonnegative(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            RlrGenSpec(m=2, d=3, n_i=4, alpha=alpha, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_be_an_unsigned_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer$"):
            RlrGenSpec(m=2, d=3, n_i=4, alpha=1.0, seed=seed)

    def test_same_seed_identical(self):
        spec = RlrGenSpec(m=2, d=3, n_i=4, alpha=5.0, seed=9)
        p1, p2 = gen_rlr(spec), gen_rlr(spec)
        for a1, a2 in zip(p1.agents, p2.agents):
            assert np.array_equal(a1.A, a2.A)
            assert np.array_equal(a1.b, a2.b)

    def test_alpha_zero_means_zero_shift(self):
        # the per-agent prior shift c_i collapses to zero when alpha = 0
        seed = 13
        for c_rng in substreams((seed, i, 1) for i in (1, 2, 3)):
            c = c_rng.normal(0.0, 0.0, size=4)
            assert np.array_equal(c, np.zeros(4))
        # and the generated data coincides with data drawn around mu_i ~ N(0, I)
        prob = gen_rlr(RlrGenSpec(m=2, d=4, n_i=5, alpha=0.0, seed=seed))
        rngs = substreams((seed, idx, sub) for idx in (1, 2) for sub in (2, 3))
        for idx, agent in enumerate(prob.agents, start=1):
            mu_rng, a_rng = rngs[2 * idx - 2:2 * idx]
            mu = mu_rng.normal(np.zeros(4), 1.0)
            A = a_rng.normal(mu, idx**-0.65, size=(5, 4))
            assert np.array_equal(agent.A, A)

    def test_noise_law_has_unit_variance(self):
        spec = RlrGenSpec(m=1, d=3, n_i=100_000, alpha=2.0, seed=21)
        prob = gen_rlr(spec)
        (x_rng,) = substreams([(21, 1, 0)])
        x_star = x_rng.normal(0.0, 1.0, size=3)
        noise = prob.agents[0].b - prob.agents[0].A @ x_star
        assert np.var(noise) == pytest.approx(1.0, rel=0.05)

    def test_stream_independence_across_m(self):
        p1 = gen_rlr(RlrGenSpec(m=1, d=3, n_i=4, alpha=1.0, seed=3))
        p4 = gen_rlr(RlrGenSpec(m=4, d=3, n_i=4, alpha=1.0, seed=3))
        assert np.array_equal(p1.agents[0].A, p4.agents[0].A)
        assert np.array_equal(p1.agents[0].b, p4.agents[0].b)


class TestRngAdapter:
    def test_moments_within_four_standard_errors(self):
        n = 100_000
        (rng,) = substreams([(123, 2, 0)])
        draws = rng.normal(1.5, 2.0, size=n)
        se_mean = 2.0 / np.sqrt(n)
        assert abs(draws.mean() - 1.5) <= 4 * se_mean
        # variance of the sample variance of a normal is ~ 2 sigma^4 / n
        se_var = np.sqrt(2.0 / n) * 4.0
        assert abs(draws.var() - 4.0) <= 4 * se_var

    def test_substreams_are_reproducible_and_distinct(self):
        a, b, c = (rng.normal(size=5) for rng in substreams([(7, 1, 0), (7, 1, 0), (7, 1, 1)]))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 3]
KEY_INDICES = [0, 1, 4, 2**32 + 1]


class TestSubstreamKey:
    """The substream key is the oracle's: numpy's own coercion of the list
    [seed, stream, sub], so every draw is that of the documented key."""

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_state_equals_the_seed_sequence_of_the_list(self, seed):
        keys = [(seed, stream, sub) for stream in KEY_INDICES for sub in KEY_INDICES]
        for key, rng in zip(keys, substreams(keys), strict=True):
            oracle = np.random.PCG64(np.random.SeedSequence(list(key)))
            assert rng.bit_generator.state == oracle.state

    def test_keys_of_mixed_word_counts_hash_in_one_call_in_input_order(self):
        # keys of 3 to 8 words, interleaved, so each width's pass must put
        # its states back at their keys' places
        keys = [(seed, stream, sub) for stream in KEY_INDICES for sub in KEY_INDICES
                for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 3)]
        assert {sum(max(1, -(-n.bit_length() // 32)) for n in k) for k in keys} == set(range(3, 9))
        states = [rng.bit_generator.state for rng in substreams(keys)]
        assert states == [np.random.PCG64(np.random.SeedSequence(list(k))).state for k in keys]

    @pytest.mark.parametrize("key", [(-1, 0, 0), (0, -1, 0), (0, 0, -(2**40))])
    def test_negative_entry_is_refused(self, key):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            substreams([key])
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            substreams([(7, 1, 0), key])

    @pytest.mark.parametrize("entry", [1.5, 1.0, np.float64(1.0), "3", None],
                             ids=["1.5", "1.0", "float64", "str", "None"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_entry_that_is_not_an_integer_is_refused(self, entry, position):
        # read as core.as_count reads counts and seeds: 1.5 is not the key 1,
        # even after the integer 1 has been hashed
        key = [1, 1, 1]
        key[position] = entry
        with pytest.raises(ValueError, match="^a substream key entry must be an integer, got "):
            substreams([(1, 1, 1), tuple(key)])

    def test_numpy_integer_entries_are_their_python_ints(self):
        keys = [(np.uint64(2**64 - 1), np.int32(3), np.int64(0)), (2**64 - 1, 3, 0)]
        first, second = (rng.bit_generator.state for rng in substreams(keys))
        assert first == second


# the normals gen_quadratic and gen_rlr draw at an array location, as
# (location shape, scale, draw shape): theta_i and mu_i at d = 5, then rlr's
# features at n = 50 and the scales i^-0.65 of agents 1, 2 and 10
ARRAY_LOCATION_DRAWS = [((5,), 1.0, (5,))] + [
    ((5,), i ** -0.65, (50, 5)) for i in (1, 2, 10)]


@pytest.mark.parametrize("loc_shape, scale, shape", ARRAY_LOCATION_DRAWS)
def test_location_plus_scaled_standard_normal_is_numpys_normal(loc_shape, scale, shape):
    # the generators draw normal(loc, scale) as loc + scale * standard_normal:
    # a numpy build that fused that multiply-add in its sampler would fail here
    loc = np.random.default_rng(5).normal(0.0, 30.0, size=loc_shape)
    ours, numpys = substreams([(9, 1, 2), (9, 1, 2)])
    drawn = loc + scale * ours.standard_normal(shape)
    assert drawn.tobytes() == numpys.normal(loc, scale, shape).tobytes()


# SHA-256 of the containers of generated federations, so that a change which
# moves one draw, or one rounding of what is made from the draws, fails. As
# the determinism contract, they hold on one machine and numpy build: the
# quadratic payloads go through matrix products
PINNED_CONTAINERS = [
    (QuadraticGenSpec(20, 50, 500, 7),
     "8e57c718f6bd1d2caf50cf39e765aab7ef4c25699deab90f81813361ff5ce7f4"),
    (QuadraticGenSpec(3, 4, 10, 2**64 - 1),
     "9db50a4b7b1af4c23d72f923a3f64466a17052c177da5ab76ff398031486240b"),
    (RlrGenSpec(10, 5, 50, 20.0, 11),
     "d3cd8ba4c20d635c1207788e5154e4df17e02aae934271b22f6f7d63e3a8da2f"),
    (RlrGenSpec(10, 5, 50, 1.0, 1011),
     "fe34da33639c3a1d825c9db43baa34bb8046fb2e4bfa92a5d0ff7fee5d8abadb"),
    (RlrGenSpec(10, 5, 50, 5.0, 12),
     "a31327c81b9ed64587d11cd325e4a6cf4e583d22b4768ee93008b7e870243a4a"),
]


@pytest.mark.parametrize("spec, digest", PINNED_CONTAINERS, ids=lambda v: v[:8] if isinstance(v, str)
                         else f"{type(v).__name__[:-len('GenSpec')].lower()}-seed{v.seed}")
def test_generated_containers_are_pinned(tmp_path, spec, digest):
    generate = gen_quadratic if isinstance(spec, QuadraticGenSpec) else gen_rlr
    path = tmp_path / "pinned.fedmm"
    save_dataset(path, generate(spec), spec)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# the documented header layout, stated independently of the module
HEADER = struct.Struct("<6sBQQQQd")


class TestContainer:
    def test_quadratic_round_trip(self, tmp_path):
        spec = QuadraticGenSpec(m=3, d=4, n_i=10, seed=17)
        prob = gen_quadratic(spec)
        path = tmp_path / "quad.fedmm"
        save_dataset(path, prob, spec)
        assert HEADER.unpack_from(path.read_bytes()) == (
            MAGIC, KIND_QUADRATIC, 3, 4, 10, 17, 0.0)
        loaded, loaded_spec = load_dataset(path)
        assert type(loaded_spec) is QuadraticGenSpec and loaded_spec == spec
        for a, b in zip(prob.agents, loaded.agents):
            assert np.array_equal(a.Q, b.Q)
            assert np.array_equal(a.c, b.c)
            assert np.array_equal(a.a, b.a)
        # save -> load -> save, under the spec read back
        again = tmp_path / "again.fedmm"
        save_dataset(again, loaded, loaded_spec)
        assert again.read_bytes() == path.read_bytes()

    def test_rlr_round_trip(self, tmp_path):
        spec = RlrGenSpec(m=2, d=3, n_i=5, alpha=4.0, seed=19)
        prob = gen_rlr(spec)
        path = tmp_path / "rlr.fedmm"
        save_dataset(path, prob, spec)
        assert HEADER.unpack_from(path.read_bytes()) == (
            MAGIC, KIND_RLR, 2, 3, 5, 19, 4.0)
        loaded, loaded_spec = load_dataset(path)
        assert type(loaded_spec) is RlrGenSpec and loaded_spec == spec
        for a, b in zip(prob.agents, loaded.agents):
            assert np.array_equal(a.A, b.A)
            assert np.array_equal(a.b, b.b)
        again = tmp_path / "again.fedmm"
        save_dataset(again, loaded, loaded_spec)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("case", ["quad-m", "quad-d", "rlr-m", "rlr-d"])
    def test_spec_of_another_size_is_refused_before_writing(self, tmp_path, case):
        # the header would name one federation and the payload hold another,
        # which load_dataset rejects as a size mismatch
        if case.startswith("quad"):
            prob = gen_quadratic(QuadraticGenSpec(m=3, d=4, n_i=10, seed=17))
            spec = (QuadraticGenSpec(m=5, d=4, n_i=10, seed=17) if case == "quad-m"
                    else QuadraticGenSpec(m=3, d=5, n_i=10, seed=17))
        else:
            prob = gen_rlr(RlrGenSpec(m=2, d=3, n_i=5, alpha=1.0, seed=19))
            spec = (RlrGenSpec(m=3, d=3, n_i=5, alpha=1.0, seed=19) if case == "rlr-m"
                    else RlrGenSpec(m=2, d=2, n_i=5, alpha=1.0, seed=19))
        path = tmp_path / "other.fedmm"
        with pytest.raises(ValueError, match=rf"spec has m = {spec.m}, d = {spec.d}"):
            save_dataset(path, prob, spec)
        assert not path.exists()

    def test_failed_write_leaves_existing_container_intact(self, tmp_path, monkeypatch):
        spec = QuadraticGenSpec(m=2, d=3, n_i=5, seed=1)
        path = tmp_path / "data.fedmm"
        save_dataset(path, gen_quadratic(spec), spec)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("fedmm.datagen.os.replace", refuse)
        other = QuadraticGenSpec(m=2, d=3, n_i=5, seed=2)
        with pytest.raises(OSError, match=f"^cannot write {re.escape(str(path))}: No space"):
            save_dataset(path, gen_quadratic(other), other)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.fedmm"]

    @pytest.mark.parametrize("counts", [(6, 9), (6, 6)])
    def test_rlr_sample_counts_other_than_the_spec_are_refused(self, tmp_path, counts):
        rng = np.random.default_rng(3)
        prob = RobustLinearRegression([rng.normal(size=(n, 2)) for n in counts],
                                      [rng.normal(size=n) for n in counts])
        spec = RlrGenSpec(m=2, d=2, n_i=9, alpha=1.0, seed=0)
        path = tmp_path / "ragged.fedmm"
        with pytest.raises(ValueError, match=r"n_i = 9 .*\[6, (9|6)\]"):
            save_dataset(path, prob, spec)
        assert not path.exists()

    def test_spec_of_the_other_kind_is_refused(self, tmp_path):
        quad = gen_quadratic(QuadraticGenSpec(m=2, d=3, n_i=6, seed=29))
        rlr = gen_rlr(RlrGenSpec(m=2, d=3, n_i=6, alpha=1.0, seed=29))
        path = tmp_path / "kind.fedmm"
        with pytest.raises(ValueError, match="UncoupledQuadratic under a RlrGenSpec"):
            save_dataset(path, quad, RlrGenSpec(m=2, d=3, n_i=6, alpha=1.0, seed=29))
        with pytest.raises(ValueError, match="RobustLinearRegression under a Quad"):
            save_dataset(path, rlr, QuadraticGenSpec(m=2, d=3, n_i=6, seed=29))
        assert not path.exists()

    def test_rlr_with_other_y_radius_is_refused_before_writing(self, tmp_path):
        spec = RlrGenSpec(m=2, d=3, n_i=5, alpha=1.0, seed=37)
        prob = gen_rlr(spec)
        wide = RobustLinearRegression([a.A for a in prob.agents],
                                      [a.b for a in prob.agents], y_radius=3.0)
        path = tmp_path / "wide.fedmm"
        with pytest.raises(ValueError, match="radius 3.0"):
            save_dataset(path, wide, spec)
        assert not path.exists()

    def test_quadratic_with_feasible_sets_is_refused_before_writing(self, tmp_path):
        spec = QuadraticGenSpec(m=2, d=3, n_i=6, seed=29)
        prob = gen_quadratic(spec)
        sets = ProductSet(FeasibleSet.unconstrained(3), FeasibleSet.ball(np.zeros(3), 0.5))
        ball = UncoupledQuadratic([a.Q for a in prob.agents], [a.c for a in prob.agents],
                                  sets=sets)
        path = tmp_path / "ball.fedmm"
        with pytest.raises(ValueError, match="Y ball"):
            save_dataset(path, ball, spec)
        assert not path.exists()

    @pytest.mark.parametrize("make", ["scalar2", "shifted"])
    def test_quadratic_with_another_x_term_is_refused_before_writing(self, tmp_path, make):
        # the container rebuilds a_i = 2c_i, so any other x term would come
        # back as a different problem (the scalar x* = 3.3 as 6.6)
        if make == "scalar2":
            prob, spec = ScalarTwoAgent(), QuadraticGenSpec(m=2, d=1, n_i=1, seed=0)
        else:
            spec = QuadraticGenSpec(m=2, d=3, n_i=6, seed=31)
            gen = gen_quadratic(spec)
            a = 2.0 * gen.c
            a[1, 2] = np.nextafter(a[1, 2], np.inf)
            prob = UncoupledQuadratic(gen.Q, gen.c, a_list=a)
        path = tmp_path / "other.fedmm"
        with pytest.raises(ValueError, match="x-linear term"):
            save_dataset(path, prob, spec)
        assert not path.exists()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTFMM" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a FEDMM1"):
            load_dataset(path)

    def test_rejects_truncated_payload(self, tmp_path):
        spec = QuadraticGenSpec(m=2, d=3, n_i=6, seed=23)
        prob = gen_quadratic(spec)
        path = tmp_path / "quad.fedmm"
        save_dataset(path, prob, spec)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_dataset(path)

    @staticmethod
    def _patched(path, **fields):
        """Rewrite the header of the container at ``path`` with ``fields``."""
        raw = path.read_bytes()
        names = ("magic", "kind", "m", "d", "n", "seed", "alpha")
        header = dict(zip(names, HEADER.unpack_from(raw)))
        header.update(fields)
        path.write_bytes(HEADER.pack(*(header[k] for k in names)) + raw[HEADER.size:])

    @pytest.mark.parametrize("alpha", [1.0, -0.0, float("nan")])
    def test_quadratic_header_with_an_alpha_is_refused(self, tmp_path, alpha):
        # the quadratic spec has no alpha, so a load -> save would write 0.0
        spec = QuadraticGenSpec(m=2, d=3, n_i=6, seed=23)
        path = tmp_path / "quad.fedmm"
        save_dataset(path, gen_quadratic(spec), spec)
        self._patched(path, alpha=alpha)
        expected = rf"^{re.escape(str(path))}: .*alpha 0\.0, got {alpha!r}$"
        with pytest.raises(ValueError, match=expected):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind, offset, name", [
        (KIND_QUADRATIC, 0, "Q"), (KIND_QUADRATIC, -1, "c"),
        (KIND_RLR, 0, "features"), (KIND_RLR, -1, "targets"),
    ])
    def test_non_finite_payload_is_refused_with_the_file_name(self, tmp_path, kind, offset,
                                                               name, bad):
        # one payload float replaced in place: the first entry (a matrix
        # entry of agent 1) or the last (a vector entry of agent m)
        spec = (QuadraticGenSpec(m=2, d=3, n_i=6, seed=23) if kind == KIND_QUADRATIC
                else RlrGenSpec(m=2, d=3, n_i=6, alpha=1.0, seed=23))
        prob = gen_quadratic(spec) if kind == KIND_QUADRATIC else gen_rlr(spec)
        path = tmp_path / "patched.fedmm"
        save_dataset(path, prob, spec)
        payload = np.frombuffer(path.read_bytes(), dtype="<f8", offset=HEADER.size).copy()
        payload[offset] = bad
        path.write_bytes(path.read_bytes()[:HEADER.size] + payload.tobytes())
        expected = f"^{re.escape(str(path))}: {name} contains non-finite entries$"
        with pytest.raises(ValueError, match=expected):
            load_dataset(path)

    @pytest.mark.parametrize("kind, fields, reason", [
        (KIND_QUADRATIC, dict(n=1), "n_i must be >= d"),
        (KIND_QUADRATIC, dict(d=0), "m and d must be >= 1"),
        (KIND_RLR, dict(alpha=float("inf")), "alpha must be finite and >= 0"),
        (KIND_RLR, dict(n=0), "m, d and n_i must be >= 1"),
        (9, {}, "unknown dataset kind 9"),
    ])
    def test_invalid_header_reason_names_the_file(self, tmp_path, kind, fields, reason):
        spec = (QuadraticGenSpec(m=2, d=3, n_i=6, seed=23) if kind == KIND_QUADRATIC
                else RlrGenSpec(m=2, d=3, n_i=6, alpha=1.0, seed=23))
        prob = gen_quadratic(spec) if kind == KIND_QUADRATIC else gen_rlr(spec)
        path = tmp_path / "foreign.fedmm"
        save_dataset(path, prob, spec)
        self._patched(path, kind=kind, **fields)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {reason}"):
            load_dataset(path)

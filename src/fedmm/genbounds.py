"""Generalization-bound evaluators and a Monte-Carlo Rademacher estimator.

The bound evaluators are pure formula plumbing: they evaluate their
right-hand sides exactly as written and make no probabilistic claims
themselves. The cover size |Y_eps| is always an input, never computed, since
building minimum covers is out of scope. Every evaluator returns a finite
float or refuses: finite inputs whose bound overflows a float raise
``ValueError("the inputs overflow the bounds (<name> = <value>)")``, naming
the first term that overflowed, with no numpy warning.

The complexity estimator is the *empirical* (conditional on one drawn
dataset) variant: the supremum over models is replaced by an exact maximum
over the rows of a user-supplied loss table. It uses each sign vector twice,
as sigma and as -sigma (antithetic pairs), so an even count of N draws costs
N/2 products of a sign vector with the table. It reads its signs 64 to each
raw word of a seeded PCG64 stream, in blocks of ``SIGMA_BLOCK_ROWS`` (256)
sign vectors, so its memory is about 9 bytes per sign of one block (the
float64 block and its unpacked bits) plus one float per pair, whatever the
number of draws.

Counts (``m``, ``n``, ``d``, ``cover_size``, ``vc_dim``, ``num_sigma_draws``)
and the estimator's ``seed`` are read with ``core.as_count``: a Python or
numpy integer is taken as a Python int, anything else is refused with a
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Vector, as_count, as_vector, check_finite


@dataclass(frozen=True)
class BoundInputs:
    """Everything the closed-form bounds need.

    ``M_i`` holds per-agent bounds on |loss| at the y of interest (for the
    worst-case bound, pass the maxima over y). ``rademacher`` is the complexity
    value to plug in, supplied directly or estimated via
    ``estimate_rademacher``.
    """

    m: int
    n: int
    M_i: Vector
    cover_size: int
    delta: float
    epsilon: float
    L_y: float
    rademacher: float
    vc_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "M_i", as_vector(self.M_i))
        for name in ("delta", "epsilon", "L_y", "rademacher"):  # so no numpy scalar warns
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("m", "n", "cover_size"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.vc_dim is not None:
            object.__setattr__(self, "vc_dim", as_count(self.vc_dim, "vc_dim"))
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.M_i.shape[0] != self.m:
            raise ValueError(f"expected {self.m} per-agent loss bounds, got {self.M_i.shape[0]}")
        if not np.all((self.M_i >= 0) & (self.M_i < np.inf)):
            raise ValueError("per-agent loss bounds M_i must be finite and nonnegative")
        if self.cover_size < 1:
            raise ValueError("cover_size must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if not (0 <= self.L_y < np.inf and 0 <= self.rademacher < np.inf):
            raise ValueError("L_y and rademacher must be finite and nonnegative")
        if self.vc_dim is not None and not 1 <= self.vc_dim <= self.m * self.n:
            raise ValueError(f"vc_dim must lie in [1, m*n = {self.m * self.n}] "
                             f"when given, got {self.vc_dim}")

    @property
    def sum_M_i_sq(self) -> float:
        """sum_i M_i^2 (the max_sum_Mi2 of ``vc_rademacher_bound``); inf,
        without a numpy warning, when it overflows."""
        with np.errstate(over="ignore"):
            return float(np.dot(self.M_i, self.M_i))


def _finite(name: str, evaluate) -> float:
    """``evaluate()``, refused unless finite (an integer no float holds is inf)."""
    try:
        value = float(evaluate())
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the inputs overflow the bounds ({name} = {value!r})")
    return value


def _root_of_quotient(numerator: float | Fraction, count: int, factor: float) -> float:
    """sqrt(numerator / count * factor), the quotient rounded once from the
    exact integer ``count``: the plain expression's bits whenever ``count``
    is a float of at most 2^64. A larger count scales the quotient by 4^k
    first, so that it does not underflow, and the root undoes the scale; a
    numerator past the largest float, which only an exact one can be,
    lowers k so that the scaled quotient does not overflow."""
    excess = max(0, int(numerator).bit_length() - 1024)
    k = max(0, count.bit_length() - 64 - excess) // 2
    quotient = float(Fraction(numerator) * 4**k / count)
    return math.ldexp(math.sqrt(quotient * factor), -k)


def concentration_term(inputs: BoundInputs) -> float:
    """sqrt( sum_i M_i^2 / (2 m^2 n) * log(|Y_eps| / delta) ).

    The log is taken as log |Y_eps| - log delta, so a cover size or a delta
    whose quotient no float holds still gives the finite term; so does an
    m^2 n no float holds."""
    return _finite("concentration_term", lambda: _root_of_quotient(
        inputs.sum_M_i_sq, 2 * inputs.m**2 * inputs.n,
        math.log(inputs.cover_size) - math.log(inputs.delta)))


def bound_terms(inputs: BoundInputs) -> dict[str, float]:
    """The three slack terms shared by both high-probability bounds."""
    return {
        "rademacher_term": _finite("rademacher_term", lambda: 2.0 * inputs.rademacher),
        "concentration_term": concentration_term(inputs),
        "lipschitz_term": _finite("lipschitz_term", lambda: 2.0 * inputs.L_y * inputs.epsilon),
    }


def population_risk_bound(inputs: BoundInputs, empirical_risk: float) -> float:
    """High-probability upper bound on the population risk at a fixed (x, y):
    empirical risk + 2 R(X, y) + concentration term + 2 L_y eps; at an
    empirical risk of 0, the slack."""
    terms = bound_terms(inputs)
    return _finite("risk_bound", lambda: float(empirical_risk) + sum(terms.values()))


def worst_case_risk_bound(inputs: BoundInputs, worst_case_empirical: float) -> float:
    """Same right-hand side with worst-case-over-y inputs: bounds the
    worst-case population risk by the worst-case empirical risk plus slack.

    ``inputs.M_i`` must hold max-over-y loss bounds and ``inputs.rademacher``
    the max-over-y complexity.
    """
    return population_risk_bound(inputs, worst_case_empirical)


def vc_rademacher_bound(m: int, n: int, d: int, max_sum_Mi2: float) -> float:
    """Complexity cap for finite-valued losses over a class of VC-dimension d:
    sqrt( 2 d * max_y{sum_i M_i^2(y)} / (m^2 n) * (1 + log(m n / d)) ), the
    quotient 2 d max / (m^2 n) rounded once from its exact value."""
    m, n, d = as_count(m, "m"), as_count(n, "n"), as_count(d, "d")
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if m * n < d:
        raise ValueError(f"need m*n >= d, got m*n = {m * n} < d = {d}")
    if not max_sum_Mi2 >= 0:
        raise ValueError("max_sum_Mi2 must be nonnegative")
    try:
        log_ratio = math.log(m * n / d)
    except OverflowError:  # m n / d is past the largest float
        log_ratio = math.log(m * n) - math.log(d)
    # Fraction refuses an inf max_sum_Mi2, which _finite reports
    return _finite("vc_rademacher_bound", lambda: _root_of_quotient(
        2 * d * Fraction(max_sum_Mi2), m**2 * n, 1.0 + log_ratio))


# ---------------------------------------------------------------------------
# Monte-Carlo empirical Rademacher complexity over a finite candidate set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteHypothesisSample:
    """Loss table of shape (num_candidates, m*n): l(x, y; xi_{i,j}) for each
    candidate model x (row) at a fixed y over one drawn dataset, columns in
    agent-major sample-minor order. The sample keeps a read-only copy of the
    table, so no caller can change it after its checks."""

    loss_table: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        table = np.array(self.loss_table, dtype=np.float64)
        table.flags.writeable = False
        object.__setattr__(self, "loss_table", table)
        object.__setattr__(self, "m", as_count(self.m, "m"))
        object.__setattr__(self, "n", as_count(self.n, "n"))
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if table.ndim != 2:
            raise ValueError(f"loss table must be 2-D, got shape {table.shape}")
        if table.shape[0] < 1:
            raise ValueError("candidate set must not be empty")
        if table.shape[1] != self.m * self.n:
            raise ValueError(
                f"loss table must have m*n = {self.m * self.n} columns, "
                f"got {table.shape[1]}"
            )
        check_finite(table, "loss table")


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    num_draws: int


# Sign vectors that ``estimate_rademacher`` holds at once. Keep it a
# multiple of 64: every block but the last then uses up whole 64-bit words of
# the sign stream.
SIGMA_BLOCK_ROWS = 256


def estimate_rademacher(
    sample: FiniteHypothesisSample, num_sigma_draws: int, seed: int
) -> RademacherEstimate:
    """Monte-Carlo average over sign draws of the per-draw maximum correlation
    max_rows (1/mn) sum_j sigma_j * loss_j, plus its standard error.

    The N = ``num_sigma_draws`` draws are P = N/2 sign vectors sigma_k, each
    also used negated, so N must be even. With s_k = sigma_k . loss,
    max_h(-s_kh) = -min_h s_kh, so a pair's mean is g_k = (max_h s_kh -
    min_h s_kh) / (2 mn), whose expectation is the complexity because -sigma
    has the law of sigma. The value is the mean of the g_k and the standard
    error std(g, ddof=1) / sqrt(P), over the pairs: a pair's two draws are
    not independent (on a sign-closed table they are equal), so a formula
    over the 2P draws would understate it.

    The vectors are the rows of one ``default_rng(seed).integers(0, 2,
    size=(P, mn), dtype=bool)`` draw, False as -1 and True as +1. numpy
    serves that draw as the bits of the generator's raw 64-bit words, low bit
    first, so the signs are read straight off those words: 64 per word. They
    are drawn in blocks of ``SIGMA_BLOCK_ROWS`` vectors, written as +-1 into
    one reused float64 block, multiplied by the loss table, and only each
    vector's g_k is kept. Memory is therefore about 9 bytes per sign of one
    SIGMA_BLOCK_ROWS x mn block plus one float per pair, not the whole P x mn
    sign matrix. The products can differ from a single product of the whole
    matrix only in the last bits, where BLAS orders a short block's sums
    differently. Correlations that overflow are refused, as the bounds refuse.
    """
    num_sigma_draws = as_count(num_sigma_draws, "num_sigma_draws")
    if num_sigma_draws < 1 or num_sigma_draws % 2:
        raise ValueError("num_sigma_draws must be a positive even number (each sign "
                         f"vector is also used negated), got {num_sigma_draws}")
    pairs, mn = num_sigma_draws // 2, sample.m * sample.n
    bitgen = np.random.default_rng(as_count(seed, "seed")).bit_generator
    gaps = np.empty(pairs)
    block = np.empty((min(SIGMA_BLOCK_ROWS, pairs), mn))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, pairs, SIGMA_BLOCK_ROWS):
            stop = min(start + SIGMA_BLOCK_ROWS, pairs)
            sigma = block[: stop - start]
            count = sigma.size
            words = bitgen.random_raw(-(-count // 64)).astype("<u8", copy=False)
            bits = np.unpackbits(words.view(np.uint8), count=count, bitorder="little")
            bits += bits  # then 2b - 1 in place: 0 wraps to 255, int8 -1; one cast
            bits -= 1
            sigma[...] = bits.view(np.int8).reshape(sigma.shape)
            gaps[start:stop] = np.ptp(sigma @ sample.loss_table.T, axis=1) / (2 * mn)
        value = _finite("rademacher_estimate", gaps.mean)
        stderr = _finite("rademacher_stderr",
                         lambda: gaps.std(ddof=1) / math.sqrt(pairs) if pairs > 1 else 0.0)
    return RademacherEstimate(value, stderr, num_sigma_draws)


def massart_bound(sample: FiniteHypothesisSample) -> float:
    """Finite-class cap r * sqrt(2 log C) / (m n), with r the largest row norm
    and C the number of candidates. It bounds the complexity, which is the
    estimator's expectation; one estimate from a few draws can exceed it."""
    table = sample.loss_table
    # each row's largest |entry| times the norm of the row scaled by it, so
    # that no square overflows; a zero row is left as it is
    top = np.max(np.abs(table), axis=1)
    scaled = table / np.where(top > 0, top, 1.0)[:, None]
    with np.errstate(over="ignore"):  # an overflowing row norm is refused below
        r = float(np.max(top * np.linalg.norm(scaled, axis=1)))
    C = table.shape[0]
    return _finite("massart_bound", lambda: r * math.sqrt(2 * math.log(C)) / (sample.m * sample.n))

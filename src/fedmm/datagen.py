"""Seeded synthetic problem generation, reproducible from a single 64-bit seed.

RNG contract
------------
Draws come from ``numpy.random.Generator`` (PCG64) instances keyed by the
little-endian 32-bit words of ``(seed, stream, sub)``, which ``SeedSequence``
hashes; that is the key ``SeedSequence([seed, stream, sub])`` builds itself:

* stream 0 is reserved for problem-level draws,
* stream i (1-based) holds agent i's data, so changing the agent count never
  changes the data of the agents that remain,
* ``sub`` indexes the tensors of one stream in the documented order below.

Normal variates use the Generator's native ziggurat sampler; determinism is
guaranteed within this implementation, not across libraries. A generator
draws from its spec's seed alone and never retries under another, so the
spec (which the dataset container stores as its header) names the data.

Quadratic recipe (one problem): alpha ~ N(0, 10^2) from stream 0. Agent i's
data are Q_i = A_i'A_i and c_i = A_i'(A_i theta_i + eps_i) for n_i samples
A_i with entries ~ N(0, s^2), s = 2/i, and eps_i ~ N(0, 0.5^2 I); they are
drawn from their exact joint law, in O(d^2) draws whatever n_i, never from
samples. Q_i is Wishart_d(s^2 I, n_i), so Q_i = BB' with B = sL and L lower
triangular (Bartlett decomposition): L_kk^2 ~ chi^2(n_i - k + 1) for
k = 1..d, L_jk ~ N(0, 1) for j > k. Given A_i, A_i'eps_i ~ N(0, Q_i / 4)
depends on A_i only through Q_i, so c_i = Q_i theta_i + B g / 2 with
g ~ N(0, I). Per agent i: sub 0: the d chi^2 draws of diag(L), then the
d(d-1)/2 normals below it, row by row (L_21, L_31, L_32, L_41, ...);
sub 1: mu_i entries ~ N(alpha, 1); sub 2: theta_i ~ N(mu_i, I); sub 3: g.
Q_i is exactly symmetric; theta_i is ephemeral.

Robust-regression recipe: per agent i, sub 0: x_i* ~ N(0, I) (documented
choice); sub 1: shift c_i entries ~ N(0, alpha^2); sub 2: mu_i ~ N(c_i, I);
sub 3: a_{i,j} ~ N(mu_i, i^-1.3 I); sub 4: eps ~ N(0, 1). Then
b_{i,j} = x_i*'a_{i,j} + eps_j.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import UNCONSTRAINED, as_count, check_finite
from .problems import RobustLinearRegression, UncoupledQuadratic

PROBLEM_STREAM = 0


def substream(seed: int, stream: int, sub: int) -> np.random.Generator:
    """The deterministic generator for one tensor of one stream. Its key is
    the little-endian 32-bit words of ``(seed, stream, sub)``, each integer
    at least one word (0 is one zero word), which ``SeedSequence`` hashes:
    bitwise the state ``SeedSequence([seed, stream, sub])`` gives, without
    numpy's per-entry coercion of the list. A negative entry is refused."""
    words = []
    for n in (int(seed), int(stream), int(sub)):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


@dataclass(frozen=True)
class QuadraticGenSpec:
    m: int
    d: int
    n_i: int
    seed: int

    def __post_init__(self):
        for name in ("m", "d", "n_i", "seed"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be >= 1")
        if self.n_i < self.d:
            raise ValueError("n_i must be >= d: the chi^2(n_i - k + 1) factors of "
                             "Q_i, k = 1..d, need at least one degree of freedom")
        if self.n_i >= 2**64:
            raise ValueError("n_i must be below 2^64, the container's u64 field")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class RlrGenSpec:
    m: int
    d: int
    n_i: int
    alpha: float
    seed: int

    def __post_init__(self):
        for name in ("m", "d", "n_i", "seed"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.m < 1 or self.d < 1 or self.n_i < 1:
            raise ValueError("m, d and n_i must be >= 1")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def _quadratic_agent_data(seed: int, i: int, d: int, n: int, alpha: float):
    rng = substream(seed, i, 0)
    L = np.diag(np.sqrt(rng.chisquare(float(n) - np.arange(d))))
    L[np.tri(d, k=-1, dtype=bool)] = rng.standard_normal(d * (d - 1) // 2)  # row by row
    B = (2.0 / i) * L
    mu = substream(seed, i, 1).normal(alpha, 1.0, size=d)
    theta = substream(seed, i, 2).normal(mu, 1.0)
    g = substream(seed, i, 3).standard_normal(d)
    Q = B @ B.T
    Q = 0.5 * (Q + Q.T)  # Q_jk and Q_kj are one sum, whatever the product did
    return Q, Q @ theta + 0.5 * (B @ g)


def gen_quadratic(spec: QuadraticGenSpec) -> UncoupledQuadratic:
    """Generate the uncoupled quadratic federation for ``spec``, from
    ``spec.seed`` alone: there is no retry under another seed.

    Each agent takes O(d^2) draws whatever ``n_i`` (module docstring). With
    ``n_i >= d`` each Q_i is positive definite almost surely; a numerically
    singular sum still raises ``SingularProblemError`` from the
    ``UncoupledQuadratic`` constructor.
    """
    alpha = float(substream(spec.seed, PROBLEM_STREAM, 0).normal(0.0, 10.0))
    Qs, cs = zip(*(_quadratic_agent_data(spec.seed, i, spec.d, spec.n_i, alpha)
                   for i in range(1, spec.m + 1)))
    return UncoupledQuadratic(Qs, cs)


def gen_rlr(spec: RlrGenSpec) -> RobustLinearRegression:
    """Generate the robust-linear-regression federation for ``spec``."""
    features, targets = [], []
    for i in range(1, spec.m + 1):
        x_star = substream(spec.seed, i, 0).normal(0.0, 1.0, size=spec.d)
        c = substream(spec.seed, i, 1).normal(0.0, spec.alpha, size=spec.d)
        mu = substream(spec.seed, i, 2).normal(c, 1.0)
        A = substream(spec.seed, i, 3).normal(mu, i ** -0.65, size=(spec.n_i, spec.d))
        eps = substream(spec.seed, i, 4).normal(0.0, 1.0, size=spec.n_i)
        features.append(A)
        targets.append(A @ x_star + eps)
    return RobustLinearRegression(features, targets)


# ---------------------------------------------------------------------------
# dataset container
#
# Layout (little-endian): magic "FEDMM1" (6 bytes) | kind u8 (1 = quadratic,
# 2 = rlr) | m u64 | d u64 | n u64 | seed u64 | alpha f64 (0.0 for quadratic).
# Payload, one row per agent in ascending order, float64 row-major:
#   quadratic: Q_i (d*d), c_i (d)
#   rlr:       A_i (n*d), b_i (n)
# ---------------------------------------------------------------------------

MAGIC = b"FEDMM1"
KIND_QUADRATIC = 1
KIND_RLR = 2
_HEADER = struct.Struct("<6sBQQQQd")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file next to ``path`` and rename it over
    ``path`` once complete, so a failed write leaves an existing file intact
    and no partial file behind. The one writer of every output file: trace
    and plot CSVs and dataset containers."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # the reason names the target path, not the temporary file
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_dataset(path, problem, spec) -> None:
    """Dump a generated problem so runs can be replayed without regeneration.

    The header is ``spec``, so a problem is refused, before the file is
    opened, unless ``spec`` describes it: its kind, ``m``, ``d`` and, for
    rlr, ``n_i`` samples at every agent. Nor has the header a field for
    feasible sets or a quadratic's x-linear term: the sets must be the ones
    ``load_dataset`` rebuilds (unconstrained for a quadratic, the unit Y ball
    for rlr) and the x term a_i = 2c_i.
    """
    name = MAGIC.decode()
    if (problem.m, problem.p) != (spec.m, spec.d):
        raise ValueError(f"spec has m = {spec.m}, d = {spec.d}; the problem has "
                         f"m = {problem.m}, d = {problem.p}")
    if isinstance(problem, UncoupledQuadratic) and isinstance(spec, QuadraticGenSpec):
        sets = problem.sets
        if sets.set_x.kind != UNCONSTRAINED or sets.set_y.kind != UNCONSTRAINED:
            raise ValueError(
                f"a {name} container has no field for feasible sets; it "
                f"stores only unconstrained quadratic problems, not X "
                f"{sets.set_x.kind} and Y {sets.set_y.kind}"
            )
        if not np.array_equal(problem.a, 2.0 * problem.c):
            raise ValueError(
                f"a {name} container has no field for the x-linear "
                f"term; it stores only quadratic problems with a_i = 2c_i"
            )
        kind, alpha, mats, vecs = KIND_QUADRATIC, 0.0, problem.Q, problem.c
    elif isinstance(problem, RobustLinearRegression) and isinstance(spec, RlrGenSpec):
        radius = problem.sets.set_y.radius
        if radius != 1.0:
            raise ValueError(
                f"a {name} container has no field for the y-ball; it "
                f"stores only the unit ball, not radius {radius!r}"
            )
        counts = [a.n for a in problem.agents]
        if any(n != spec.n_i for n in counts):
            raise ValueError(f"spec has n_i = {spec.n_i} samples per agent; "
                             f"the problem has {counts}")
        kind, alpha = KIND_RLR, spec.alpha
        mats = np.stack([a.A for a in problem.agents])
        vecs = np.stack([a.b for a in problem.agents])
    else:
        raise ValueError(
            f"cannot dump a {type(problem).__name__} under a {type(spec).__name__}")
    # the exact (m, matrix + vector) array load_dataset reads
    payload = np.concatenate([mats.reshape(spec.m, -1), vecs], axis=1)
    write_atomic(path, _HEADER.pack(MAGIC, kind, spec.m, spec.d, spec.n_i, spec.seed, alpha)
                 + payload.astype("<f8", copy=False).tobytes())


def load_dataset(path):
    """Read a container back; returns (problem, spec), where ``spec`` is the
    ``QuadraticGenSpec`` or ``RlrGenSpec`` it was saved under. A header its
    spec refuses, a payload of another size or with an entry that is not
    finite is refused with the file's name."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:6] != MAGIC:
        raise ValueError(f"{path} is not a FEDMM1 dataset container")
    magic, kind, m, d, n, seed, alpha = _HEADER.unpack_from(raw)
    try:
        if kind == KIND_QUADRATIC:
            # save_dataset writes +0.0 here; any other value would be lost
            if alpha != 0.0 or np.signbit(alpha):
                raise ValueError(f"a quadratic header has alpha 0.0, got {alpha!r}")
            spec = QuadraticGenSpec(m=m, d=d, n_i=n, seed=seed)
            mat_shape, vec_len, names = (d, d), d, ("Q", "c")
        elif kind == KIND_RLR:
            spec = RlrGenSpec(m=m, d=d, n_i=n, alpha=alpha, seed=seed)
            mat_shape, vec_len, names = (n, d), n, ("features", "targets")
        else:
            raise ValueError(f"unknown dataset kind {kind}")
        mat_len = mat_shape[0] * mat_shape[1]
        expected = _HEADER.size + 8 * m * (mat_len + vec_len)
        if len(raw) != expected:
            raise ValueError(
                f"container size mismatch: expected {expected} bytes, got {len(raw)}"
            )
        # read-only views of the payload, one row per agent; the problems stack
        # (quadratic) or keep (rlr) them without a per-agent copy
        payload = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
        payload = payload.reshape(m, mat_len + vec_len)
        mats = payload[:, :mat_len].reshape(m, *mat_shape)
        vecs = payload[:, mat_len:]
        for name, values in zip(names, (mats, vecs)):
            check_finite(values, name)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if kind == KIND_QUADRATIC:
        return UncoupledQuadratic(mats, vecs), spec
    return RobustLinearRegression(mats, vecs), spec

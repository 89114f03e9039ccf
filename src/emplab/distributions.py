"""Samplers for isotropic heavy-tailed vectors and moment diagnostics.

Measurement vectors have iid symmetric coordinates normalized to unit
variance, so the vector is isotropic.  Noise multipliers are scaled so that
their L_{q0} norm hits a prescribed target.  The module also provides the
empirical moment-growth diagnostics used throughout: the sup_{q<=p} of
``||.||_{L_q}/sqrt(q)`` and its per-q profile.

Families
--------
Coordinates: ``gaussian``, ``rademacher``, ``student_t`` (df > 2),
``symmetric_pareto`` (tail exponent > 2), ``symmetric_weibull`` (shape >=
0.05).  Noise: ``gaussian``, ``symmetric_pareto``, ``student_t``, ``constant``.

``sample_block_sums`` draws weighted sums of iid rows of any law, and those of
the gaussian scale mixtures ``gaussian`` and ``student_t`` (Andrews & Mallows
1974) exactly without the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .streams import SeedPath, rng_from_path

X_FAMILIES = ("gaussian", "rademacher", "student_t", "symmetric_pareto", "symmetric_weibull")
GAUSSIAN_MIXTURES = ("gaussian", "student_t")
NOISE_FAMILIES = ("gaussian", "symmetric_pareto", "student_t", "constant")

# Tail parameters of heavy noise families are derived from the guaranteed
# moment q0 when not given explicitly: the law keeps q0 moments with a
# small margin but not much more.
PARETO_NOISE_TAIL_MARGIN = 0.5
STUDENT_NOISE_DF_MARGIN = 1.0

# Below this shape the unit variance rests on draws too rare to sample, and
# below about 0.0117 Gamma(1 + 2/shape) overflows a float.
WEIBULL_MIN_SHAPE = 0.05

# Values per copy chunk of sample_block_sums (32 MB of doubles); the chunks fix the stream
_COPY_CHUNK_VALUES = 4_000_000
# Gamma mixing values per row block of one chunk's draw (1 MB of doubles)
_MIXING_BLOCK_VALUES = 1 << 17


class ConfigurationError(ValueError):
    """A spec violates one of its parameter bounds."""


def gaussian_abs_moment(q: float) -> float:
    """E|g|^q for a standard gaussian g."""
    return math.exp(
        0.5 * q * math.log(2.0) + math.lgamma((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    )


def student_t_abs_moment(nu: float, q: float) -> float:
    """E|T|^q for Student t with ``nu`` degrees of freedom; requires q < nu."""
    if q >= nu:
        raise ConfigurationError(f"Student t with df={nu} has no L_{q} moment (needs q < df)")
    log_m = (
        0.5 * q * math.log(nu)
        + math.lgamma((q + 1.0) / 2.0)
        + math.lgamma((nu - q) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma(nu / 2.0)
    )
    return math.exp(log_m)


def pareto_abs_moment(alpha: float, q: float) -> float:
    """E|X|^q for |X| Pareto with tail exponent ``alpha`` on [1, inf)."""
    if q >= alpha:
        raise ConfigurationError(f"Pareto with tail exponent {alpha} has no L_{q} moment")
    return alpha / (alpha - q)


@dataclass(frozen=True)
class DistributionSpec:
    """Coordinate law of an isotropic measurement vector on R^dim.

    ``tail_param`` is the degrees of freedom for ``student_t``, the tail
    exponent for ``symmetric_pareto`` and the shape for
    ``symmetric_weibull``; it is ignored for ``gaussian``/``rademacher``.
    ``scale`` is derived: the value that makes each coordinate unit
    variance.
    """

    family: str
    dim: int
    tail_param: float | None = None
    scale: float = field(init=False)

    def __post_init__(self):
        if self.family not in X_FAMILIES:
            raise ConfigurationError(f"unknown coordinate family {self.family!r}")
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if self.family == "student_t":
            if self.tail_param is None or self.tail_param <= 2.0:
                raise ConfigurationError(
                    f"student_t requires degrees of freedom > 2, got {self.tail_param}"
                )
        elif self.family == "symmetric_pareto":
            if self.tail_param is None or self.tail_param <= 2.0:
                raise ConfigurationError(
                    f"symmetric_pareto requires tail exponent > 2, got {self.tail_param}"
                )
        elif self.family == "symmetric_weibull":
            if self.tail_param is None or self.tail_param < WEIBULL_MIN_SHAPE:
                raise ConfigurationError(
                    f"symmetric_weibull requires shape >= {WEIBULL_MIN_SHAPE}, "
                    f"got {self.tail_param}"
                )
        object.__setattr__(self, "scale", _unit_variance_scale(self.family, self.tail_param))


def _unit_variance_scale(family: str, tail_param: float | None) -> float:
    if family in ("gaussian", "rademacher"):
        return 1.0
    if family == "student_t":
        nu = tail_param
        return math.sqrt((nu - 2.0) / nu)
    if family == "symmetric_pareto":
        alpha = tail_param
        return math.sqrt((alpha - 2.0) / alpha)
    # symmetric_weibull: 1 / sqrt(E W^2), E W^2 = Gamma(1 + 2/shape)
    return 1.0 / math.sqrt(math.exp(math.lgamma(1.0 + 2.0 / tail_param)))


def canonical_heavy_tail_spec(dim: int) -> DistributionSpec:
    """Student t coordinates with df = 2 ln(dim): roughly log(dim) usable moments."""
    nu = 2.0 * math.log(dim)
    if nu <= 2.0:
        raise ConfigurationError(f"dim={dim} too small for the 2*ln(n) degrees-of-freedom rule")
    return DistributionSpec("student_t", dim, tail_param=nu)


@dataclass(frozen=True)
class NoiseSpec:
    """Scalar multiplier law with a guaranteed finite L_{q0} norm.

    Samples are scaled so the exact L_{q0} norm equals ``lq_norm``.  For the
    heavy families the tail parameter defaults to slightly above q0
    (``q0 + 0.5`` for the Pareto tail exponent, ``q0 + 1`` for the Student
    degrees of freedom) so that the L_{q0} norm is finite but moments not
    much beyond q0 exist.  Only noise independent of the measurement
    vectors is generated.
    """

    family: str
    q0: float = 3.0
    lq_norm: float = 1.0
    tail_param: float | None = None

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise ConfigurationError(f"unknown noise family {self.family!r}")
        if self.q0 <= 2.0:
            raise ConfigurationError(f"q0 must be > 2, got {self.q0}")
        if self.lq_norm < 0.0:
            raise ConfigurationError("lq_norm must be >= 0")
        if self.family == "symmetric_pareto":
            tail = self.q0 + PARETO_NOISE_TAIL_MARGIN if self.tail_param is None else self.tail_param
            if tail <= self.q0:
                raise ConfigurationError(
                    f"pareto noise needs tail exponent > q0={self.q0}, got {tail}"
                )
            object.__setattr__(self, "tail_param", tail)
        elif self.family == "student_t":
            df = self.q0 + STUDENT_NOISE_DF_MARGIN if self.tail_param is None else self.tail_param
            if df <= self.q0:
                raise ConfigurationError(
                    f"student_t noise needs degrees of freedom > q0={self.q0}, got {df}"
                )
            object.__setattr__(self, "tail_param", df)

    def raw_lq_norm(self, q: float) -> float:
        """L_q norm of the unscaled law."""
        if self.family == "gaussian":
            return gaussian_abs_moment(q) ** (1.0 / q)
        if self.family == "symmetric_pareto":
            return pareto_abs_moment(self.tail_param, q) ** (1.0 / q)
        if self.family == "student_t":
            return student_t_abs_moment(self.tail_param, q) ** (1.0 / q)
        return 1.0  # constant

    @property
    def sample_scale(self) -> float:
        """Factor applied to raw draws so ||xi||_{L_q0} == lq_norm."""
        return self.lq_norm / self.raw_lq_norm(self.q0)


@dataclass(frozen=True)
class SampleBatch:
    """One draw of (X_i, xi_i, eps_i)_{i<=N} from independent streams."""

    X: np.ndarray       # N x n
    xi: np.ndarray      # N
    eps: np.ndarray     # N, entries exactly +-1

    @property
    def N(self) -> int:
        return self.X.shape[0]


def _raw_draws(family: str, tail_param: float | None, size, rng: np.random.Generator) -> np.ndarray:
    """iid unscaled draws of one coordinate or noise family, a fresh array."""
    if family == "gaussian":
        return rng.standard_normal(size)
    if family == "student_t":
        return rng.standard_t(tail_param, size=size)
    if family == "rademacher":
        return 2.0 * rng.integers(0, 2, size=size).astype(np.float64) - 1.0
    if family == "symmetric_pareto":
        mag = 1.0 + rng.pareto(tail_param, size=size)
    else:  # symmetric_weibull
        mag = rng.weibull(tail_param, size=size)
    sign = 2.0 * rng.integers(0, 2, size=size).astype(np.float64) - 1.0
    return sign * mag


def sample_coordinates(spec: DistributionSpec, size, rng: np.random.Generator) -> np.ndarray:
    """iid draws from the coordinate law, in the given shape."""
    out = _raw_draws(spec.family, spec.tail_param, size, rng)
    if spec.scale != 1.0:
        out *= spec.scale  # out is a fresh array: scale it in place
    return out


def sample_noise(noise: NoiseSpec, size, rng: np.random.Generator) -> np.ndarray:
    """iid draws of the noise multiplier, scaled to the target L_{q0} norm."""
    if noise.family == "constant":
        return np.full(size, noise.lq_norm, dtype=np.float64)
    return noise.sample_scale * _raw_draws(noise.family, noise.tail_param, size, rng)


def sample_block_sums(
    spec: DistributionSpec, weights: np.ndarray, copies: int, rng: np.random.Generator
) -> np.ndarray:
    """Independent copies of the block sums sum_i weights[b, i] X_i, exactly in law.

    X_1, ..., X_m are iid rows of ``spec`` coordinates, and the k rows of
    ``weights`` (k x m) have disjoint supports.  The copies go in chunks of
    about _COPY_CHUNK_VALUES values, counting k * dim per copy for gaussian
    X and m * dim otherwise; the chunks fix the stream.  A gaussian scale
    mixture draws each chunk exactly (``_mixture_block_sums``); another law
    draws the chunk's rows and sums each block's weighted rows in row order.
    Returns an array k x copies x dim.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or np.any(np.count_nonzero(w, axis=0) > 1):
        raise ValueError("weights must be a k x m matrix whose rows have disjoint supports")
    per_copy = (len(w) if spec.family == "gaussian" else w.shape[1]) * spec.dim
    step = max(1, _COPY_CHUNK_VALUES // per_copy)
    out = np.empty((len(w), copies, spec.dim))
    for done in range(0, copies, step):
        take = min(step, copies - done)
        if spec.family in GAUSSIAN_MIXTURES:
            out[:, done:done + take] = _mixture_block_sums(spec, w, take, rng)
        else:
            X = sample_coordinates(spec, (take, w.shape[1], spec.dim), rng)
            for b, row in enumerate(w):
                rows = np.flatnonzero(row)
                out[b, done:done + take] = (row[rows, None] * X.take(rows, axis=1)).sum(axis=1)
    return out


def _mixture_block_sums(spec: DistributionSpec, w: np.ndarray, copies: int, rng) -> np.ndarray:
    """One chunk of ``sample_block_sums`` for gaussian or Student-t X.

    Given the mixing variances W, block b is scale * sqrt(sum_i w[b, i]^2
    W_i) times one gaussian, independent over blocks: one Gamma(df / 2)
    per (row, coordinate) of the rows in some block, none for gaussian X,
    then one gaussian per (block, coordinate).  The Gamma values are drawn
    a few rows at a time, never across blocks, into one buffer of about
    _MIXING_BLOCK_VALUES values, and added to their block's variances in
    row order: the same bits as drawing and summing them all at once.
    """
    c2 = np.square(w)
    if spec.family == "gaussian":
        var = c2.sum(axis=1)[:, None, None]
    else:  # student_t: W = df/2 / Gamma(df/2), drawn for the rows of each block in turn
        block, row = np.nonzero(c2)
        half = 0.5 * spec.tail_param
        row_weights = half * c2[block, row]
        ends = np.searchsorted(block, np.arange(len(c2)), side="right")
        var = np.zeros((len(c2), copies, spec.dim))
        step = max(1, _MIXING_BLOCK_VALUES // max(1, copies * spec.dim))
        # buf[0] holds a block's running sum (from an exact 0, as 0 + W = W),
        # buf[1:] the W of its next rows
        buf = np.empty((min(step, len(row)) + 1, copies, spec.dim))
        for b, (lo, hi) in enumerate(zip([0, *ends], ends)):
            for start in range(lo, hi, step):
                stop = min(start + step, hi)
                W = buf[1:1 + stop - start]
                rng.standard_gamma(half, out=W)
                np.reciprocal(W, out=W)
                W *= row_weights[start:stop, None, None]
                buf[0] = var[b]
                np.add.reduce(buf[:1 + stop - start], axis=0, out=var[b])
    out = rng.standard_normal((len(c2), copies, spec.dim))
    out *= np.sqrt(var, out=var)
    if spec.scale != 1.0:
        out *= spec.scale
    return out


def _sample_multipliers(noise: NoiseSpec, N: int, path: SeedPath):
    """(xi, eps) of one batch, from the substreams tagged "xi" and "eps"."""
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    xi = sample_noise(noise, N, rng_from_path(path, "xi"))
    eps = 2.0 * rng_from_path(path, "eps").integers(0, 2, size=N).astype(np.float64) - 1.0
    return xi, eps


def sample_batch(
    spec: DistributionSpec,
    noise: NoiseSpec,
    N: int,
    seed_path: SeedPath,
) -> SampleBatch:
    """Draw one batch; a pure function of (spec, noise, N, seed_path).

    X, xi and eps come from the independent substreams tagged "X", "xi"
    and "eps" of ``seed_path``.
    """
    xi, eps = _sample_multipliers(noise, N, seed_path)
    X = sample_coordinates(spec, (N, spec.dim), rng_from_path(seed_path, "X"))
    return SampleBatch(X=X, xi=xi, eps=eps)


def empirical_lq_norms(samples: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Empirical L_q norms (mean |s|^q)^(1/q), stable against overflow.

    Powers are taken after dividing by max|s|, so the largest ratio is 1
    and the result scales exactly with the data for power-of-two factors.
    """
    a = np.abs(np.asarray(samples, dtype=np.float64)).ravel()
    if a.size == 0:
        raise ValueError("empty sample set")
    top = a.max()
    if top == 0.0:
        return np.zeros(len(qs))
    r = a / top
    out = np.empty(len(qs))
    for i, q in enumerate(qs):
        out[i] = top * np.mean(r**q) ** (1.0 / q)
    return out


def moment_cap(n_samples: int) -> int:
    """Highest moment order trusted from n_samples draws: ceil(2 ln m)."""
    return max(1, math.ceil(2.0 * math.log(n_samples)))


def moment_growth_profile(
    spec: DistributionSpec,
    p: int,
    n_samples: int,
    seed_path: SeedPath,
) -> list[tuple[int, float]]:
    """Per-q empirical ratios ||x_1||_{L_q}/sqrt(q) for q = 1..min(p, cap)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    samples = sample_coordinates(spec, n_samples, rng_from_path(seed_path, "X"))
    qs = np.arange(1, min(int(p), moment_cap(n_samples)) + 1)
    ratios = empirical_lq_norms(samples, qs) / np.sqrt(qs)
    return [(int(q), float(rat)) for q, rat in zip(qs, ratios)]

"""Random kernel sections and localized-width fixed points.

For an index set V and a threshold gamma*sqrt(m), the gaussian fixed point
r_G is the smallest radius r with  l*(V cap rB2) <= gamma * r * sqrt(m);
r_X replaces the gaussian width by the empirical-process width of an
arbitrary isotropic ensemble.  Each fixed point draws its Monte-Carlo
sample once and bisects on it: for r_G the gaussians that
``gaussian_mean_width`` draws on the same seed path (the blocks of
``geometry._gaussian_blocks``, joined), for r_X the normalized sums
m^{-1/2} sum_i X_i that ``empirical_process_width`` draws.  On a fixed
sample phi(r) = width(r)/r is nonincreasing, because each sample's support
is concave in r and 0 at r = 0, so the bisection is exact on the sample;
``confident`` says whether the bracket also holds within 3 Monte-Carlo
standard errors.

``kernel_section_diameter`` draws an m x n measurement matrix, forms the
orthogonal projector onto its kernel from one reduced QR factorization of
its transpose, and certifies a lower bound on diam(ker cap V) by rescaling
all probe directions to the boundary of V at once through the exact gauge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, sample_coordinates
from .geometry import IndexSetSpec, WidthEstimate, d2, gauge_batch, localized_support_batch
from .geometry import _gaussian_blocks, _make_width_estimate, support_curve
from .streams import SeedPath, as_seed_path, child_path, rng_from_path


@dataclass(frozen=True)
class FixedPointResult:
    """Bisection output: bracket, width estimate at r_star, confidence."""

    r_star: float
    gamma: float
    m: int
    bracket: tuple[float, float]
    width_at_r: WidthEstimate
    confident: bool
    bracketed: bool


def _normalized_sums(
    dist: DistributionSpec, dim: int, m: int, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """draws x dim normalized sums m^{-1/2} sum_{i<=m} X_i, sampled in chunks."""
    if draws < 2:
        raise ValueError("draws must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    sums = np.empty((draws, dim))
    chunk = max(1, 4_000_000 // (m * dim))
    inv_sqrt_m = 1.0 / math.sqrt(m)
    for done in range(0, draws, chunk):
        take = min(chunk, draws - done)
        X = sample_coordinates(dist, (take, m, dim), rng)
        sums[done:done + take] = X.sum(axis=1) * inv_sqrt_m
    return sums


def empirical_process_width(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    m: int,
    draws: int,
    localized_radius: float | None = None,
    seed_path: int | SeedPath = (0,),
) -> WidthEstimate:
    """Monte-Carlo E sup_{v in V cap rB2} |<m^{-1/2} sum_i X_i, v>|.

    The inner normalized sum is a single vector per draw, so each support
    value is exact.
    """
    sums = _normalized_sums(dist, spec.dim, m, draws, rng_from_path(seed_path, "X"))
    return _make_width_estimate(
        localized_support_batch(spec, sums, localized_radius), spec, localized_radius
    )


def _width_curve(spec: IndexSetSpec, sample: np.ndarray):
    """r -> width of V cap rB2 on one fixed sample (rows), memoised on r.

    For each row z, r -> sup_{V cap rB2} |<v, z>| is concave with value 0
    at r = 0, so width(r)/r is nonincreasing in r on the sample.  The sample
    is sorted once, and each radius costs one pass of ``support_curve``.
    """
    if len(sample) < 2:
        raise ValueError("draws must be >= 2")
    support = support_curve(spec, sample)

    @functools.cache
    def width(r: float) -> WidthEstimate:
        return _make_width_estimate(support(r), spec, r)

    return width


def _fixed_point(width_fn, spec, gamma, m, tol) -> FixedPointResult:
    """Bisection on r for the predicate width(r) <= gamma * r * sqrt(m).

    ``width_fn`` evaluates one fixed sample, so the predicate is monotone
    in r and the bracket is exact for that sample.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    threshold = gamma * math.sqrt(m)

    r_hi = d2(spec)
    est_hi = width_fn(r_hi)
    if est_hi.mean > threshold * r_hi:
        # not bracketable: even the full set fails the width condition
        return FixedPointResult(
            r_star=r_hi,
            gamma=gamma,
            m=m,
            bracket=(r_hi, r_hi),
            width_at_r=est_hi,
            confident=False,
            bracketed=False,
        )

    r_lo = 0.0
    est_lo = None
    while r_hi - r_lo > tol:
        mid = 0.5 * (r_lo + r_hi)
        est = width_fn(mid)
        if est.mean <= threshold * mid:
            r_hi, est_hi = mid, est
        else:
            r_lo, est_lo = mid, est

    confident = est_hi.mean + 3.0 * est_hi.std_error <= threshold * r_hi
    if est_lo is not None:
        confident = confident and (est_lo.mean - 3.0 * est_lo.std_error >= threshold * r_lo)
    return FixedPointResult(
        r_star=r_hi,
        gamma=gamma,
        m=m,
        bracket=(r_lo, r_hi),
        width_at_r=est_hi,
        confident=bool(confident),
        bracketed=True,
    )


def r_G_fixed_point(
    spec: IndexSetSpec,
    gamma: float,
    m: int,
    tol: float,
    draws: int,
    seed_path: int | SeedPath = (0,),
) -> FixedPointResult:
    """Smallest r (within tol) with gaussian width of V cap rB2 <= gamma r sqrt(m).

    Every radius is evaluated on the one gaussian sample that
    ``gaussian_mean_width(spec, draws, r, seed_path)`` draws, its blocks
    from ``geometry._gaussian_blocks`` joined into one array.
    """
    sample = np.concatenate(list(_gaussian_blocks(spec.dim, draws, seed_path)))
    return _fixed_point(_width_curve(spec, sample), spec, gamma, m, tol)


def r_X_fixed_point(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    gamma: float,
    m: int,
    tol: float,
    draws: int,
    seed_path: int | SeedPath = (0,),
) -> FixedPointResult:
    """Same fixed point with the empirical-process width of the X ensemble.

    Every radius is evaluated on the one sample of normalized sums that
    ``empirical_process_width(dist, spec, m, draws, r, seed_path)`` draws.
    """
    if dist.dim != spec.dim:
        raise ValueError("distribution and index set dimension mismatch")
    sums = _normalized_sums(dist, spec.dim, m, draws, rng_from_path(seed_path, "X"))
    return _fixed_point(_width_curve(spec, sums), spec, gamma, m, tol)


# ---------------------------------------------------------------------------
# kernel sections

@dataclass(frozen=True)
class KernelDiameterResult:
    """Certified lower bound on diam(ker(Gamma) cap V)."""

    lower_bound: float
    kernel_dim: int
    rank_deficient: bool
    m: int


def _extreme_direction(spec: IndexSetSpec) -> np.ndarray:
    """A direction along which V attains its Euclidean radius."""
    n = spec.dim
    if spec.family == "permutation_polytope":
        return np.array(spec.w, dtype=np.float64)
    e1 = np.zeros(n)
    e1[0] = 1.0
    return e1


def _kernel_projector(Gamma: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthogonal projector P onto ker(Gamma), and the rank of Gamma.

    One reduced QR of Gamma^T: a row of Gamma is independent of the rows
    before it exactly when its diagonal entry of R is nonzero, counted
    against max(m, n) * eps * max|diag R|.  With full row rank the columns
    of Q span the row space; otherwise the independent rows are factored
    again.  P = I - Q_r Q_r^T.
    """
    m, n = Gamma.shape
    Q, R = np.linalg.qr(Gamma.T)
    diag = np.abs(np.diag(R))
    independent = diag > max(m, n) * np.finfo(np.float64).eps * diag.max(initial=0.0)
    rank = int(np.count_nonzero(independent))
    if rank < m:
        Q = np.linalg.qr(Gamma[independent].T)[0]
    return np.eye(n) - Q @ Q.T, rank


def kernel_section_diameter(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    m: int,
    probes: int = 1000,
    seed_path: int | SeedPath = (0,),
) -> KernelDiameterResult:
    """Lower-bound diam(ker(Gamma) cap V) over probe directions.

    Probes, all projected onto the kernel by P: gaussian vectors (with the
    law of a gaussian in the kernel), every 1-sparse vector (the columns of
    P), sampled 2-sparse sign vectors (the classical extremizers for the l1
    ball), and a d2-attaining direction.  Each probe is rescaled to the
    boundary of V with the exact gauge; the bound is 2 * max ||probe||
    after rescaling.
    """
    n = spec.dim
    if dist.dim != n:
        raise ValueError("distribution and index set dimension mismatch")
    if m >= n:
        raise ValueError("m must be < dim so the kernel is nontrivial")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    path = as_seed_path(seed_path)

    if m == 0:
        P, rank = np.eye(n), 0
    else:
        P, rank = _kernel_projector(sample_coordinates(dist, (m, n), rng_from_path(path, "X")))

    rng = rng_from_path(path, "probe")
    g = rng.standard_normal((n, probes))
    pairs = rng.integers(0, n, size=(probes, 2))
    signs = 2.0 * rng.integers(0, 2, size=probes) - 1.0
    two_sparse = P[:, pairs[:, 0]] + signs * P[:, pairs[:, 1]]
    # one probe per row, C-ordered so that each row reduces as gauge(spec, row) does
    C = np.ascontiguousarray(np.concatenate(
        [P @ g, P, two_sparse, (P @ _extreme_direction(spec))[:, None]], axis=1
    ).T)

    norms = np.linalg.norm(C, axis=1)
    gauges = gauge_batch(spec, C)
    ok = (norms > 1e-14) & np.isfinite(gauges) & (gauges > 0)
    scaled = np.divide(norms, gauges, out=np.zeros_like(norms), where=ok)
    return KernelDiameterResult(
        lower_bound=2.0 * float(scaled.max(initial=0.0)),
        kernel_dim=n - rank,
        rank_deficient=rank < m,
        m=m,
    )


def calibrate_kernel_constant(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    m: int,
    calibration_draws: int,
    seed_path: int | SeedPath,
    probes: int = 1000,
    width_draws: int = 2000,
    tol_factor: float = 1e-3,
    margin: float = 1.05,
) -> float:
    """Fit the width-condition constant from one calibration run.

    Finds (by bisection over gamma) the largest gamma whose fixed-point
    radius satisfies 2*r_G >= margin * max of the calibration kernel
    diameters; freezing the returned value leaves fresh draws above
    2*r_G(V, gamma) only in the tail beyond the margin.
    """
    path = as_seed_path(seed_path)
    lbs = [
        kernel_section_diameter(dist, spec, m, probes, child_path(path, i)).lower_bound
        for i in range(calibration_draws)
    ]
    target = margin * float(np.max(lbs))
    tol = tol_factor * d2(spec)

    # one gaussian sample for every gamma: the bisections revisit the same
    # dyadic radii, so most widths come from the memo
    blocks = _gaussian_blocks(spec.dim, width_draws, child_path(path, 10_000))
    width = _width_curve(spec, np.concatenate(list(blocks)))

    def two_r_g(gamma: float) -> float:
        return 2.0 * _fixed_point(width, spec, gamma, m, tol).r_star

    g_lo, g_hi = 1e-3, 64.0
    if two_r_g(g_lo) < target:
        return g_lo
    while two_r_g(g_hi) >= target and g_hi < 1e6:
        g_hi *= 2.0
    for _ in range(40):
        mid = math.sqrt(g_lo * g_hi)
        if two_r_g(mid) >= target:
            g_lo = mid
        else:
            g_hi = mid
    return g_lo

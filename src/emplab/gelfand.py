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
standard errors; a bisection that finds no failing radius collapses toward
0 and is not confident.

Every m of a grid is read off one sample.  ``r_G_fixed_points`` bisects
one gaussian width curve against each threshold gamma*sqrt(m);
``r_X_fixed_points`` takes the sums at every m from one nested sample
(one ``sample_block_sums`` block per grid increment).

``kernel_section_diameters`` draws one m_max x n measurement matrix, and
each m reads its first m rows: one reduced QR factorization of the
transpose gives the orthogonal projector P onto every prefix's kernel.  One
probe set is projected onto each kernel and rescaled to the boundary of V
through the exact gauge, which certifies a lower bound on diam(ker cap V);
P is symmetric, so a projected probe P x is the row x^T P of one batch.
The kernels are nested, so the bound at m is the largest at any m' >= m.
The one-m functions (``r_G_fixed_point``, ``r_X_fixed_point``,
``empirical_process_width``, ``kernel_section_diameter``) are the grids of
one m, and read the sample that one m alone draws.

``calibrate_kernel_constant`` reads gamma off one gaussian sample: since
phi is nonincreasing there, r_G reaches a target radius rho exactly when
gamma * sqrt(m) <= phi(rho).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, sample_block_sums, sample_coordinates
from .geometry import IndexSetSpec, WidthEstimate, d2, gauge_batch, localized_support_batch
from .geometry import _gaussian_blocks, _make_width_estimate, support_curve
from .streams import SeedPath, rng_from_path


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
    dist: DistributionSpec, ms: list[int], draws: int, rng: np.random.Generator
) -> np.ndarray:
    """The draws x dim normalized sums m^{-1/2} sum_{i<=m} X_i at every m of ms.

    ``ms`` is strictly increasing, and the sums are nested: every m adds
    the row block (m', m] between grid values.  ``sample_block_sums`` draws
    the block sums of every increment, exactly in law, and the running sums
    over them give each m.  Returns an array len(ms) x draws x dim.
    """
    if draws < 2:
        raise ValueError("draws must be >= 2")
    if ms[0] < 1:
        raise ValueError("m must be >= 1")
    increments = np.zeros((len(ms), ms[-1]))
    for k, (lo, hi) in enumerate(zip([0, *ms], ms)):
        increments[k, lo:hi] = 1.0
    sums = sample_block_sums(dist, increments, draws, rng)
    for k in range(1, len(ms)):
        sums[k] += sums[k - 1]
    sums *= (1.0 / np.sqrt(ms))[:, None, None]
    return sums


def empirical_process_width(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    m: int,
    draws: int,
    localized_radius: float | None = None,
    *,
    seed_path: SeedPath,
) -> WidthEstimate:
    """Monte-Carlo E sup_{v in V cap rB2} |<m^{-1/2} sum_i X_i, v>|.

    The inner normalized sum is a single vector per draw, so each support
    value is exact.
    """
    sums = _normalized_sums(dist, [m], draws, rng_from_path(seed_path, "X"))[0]
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

    # with no failing radius found (est_lo None) the bisection collapsed toward 0, and
    # r_star = d2 / 2^k is set by tol, not by the sample
    confident = (est_lo is not None
                 and est_hi.mean + 3.0 * est_hi.std_error <= threshold * r_hi
                 and est_lo.mean - 3.0 * est_lo.std_error >= threshold * r_lo)
    return FixedPointResult(
        r_star=r_hi,
        gamma=gamma,
        m=m,
        bracket=(r_lo, r_hi),
        width_at_r=est_hi,
        confident=bool(confident),
        bracketed=True,
    )


def _grid(ms) -> list[int]:
    """The distinct values of ms, increasing."""
    return sorted(set(int(m) for m in ms))


def r_G_fixed_points(
    spec: IndexSetSpec,
    gamma: float,
    ms,
    tol: float,
    draws: int,
    seed_path: SeedPath,
) -> list[FixedPointResult]:
    """``r_G_fixed_point`` at every m of ms, in order, all on one gaussian sample.

    Only the threshold gamma * sqrt(m) depends on m, so one memoised width
    curve serves every bisection.
    """
    sample = np.concatenate(list(_gaussian_blocks(spec.dim, draws, seed_path)))
    width = _width_curve(spec, sample)
    return [_fixed_point(width, spec, gamma, m, tol) for m in ms]


def r_G_fixed_point(
    spec: IndexSetSpec,
    gamma: float,
    m: int,
    tol: float,
    draws: int,
    seed_path: SeedPath,
) -> FixedPointResult:
    """Smallest r (within tol) with gaussian width of V cap rB2 <= gamma r sqrt(m).

    Every radius is evaluated on the one gaussian sample that
    ``gaussian_mean_width(spec, draws, r, seed_path=seed_path)`` draws,
    its blocks from ``geometry._gaussian_blocks`` joined into one array.
    """
    return r_G_fixed_points(spec, gamma, [m], tol, draws, seed_path)[0]


def r_X_fixed_points(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    gamma: float,
    ms,
    tol: float,
    draws: int,
    seed_path: SeedPath,
) -> list[FixedPointResult]:
    """``r_X_fixed_point`` at every m of ms, in order, on one nested sample.

    The normalized sums at every m come from one sample (``_normalized_sums``
    over the distinct values of ms); each m bisects on its own sums.
    """
    if dist.dim != spec.dim:
        raise ValueError("distribution and index set dimension mismatch")
    grid = _grid(ms)
    sums = _normalized_sums(dist, grid, draws, rng_from_path(seed_path, "X"))
    at = {m: _fixed_point(_width_curve(spec, s), spec, gamma, m, tol) for m, s in zip(grid, sums)}
    return [at[m] for m in ms]


def r_X_fixed_point(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    gamma: float,
    m: int,
    tol: float,
    draws: int,
    seed_path: SeedPath,
) -> FixedPointResult:
    """Same fixed point with the empirical-process width of the X ensemble.

    Every radius is evaluated on the one sample of normalized sums that
    ``empirical_process_width(dist, spec, m, draws, r, seed_path=seed_path)``
    draws.
    """
    return r_X_fixed_points(dist, spec, gamma, [m], tol, draws, seed_path)[0]


# ---------------------------------------------------------------------------
# kernel sections

@dataclass(frozen=True)
class KernelDiameterResult:
    """Certified lower bound on diam(ker(Gamma) cap V)."""

    lower_bound: float
    kernel_dim: int
    rank_deficient: bool
    m: int


def _kernel_projectors(Gamma: np.ndarray, ms: list[int]) -> list[tuple[np.ndarray, int]]:
    """(P, rank) for the first m rows of Gamma, at every m of the increasing ms.

    P is the orthogonal projector onto the kernel of those rows.  One
    reduced QR of Gamma^T serves every prefix, since the first m columns of
    Q and R factor its first m columns: a row is independent of the rows
    before it exactly when its diagonal entry of R is nonzero, counted
    against max(m, n) * eps * max|diag R[:m]|.  With a full-rank prefix the
    first m columns of Q span its row space; otherwise the prefix's
    independent rows are factored again.  P = I - Q_r Q_r^T, exactly
    symmetric: numpy forms Q_r Q_r^T as a symmetric rank-r product.
    """
    n = Gamma.shape[1]
    if ms[-1] > 0:
        Q, R = np.linalg.qr(Gamma[:ms[-1]].T)
        diag = np.abs(np.diag(R))
    out = []
    for m in ms:
        if m == 0:
            out.append((np.eye(n), 0))
            continue
        independent = diag[:m] > max(m, n) * np.finfo(np.float64).eps * diag[:m].max()
        rank = int(np.count_nonzero(independent))
        Q_r = Q[:, :m] if rank == m else np.linalg.qr(Gamma[:m][independent].T)[0]
        out.append((np.eye(n) - Q_r @ Q_r.T, rank))
    return out


def kernel_section_diameters(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    ms,
    probes: int,
    seed_path: SeedPath,
) -> list[KernelDiameterResult]:
    """``kernel_section_diameter`` at every m of ms, in order, on one draw.

    One m_max x n measurement matrix is drawn, and m reads its first m
    rows; one probe set (listed at ``kernel_section_diameter``) is drawn
    and projected onto every kernel.  For m < m' the kernel of the first m'
    rows lies in that of the first m, so every certificate at m' is one at
    m: the bound at m is the largest over m' >= m, nonincreasing in m.
    With one m this is ``kernel_section_diameter``.
    """
    n = spec.dim
    if dist.dim != n:
        raise ValueError("distribution and index set dimension mismatch")
    grid = _grid(ms)
    if grid[0] < 0 or grid[-1] >= n:
        raise ValueError("m must be in [0, dim) so the kernel is nontrivial")
    if probes < 1:
        raise ValueError("probes must be >= 1")

    Gamma = (sample_coordinates(dist, (grid[-1], n), rng_from_path(seed_path, "X"))
             if grid[-1] > 0 else np.empty((0, n)))
    rng = rng_from_path(seed_path, "probe")
    g = rng.standard_normal((n, probes))
    pairs = rng.integers(0, n, size=(probes, 2))
    signs = 2.0 * rng.integers(0, 2, size=probes) - 1.0

    bounds, ranks = [], []
    for P, rank in _kernel_projectors(Gamma, grid):
        # one probe per row; P is symmetric, so its rows are its columns
        kernel_probes = [(P @ g).T, P, P[pairs[:, 0]] + signs[:, None] * P[pairs[:, 1]]]
        if spec.family == "permutation_polytope":
            # V attains its Euclidean radius at w; the other families attain theirs
            # at a basis vector, whose probe is a row of P
            kernel_probes.append((P @ np.array(spec.w, dtype=np.float64))[None, :])
        C = np.concatenate(kernel_probes)
        norms = np.linalg.norm(C, axis=1)
        gauges = gauge_batch(spec, C)
        ok = (norms > 1e-14) & np.isfinite(gauges) & (gauges > 0)
        scaled = np.divide(norms, gauges, out=np.zeros_like(norms), where=ok)
        bounds.append(2.0 * float(scaled.max(initial=0.0)))
        ranks.append(rank)
    # nested kernels: the bound at m is the largest at any m' >= m
    for k in range(len(grid) - 2, -1, -1):
        bounds[k] = max(bounds[k], bounds[k + 1])
    at = {m: KernelDiameterResult(lower_bound=lb, kernel_dim=n - rank,
                                  rank_deficient=rank < m, m=m)
          for m, lb, rank in zip(grid, bounds, ranks)}
    return [at[m] for m in ms]


def kernel_section_diameter(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    m: int,
    probes: int,
    seed_path: SeedPath,
) -> KernelDiameterResult:
    """Lower-bound diam(ker(Gamma) cap V) over probe directions.

    Probes, all projected onto the kernel by P: gaussian vectors (with the
    law of a gaussian in the kernel), every 1-sparse vector (the rows of
    the symmetric P), sampled 2-sparse sign vectors (the classical
    extremizers for the l1 ball) and, for the permutation polytope, w,
    along which it attains its Euclidean radius (the other families attain
    theirs at a basis vector, whose probe is a row of P).  Each probe is
    rescaled to the boundary of V with the exact gauge; the bound is
    2 * max ||probe|| after rescaling.
    """
    return kernel_section_diameters(dist, spec, [m], probes, seed_path)[0]


def calibrate_kernel_constant(
    dist: DistributionSpec,
    spec: IndexSetSpec,
    m: int,
    calibration_draws: int,
    seed_path: SeedPath,
    probes: int = 1000,
    width_draws: int = 2000,
    margin: float = 1.05,
) -> float:
    """Fit the width-condition constant from one calibration run.

    Returns the largest gamma whose fixed-point radius on one gaussian
    sample reaches rho = min(margin * max of the calibration kernel
    diameters / 2, d2(V)), so that 2*r_G >= margin * max diameter; freezing
    it leaves fresh draws above 2*r_G(V, gamma) only in the tail beyond the
    margin.  On the sample phi(r) = width(r)/r is nonincreasing, so
    r_G >= rho exactly when gamma * sqrt(m) <= phi(rho): the constant is
    phi(rho) / sqrt(m), read off the sample with no search over gamma.
    """
    lbs = [kernel_section_diameter(dist, spec, m, probes, (*seed_path, i)).lower_bound
           for i in range(calibration_draws)]
    rho = min(margin * float(np.max(lbs)) / 2.0, d2(spec))
    blocks = _gaussian_blocks(spec.dim, width_draws, (*seed_path, 10_000))
    width = _width_curve(spec, np.concatenate(list(blocks)))
    return width(rho).mean / (rho * math.sqrt(m))

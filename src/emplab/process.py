"""Multiplier-process statistics and their realization-level diagnostics.

For a batch (X_i, xi_i, eps_i)_{i<=N} and an index set V, the key objects
are the coordinate sums

    Z_j = N^{-1/2} sum_i eps_i xi_i X_i[j],

whose support value over V equals the symmetrized process supremum
exactly, the centred supremum sup_v |N^{-1/2} sum_i (xi_i <X_i,v> -
E xi <X,v>)|, the rearranged-noise event

    A_u = { xi*_i <= u ||xi||_{L_q0} (eN/i)^{1/q0}  for all i },

and the smallest constant making a sqrt(log(en/j)) envelope hold for the
non-increasing rearrangement of |Z|.

The statistics see X only through its sums (``MultiplierSums``), and
``stats_from_sums`` computes them: from a batch's own sums
(``multiplier_stats``) or from a trial's sums drawn by ``multiplier_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import DistributionSpec, NoiseSpec, SampleBatch, _sample_multipliers
from .distributions import sample_block_sums
from .geometry import IndexSetSpec, support_batch
from .streams import SeedPath, rng_from_path

DEFAULT_U_GRID = (2.0, 4.0, 8.0)


@dataclass(frozen=True)
class ProcessStats:
    """Per-trial multiplier-process statistics."""

    sup_centred: float
    sup_symmetrized: float
    Z: np.ndarray
    Z_sorted: np.ndarray
    A_u_holds: dict
    envelope_constant: float


class MultiplierSums(NamedTuple):
    """Z = N^{-1/2} sum_i eps_i xi_i X_i, centred = N^{-1/2} sum_i xi_i X_i, and xi."""

    Z: np.ndarray
    centred: np.ndarray
    xi: np.ndarray


def check_A_u(xi: np.ndarray, q0: float, lq_norm: float, u: float) -> bool:
    """True iff the rearranged |xi| stays below u*lq_norm*(eN/i)^(1/q0)."""
    if u < 2.0:
        raise ValueError("u must be >= 2")
    if q0 <= 2.0:
        raise ValueError("q0 must be > 2")
    if not (lq_norm > 0.0):
        raise ValueError("a positive L_{q0} norm for the noise is required")
    xs = np.sort(np.abs(np.asarray(xi, dtype=np.float64)))[::-1]
    N = xs.size
    i = np.arange(1, N + 1, dtype=np.float64)
    bound = u * lq_norm * (math.e * N / i) ** (1.0 / q0)
    return bool(np.all(xs <= bound))


def order_stat_envelope(Z_sorted: np.ndarray) -> float:
    """Smallest C with Z*_j <= C * sqrt(log(en/j)) for this realization, n = Z_sorted.size."""
    Zs = np.asarray(Z_sorted, dtype=np.float64)
    n = Zs.size
    if np.any(np.diff(Zs) > 1e-12 * max(1.0, float(np.abs(Zs).max(initial=0.0)))):
        raise ValueError("Z_sorted must be non-increasing")
    j = np.arange(1, n + 1, dtype=np.float64)
    denom = np.sqrt(np.log(math.e * n / j))
    return float((Zs / denom).max())


def multiplier_sums(
    x: DistributionSpec, noise: NoiseSpec, N: int, seed_path: SeedPath
) -> MultiplierSums:
    """One trial's sums; xi and eps are those of ``sample_batch``.

    The "X" stream draws the block sums S+ and S- of N^{-1/2} xi_i X_i
    over the rows with eps = +1 and -1 (``sample_block_sums``): Z = S+ - S-
    and centred = S+ + S-.  For a law that is not a gaussian scale mixture
    these are sums of the X that ``sample_batch`` draws.
    """
    xi, eps = _sample_multipliers(noise, N, seed_path)
    plus = eps > 0
    weights = np.stack([np.where(plus, xi, 0.0), np.where(plus, 0.0, xi)]) / math.sqrt(N)
    s_plus, s_minus = sample_block_sums(x, weights, 1, rng_from_path(seed_path, "X"))[:, 0]
    return MultiplierSums(Z=s_plus - s_minus, centred=s_plus + s_minus, xi=xi)


def stats_from_sums(
    sums: MultiplierSums,
    spec: IndexSetSpec,
    noise: NoiseSpec,
    u_grid=DEFAULT_U_GRID,
) -> ProcessStats:
    """Compute the per-trial process statistics from one trial's sums.

    The centring term E xi <X,v> is zero exactly whenever xi*X is
    symmetric, which holds for every generated pair (all coordinate laws
    are symmetric), so the centred process is N^{-1/2} sum_i xi_i X_i.
    """
    n = sums.Z.size
    if spec.dim != n:
        raise ValueError(f"index set dim {spec.dim} != sums dim {n}")
    a_u = {float(u): check_A_u(sums.xi, noise.q0, noise.lq_norm, float(u)) for u in u_grid}
    Z_sorted = np.sort(np.abs(sums.Z))[::-1]
    sup_centred, sup_symmetrized = support_batch(spec, np.stack([sums.centred, sums.Z]))
    return ProcessStats(
        sup_centred=float(sup_centred),
        sup_symmetrized=float(sup_symmetrized),
        Z=sums.Z,
        Z_sorted=Z_sorted,
        A_u_holds=a_u,
        envelope_constant=order_stat_envelope(Z_sorted),
    )


def multiplier_stats(
    batch: SampleBatch,
    spec: IndexSetSpec,
    noise: NoiseSpec,
    u_grid=DEFAULT_U_GRID,
) -> ProcessStats:
    """The per-trial process statistics of one batch, from its own sums."""
    sqrt_n_obs = math.sqrt(batch.N)
    sums = MultiplierSums(Z=batch.X.T @ (batch.eps * batch.xi) / sqrt_n_obs,
                          centred=batch.X.T @ batch.xi / sqrt_n_obs, xi=batch.xi)
    return stats_from_sums(sums, spec, noise, u_grid)


def ratio_statistic(sup_centred: float, width: float, noise: NoiseSpec) -> float:
    """sup_centred normalized by ||xi||_{L_q0} * width; the bounded quantity.

    ``width`` is l*(V), exact (``geometry.gaussian_width``) or the mean of a
    Monte-Carlo estimate.
    """
    if not (width > 0.0):
        raise ValueError("degenerate index set: its width is not positive")
    if not (noise.lq_norm > 0.0):
        raise ValueError("noise lq_norm must be positive")
    return sup_centred / (noise.lq_norm * width)

"""emplab: a numerical laboratory for heavy-tailed multiplier processes.

Subgaussian-looking behaviour of empirical and multiplier processes
indexed by coordinate-symmetric sets, when the coordinate law has only a
logarithmic-in-dimension number of well-behaved moments.  The package
provides:

- ``distributions``: isotropic samplers with prescribed moment growth,
  noise multipliers with a target L_{q0} norm, moment-growth diagnostics;
- ``geometry``: exact support functions for five coordinate-symmetric
  families, Monte-Carlo gaussian mean widths (optionally localized to a
  Euclidean ball), exact ones for the l1 and l2 balls;
- ``process``: the multiplier-process supremum, its symmetrized form, the
  rearranged-noise event A_u, order-statistic envelopes, and the
  normalized ratio statistic;
- ``recovery``: basis pursuit and LASSO with the rate-driven penalty;
- ``gelfand``: localized-width fixed points and kernel-section diameter
  experiments for random measurement matrices;
- ``harness``: the deterministic batch runner behind the ``lab`` CLI.
"""

from ._version import __version__
from .distributions import (
    ConfigurationError,
    DistributionSpec,
    NoiseSpec,
    SampleBatch,
    canonical_heavy_tail_spec,
    empirical_p_norm,
    moment_growth_profile,
    sample_batch,
    sample_block_sums,
)
from .gelfand import (
    FixedPointResult,
    KernelDiameterResult,
    empirical_process_width,
    kernel_section_diameter,
    kernel_section_diameters,
    r_G_fixed_point,
    r_G_fixed_points,
    r_X_fixed_point,
    r_X_fixed_points,
)
from .geometry import (
    IndexSetSpec,
    WidthEstimate,
    d2,
    gauge,
    gaussian_mean_width,
    gaussian_mean_widths,
    gaussian_width,
    l1_ball,
    l1_cap_l2,
    l2_ball,
    permutation_polytope,
    sparse_cap,
    support,
)
from .harness import ExperimentConfig, ExperimentManifest, run, summarize
from .process import (
    ProcessStats,
    check_A_u,
    multiplier_stats,
    multiplier_sums,
    order_stat_envelope,
    ratio_statistic,
    stats_from_sums,
)
from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    basis_pursuit,
    rate_penalty,
    lasso,
    make_recovery_problem,
    make_recovery_problems,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "DistributionSpec",
    "NoiseSpec",
    "SampleBatch",
    "canonical_heavy_tail_spec",
    "empirical_p_norm",
    "moment_growth_profile",
    "sample_batch",
    "sample_block_sums",
    "IndexSetSpec",
    "WidthEstimate",
    "d2",
    "gauge",
    "gaussian_mean_width",
    "gaussian_mean_widths",
    "gaussian_width",
    "l1_ball",
    "l1_cap_l2",
    "l2_ball",
    "permutation_polytope",
    "sparse_cap",
    "support",
    "ProcessStats",
    "check_A_u",
    "multiplier_stats",
    "multiplier_sums",
    "order_stat_envelope",
    "ratio_statistic",
    "stats_from_sums",
    "RecoveryProblem",
    "RecoveryResult",
    "basis_pursuit",
    "rate_penalty",
    "lasso",
    "make_recovery_problem",
    "make_recovery_problems",
    "FixedPointResult",
    "KernelDiameterResult",
    "empirical_process_width",
    "kernel_section_diameter",
    "kernel_section_diameters",
    "r_G_fixed_point",
    "r_G_fixed_points",
    "r_X_fixed_point",
    "r_X_fixed_points",
    "ExperimentConfig",
    "ExperimentManifest",
    "run",
    "summarize",
]

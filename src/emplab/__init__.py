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

Each public name is imported from the module that defines it, e.g.
``from emplab.geometry import l1_ball``; the package itself exports only
``__version__``.
"""

from ._version import __version__

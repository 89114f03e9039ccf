"""The width-condition constant of criterion 10, fitted from one calibration run.

No experiment fits a constant; criterion 10 and ``tests/test_gelfand.py``
do, on the library's many-m kernel certificate and its gaussian widths.
"""

from __future__ import annotations

import math

import numpy as np

from emplab.gelfand import kernel_section_diameters
from emplab.geometry import d2, gaussian_mean_width


def calibrate_kernel_constant(dist, spec, m: int, calibration_draws: int, seed_path,
                              probes: int = 1000, width_draws: int = 2000,
                              margin: float = 1.05) -> float:
    """The largest gamma whose r_G on one gaussian sample reaches a target radius.

    The target is rho = min(margin * max of the calibration kernel
    diameters / 2, d2(V)), so that 2*r_G >= margin * max diameter; freezing
    gamma leaves fresh draws above 2*r_G(V, gamma) only in the tail beyond
    the margin.  On the sample phi(r) = width(r)/r is nonincreasing, so
    r_G >= rho exactly when gamma * sqrt(m) <= phi(rho): the constant is
    phi(rho) / sqrt(m), read off the sample with no search over gamma.
    The sample is the one ``r_G_fixed_point`` draws on the seed path
    (*seed_path, 10_000).
    """
    lbs = [kernel_section_diameters(dist, spec, [m], probes, (*seed_path, i))[0].lower_bound
           for i in range(calibration_draws)]
    rho = min(margin * float(np.max(lbs)) / 2.0, d2(spec))
    width = gaussian_mean_width(spec, width_draws, rho, seed_path=(*seed_path, 10_000))
    return width.mean / (rho * math.sqrt(m))

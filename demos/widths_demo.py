"""Gaussian mean widths of the built-in index sets.

Estimates l*(V) = E sup_{v in V} |<G, v>| by Monte Carlo, with standard
errors, and shows how localizing V to a Euclidean ball of radius r bends
the curve: the width grows with r while width/r falls, which is the
monotone map driving the fixed-point experiments.  The localization curve
reads every radius off one gaussian sample, so width/r falls without
Monte-Carlo noise between radii.
"""

import numpy as np

from emplab.geometry import (
    gaussian_mean_width,
    gaussian_mean_widths,
    gaussian_order_stat_means,
    l1_ball,
    l1_cap_l2,
    l2_ball,
    permutation_polytope,
    sparse_cap,
)

SEED = (2026_08_10,)
N_DIM = 128
DRAWS = 30_000


def main():
    print(__doc__)
    sets = [
        l1_ball(N_DIM),
        l2_ball(N_DIM),
        sparse_cap(N_DIM, 8),
        l1_cap_l2(N_DIM, 1.0, 0.4),
        permutation_polytope(np.linspace(1.0, 0.0, N_DIM)),
    ]
    print(f"{'set':<34} {'width':>8} {'3 se':>8} {'d2':>6} {'D=(w/d2)^2':>11}")
    for spec in sets:
        est = gaussian_mean_width(spec, draws=DRAWS, seed_path=SEED)
        print(f"{spec.label():<34} {est.mean:8.4f} {3 * est.std_error:8.4f} "
              f"{est.d2:6.3f} {est.complexity_ratio:11.3f}")

    print("\nlocalization of the l1 ball (n = 128): r, width(r), width(r)/r")
    radii = (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)
    for r, est in zip(radii, gaussian_mean_widths(l1_ball(N_DIM), DRAWS, radii, SEED)):
        print(f"  r={r:4.2f}  width={est.mean:7.4f}  width/r={est.mean / r:8.3f}")

    means = gaussian_order_stat_means(16, 50_000, seed_path=SEED)
    print("\nexpected sorted |gaussian| coordinates, n = 16:")
    print("  " + " ".join(f"{m:5.3f}" for m in means))


if __name__ == "__main__":
    main()

"""Sparse recovery: basis-pursuit phase behavior and LASSO error rates.

Noise-free basis pursuit flips from failure to success once the number of
measurements passes ~ s log(en/s).  With heavy-tailed measurements and
noise with three moments, the LASSO with penalty
lam = c1 ||xi||_{L_q0} sqrt(log(en)/N) still shows the gaussian-style
error rate: median l2 error ~ sqrt(s/N) (log-log slope -1/2 in N).
"""

import math

import numpy as np

from emplab.distributions import DistributionSpec, NoiseSpec, canonical_heavy_tail_spec
from emplab.recovery import (
    DEFAULT_LASSO_C1,
    bp_recovers,
    rate_penalty,
    lasso,
    make_recovery_problem,
)

SEED = 2026_08_10


def bp_phase():
    n, s, trials = 128, 4, 40
    dist = DistributionSpec("gaussian", n)
    print(f"basis pursuit, gaussian rows, n={n}, s={s}, {trials} trials per N "
          f"(s log(en/s) = {s * math.log(math.e * n / s):.1f}):")
    for N in (6, 12, 18, 24, 30, 36, 48):
        wins = 0
        for t in range(trials):
            prob = make_recovery_problem(dist, N, s, (SEED, N, t))
            wins += int(bp_recovers(prob.Gamma, prob.v0)[0])
        bar = "#" * int(round(20 * wins / trials))
        print(f"  N={N:>3}  success {wins / trials:5.2f}  {bar}")


def lasso_rate():
    n, s, trials = 256, 4, 21
    dist = canonical_heavy_tail_spec(n)
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    print(f"\nLASSO, student-t rows (df = {dist.tail_param:.1f}), pareto noise, "
          f"n={n}, s={s}, c1={DEFAULT_LASSO_C1}:")
    meds = []
    Ns = (256, 1024, 4096)
    for N in Ns:
        lam = rate_penalty(noise, N, n, DEFAULT_LASSO_C1)
        errs = [
            lasso(make_recovery_problem(dist, N, s, (SEED, N, t), noise=noise, lam=lam))
            .errors_lp[2.0]
            for t in range(trials)
        ]
        meds.append(float(np.median(errs)))
        print(f"  N={N:>5}  lambda={lam:.4f}  median l2 error {meds[-1]:.4f}")
    slope = (math.log(meds[-1]) - math.log(meds[0])) / (math.log(Ns[-1]) - math.log(Ns[0]))
    print(f"  log-log slope in N: {slope:.3f} (theory: -1/2)")


if __name__ == "__main__":
    print(__doc__)
    bp_phase()
    lasso_rate()

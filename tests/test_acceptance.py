"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Heavy statistical fixtures are shared across criteria where the
regimes coincide.
"""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy import stats as sps

from emplab.distributions import (
    DistributionSpec,
    NoiseSpec,
    canonical_heavy_tail_spec,
    sample_batch,
    sample_noise,
)
from emplab.gelfand import (
    kernel_section_diameter,
    r_G_fixed_point,
    r_X_fixed_point,
)
from emplab.geometry import (
    gaussian_mean_width,
    gaussian_width,
    l1_ball,
    l1_cap_l2,
    l2_ball,
    permutation_polytope,
    sparse_cap,
    support_batch,
)
from emplab.harness import ExperimentConfig, loglog_slope, run
from emplab.process import (
    check_A_u,
    multiplier_stats,
    multiplier_sums,
    ratio_statistic,
    stats_from_sums,
)
from emplab.recovery import (
    basis_pursuit,
    bp_recovers,
    rate_penalty,
    lasso,
    make_recovery_problem,
)
from emplab.streams import rng_from_path

from _calibration import calibrate_kernel_constant
from _oracles import (
    basis_pursuit_enum,
    gaussian_max_abs_mean_quad,
    lasso_kkt_enum,
    support_l1_cap_l2_sandwich,
)


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: support-function exactness against oracles (< 1 min)

def test_criterion_01_support_exactness():
    rng = np.random.default_rng(10_001)
    n_points = 1000
    worst = {}

    # l1 ball: vertex maximum
    n = 12
    Z = rng.standard_normal((n_points, n)) * np.exp(rng.uniform(-1, 1, (n_points, 1)))
    got = support_batch(l1_ball(n, 1.3), Z)
    oracle = 1.3 * np.abs(Z).max(axis=1)
    worst["l1_ball"] = float(np.abs(got - oracle).max() / np.maximum(1e-12, oracle).max())

    # l2 ball: definitional euclidean norm
    got = support_batch(l2_ball(n, 0.8), Z)
    oracle = 0.8 * np.sqrt((Z * Z).sum(axis=1))
    worst["l2_ball"] = float((np.abs(got - oracle) / np.maximum(1e-12, oracle)).max())

    # sparse cap: all-subsets enumeration via one mask matrix
    s = 4
    masks = np.zeros((0, n))
    for k in range(1, s + 1):
        rowsk = np.array([[1.0 if j in idx else 0.0 for j in range(n)]
                          for idx in combinations(range(n), k)])
        masks = np.vstack([masks, rowsk])
    got = support_batch(sparse_cap(n, s), Z)
    oracle = np.sqrt((masks @ (Z.T**2)).max(axis=0))
    worst["sparse_cap"] = float((np.abs(got - oracle) / np.maximum(1e-12, oracle)).max())

    # permutation polytope: full n! x 2^n enumeration at n = 6 (signs
    # collapse to absolute values)
    n6 = 6
    w = rng.standard_normal(n6)
    perm_matrix = np.array(list(permutations(np.abs(w))))
    Z6 = rng.standard_normal((n_points, n6))
    got = support_batch(permutation_polytope(w), Z6)
    oracle = (perm_matrix @ np.abs(Z6).T).max(axis=0)
    worst["permutation_polytope"] = float((np.abs(got - oracle) / np.maximum(1e-12, oracle)).max())

    # sampled signed permutations plus the aligned vertex at n = 12
    w12 = rng.standard_normal(n)
    aw = np.abs(w12)
    sampled = np.array([rng.permutation(aw) for _ in range(4000)])
    got = support_batch(permutation_polytope(w12), Z)
    AZ = np.abs(Z)
    sampled_best = (sampled @ AZ.T).max(axis=0)
    aligned = np.sort(aw)[::-1] @ np.sort(AZ, axis=1)[:, ::-1].T
    oracle = np.maximum(sampled_best, aligned)
    worst["permutation_polytope_sampled"] = float(
        (np.abs(got - oracle) / np.maximum(1e-12, oracle)).max()
    )

    # l1 cap l2: a primal point below and a dual point above; the true value
    # lies between them, so the distance to the far end bounds the error
    rho, r = 1.0, 0.5
    got = support_batch(l1_cap_l2(n, rho, r), Z)
    lower, upper = support_l1_cap_l2_sandwich(Z, rho, r)
    worst["l1_cap_l2_sandwich"] = float(
        (np.maximum(upper - got, got - lower) / np.maximum(1e-12, upper)).max()
    )

    ok = all(v <= 1e-6 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(1, "support exactness (1000 z per family, n <= 12)", ok, detail)
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: width sanity for the l1 ball, against the exact E max|g_j|

def test_criterion_02_width_sanity():
    draws = 100_000
    ok = True
    details = []
    for n, key in ((1, 9), (2, 0), (64, 1), (1024, 2)):
        est = gaussian_mean_width(l1_ball(n), draws=draws, seed_path=(20_002, key))
        exact = gaussian_max_abs_mean_quad(n)
        band = 3.0 * est.std_error
        ok &= abs(est.mean - exact) <= band
        details.append(f"n={n}: |{est.mean:.4f}-{exact:.4f}|<= {band:.4f}")
    _report(2, "l1-ball width vs exact E max|g_j| (quadrature of 1-erf^n)", ok,
            "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: gaussian-equivalence of the Z reduction (two-sample KS)

def test_criterion_03_gaussian_equivalence_ks():
    n, N, m = 64, 64, 1000
    dist = DistributionSpec("gaussian", n)
    noise = NoiseSpec("constant", q0=3.0, lq_norm=1.0)
    spec = l1_ball(n)
    sup_z = np.empty(m)
    for t in range(m):
        st = multiplier_stats(sample_batch(dist, noise, N, (30_003, t)), spec, noise)
        sup_z[t] = st.sup_symmetrized
    rng = np.random.default_rng(30_004)
    sup_g = np.abs(rng.standard_normal((m, n))).max(axis=1)
    stat = sps.ks_2samp(sup_z, sup_g).statistic
    crit = 1.62762 * math.sqrt((m + m) / (m * m))  # 1% critical value
    ok = stat < crit
    _report(3, "sup over B1 of <Z, v> matches the gaussian law (KS)",
            ok, f"KS={stat:.4f} < {crit:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# criteria 4 + 5: heavy-tail regime, two scales (shared 200-trial fixture)

@pytest.fixture(scope="module")
def heavy_tail_two_scales():
    # each trial is drawn and measured as `lab multiplier` does, against the
    # exact l*(B1) = E||G||_inf
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    out = {}
    for n in (64, 1024):
        dist = canonical_heavy_tail_spec(n)
        spec = l1_ball(n)
        width = gaussian_width(spec)
        ratios, chats = [], []
        for t in range(200):
            st = stats_from_sums(multiplier_sums(dist, noise, n, (40_001, n, t)), spec, noise)
            ratios.append(ratio_statistic(st.sup_centred, width, noise))
            chats.append(st.envelope_constant)
        out[n] = {"ratios": np.array(ratios), "chats": np.array(chats)}
    return out


def test_criterion_04_ratio_boundedness(heavy_tail_two_scales):
    lo = heavy_tail_two_scales[64]["ratios"].mean()
    hi = heavy_tail_two_scales[1024]["ratios"].mean()
    ok = hi <= 1.5 * lo and hi <= 10.0
    _report(4, "multiplier supremum over exact l*(B1), lab multiplier's trials, bounded",
            ok, f"mean ratio n=64: {lo:.4f}, n=1024: {hi:.4f}")
    assert ok


def test_criterion_05_envelope_stability(heavy_tail_two_scales):
    q_lo = float(np.quantile(heavy_tail_two_scales[64]["chats"], 0.95))
    q_hi = float(np.quantile(heavy_tail_two_scales[1024]["chats"], 0.95))
    change = abs(q_hi - q_lo) / q_lo
    ok = change <= 0.5
    _report(5, "95th-percentile envelope constant of lab multiplier's trials stable",
            ok, f"p95 C_hat n=64: {q_lo:.4f}, n=1024: {q_hi:.4f}, change {change:.1%}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: probability of the rearranged-noise event

def test_criterion_06_A_u_probability():
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    N, trials = 10_000, 1000
    fails = {2.0: 0, 4.0: 0, 8.0: 0}
    for t in range(trials):
        xi = sample_noise(noise, N, rng_from_path((60_006, t), "xi"))
        for u in fails:
            if not check_A_u(xi, noise.q0, noise.lq_norm, u):
                fails[u] += 1
    ok = True
    details = []
    for u, f in fails.items():
        p = f / trials
        se = math.sqrt(max(p * (1 - p), 1.0 / trials**2) / trials)
        bound = 2.0 / u**3
        ok &= p <= bound + 3.0 * se
        details.append(f"u={u:g}: {p:.4f} <= {bound:.4f}+3se")
    _report(6, "complement of A_u within the union bound", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: LASSO error rate in N and in s (< 15 min)

def test_criterion_07_lasso_rate():
    from emplab.recovery import DEFAULT_LASSO_C1

    n, s = 256, 4
    trials = 31
    dist = canonical_heavy_tail_spec(n)
    noise = NoiseSpec("symmetric_pareto", q0=3.0)

    def median_err(s_val, N, tag):
        lam = rate_penalty(noise, N, n, c1=DEFAULT_LASSO_C1)
        errs = []
        for t in range(trials):
            prob = make_recovery_problem(dist, N, s_val, (70_007, tag, t),
                                         noise=noise, lam=lam)
            errs.append(lasso(prob).errors_lp[2.0])
        return float(np.median(errs))

    Ns = [256, 1024, 4096]
    meds = [median_err(s, N, N) for N in Ns]
    slope, _, _ = loglog_slope(Ns, meds)
    slope_ok = abs(slope + 0.5) <= 0.15

    e2 = median_err(2, 1024, 2_000_002)
    e8 = median_err(8, 1024, 2_000_008)
    ratio = e8 / e2
    ratio_lo, ratio_hi = 2.0 / 1.3, 2.0 * 1.3
    ratio_ok = ratio_lo <= ratio <= ratio_hi

    ok = slope_ok and ratio_ok
    _report(7, "LASSO l2 error scales like sqrt(s/N)", ok,
            f"slope={slope:.3f} (target -0.5+/-0.15); "
            f"err(s=8)/err(s=2)={ratio:.3f} in [{ratio_lo:.2f}, {ratio_hi:.2f}]")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: basis-pursuit phase behavior

def _bp_success_rate(n, s, N, trials, seed_block):
    dist = DistributionSpec("gaussian", n)
    wins = 0
    for t in range(trials):
        prob = make_recovery_problem(dist, N, s, (seed_block, N, t))
        wins += int(bp_recovers(prob.Gamma, prob.v0)[0])
    return wins / trials


def test_criterion_08_bp_phase_behavior():
    n, s = 128, 4
    base = s * math.log(math.e * n / s)

    # calibration run (its own seed block): smallest C on the grid reaching
    # 95% success; frozen for the fresh evaluation below
    c_grid = [1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
    c_fit = None
    for c in c_grid:
        if _bp_success_rate(n, s, math.ceil(c * base), 40, 80_001) >= 0.95:
            c_fit = c
            break
    assert c_fit is not None, "no calibration constant reached 95% success"

    trials = 60
    rate_high = _bp_success_rate(n, s, math.ceil(c_fit * base), trials, 80_002)
    rate_low = _bp_success_rate(n, s, s + 2, trials, 80_003)

    sweep_N = sorted({s + 2, 12, 18, 24, 30, 36, math.ceil(c_fit * base)})
    rates = [_bp_success_rate(n, s, N, trials, 80_004) for N in sweep_N]
    mono_ok = True
    for (pa, pb) in zip(rates, rates[1:]):
        se = math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)
        if pb < pa - 3.0 * se - 1e-12:
            mono_ok = False

    ok = rate_high >= 0.9 and rate_low <= 0.1 and mono_ok
    _report(8, "basis-pursuit phase behavior", ok,
            f"C={c_fit}, success@N={math.ceil(c_fit * base)}: {rate_high:.2f} (>=0.9), "
            f"@N={s + 2}: {rate_low:.2f} (<=0.1), monotone={mono_ok}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: solver oracles on enumerable instances

def test_criterion_09_solver_oracles():
    rng = np.random.default_rng(90_009)
    worst_bp = 0.0
    for _ in range(100):
        n, N, s = 10, 5, 2
        Gamma = rng.standard_normal((N, n))
        v0 = np.zeros(n)
        v0[rng.choice(n, s, replace=False)] = rng.choice([-1.0, 1.0], s)
        y = Gamma @ v0
        from emplab.recovery import RecoveryProblem

        res = basis_pursuit(RecoveryProblem(Gamma, y, v0, s))
        worst_bp = max(worst_bp, abs(res.objective - basis_pursuit_enum(Gamma, y)))

    worst_la = 0.0
    for _ in range(100):
        n, N, s = 8, 6, 2
        Gamma = rng.standard_normal((N, n))
        v0 = np.zeros(n)
        v0[rng.choice(n, s, replace=False)] = rng.choice([-1.0, 1.0], s)
        y = Gamma @ v0 - 0.3 * rng.standard_normal(N)
        lam = 0.25
        from emplab.recovery import RecoveryProblem

        res = lasso(RecoveryProblem(Gamma, y, v0, s, lam=lam))
        obj_oracle, _ = lasso_kkt_enum(Gamma, y, lam)
        worst_la = max(worst_la, abs(res.objective - obj_oracle))

    ok = worst_bp <= 1e-6 and worst_la <= 1e-8
    _report(9, "solvers match enumeration oracles (100 instances each)",
            ok, f"max BP gap {worst_bp:.2e} (<=1e-6), max LASSO gap {worst_la:.2e} (<=1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: kernel-section diameters against the fixed point

def test_criterion_10_gelfand_consistency():
    n, m = 128, 60
    spec = l1_ball(n)
    dist = DistributionSpec("gaussian", n)

    # one calibration run (frozen constant), then fresh draws
    c_fit = calibrate_kernel_constant(dist, spec, m, calibration_draws=40,
                                      seed_path=(100_010,))
    rg_fit = r_G_fixed_point(spec, c_fit, m, tol=1e-3, draws=4000, seed_path=(100_011,))
    threshold = 2.0 * rg_fit.r_star
    lbs = [
        kernel_section_diameter(dist, spec, m, probes=200, seed_path=(100_012, i)).lower_bound
        for i in range(100)
    ]
    exceed = float(np.mean([lb > threshold for lb in lbs]))

    # gaussian r_X must agree with r_G within propagated 3-se bands
    gamma, tol, draws = 1.0, 1e-3, 6000
    rg = r_G_fixed_point(spec, gamma, m, tol, draws, seed_path=(100_013,))
    rx = r_X_fixed_point(dist, spec, gamma, m, tol, draws, seed_path=(100_014,))
    T = gamma * math.sqrt(m)
    r0 = rg.r_star
    delta = 0.1 * r0
    lo = gaussian_mean_width(spec, draws, localized_radius=r0 - delta, seed_path=(100_015,))
    hi = gaussian_mean_width(spec, draws, localized_radius=r0 + delta, seed_path=(100_016,))
    slope = abs((hi.mean - T * (r0 + delta)) - (lo.mean - T * (r0 - delta))) / (2 * delta)
    se_r = 3.0 * (rg.width_at_r.std_error + rx.width_at_r.std_error) / max(slope, 1e-9)
    band = se_r + (rg.bracket[1] - rg.bracket[0]) + (rx.bracket[1] - rx.bracket[0])
    agree = abs(rg.r_star - rx.r_star) <= band

    ok = exceed <= 0.05 and agree
    _report(10, "kernel diameters below 2*r_G; gaussian r_X == r_G", ok,
            f"c_fit={c_fit:.3f}, exceed={exceed:.2%} (<=5%), "
            f"|r_G - r_X|={abs(rg.r_star - rx.r_star):.4f} <= {band:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: byte-identical reruns at any worker count

def test_criterion_11_determinism(tmp_path):
    def cfg(out):
        return ExperimentConfig(
            experiment="multiplier",
            grids={"n": [16, 32], "N": [32], "x_family": ["student_t"],
                   "noise_family": ["symmetric_pareto"], "width_draws": 1000},
            trials=4,
            master_seed=110_011,
            output_dir=str(out),
        )

    m1 = run(cfg(tmp_path / "a"), workers=1)
    m2 = run(cfg(tmp_path / "b"), workers=3)
    m3 = run(cfg(tmp_path / "c"), workers=1)
    csv_a = (tmp_path / "a" / "multiplier.csv").read_bytes()
    csv_b = (tmp_path / "b" / "multiplier.csv").read_bytes()
    csv_c = (tmp_path / "c" / "multiplier.csv").read_bytes()
    ok = csv_a == csv_b == csv_c and m1.checksums == m2.checksums == m3.checksums
    _report(11, "rerun and worker-count determinism", ok,
            f"identical CSV bytes across 3 runs: {ok}")
    assert ok

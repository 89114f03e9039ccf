import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from emplab.distributions import (
    ConfigurationError,
    DistributionSpec,
    NoiseSpec,
    canonical_heavy_tail_spec,
    empirical_p_norm,
    moment_cap,
    moment_growth_profile,
    sample_batch,
    sample_block_sums,
    sample_coordinates,
    sample_noise,
    small_ball_estimate,
)
from emplab.streams import rng_from_path

from _oracles import gaussian_abs_moment_quad, student_abs_moment_quad

ALL_X_SPECS = [
    DistributionSpec("gaussian", 4),
    DistributionSpec("rademacher", 4),
    DistributionSpec("student_t", 4, tail_param=5.0),
    DistributionSpec("symmetric_pareto", 4, tail_param=4.5),
    DistributionSpec("symmetric_weibull", 4, tail_param=1.0),
]


# ---------------------------------------------------------------------------
# spec validation

@pytest.mark.parametrize("family,tail", [("student_t", 2.0), ("symmetric_pareto", 1.5)])
def test_heavy_families_need_finite_variance(family, tail):
    with pytest.raises(ConfigurationError, match="> 2"):
        DistributionSpec(family, 8, tail_param=tail)


def test_student_scale_is_variance_normalizing():
    spec = DistributionSpec("student_t", 8, tail_param=4.0)
    assert spec.scale == pytest.approx(math.sqrt(0.5))


def test_noise_q0_bound():
    with pytest.raises(ConfigurationError):
        NoiseSpec("symmetric_pareto", q0=2.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec("symmetric_pareto", q0=3.0, tail_param=2.5)


def test_canonical_heavy_tail_rule():
    spec = canonical_heavy_tail_spec(1024)
    assert spec.family == "student_t"
    assert spec.tail_param == pytest.approx(2.0 * math.log(1024))


# ---------------------------------------------------------------------------
# sampling

def test_rademacher_constant_batch():
    spec = DistributionSpec("rademacher", 6)
    noise = NoiseSpec("constant", q0=3.0, lq_norm=1.0)
    batch = sample_batch(spec, noise, 3, (5,))
    assert set(np.unique(batch.X)) <= {-1.0, 1.0}
    assert np.array_equal(batch.xi, np.ones(3))
    assert set(np.unique(batch.eps)) <= {-1.0, 1.0}


def test_batch_determinism_bit_for_bit():
    spec = DistributionSpec("symmetric_pareto", 8, tail_param=4.0)
    noise = NoiseSpec("student_t", q0=3.0)
    b1 = sample_batch(spec, noise, 64, (42, 1))
    b2 = sample_batch(spec, noise, 64, (42, 1))
    assert np.array_equal(b1.X, b2.X)
    assert np.array_equal(b1.xi, b2.xi)
    assert np.array_equal(b1.eps, b2.eps)


def test_gaussian_empirical_variance_band():
    spec = DistributionSpec("gaussian", 2)
    noise = NoiseSpec("constant", q0=3.0)
    batch = sample_batch(spec, noise, 100_000, (7,))
    var = batch.X.var(axis=0)
    assert np.all(var > 0.98) and np.all(var < 1.02)


@pytest.mark.parametrize("spec", ALL_X_SPECS, ids=lambda s: s.family)
def test_unit_variance_all_families(spec):
    rng = rng_from_path((13,), "X")
    x = sample_coordinates(spec, 400_000, rng)
    se = x.std() / math.sqrt(len(x))  # rough; heavy tails inflate this
    assert abs(x.mean()) < 5 * se
    assert x.var() == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("spec", [DistributionSpec("gaussian", 8),
                                  DistributionSpec("student_t", 8, tail_param=6.0)],
                         ids=lambda s: s.family)
def test_isotropy_and_symmetry_invariant(spec):
    noise = NoiseSpec("constant", q0=3.0)
    batch = sample_batch(spec, noise, 1_000_000, (99,))
    X = batch.X
    N = X.shape[0]
    cov = X.T @ X / N
    assert np.all(np.abs(np.diag(cov) - 1.0) < 0.01)
    off = cov - np.diag(np.diag(cov))
    # per-pair standard errors of the empirical cross moments, from the
    # second moments of X_i X_j: (X**2).T @ (X**2) / N
    X2 = X**2
    se_pair = np.sqrt(X2.T @ X2 / N / N)
    z = np.abs(off) / se_pair
    np.fill_diagonal(z, 0.0)
    # Sidak bound for the largest of the 28 pair z-scores at the two-sided
    # 3 sigma level of one comparison; 3.0 fails 7.3 % of fresh streams
    assert z.max() < 3.90
    mean_se = X.std(axis=0) / math.sqrt(N)
    assert np.all(np.abs(X.mean(axis=0)) < 3.0 * mean_se)


def test_noise_hits_target_lq_norm():
    for family in ("gaussian", "symmetric_pareto", "student_t", "constant"):
        noise = NoiseSpec(family, q0=3.0, lq_norm=2.0)
        xi = sample_noise(noise, 400_000, rng_from_path((3,), "xi"))
        emp = (np.abs(xi) ** 3).mean() ** (1 / 3)
        assert emp == pytest.approx(2.0, rel=0.1), family


@pytest.mark.parametrize("family, values", [
    ("gaussian", [0.4248993420525041, -1.0101198449396511, 0.8586730004788202,
                  0.0938595694864067, 0.402366524599129]),
    ("symmetric_pareto", [-0.5625974532185257, -0.604982994582108, 0.6713677955195699,
                          -0.6300576368813344, -0.8226033647757043]),
    ("student_t", [0.4691571488111325, 0.05058860870467363, -0.005319313549409139,
                   0.4924681383501794, 0.17994107009435284]),
])
def test_noise_draws_pinned(family, values):
    # the noise stream's values, bit for bit: the draw is shared with the
    # coordinate samplers, and every recovery and multiplier CSV rests on it
    xi = sample_noise(NoiseSpec(family, q0=3.0), 5, rng_from_path((2024,), "xi"))
    assert xi.tolist() == values


# ---------------------------------------------------------------------------
# exact block sums of gaussian scale mixtures

def _three_blocks():
    # disjoint supports over 12 rows, row 11 in no block
    weights = np.zeros((3, 12))
    weights[0, :2] = [0.5, -1.5]
    weights[1, 2:7] = [1.0, 2.0, -0.25, 1.0, 0.75]
    weights[2, 7:11] = 1.0
    return weights


@pytest.mark.parametrize("family, nu", [("gaussian", None), ("student_t", 3.0),
                                        ("student_t", 8.0)])
def test_block_sums_have_the_law_of_materialised_sums(family, nu):
    # each block sum, and the difference of two blocks, against the same sums
    # of drawn coordinates (two-sample KS at fixed seeds)
    spec, weights, copies = DistributionSpec(family, 4, tail_param=nu), _three_blocks(), 3000
    S = sample_block_sums(spec, weights, copies, rng_from_path((61,), "X"))
    assert S.shape == (3, copies, 4)
    X = sample_coordinates(spec, (copies, 12, 4), rng_from_path((62,), "X"))
    M = np.einsum("km,cmd->kcd", weights, X)
    for a, b in [*zip(S, M), (S[0] - S[1], M[0] - M[1])]:
        assert stats.ks_2samp(a.ravel(), b.ravel()).pvalue > 0.01


def test_gaussian_block_sums_draw_no_mixing_values():
    # W = 1: block b is sqrt(sum_i w_bi^2) times the b-th gaussian block, bit for bit
    weights = _three_blocks()
    S = sample_block_sums(DistributionSpec("gaussian", 5), weights, 7, rng_from_path((63,), "X"))
    G = rng_from_path((63,), "X").standard_normal((3, 7, 5))
    assert np.array_equal(S, np.sqrt((weights ** 2).sum(axis=1))[:, None, None] * G)


def test_block_sums_reject_overlaps_and_other_laws():
    weights = _three_blocks()
    weights[2, 0] = 1.0
    with pytest.raises(ValueError, match="disjoint"):
        sample_block_sums(DistributionSpec("gaussian", 2), weights, 1, rng_from_path((1,), "X"))
    with pytest.raises(ValueError, match="not a gaussian scale mixture"):
        sample_block_sums(DistributionSpec("rademacher", 2), _three_blocks(), 1,
                          rng_from_path((1,), "X"))


# ---------------------------------------------------------------------------
# moment-growth norm

def test_p_norm_constant_samples():
    res = empirical_p_norm(np.full(100, 2.5), p=4)
    assert res.value == pytest.approx(2.5)
    assert res.q_star == 1


def test_p_norm_balanced_signs():
    samples = np.array([-1.0, 1.0] * 50)
    res = empirical_p_norm(samples, p=9)
    assert res.value == pytest.approx(1.0)
    assert res.q_star == 1


def test_p_norm_gaussian_against_quadrature():
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal(1_000_000)
    res = empirical_p_norm(samples, p=10)
    oracle = max(
        gaussian_abs_moment_quad(q) ** (1.0 / q) / math.sqrt(q) for q in range(1, 11)
    )
    assert res.q_cap == 10
    assert res.value == pytest.approx(oracle, rel=0.05)


def test_p_norm_cap_is_surfaced():
    samples = np.random.default_rng(1).standard_normal(100)
    res = empirical_p_norm(samples, p=50)
    assert res.q_cap == moment_cap(100) == math.ceil(2 * math.log(100))


def test_p_norm_usage_errors():
    with pytest.raises(ValueError):
        empirical_p_norm(np.array([]), p=4)
    with pytest.raises(ValueError):
        empirical_p_norm(np.array([1.0]), p=4)


def test_p_norm_scale_equivariance_power_of_two_exact():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(512)
    base = empirical_p_norm(samples, p=6).value
    assert empirical_p_norm(4.0 * samples, p=6).value == 4.0 * base
    assert empirical_p_norm(-0.5 * samples, p=6).value == 0.5 * base


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_p_norm_scale_equivariance_general(c):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(128)
    a = empirical_p_norm(c * samples, p=8).value
    b = c * empirical_p_norm(samples, p=8).value
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# moment growth profile

def test_profile_rademacher_trivially_one_over_sqrt_q():
    spec = DistributionSpec("rademacher", 1)
    prof = moment_growth_profile(spec, p=8, n_samples=1000, seed_path=(4,))
    for q, ratio in prof:
        assert ratio == pytest.approx(1.0 / math.sqrt(q))


def test_profile_gaussian_q2_is_inv_sqrt2():
    spec = DistributionSpec("gaussian", 1)
    prof = dict(moment_growth_profile(spec, p=6, n_samples=400_000, seed_path=(6,)))
    assert prof[2] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)


def test_profile_student_log_moments_bounded():
    n = 1024
    spec = canonical_heavy_tail_spec(n)
    prof = moment_growth_profile(spec, p=int(math.log(n)), n_samples=500_000, seed_path=(8,))
    for q, ratio in prof:
        oracle = spec.scale * student_abs_moment_quad(spec.tail_param, q) ** (1 / q) / math.sqrt(q)
        assert ratio == pytest.approx(oracle, rel=0.15)
        assert ratio <= 3.0


# ---------------------------------------------------------------------------
# small ball

def test_small_ball_rademacher_axis_direction():
    # every axis direction gives |<X, e_j>| = 1 >= 0.5 with certainty
    spec = DistributionSpec("rademacher", 5)
    e1 = np.zeros(5)
    e1[0] = 1.0
    freq = small_ball_estimate(spec, kappa=0.5, n_dirs=0, n_samples=2000,
                               seed_path=(1,), extra_dirs=e1[None, :])
    assert freq == 1.0
    all_axes = small_ball_estimate(spec, kappa=0.5, n_dirs=0, n_samples=2000,
                                   seed_path=(1,), extra_dirs=np.eye(5))
    assert all_axes == 1.0
    # adding random directions can only lower the minimum
    with_random = small_ball_estimate(spec, kappa=0.5, n_dirs=8, n_samples=2000,
                                      seed_path=(1,), extra_dirs=e1[None, :])
    assert with_random <= 1.0


def test_small_ball_kappa_zero_is_one():
    spec = DistributionSpec("gaussian", 3)
    assert small_ball_estimate(spec, 0.0, 4, 500, (2,)) == 1.0


def test_small_ball_gaussian_quartile():
    spec = DistributionSpec("gaussian", 6)
    kappa = stats.norm.ppf(0.75)  # |g| >= quartile with probability 1/2
    freq = small_ball_estimate(spec, kappa, n_dirs=8, n_samples=200_000, seed_path=(3,))
    # rotation invariance: every direction has hit probability exactly 1/2
    assert freq == pytest.approx(0.5, abs=0.01)

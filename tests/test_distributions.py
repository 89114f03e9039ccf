import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from emplab import distributions
from emplab.distributions import (
    ConfigurationError,
    DistributionSpec,
    NoiseSpec,
    canonical_heavy_tail_spec,
    empirical_lq_norms,
    moment_cap,
    moment_growth_profile,
    sample_batch,
    sample_block_sums,
    sample_coordinates,
    sample_noise,
)
from emplab.streams import rng_from_path

from _oracles import (
    gaussian_abs_moment_quad,
    student_abs_moment_quad,
    student_t_block_sums_one_shot,
)

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


@pytest.mark.parametrize("copies", [1, 7])
@pytest.mark.parametrize("nu", [3.0, 8.0])
@pytest.mark.parametrize("budget_rows", [1, 2, 4, None])
def test_student_t_block_sums_equal_the_one_shot_draw(monkeypatch, copies, nu, budget_rows):
    # row blocks of 1, 2 and 4 rows split the 5-row block inside and end on the
    # 2- and 4-row blocks' boundaries; None keeps the module's budget (one row block each)
    spec, weights = DistributionSpec("student_t", 3, tail_param=nu), _three_blocks()
    if budget_rows is not None:
        monkeypatch.setattr(distributions, "_MIXING_BLOCK_VALUES", budget_rows * copies * spec.dim)
    S = sample_block_sums(spec, weights, copies, rng_from_path((64,), "X"))
    oracle = student_t_block_sums_one_shot(spec, weights, copies, rng_from_path((64,), "X"))
    assert np.array_equal(S, oracle)


def test_student_t_block_sums_memory_is_bounded():
    # the gelfand demo chunk: increments (0, 40], (40, 60], (60, 80] of 390 copies in
    # dimension 128, whose 80 x 390 x 128 mixing values alone take 32 MB
    weights = np.zeros((3, 80))
    for b, (lo, hi) in enumerate([(0, 40), (40, 60), (60, 80)]):
        weights[b, lo:hi] = 1.0
    spec, rng = DistributionSpec("student_t", 128, tail_param=6.0), rng_from_path((65,), "X")
    tracemalloc.start()
    try:
        sample_block_sums(spec, weights, 390, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_block_sums_reject_overlaps():
    weights = _three_blocks()
    weights[2, 0] = 1.0
    with pytest.raises(ValueError, match="disjoint"):
        sample_block_sums(DistributionSpec("gaussian", 2), weights, 1, rng_from_path((1,), "X"))
    with pytest.raises(ValueError, match="disjoint"):
        sample_block_sums(DistributionSpec("rademacher", 2), weights, 1, rng_from_path((1,), "X"))


@pytest.mark.parametrize("family, tail", [("symmetric_pareto", 5.0), ("rademacher", None),
                                          ("student_t", 6.0)])
def test_block_sums_are_drawn_in_copy_chunks(monkeypatch, family, tail):
    # a copy counts m x dim values (12 x 4 here): chunks of 5, 5 and 3 copies, each
    # chunk drawing its rows with sample_coordinates and summing each block's
    # weighted rows in row order, bit for bit; Student-t X draws each chunk exactly
    spec, weights, copies = DistributionSpec(family, 4, tail_param=tail), _three_blocks(), 13
    monkeypatch.setattr(distributions, "_COPY_CHUNK_VALUES", 5 * 12 * 4 + 1)
    S = sample_block_sums(spec, weights, copies, rng_from_path((66,), "X"))
    rng, parts = rng_from_path((66,), "X"), []
    for take in (5, 5, 3):
        if family == "student_t":
            parts.append(student_t_block_sums_one_shot(spec, weights, take, rng))
            continue
        X = sample_coordinates(spec, (take, 12, 4), rng)
        parts.append(np.stack([sum(w[i] * X[:, i] for i in np.flatnonzero(w)) for w in weights]))
    assert np.array_equal(S, np.concatenate(parts, axis=1))


# ---------------------------------------------------------------------------
# moment-growth norm

QS = np.arange(1, 11)


def test_p_norm_constant_samples():
    assert np.allclose(empirical_lq_norms(np.full(100, 2.5), QS), 2.5, rtol=1e-12, atol=0.0)


def test_p_norm_balanced_signs():
    samples = np.array([-1.0, 1.0] * 50)
    assert np.allclose(empirical_lq_norms(samples, QS), 1.0, rtol=1e-12, atol=0.0)


def test_p_norm_gaussian_against_quadrature():
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal(1_000_000)
    got = empirical_lq_norms(samples, QS)
    for q, norm in zip(QS, got):
        assert norm == pytest.approx(gaussian_abs_moment_quad(q) ** (1.0 / q), rel=0.05), q


def test_p_norm_cap_is_surfaced():
    spec = DistributionSpec("gaussian", 1)
    prof = moment_growth_profile(spec, p=50, n_samples=100, seed_path=(1,))
    assert [q for q, _ in prof] == list(range(1, moment_cap(100) + 1))
    assert moment_cap(100) == math.ceil(2 * math.log(100))


def test_p_norm_usage_errors():
    with pytest.raises(ValueError, match="empty"):
        empirical_lq_norms(np.array([]), QS)
    spec = DistributionSpec("gaussian", 1)
    with pytest.raises(ValueError, match="2 samples"):
        moment_growth_profile(spec, p=4, n_samples=1, seed_path=(1,))
    with pytest.raises(ValueError, match="p must be"):
        moment_growth_profile(spec, p=1, n_samples=100, seed_path=(1,))


def test_p_norm_scale_equivariance_power_of_two_exact():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(512)
    base = empirical_lq_norms(samples, QS)
    assert np.array_equal(empirical_lq_norms(4.0 * samples, QS), 4.0 * base)
    assert np.array_equal(empirical_lq_norms(-0.5 * samples, QS), 0.5 * base)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_p_norm_scale_equivariance_general(c):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(128)
    a = empirical_lq_norms(c * samples, QS)
    b = c * empirical_lq_norms(samples, QS)
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


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

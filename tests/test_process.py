import math

import numpy as np
import pytest
from scipy import stats as sps

from emplab.distributions import (
    DistributionSpec,
    NoiseSpec,
    SampleBatch,
    canonical_heavy_tail_spec,
    sample_batch,
)
from emplab.geometry import gaussian_width, l1_ball, permutation_polytope, support_batch
from emplab.process import (
    check_A_u,
    multiplier_stats,
    multiplier_sums,
    order_stat_envelope,
    ratio_statistic,
    stats_from_sums,
)

from _oracles import support_permutation_polytope_enum

CONST_NOISE = NoiseSpec("constant", q0=3.0, lq_norm=1.0)
PINNED_TRIAL = (1.3107056377401176, 1.0027240813053833, 0.5162519605446755)


def _manual_batch(X, xi, eps):
    return SampleBatch(
        X=np.asarray(X, float),
        xi=np.asarray(xi, float),
        eps=np.asarray(eps, float),
    )


# ---------------------------------------------------------------------------
# the symmetrized supremum and the Z reduction

def test_sup_symmetrized_unwinds_for_l1():
    rng = np.random.default_rng(41)
    N, n = 32, 8
    X = 2.0 * rng.integers(0, 2, size=(N, n)) - 1.0
    eps = 2.0 * rng.integers(0, 2, size=N) - 1.0
    batch = _manual_batch(X, np.ones(N), eps)
    st = multiplier_stats(batch, l1_ball(n), CONST_NOISE)
    manual = max(abs(eps @ X[:, j]) / math.sqrt(N) for j in range(n))
    assert st.sup_symmetrized == pytest.approx(manual, rel=1e-14)


def test_single_observation_example():
    n = 4
    X = np.zeros((1, n))
    X[0, 0] = 1.0
    batch = _manual_batch(X, [2.0], [-1.0])
    st = multiplier_stats(batch, l1_ball(n), NoiseSpec("constant", q0=3.0, lq_norm=2.0))
    assert st.sup_symmetrized == 2.0


def test_reduction_exactness_against_vertex_enumeration():
    rng = np.random.default_rng(55)
    N, n = 20, 5
    X = rng.standard_normal((N, n))
    xi = rng.standard_normal(N)
    eps = 2.0 * rng.integers(0, 2, size=N) - 1.0
    batch = _manual_batch(X, xi, eps)
    w = rng.standard_normal(n)
    spec = permutation_polytope(w)
    st = multiplier_stats(batch, spec, NoiseSpec("gaussian", q0=3.0))
    Z = X.T @ (eps * xi) / math.sqrt(N)
    assert np.allclose(st.Z, Z)
    brute = support_permutation_polytope_enum(Z, np.asarray(w))
    assert st.sup_symmetrized == pytest.approx(brute, rel=1e-12)
    assert st.sup_symmetrized == pytest.approx(support_batch(spec, Z)[0], rel=1e-12)


@pytest.mark.parametrize("n", [64, 256])
def test_multiplier_sums_have_the_law_of_materialised_batches(n):
    # the trial statistics from the exact block sums against those of drawn
    # Student-t batches, on disjoint seed paths (two-sample KS)
    dist, spec, noise = canonical_heavy_tail_spec(n), l1_ball(n), NoiseSpec("symmetric_pareto")
    N, trials = 32, 1500
    new = [stats_from_sums(multiplier_sums(dist, noise, N, (71, 0, t)), spec, noise)
           for t in range(trials)]
    old = [multiplier_stats(sample_batch(dist, noise, N, (71, 1, t)), spec, noise)
           for t in range(trials)]
    for field in ("sup_centred", "sup_symmetrized", "envelope_constant"):
        a, b = ([getattr(st, field) for st in sts] for sts in (new, old))
        assert sps.ks_2samp(a, b).pvalue > 0.01, field


def test_multiplier_trial_values_pinned():
    # the "xi" and "eps" streams, then the Gamma mixing values and the two
    # block gaussians of the "X" stream
    dist, spec, noise = canonical_heavy_tail_spec(16), l1_ball(16), NoiseSpec("symmetric_pareto")
    sums = multiplier_sums(dist, noise, 8, (2026, 0, 0))
    assert np.array_equal(sums.xi, sample_batch(dist, noise, 8, (2026, 0, 0)).xi)
    st = stats_from_sums(sums, spec, noise)
    assert (st.sup_centred, st.sup_symmetrized, st.envelope_constant) == pytest.approx(
        PINNED_TRIAL, rel=1e-12)


def test_batch_statistics_are_those_of_its_sums():
    # a law that is not a gaussian mixture sums the X that sample_batch draws on
    # the same path: S+ and S- over its xi-weighted rows with eps = +1 and -1
    dist, noise, spec, N = DistributionSpec("rademacher", 6), NoiseSpec("gaussian"), l1_ball(6), 10
    batch = sample_batch(dist, noise, N, (72,))
    sums = multiplier_sums(dist, noise, N, (72,))
    plus, w = batch.eps > 0, batch.xi / math.sqrt(N)
    s_plus, s_minus = ((w[rows, None] * batch.X[rows]).sum(axis=0) for rows in (plus, ~plus))
    assert np.array_equal(sums.xi, batch.xi)
    assert np.array_equal(sums.Z, s_plus - s_minus)
    assert np.array_equal(sums.centred, s_plus + s_minus)
    # and its statistics are the batch's own, to rounding
    st, ref = stats_from_sums(sums, spec, noise), multiplier_stats(batch, spec, noise)
    assert np.allclose(st.Z, ref.Z, rtol=1e-12, atol=0.0)
    for field in ("sup_centred", "sup_symmetrized", "envelope_constant"):
        assert getattr(st, field) == pytest.approx(getattr(ref, field), rel=1e-12)
    assert st.A_u_holds == ref.A_u_holds


def test_z_sorted_is_sorted_rearrangement():
    batch = sample_batch(DistributionSpec("gaussian", 16), CONST_NOISE, 32, (9,))
    st = multiplier_stats(batch, l1_ball(16), CONST_NOISE)
    assert np.all(np.diff(st.Z_sorted) <= 0)
    assert sorted(np.abs(st.Z)) == sorted(st.Z_sorted)


def test_scale_equivariance_power_of_two():
    batch = sample_batch(DistributionSpec("gaussian", 8), NoiseSpec("gaussian", q0=3.0), 16, (10,))
    spec = l1_ball(8)
    noise = NoiseSpec("gaussian", q0=3.0)
    st1 = multiplier_stats(batch, spec, noise)
    scaled = _manual_batch(batch.X, 4.0 * batch.xi, batch.eps)
    noise4 = NoiseSpec("gaussian", q0=3.0, lq_norm=4.0)
    st2 = multiplier_stats(scaled, spec, noise4)
    assert st2.sup_symmetrized == 4.0 * st1.sup_symmetrized
    assert np.array_equal(st2.Z, 4.0 * st1.Z)
    width = gaussian_width(spec)
    assert ratio_statistic(st2.sup_centred, width, noise4) == pytest.approx(
        ratio_statistic(st1.sup_centred, width, noise), rel=1e-14
    )


def test_dimension_mismatch():
    batch = sample_batch(DistributionSpec("gaussian", 8), CONST_NOISE, 4, (1,))
    with pytest.raises(ValueError):
        multiplier_stats(batch, l1_ball(9), CONST_NOISE)


def test_symmetrization_domination_in_means():
    # mean centred sup <= 2 * mean symmetrized sup + 3 combined stderr
    dist = DistributionSpec("gaussian", 32)
    noise = NoiseSpec("gaussian", q0=3.0)
    spec = l1_ball(32)
    cent, symm = [], []
    for t in range(200):
        st = multiplier_stats(sample_batch(dist, noise, 64, (812, t)), spec, noise)
        cent.append(st.sup_centred)
        symm.append(st.sup_symmetrized)
    cent, symm = np.array(cent), np.array(symm)
    se = math.hypot(cent.std(ddof=1), 2.0 * symm.std(ddof=1)) / math.sqrt(len(cent))
    assert cent.mean() <= 2.0 * symm.mean() + 3.0 * se


def test_mean_sup_matches_width_at_matched_scale():
    # xi == 1 and gaussian X make Z exactly standard gaussian, so the mean
    # symmetrized supremum over B1 must agree with the exact width E||G||_inf
    n, N, trials = 256, 256, 200
    dist = DistributionSpec("gaussian", n)
    spec = l1_ball(n)
    sups = np.array([
        multiplier_stats(sample_batch(dist, CONST_NOISE, N, (611, t)), spec, CONST_NOISE
                         ).sup_symmetrized
        for t in range(trials)
    ])
    se = sups.std(ddof=1) / math.sqrt(trials)
    assert abs(sups.mean() - gaussian_width(spec)) <= 3.0 * se


def test_gaussian_equivalence_two_sample_ks():
    # with xi == 1 and gaussian X, Z is exactly standard gaussian
    n, N, m = 32, 16, 800
    dist = DistributionSpec("gaussian", n)
    spec = l1_ball(n)
    sup_z = np.empty(m)
    for t in range(m):
        st = multiplier_stats(sample_batch(dist, CONST_NOISE, N, (501, t)), spec, CONST_NOISE)
        sup_z[t] = st.sup_symmetrized
    rng = np.random.default_rng(502)
    sup_g = np.abs(rng.standard_normal((m, n))).max(axis=1)
    stat = sps.ks_2samp(sup_z, sup_g).statistic
    crit = 1.62762 * math.sqrt(2.0 / m)  # 1% level
    assert stat < crit


# ---------------------------------------------------------------------------
# the event A_u

def test_A_u_zero_noise_always_holds():
    assert check_A_u(np.zeros(50), q0=3.0, lq_norm=1.0, u=2.0)
    assert check_A_u(np.zeros(50), q0=3.0, lq_norm=1.0, u=8.0)


def test_A_u_single_large_value():
    # N=1: bound is 2 * e^(1/3) ~ 2.79 < 10
    assert not check_A_u(np.array([10.0]), q0=3.0, lq_norm=1.0, u=2.0)
    assert 2.0 * math.e ** (1.0 / 3.0) == pytest.approx(2.79, abs=0.01)


def test_A_u_uses_absolute_rearrangement():
    xi = np.array([-10.0, 0.1, 0.2])
    assert not check_A_u(xi, q0=3.0, lq_norm=1.0, u=2.0)


def test_A_u_parameter_validation():
    with pytest.raises(ValueError):
        check_A_u(np.ones(4), q0=3.0, lq_norm=1.0, u=1.5)
    with pytest.raises(ValueError):
        check_A_u(np.ones(4), q0=2.0, lq_norm=1.0, u=2.0)
    with pytest.raises(ValueError):
        check_A_u(np.ones(4), q0=3.0, lq_norm=0.0, u=2.0)


# ---------------------------------------------------------------------------
# order-statistic envelope

def test_envelope_of_reference_vector_is_one():
    n = 50
    j = np.arange(1, n + 1)
    z0 = np.sqrt(np.log(math.e * n / j))
    assert order_stat_envelope(z0) == pytest.approx(1.0, rel=1e-12)
    # each entry meets the envelope: lowering all but one leaves C at 1
    for k in range(n):
        lowered = np.where(np.arange(n) == k, z0, 0.5 * z0)
        lowered[:k] = np.maximum(lowered[:k], z0[k])
        assert order_stat_envelope(lowered) == pytest.approx(1.0, rel=1e-12)


def test_envelope_zero_vector():
    assert order_stat_envelope(np.zeros(16)) == 0.0


def test_envelope_rejects_unsorted():
    with pytest.raises(ValueError):
        order_stat_envelope(np.array([1.0, 2.0, 0.5]))


def test_envelope_gaussian_scale():
    # iid gaussian order statistics have an O(1) envelope constant
    rng = np.random.default_rng(61)
    n = 1024
    chats = []
    for _ in range(200):
        z = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        chats.append(order_stat_envelope(z))
    assert np.quantile(chats, 0.95) <= 3.0


# ---------------------------------------------------------------------------
# ratio statistic

def test_ratio_zero_sup():
    batch = _manual_batch(np.zeros((4, 3)), np.zeros(4), np.ones(4))
    st = multiplier_stats(batch, l1_ball(3), CONST_NOISE)
    assert ratio_statistic(st.sup_centred, gaussian_width(l1_ball(3)), CONST_NOISE) == 0.0


def test_ratio_arithmetic():
    assert ratio_statistic(2.0, 4.0, CONST_NOISE) == 0.5
    assert ratio_statistic(2.0, 4.0, NoiseSpec("constant", q0=3.0, lq_norm=0.5)) == 1.0


def test_ratio_degenerate_width_rejected():
    for width in (0.0, math.nan):
        with pytest.raises(ValueError, match="degenerate"):
            ratio_statistic(2.0, width, CONST_NOISE)

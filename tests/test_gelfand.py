import math

import numpy as np
import pytest
from scipy import stats

from emplab import geometry
from emplab.distributions import DistributionSpec, sample_coordinates
from emplab.gelfand import (
    _fixed_point,
    _kernel_projectors,
    _normalized_sums,
    _width_curve,
    empirical_process_width,
    kernel_section_diameter,
    kernel_section_diameters,
    r_G_fixed_point,
    r_G_fixed_points,
    r_X_fixed_point,
    r_X_fixed_points,
)
from emplab.geometry import (
    _make_width_estimate,
    d2,
    gauge,
    gauge_batch,
    gaussian_mean_width,
    gaussian_mean_widths,
    l1_ball,
    l1_cap_l2,
    l2_ball,
    localized_support_batch,
    permutation_polytope,
    sparse_cap,
)
from emplab.streams import rng_from_path

from _calibration import calibrate_kernel_constant
from _oracles import gaussian_l2_norm_mean, kernel_bound_column_batch, kernel_projector_svd

GAUSS8 = DistributionSpec("gaussian", 8)


# ---------------------------------------------------------------------------
# fixed points

def test_l2_ball_constant_phi_collapses_or_flags():
    # for V = R*B2, width(V cap rB2)/r = E||G||_2 for r <= R: the predicate
    # is the same at every radius
    n, R = 16, 1.0
    spec = l2_ball(n, R)
    e_norm = gaussian_l2_norm_mean(n)
    m = 4
    gamma_hi = 1.5 * e_norm / math.sqrt(m)
    res = r_G_fixed_point(spec, gamma_hi, m, tol=1e-3, draws=3000, seed_path=(1,))
    assert res.bracketed
    assert res.r_star <= 1e-3  # collapses to the smallest bracketed radius
    gamma_lo = 0.5 * e_norm / math.sqrt(m)
    res = r_G_fixed_point(spec, gamma_lo, m, tol=1e-3, draws=3000, seed_path=(2,))
    assert not res.bracketed
    assert res.r_star == d2(spec)


def test_collapsed_fixed_point_is_not_confident():
    # at gamma 2 this permutation polytope meets the width condition at every
    # radius tried: the bisection finds no failing radius and halves d2 down to
    # tol, so r_star is set by tol, not by the sample, and is no confident point
    spec = permutation_polytope([1.0, 1.0, 0.5, 0.5] + [0.0] * 28)
    dist = DistributionSpec("gaussian", 32)
    tol, ms = 1e-2, [20, 28]
    for gamma, collapsed in ((2.0, True), (1.0, False)):
        results = (r_G_fixed_points(spec, gamma, ms, tol, 50, (7, 1))
                   + r_X_fixed_points(dist, spec, gamma, ms, tol, 50, (7, 2)))
        for res in results:
            assert res.bracketed
            assert (res.bracket[0] == 0.0) == collapsed, (gamma, res.m)
            if collapsed:
                assert res.r_star <= tol and not res.confident


def test_gamma_to_infinity_radius_to_zero():
    res = r_G_fixed_point(l1_ball(32), gamma=1e6, m=10, tol=1e-4, draws=500, seed_path=(3,))
    assert res.bracketed
    assert res.r_star <= 1e-4


def test_gamma_doubling_shrinks_radius():
    spec = l1_ball(64)
    m = 20
    r1 = r_G_fixed_point(spec, 1.0, m, tol=1e-3, draws=4000, seed_path=(4,)).r_star
    r2 = r_G_fixed_point(spec, 2.0, m, tol=1e-3, draws=4000, seed_path=(5,)).r_star
    assert r2 <= r1 + 2e-3


def test_bracket_invariants():
    res = r_G_fixed_point(l1_ball(32), 1.0, 12, tol=1e-3, draws=2000, seed_path=(6,))
    lo, hi = res.bracket
    assert lo <= res.r_star <= hi
    assert hi - lo <= 1e-3
    assert res.width_at_r.localized_radius == pytest.approx(res.r_star)


def test_r_G_against_dense_grid_scan():
    # bisection answer vs a direct scan of phi over a fine radius grid
    spec = l1_ball(64)
    m, gamma, draws = 20, 1.0, 4000
    res = r_G_fixed_point(spec, gamma, m, tol=1e-3, draws=draws, seed_path=(7,))
    threshold = gamma * math.sqrt(m)
    grid = np.linspace(1e-3, 1.0, 120)
    crossing = None
    for i, r in enumerate(grid):
        est = gaussian_mean_width(spec, draws, localized_radius=float(r), seed_path=(8, i))
        if est.mean <= threshold * r:
            crossing = float(r)
            break
    assert crossing is not None
    assert 0.5 * crossing <= res.r_star <= 2.0 * crossing


def test_gaussian_empirical_width_matches_gaussian_width():
    # m^{-1/2} sum of m gaussians is a standard gaussian
    spec = l1_ball(32)
    a = gaussian_mean_width(spec, draws=20000, localized_radius=0.4, seed_path=(9,))
    b = empirical_process_width(DistributionSpec("gaussian", 32), spec, m=7,
                                draws=20000, localized_radius=0.4, seed_path=(10,))
    assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.std_error, b.std_error)


def test_fixed_points_bisect_the_public_width_on_one_sample():
    # each fixed point evaluates every radius on the sample that the public
    # width function draws on the same seed path (dim 1024 and m 300 make
    # both samplers draw in several chunks)
    spec, m, gamma = l1_ball(1024), 20, 1.0
    assert 2000 > 2 * (geometry._GAUSSIAN_BLOCK_VALUES // spec.dim)
    rg = r_G_fixed_point(spec, gamma, m, tol=1e-2, draws=2000, seed_path=(19, 1))
    lo, hi = rg.bracket
    assert 0.0 < lo < hi
    assert rg.width_at_r == gaussian_mean_width(spec, 2000, localized_radius=hi,
                                                seed_path=(19, 1))
    T = gamma * math.sqrt(m)
    assert gaussian_mean_width(spec, 2000, localized_radius=lo, seed_path=(19, 1)).mean > T * lo

    dist, spec = DistributionSpec("student_t", 64, tail_param=5.0), l1_ball(64)
    m, gamma = 300, 0.3
    rx = r_X_fixed_point(dist, spec, gamma, m, tol=1e-3, draws=500, seed_path=(19, 2))
    lo, hi = rx.bracket
    assert 0.0 < lo < hi
    assert rx.width_at_r == empirical_process_width(dist, spec, m, 500, localized_radius=hi,
                                                    seed_path=(19, 2))
    T = gamma * math.sqrt(m)
    lo_width = empirical_process_width(dist, spec, m, 500, localized_radius=lo, seed_path=(19, 2))
    assert lo_width.mean > T * lo


@pytest.mark.parametrize("spec", [
    l1_ball(16, 1.5), l2_ball(16, 0.8), sparse_cap(16, 3), l1_cap_l2(16, 2.0, 0.7),
    permutation_polytope(np.linspace(1.0, 0.1, 16)),
], ids=lambda spec: spec.family)
def test_phi_nonincreasing_on_one_sample(spec):
    radii = [float(r) for r in np.linspace(0.02, 1.2 * d2(spec), 25)]
    phi = [est.mean / r for r, est in zip(radii, gaussian_mean_widths(spec, 500, radii, (20,)))]
    assert all(b <= a + 1e-12 * a for a, b in zip(phi, phi[1:]))


def test_r_star_nonincreasing_in_gamma_at_one_seed_path():
    spec, m = l1_ball(64), 20
    radii = [r_G_fixed_point(spec, g, m, tol=1e-3, draws=1000, seed_path=(21,)).r_star
             for g in np.geomspace(0.3, 3.0, 12)]
    assert all(b <= a for a, b in zip(radii, radii[1:]))
    assert radii[0] > radii[-1]


def test_r_X_rademacher_finite_and_flagged():
    res = r_X_fixed_point(DistributionSpec("rademacher", 32), l1_ball(32),
                          gamma=1.0, m=12, tol=1e-3, draws=2000, seed_path=(11,))
    assert res.bracketed
    assert 0.0 < res.r_star <= 1.0
    assert isinstance(res.confident, bool)


def _sums_for_one_m(dist, dim, m, draws, seed_path):
    """The normalized sums as drawn for one m alone: draws x m x dim
    coordinates of the "X" stream in chunks of about 4M values, each chunk
    summed over its m rows."""
    rng = rng_from_path(seed_path, "X")
    chunk = max(1, 4_000_000 // (m * dim))
    parts = []
    for done in range(0, draws, chunk):
        X = sample_coordinates(dist, (min(chunk, draws - done), m, dim), rng)
        parts.append(X.sum(axis=1) * (1.0 / math.sqrt(m)))
    return np.concatenate(parts)


def test_one_m_functions_are_the_sample_drawn_for_that_m():
    # for a law that is not a gaussian mixture the one-m functions read the
    # sample that one m alone draws, bit for bit (m 300 at dim 64 draws it in two chunks)
    dist, spec = DistributionSpec("symmetric_pareto", 64, tail_param=5.0), l1_ball(64)
    m, draws, path = 300, 250, (24, 1)
    sums = _sums_for_one_m(dist, 64, m, draws, path)
    assert np.array_equal(_normalized_sums(dist, [m], draws, rng_from_path(path, "X"))[0],
                          sums)
    assert empirical_process_width(dist, spec, m, draws, 0.3, seed_path=path) == (
        _make_width_estimate(localized_support_batch(spec, sums, 0.3), spec, 0.3))
    rx = r_X_fixed_point(dist, spec, 0.3, m, 1e-3, draws, path)
    assert rx == _fixed_point(_width_curve(spec, sums), spec, 0.3, m, 1e-3)
    # and a grid of one distinct m is the same sample
    assert r_X_fixed_points(dist, spec, 0.3, [m, m], 1e-3, draws, path) == [rx, rx]

    # kernel_section_diameter: an m x n matrix, its QR projector and one probe set,
    # one probe per row (P is symmetric)
    m, probes, path = 20, 30, (24, 2)
    Gamma = sample_coordinates(dist, (m, 64), rng_from_path(path, "X"))
    Q = np.linalg.qr(Gamma.T)[0]
    P = np.eye(64) - Q @ Q.T
    rng = rng_from_path(path, "probe")
    g = rng.standard_normal((64, probes))
    pairs = rng.integers(0, 64, size=(probes, 2))
    signs = 2.0 * rng.integers(0, 2, size=probes) - 1.0
    C = np.concatenate([(P @ g).T, P, P[pairs[:, 0]] + signs[:, None] * P[pairs[:, 1]]])
    norms = np.linalg.norm(C, axis=1)
    # a 2-sparse probe e_i - e_i is 0 and certifies nothing
    scaled = np.divide(norms, gauge_batch(spec, C), out=np.zeros_like(norms), where=norms > 1e-14)
    res = kernel_section_diameter(dist, spec, m, probes, path)
    assert res.lower_bound == 2.0 * float(scaled.max())
    assert (res.kernel_dim, res.rank_deficient) == (64 - m, False)


@pytest.mark.parametrize("family, nu", [("symmetric_pareto", 5.0), ("rademacher", None)])
def test_nested_sums_are_prefix_sums(family, nu):
    # one draws x m_max x dim sample, in two chunks; every m reads its first m rows
    dist, ms, draws, dim = DistributionSpec(family, 16, tail_param=nu), [3, 10, 40], 7000, 16
    chunk = 4_000_000 // (ms[-1] * dim)
    assert chunk < draws
    rng = rng_from_path((25,), "X")
    X = np.concatenate([sample_coordinates(dist, (min(chunk, draws - done), ms[-1], dim), rng)
                        for done in range(0, draws, chunk)])
    sums = _normalized_sums(dist, ms, draws, rng_from_path((25,), "X"))
    assert sums.shape == (3, draws, dim)
    for m, s in zip(ms, sums):
        assert np.abs(s - X[:, :m].sum(axis=1) / math.sqrt(m)).max() <= 1e-12


def test_nested_sums_of_drawn_rows_are_sums_of_row_slices():
    # a law that is not a gaussian mixture: each increment is the sum of its
    # slice of drawn rows, bit for bit, in dimension 1 too (one chunk)
    for dim in (1, 5):
        dist, ms, draws = DistributionSpec("symmetric_pareto", dim, tail_param=4.5), [3, 20, 41], 60
        X = sample_coordinates(dist, (draws, ms[-1], dim), rng_from_path((27, dim), "X"))
        total, expect = 0.0, []
        for lo, hi in zip([0, *ms], ms):
            total = total + X[:, lo:hi].sum(axis=1)
            expect.append(total * (1.0 / math.sqrt(hi)))
        sums = _normalized_sums(dist, ms, draws, rng_from_path((27, dim), "X"))
        assert np.array_equal(sums, np.stack(expect))


def test_gaussian_nested_sums_are_one_gaussian_block_per_increment():
    # W = 1 draws no mixing values: each chunk of about 4M values draws one
    # draws x dim gaussian block per grid increment, bit for bit (m 1, 2, 5
    # at dim 1000 take three chunks)
    dist, ms, draws, dim = DistributionSpec("gaussian", 1000), [1, 2, 5], 3000, 1000
    rng = rng_from_path((28,), "X")
    chunk = 4_000_000 // (len(ms) * dim)
    assert 2 * chunk < draws
    expect = np.empty((len(ms), draws, dim))
    for done in range(0, draws, chunk):
        take, prev = min(chunk, draws - done), 0
        for k, m in enumerate(ms):
            block = math.sqrt(m - prev) * rng.standard_normal((take, dim))
            total = block if k == 0 else total + block
            expect[k, done:done + take] = total * (1.0 / math.sqrt(m))
            prev = m
    assert np.array_equal(_normalized_sums(dist, ms, draws, rng_from_path((28,), "X")),
                          expect)


@pytest.mark.parametrize("nu", [3.0, 8.0])
def test_student_t_nested_sums_have_the_law_of_drawn_sums(nu):
    # the sums at two m, and their increment, against those of drawn
    # coordinates on another seed path (two-sample KS)
    dist, ms, draws, dim = DistributionSpec("student_t", 4, tail_param=nu), [3, 10], 3000, 4
    sums = _normalized_sums(dist, ms, draws, rng_from_path((29, 0), "X"))
    X = sample_coordinates(dist, (draws, ms[-1], dim), rng_from_path((29, 1), "X"))
    drawn = [X[:, :m].sum(axis=1) / math.sqrt(m) for m in ms]
    pairs = [*zip(sums, drawn), (sums[1] * math.sqrt(10) - sums[0] * math.sqrt(3),
                                 drawn[1] * math.sqrt(10) - drawn[0] * math.sqrt(3))]
    for a, b in pairs:
        assert stats.ks_2samp(a.ravel(), b.ravel()).pvalue > 0.01


def test_exact_gaussian_sums_have_the_law_of_nested_sums():
    # m^{-1/2} sum_{i<=m} X_i is standard gaussian in each coordinate, and the
    # sums at m < m' correlate as sqrt(m/m'); each within 5 standard errors
    dist, ms, draws, dim = DistributionSpec("gaussian", 8), [2, 8, 32], 20000, 8
    sums = _normalized_sums(dist, ms, draws, rng_from_path((26,), "X"))
    for s in sums:
        assert np.all(np.abs(s.mean(axis=0)) <= 5.0 / math.sqrt(draws))
        assert np.all(np.abs(s.var(axis=0, ddof=1) - 1.0) <= 5.0 * math.sqrt(2.0 / draws))
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            prod = (sums[i] * sums[j]).ravel()
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            assert abs(prod.mean() - math.sqrt(ms[i] / ms[j])) <= 5.0 * se


def test_r_G_fixed_points_share_one_curve():
    # every m reads the one gaussian sample: each equals its one-m call
    spec, ms = l1_ball(32), [12, 4, 8, 4]
    results = r_G_fixed_points(spec, 1.0, ms, 1e-3, 400, (27,))
    assert results == [r_G_fixed_point(spec, 1.0, m, 1e-3, 400, (27,)) for m in ms]
    assert [res.m for res in results] == ms


# ---------------------------------------------------------------------------
# kernel sections

def test_kernel_projector_matches_svd_oracle():
    for n, m in ((24, 10), (300, 150)):
        Gamma = sample_coordinates(GAUSS8, (m, n), rng_from_path((12,), "X"))
        P, rank = _kernel_projectors(Gamma, [len(Gamma)])[0]
        assert rank == m
        # Q_r @ Q_r.T is a symmetric rank-r product; at n 300 a general product of
        # Q_r and a copy of its transpose is not exactly symmetric
        assert np.array_equal(P, P.T)
        assert np.abs(P @ P - P).max() <= 1e-12
        assert np.abs(Gamma @ P).max() <= 1e-12 * np.linalg.norm(Gamma)
        oracle, oracle_rank = kernel_projector_svd(Gamma)
        assert oracle_rank == rank
        assert np.abs(P - oracle).max() <= 1e-12


def test_kernel_projector_rank_deficient_rows():
    # duplicated, antipodal and dependent rows anywhere in Gamma
    n = 16
    base = sample_coordinates(DistributionSpec("gaussian", n), (5, n), rng_from_path((22,), "X"))
    Gamma = np.vstack([base[0], base[1], base[0], base[2], -base[1], base[3],
                       base[2] - 2.0 * base[3], base[4]])
    P, rank = _kernel_projectors(Gamma, [len(Gamma)])[0]
    assert rank == 5
    assert np.abs(Gamma @ P).max() <= 1e-12 * np.linalg.norm(Gamma)
    assert np.abs(P - kernel_projector_svd(Gamma)[0]).max() <= 1e-12
    # every prefix's projector, full-rank or factored again, is exactly symmetric:
    # the kernel probes read its rows as its columns
    ms = list(range(len(Gamma) + 1))
    assert [rank for _, rank in _kernel_projectors(Gamma, ms)] == [0, 1, 2, 2, 3, 3, 4, 4, 5]
    assert all(np.array_equal(P, P.T) for P, _ in _kernel_projectors(Gamma, ms))

    # two rademacher rows in dimension 3 are equal or antipodal with
    # probability 1/4: such a draw is flagged and keeps a 2-dimensional kernel
    rad3 = DistributionSpec("rademacher", 3)
    found = False
    for i in range(40):
        res = kernel_section_diameter(rad3, l1_ball(3), m=2, probes=10, seed_path=(23, i))
        Gamma = sample_coordinates(rad3, (2, 3), rng_from_path((23, i), "X"))
        rank = np.linalg.matrix_rank(Gamma)
        assert res.kernel_dim == 3 - rank
        assert res.rank_deficient == (rank < 2)
        found |= res.rank_deficient
    assert found


def test_prefix_projectors_match_svd_oracle():
    # one QR of the whole matrix serves every prefix; a prefix that holds a
    # duplicated or antipodal row is factored again
    n = 16
    base = sample_coordinates(DistributionSpec("gaussian", n), (6, n), rng_from_path((28,), "X"))
    Gamma = np.vstack([base[0], base[1], base[0], base[2], -base[1], base[3], base[4], base[5]])
    ms = [0, 1, 2, 3, 4, 5, 8]
    for m, (P, rank) in zip(ms, _kernel_projectors(Gamma, ms)):
        oracle, oracle_rank = kernel_projector_svd(Gamma[:m]) if m else (np.eye(n), 0)
        assert rank == oracle_rank
        assert np.abs(P - oracle).max() <= 1e-12
        assert np.array_equal(P, P.T)
    assert [rank for _, rank in _kernel_projectors(Gamma, ms)] == [0, 1, 2, 2, 3, 3, 6]


@pytest.mark.parametrize("family, nu", [
    ("gaussian", None), ("student_t", 5.0), ("rademacher", None),
])
def test_kernel_bounds_nonincreasing_in_m(family, nu):
    # ker of the first m' rows lies in ker of the first m < m', so each
    # trial's bound is nonincreasing in m; at m_max it is the one-m bound
    dist, spec, ms = DistributionSpec(family, 24, tail_param=nu), l1_ball(24), [4, 8, 12, 20]
    for i in range(20):
        res = kernel_section_diameters(dist, spec, ms[::-1], 20, (29, i))[::-1]
        assert [r.m for r in res] == ms
        lbs = [r.lower_bound for r in res]
        assert all(b <= a for a, b in zip(lbs, lbs[1:]))
        assert res[-1] == kernel_section_diameter(dist, spec, ms[-1], 20, (29, i))
        if family != "rademacher":
            assert [r.kernel_dim for r in res] == [24 - m for m in ms]


_KERNEL_SETS = {
    "l1_ball": lambda n: l1_ball(n, 1.5),
    "l2_ball": lambda n: l2_ball(n, 0.8),
    "sparse_cap": lambda n: sparse_cap(n, 3),
    "l1_cap_l2": lambda n: l1_cap_l2(n, 2.0, 0.7),
    "permutation_polytope": lambda n: permutation_polytope(np.linspace(1.0, 0.0, n)),
}


@pytest.mark.parametrize("law, nu", [
    ("gaussian", None), ("student_t", 5.0), ("rademacher", None), ("symmetric_pareto", 4.5),
])
@pytest.mark.parametrize("family", list(_KERNEL_SETS))
def test_kernel_bounds_equal_the_column_batch(family, law, nu):
    # the row batch of probes gives the bounds of the column batch, bit for bit, at
    # nested m; rademacher rows in dimension 8, on the seed paths of the 8 trials of
    # a gelfand run at master seed 7, give a rank-deficient prefix on 3 of them
    cases = [(17, [0, 5, 9, 14], (30, i)) for i in range(8)]
    if law == "rademacher":
        cases += [(8, [4, 6], (7, 0, i)) for i in range(8)]
    deficient = 0
    for n, ms, path in cases:
        dist, spec = DistributionSpec(law, n, tail_param=nu), _KERNEL_SETS[family](n)
        res = kernel_section_diameters(dist, spec, ms, 12, path)
        Gamma = sample_coordinates(dist, (ms[-1], n), rng_from_path(path, "X"))
        rng = rng_from_path(path, "probe")
        g = rng.standard_normal((n, 12))
        pairs = rng.integers(0, n, size=(12, 2))
        signs = 2.0 * rng.integers(0, 2, size=12) - 1.0
        bounds = [kernel_bound_column_batch(spec, P, g, pairs, signs)
                  for P, _ in _kernel_projectors(Gamma, ms)]
        for k in range(len(ms) - 2, -1, -1):
            bounds[k] = max(bounds[k], bounds[k + 1])
        assert [r.lower_bound for r in res] == bounds, (n, path)
        deficient += any(r.rank_deficient for r in res)
    assert deficient == (3 if law == "rademacher" else 0)


def test_kernel_diameter_no_constraints_reaches_2d2():
    for spec in (l1_ball(8, 1.5), l2_ball(8, 0.8), sparse_cap(8, 2), l1_ball(8)):
        res = kernel_section_diameter(GAUSS8, spec, m=0, probes=50, seed_path=(13,))
        assert res.lower_bound == pytest.approx(2.0 * d2(spec), rel=1e-9)


def test_kernel_diameter_l2_ball_full_diameter():
    # whenever the kernel is nontrivial the euclidean ball contributes 2r
    dist = DistributionSpec("gaussian", 10)
    res = kernel_section_diameter(dist, l2_ball(10, 1.0), m=4, probes=100, seed_path=(14,))
    assert res.lower_bound == pytest.approx(2.0, rel=1e-9)
    assert res.kernel_dim == 6


def test_kernel_diameter_probe_membership():
    # reconstructed probes rescaled by the gauge must land on the boundary
    dist = DistributionSpec("gaussian", 12)
    spec = l1_ball(12)
    res = kernel_section_diameter(dist, spec, m=5, probes=64, seed_path=(15,))
    assert res.lower_bound > 0
    # rebuild one probe direction deterministically and verify the scaling
    Gamma = sample_coordinates(dist, (5, 12), rng_from_path((15,), "X"))
    P, _ = _kernel_projectors(Gamma, [len(Gamma)])[0]
    g = rng_from_path((15,), "probe").standard_normal((12, 64))
    v = (P @ g)[:, 0]
    assert np.abs(Gamma @ v).max() <= 1e-12 * np.linalg.norm(Gamma) * np.linalg.norm(v)
    gv = gauge(spec, v)
    assert gauge(spec, v / gv) == pytest.approx(1.0, abs=1e-9)


def test_kernel_diameter_lower_bound_below_true_diameter_l2():
    # sanity: for the euclidean ball the true diameter is known exactly
    dist = DistributionSpec("gaussian", 9)
    res = kernel_section_diameter(dist, l2_ball(9, 1.0), m=3, probes=40, seed_path=(16,))
    assert res.lower_bound <= 2.0 + 1e-9


def test_kernel_diameter_parameter_validation():
    with pytest.raises(ValueError):
        kernel_section_diameter(GAUSS8, l1_ball(8), m=8, probes=10, seed_path=(17,))
    with pytest.raises(ValueError):
        kernel_section_diameter(GAUSS8, l1_ball(8), m=2, probes=0, seed_path=(18,))


# ---------------------------------------------------------------------------
# calibration

def test_calibrated_gamma_is_the_largest_reaching_the_target():
    # on the calibration's own sample, r_G reaches rho = margin * max lb / 2
    # just below the returned gamma and falls short just above it
    n, m, path = 32, 8, (8,)
    spec, dist = l1_ball(n), DistributionSpec("gaussian", n)
    gamma = calibrate_kernel_constant(dist, spec, m, calibration_draws=10, seed_path=path,
                                      probes=200, width_draws=500)
    lbs = [kernel_section_diameter(dist, spec, m, 200, (*path, i)).lower_bound
           for i in range(10)]
    rho = min(1.05 * max(lbs) / 2.0, d2(spec))
    sample = np.concatenate(list(geometry._gaussian_blocks(n, 500, (*path, 10_000))))
    width, tol = _width_curve(spec, sample), 1e-9 * d2(spec)
    assert _fixed_point(width, spec, gamma * (1 - 1e-9), m, tol).r_star >= rho
    assert _fixed_point(width, spec, gamma * (1 + 1e-9), m, tol).r_star < rho


@pytest.mark.parametrize("n, m, seed, bisected", [
    (128, 60, 100_010, 1.191963), (64, 20, 7, 1.221294), (32, 8, 8, 1.132391),
], ids=["128-60-100010", "64-20-7", "32-8-8"])
def test_calibrated_gamma_matches_the_bisection(n, m, seed, bisected):
    # the values a 40-step bisection over gamma gave, which stops at a grid
    # point below the target radius
    gamma = calibrate_kernel_constant(DistributionSpec("gaussian", n), l1_ball(n), m,
                                      calibration_draws=40, seed_path=(seed,))
    assert gamma == pytest.approx(bisected, rel=3e-3)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emplab import geometry
from emplab.geometry import (
    IndexSetSpec,
    d2,
    gauge,
    gauge_batch,
    gaussian_mean_width,
    gaussian_mean_widths,
    gaussian_width,
    l1_ball,
    l1_cap_l2,
    l2_ball,
    localized_support_batch,
    permutation_polytope,
    sparse_cap,
    support,
    support_batch,
    support_curve,
    unconditionality_check,
)
from emplab.streams import rng_from_path

from _oracles import (
    gauge_direct,
    gaussian_l2_norm_mean,
    support_l1_cap_l2_sandwich,
    support_l1_vertices,
    support_permutation_polytope_enum,
    support_sparse_cap_enum,
)


def all_specs(n, rng):
    return [
        l1_ball(n, 1.0),
        l2_ball(n, 1.3),
        sparse_cap(n, max(1, n // 3)),
        l1_cap_l2(n, 1.0, 0.6),
        permutation_polytope(rng.standard_normal(n)),
    ]


# ---------------------------------------------------------------------------
# closed forms vs oracles

def test_l1_ball_vertex_examples():
    rng = np.random.default_rng(7041)
    spec = l1_ball(4, 1.0)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    assert support(spec, e1) == 1.0
    z = rng.standard_normal(4)
    assert support(spec, z) == pytest.approx(support_l1_vertices(z, 1.0))


def test_sparse_cap_345():
    spec = sparse_cap(6, 2)
    z = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    assert support(spec, z) == 5.0


def test_sparse_cap_enumeration():
    rng = np.random.default_rng(7042)
    for _ in range(50):
        z = rng.standard_normal(7)
        s = int(rng.integers(1, 7))
        assert support(sparse_cap(7, s), z) == pytest.approx(
            support_sparse_cap_enum(z, s), rel=1e-12
        )


def test_permutation_polytope_enumeration():
    rng = np.random.default_rng(7043)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        w = rng.standard_normal(n)
        z = rng.standard_normal(n)
        assert support(permutation_polytope(w), z) == pytest.approx(
            support_permutation_polytope_enum(z, w), rel=1e-12
        )


def test_permutation_polytope_zero_generator():
    # w = 0 generates the set {0}, which has no width to normalize by
    with pytest.raises(ValueError, match="set {0}"):
        permutation_polytope(np.zeros(5))


def test_l1_cap_l2_l2_constraint_binds_alone():
    rng = np.random.default_rng(7044)
    z = rng.standard_normal(8)
    r = 0.9 * np.linalg.norm(z) / np.abs(z).sum()  # r <= ||z||_2 * rho/||z||_1
    spec = l1_cap_l2(8, 1.0, r)
    assert support(spec, z) == pytest.approx(r * np.linalg.norm(z), rel=1e-12)


def test_l1_cap_l2_spec_example_vs_sandwich():
    z = np.array([1.0, 0.8, 0.1])
    spec = l1_cap_l2(3, 1.0, 0.5)
    [lower], [upper] = support_l1_cap_l2_sandwich(z[None, :], 1.0, 0.5)
    got = support(spec, z)
    assert max(upper - got, got - lower) <= 1e-14 * upper


def test_l1_cap_l2_duality_sandwich():
    # a feasible point bounds the support from below, a dual point from
    # above; got within 1e-14 of both ends pins it and the bounds' gap
    rng = np.random.default_rng(7045)
    Z = rng.standard_normal((200, 6))
    rho, r = 1.0, 0.45
    lower, upper = support_l1_cap_l2_sandwich(Z, rho, r)
    got = support_batch(l1_cap_l2(6, rho, r), Z)
    assert np.all(np.maximum(upper - got, got - lower) <= 1e-14 * upper)


def _breakpoint_radii(z, rho):
    """The r with rho/r equal to z's ratio ||soft(z, a_k)||_1/||soft(z, a_k)||_2 at a few k."""
    a = sorted(np.abs(z), reverse=True)
    radii = []
    for k in sorted({2, len(a) // 2, len(a)} & set(range(2, len(a) + 1))):
        d = [x - a[k - 1] for x in a[:k - 1]]
        l1 = math.fsum(d)
        if l1 > 0:
            radii.append(rho * math.sqrt(math.fsum(x * x for x in d)) / l1)
    return radii


@pytest.mark.parametrize("kind", ["gaussian", "tied", "zero", "student_t"])
@pytest.mark.parametrize("n", [1, 2, 128, 1024])
def test_l1_cap_l2_segment_search_within_sandwich(n, kind):
    rng = np.random.default_rng(7056 + n)
    Z = {"gaussian": lambda: rng.standard_normal((20, n)),
         "tied": lambda: np.round(2.0 * rng.standard_normal((20, n))) / 2.0,
         "zero": lambda: np.zeros((3, n)),
         "student_t": lambda: rng.standard_t(3.0, (20, n))}[kind]()
    rho = 0.7
    radii = [1e-300, 1e-3 * rho, *_breakpoint_radii(Z[0], rho), *_breakpoint_radii(Z[1], rho),
             rho, 2.0 * rho, 100.0]
    curve = support_curve(l1_ball(n, rho), Z)
    for r in radii:
        lower, upper = support_l1_cap_l2_sandwich(Z, rho, r)
        for got in (curve(r), support_batch(l1_cap_l2(n, rho, r), Z)):
            # the breakpoint norms are sums of nonnegative terms: no cancellation
            tol = 1e-14 * upper
            assert np.all((got >= lower - tol) & (got <= upper + tol)), r


def test_l1_curve_evaluation_memory_is_bounded():
    # one radius on a widths-demo block, 20000 x 128 gaussians: a count over
    # the ratios and a few values per row, no float array the block's size (20 MB)
    Z = rng_from_path((66,), "gaussian").standard_normal((20000, 128))
    curve = support_curve(l1_ball(128), Z)
    tracemalloc.start()
    try:
        curve(0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ---------------------------------------------------------------------------
# algebraic properties

@pytest.mark.parametrize("n", [3, 8])
def test_homogeneity_power_of_two_exact(n):
    rng = np.random.default_rng(7046)
    for spec in all_specs(n, rng):
        z = rng.standard_normal(n)
        h = support(spec, z)
        assert support(spec, 2.0 * z) == 2.0 * h
        assert support(spec, -4.0 * z) == 4.0 * h


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_homogeneity_general(c):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(5)
    for spec in all_specs(5, rng):
        assert support(spec, c * z) == pytest.approx(c * support(spec, z), rel=1e-11)


@pytest.mark.parametrize("n", [4, 10])
def test_unconditionality_all_families(n):
    rng = np.random.default_rng(7048)
    for spec in all_specs(n, rng):
        report = unconditionality_check(spec, trials=200, seed_path=(17,))
        assert report.passed, (spec.label(), report)


def test_localized_upper_bounds_and_monotonicity():
    rng = np.random.default_rng(7049)
    n = 9
    radii = [0.2, 0.5, 1.0, 2.0]
    for spec in all_specs(n, rng):
        for _ in range(20):
            z = rng.standard_normal(n)
            h_full = support(spec, z)
            values = [localized_support_batch(spec, z[None, :], r)[0] for r in radii]
            for r, hv in zip(radii, values):
                assert hv <= min(h_full, r * np.linalg.norm(z)) + 1e-9
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-9  # nondecreasing in r
            ratios = [hv / r for r, hv in zip(radii, values)]
            for a, b in zip(ratios, ratios[1:]):
                assert b <= a + 1e-9  # phi(r) nonincreasing


@pytest.mark.parametrize("spec", [
    l1_ball(12, 1.5), l2_ball(12, 0.8), sparse_cap(12, 4), l1_cap_l2(12, 2.0, 0.7),
    permutation_polytope(np.linspace(1.0, -0.4, 12)),
], ids=lambda spec: spec.family)
def test_support_curve_matches_localized_support_batch(spec):
    rng = np.random.default_rng(7032)
    Z = rng.standard_normal((40, 12)) * np.exp(rng.uniform(-2.0, 2.0, (40, 1)))
    Z[::7] = 0.0  # zero rows
    Z[3, :6] = -Z[3, 6:]  # tied |z| within a row
    Z[4] = np.round(Z[4])  # more ties, and zero entries
    if spec.family == "permutation_polytope":
        Z = Z[:10]  # the one family without a closed form
    radii = [1e-300, 1e-12, 0.03, 0.4, *np.abs(Z[1, :3]), *np.abs(Z[3, :2]),
             d2(spec), 2.0 * d2(spec), 100.0]
    curve = support_curve(spec, Z)
    # any order of radii, and a radius evaluated twice, give the same bits
    for r in [*radii, *radii[::-1]]:
        assert np.array_equal(curve(r), localized_support_batch(spec, Z, r))
    # ... and a row gives the same bits in a batch as alone
    for r in radii[:6]:
        values = curve(r)
        assert all(values[i] == localized_support_batch(spec, Z[i][None, :], r)[0]
                   for i in range(0, len(Z), 3))
    with pytest.raises(ValueError):
        curve(0.0)


def test_localized_l1_equality_when_l2_binds():
    rng = np.random.default_rng(7050)
    z = rng.standard_normal(7)
    spec = l1_ball(7, 1.0)
    r = 0.9 * np.linalg.norm(z) / np.abs(z).sum()
    assert localized_support_batch(spec, z[None, :], r)[0] == pytest.approx(
        r * np.linalg.norm(z), rel=1e-12
    )


def test_localized_permutation_polytope_cross_forms():
    # w = e1 makes the polytope an l1 ball: must match the breakpoint scan
    rng = np.random.default_rng(7051)
    n = 8
    w = np.zeros(n)
    w[0] = 1.0
    pp = permutation_polytope(w)
    ball = l1_ball(n, 1.0)
    for _ in range(40):
        z = rng.standard_normal(n) * math.exp(rng.uniform(-1, 1))
        r = rng.uniform(0.05, 2.0)
        assert localized_support_batch(pp, z[None, :], r)[0] == pytest.approx(
            localized_support_batch(ball, z[None, :], r)[0], rel=1e-9
        )


def test_localized_permutation_polytope_cube_oracle():
    # w = ones makes the polytope the cube: infimal convolution of the l1
    # norm and the scaled l2 norm has a scalar clip characterization
    rng = np.random.default_rng(7052)
    n = 5
    cube = permutation_polytope(np.ones(n))

    def oracle(z, r):
        a = np.abs(z)

        def val(kappa):
            return np.maximum(a - kappa, 0.0).sum() + r * np.linalg.norm(np.minimum(a, kappa))

        lo, hi = 0.0, a.max()
        invphi = (math.sqrt(5) - 1) / 2
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        f1, f2 = val(x1), val(x2)
        for _ in range(200):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = val(x1)
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = val(x2)
        return min(val(0.0), f1, f2, a.sum())

    for _ in range(40):
        z = rng.standard_normal(n) * math.exp(rng.uniform(-1, 1))
        r = rng.uniform(0.05, 3.0)
        assert localized_support_batch(cube, z[None, :], r)[0] == pytest.approx(
            oracle(z, r), rel=1e-9
        )


def test_localized_permutation_polytope_scan_is_short(monkeypatch):
    # each evaluation of the scalar scan is one OWL prox
    calls = []
    prox = geometry._prox_owl
    monkeypatch.setattr(geometry, "_prox_owl", lambda *a: calls.append(1) or prox(*a))
    spec = permutation_polytope(np.linspace(1.0, -0.4, 32))
    z = np.random.default_rng(7033).standard_normal(32)
    assert 0.0 < localized_support_batch(spec, z[None, :], 0.3 * d2(spec))[0] < support(spec, z)
    assert 0 < len(calls) <= 40


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        support(l1_ball(4), np.zeros(5))


# ---------------------------------------------------------------------------
# d2 and gauge

def test_d2_values():
    assert d2(l1_ball(6, 2.0)) == 2.0
    assert d2(l2_ball(6, 0.7)) == 0.7
    assert d2(sparse_cap(6, 3)) == 1.0
    assert d2(l1_cap_l2(6, 2.0, 0.5)) == 0.5
    w = np.array([3.0, -4.0, 0.0])
    assert d2(permutation_polytope(w)) == 5.0
    assert d2(l1_ball(6, 2.0), localized_radius=0.3) == 0.3


def test_gauge_membership_scaling():
    rng = np.random.default_rng(7053)
    n = 6
    for spec in all_specs(n, rng):
        for _ in range(20):
            v = rng.standard_normal(n)
            if spec.family == "sparse_cap":
                dense = v.copy()
                assert gauge(spec, dense) == math.inf or np.count_nonzero(dense) <= spec.s
                v = np.zeros(n)
                v[: spec.s] = rng.standard_normal(spec.s)
            gv = gauge(spec, v)
            assert math.isfinite(gv) and gv > 0
            assert gauge(spec, v / gv) == pytest.approx(1.0, abs=1e-9)


def test_gauge_batch_matches_rowwise_gauge():
    rng = np.random.default_rng(7054)
    n = 6
    for spec in all_specs(n, rng):
        V = rng.standard_normal((40, n))
        V[0] = 0.0
        V[1, 2:] = 0.0  # 2-sparse: inside every sparse cap here
        got = gauge_batch(spec, V)
        assert got.shape == (40,)
        for v, g in zip(V, got):
            assert g == gauge(spec, v)
            assert g == pytest.approx(gauge_direct(spec, v), rel=1e-12, abs=0.0)
        assert got[0] == 0.0
        if spec.family == "sparse_cap":
            # dense rows have no scaling into the cap
            assert np.array_equal(np.isinf(got), np.count_nonzero(V, axis=1) > spec.s)
            assert np.isinf(got[2:]).all()
    # closed forms, row by row
    V = np.array([[1.0, -1.0, 0.0], [0.0, 3.0, 4.0]])
    assert list(gauge_batch(l1_ball(3, 2.0), V)) == [1.0, 3.5]
    assert list(gauge_batch(l2_ball(3, 2.0), V)) == pytest.approx([math.sqrt(2) / 2, 2.5])
    assert list(gauge_batch(sparse_cap(3, 1), V)) == [math.inf, math.inf]
    assert list(gauge_batch(sparse_cap(3, 2), V)) == pytest.approx([math.sqrt(2), 5.0])
    assert list(gauge_batch(l1_cap_l2(3, 7.0, 0.5), V)) == pytest.approx([2 * math.sqrt(2), 10.0])
    assert list(gauge_batch(permutation_polytope([2.0, 1.0, 0.0]), V)) == [2.0 / 3.0, 7.0 / 3.0]
    with pytest.raises(ValueError):
        gauge_batch(l1_ball(3), np.zeros((2, 4)))


def test_gauge_known_values():
    assert gauge(l1_ball(3, 2.0), np.array([1.0, -1.0, 0.0])) == 1.0
    assert gauge(l2_ball(3, 2.0), np.array([0.0, 2.0, 0.0])) == 1.0
    w = np.array([2.0, 1.0])
    # prefix sums of w* are (2, 3); v = (2, 1) sits on the boundary
    assert gauge(permutation_polytope(w), np.array([1.0, 2.0])) == 1.0
    assert gauge(permutation_polytope(w), np.array([4.0, 2.0])) == 2.0


def test_gauge_consistency_with_support():
    # duality spot check: <v, z> <= gauge(v) * support(z) for all pairs
    rng = np.random.default_rng(7055)
    n = 7
    for spec in all_specs(n, rng):
        for _ in range(30):
            z = rng.standard_normal(n)
            v = rng.standard_normal(n)
            if spec.family == "sparse_cap":
                v = np.zeros(n)
                v[: spec.s] = rng.standard_normal(spec.s)
            gv = gauge(spec, v)
            if math.isfinite(gv):
                assert abs(v @ z) <= gv * support(spec, z) + 1e-9


# ---------------------------------------------------------------------------
# widths and order statistics

def test_width_l1_n1_gaussian_abs_mean():
    est = gaussian_mean_width(l1_ball(1, 1.0), draws=100_000, seed_path=(21,))
    target = math.sqrt(2.0 / math.pi)
    assert abs(est.mean - target) <= 3.0 * est.std_error


@pytest.mark.parametrize("rho", [1.0, 0.25])
def test_gaussian_width_l1_ball_exact(rho):
    # rho E max|g_j|: sqrt(2/pi) and 2/sqrt(pi) at n = 1, 2; 30-digit quadratures beyond
    assert gaussian_width(l1_ball(1, rho)) == pytest.approx(rho * math.sqrt(2.0 / math.pi),
                                                            rel=1e-15)
    assert gaussian_width(l1_ball(2, rho)) == pytest.approx(rho * 2.0 / math.sqrt(math.pi),
                                                            rel=1e-15)
    assert gaussian_width(l1_ball(64, rho)) == pytest.approx(rho * 2.59611076514665028, rel=1e-15)
    assert gaussian_width(l1_ball(1024, rho)) == pytest.approx(rho * 3.44187028049857901,
                                                               rel=1e-15)


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_gaussian_width_l2_ball_exact(r):
    # r E||G||_2 = r sqrt(2) Gamma((n+1)/2) / Gamma(n/2)
    for n, target in [(1, math.sqrt(2.0 / math.pi)), (2, math.sqrt(math.pi / 2.0)),
                      (3, 2.0 * math.sqrt(2.0 / math.pi))]:
        assert gaussian_width(l2_ball(n, r)) == pytest.approx(r * target, rel=1e-15)


@pytest.mark.parametrize("ball", [l1_ball, l2_ball])
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_gaussian_width_agrees_with_monte_carlo(ball, n):
    est = gaussian_mean_width(ball(n), draws=4000, seed_path=(30, n))
    assert abs(gaussian_width(ball(n)) - est.mean) <= 4.0 * est.std_error


@pytest.mark.parametrize("ball", [l1_ball, l2_ball])
def test_gaussian_width_increases_in_n_and_scales_with_radius(ball):
    # across the switch of the l2 ball from the gamma ratio to its series
    widths = [gaussian_width(ball(n)) for n in [*range(1, 80), 10**3, 10**4, 10**6]]
    assert all(a < b for a, b in zip(widths, widths[1:]))
    for n in (5, 40, 700):
        assert gaussian_width(ball(n, 2.5)) == pytest.approx(2.5 * gaussian_width(ball(n)),
                                                             rel=1e-15)


@pytest.mark.parametrize("spec", [sparse_cap(8, 2), l1_cap_l2(8, 1.0, 0.5),
                                  permutation_polytope(np.linspace(1.0, 0.1, 8))],
                         ids=lambda spec: spec.family)
def test_gaussian_width_none_without_closed_form(spec):
    assert gaussian_width(spec) is None


def test_width_l2_ball_vs_direct_norm_simulation():
    # the Monte-Carlo estimate against the exact chi mean E||G||_2
    n = 100
    est = gaussian_mean_width(l2_ball(n, 1.0), draws=50_000, seed_path=(22,))
    assert abs(est.mean - gaussian_l2_norm_mean(n)) <= 3.0 * est.std_error


def test_width_degenerate_polytope_zero():
    # w = 0 generates the set {0}: it is refused before any width is drawn
    with pytest.raises(ValueError, match="set {0}"):
        gaussian_mean_width(permutation_polytope(np.zeros(6)), draws=100, seed_path=(23,))
    # one nonzero entry c is kept: conv{±c e_i}, of width c E max_i |g_i| on the same sample
    w = np.zeros(6)
    w[0] = 0.25
    est = gaussian_mean_width(permutation_polytope(w), draws=2000, seed_path=(23,))
    assert est.d2 == 0.25
    G = rng_from_path((23,), "gaussian").standard_normal((2000, 6))
    assert est.mean == pytest.approx(0.25 * np.abs(G).max(axis=1).mean(), rel=1e-12)


def test_width_estimate_fields():
    est = gaussian_mean_width(l1_ball(16), draws=5000, localized_radius=0.5, seed_path=(24,))
    assert est.draws == 5000
    assert est.localized_radius == 0.5
    assert est.d2 == 0.5
    assert est.complexity_ratio == pytest.approx((est.mean / 0.5) ** 2)
    assert est.std_error > 0


def test_width_determinism_and_chunk_invariance():
    a = gaussian_mean_width(l1_ball(600), draws=9000, seed_path=(25,))
    b = gaussian_mean_width(l1_ball(600), draws=9000, seed_path=(25,))
    assert a.mean == b.mean and a.std_error == b.std_error


@pytest.mark.parametrize("spec", all_specs(24, np.random.default_rng(7031)), ids=lambda spec: spec.family)
def test_gaussian_mean_widths_match_one_radius_calls(spec, monkeypatch):
    # blocks of 8 rows: 30 draws span four blocks, the last one partial
    monkeypatch.setattr(geometry, "_GAUSSIAN_BLOCK_VALUES", 8 * spec.dim)
    draws, path = 30, (29, 3)
    radii = [0.3 * d2(spec), None, 1e-300, 2.0 * d2(spec), 0.3 * d2(spec), 0.05]
    many = gaussian_mean_widths(spec, draws, radii, path)
    G = rng_from_path(path, "gaussian").standard_normal((draws, spec.dim))
    blocks = list(geometry._gaussian_blocks(spec.dim, draws, path))
    assert [len(b) for b in blocks] == [8, 8, 8, 6]
    assert np.array_equal(G, np.concatenate(blocks))
    for r, est in zip(radii, many):
        assert est == gaussian_mean_width(spec, draws, r, path)
        # the sample drawn at once, evaluated at once
        assert est == geometry._make_width_estimate(localized_support_batch(spec, G, r), spec, r)


# ---------------------------------------------------------------------------
# spec validation

def test_spec_validation():
    with pytest.raises(ValueError):
        IndexSetSpec("l1_ball", 4, rho=0.0)
    with pytest.raises(ValueError):
        IndexSetSpec("sparse_cap", 4, s=0)
    with pytest.raises(ValueError):
        IndexSetSpec("permutation_polytope", 4, w=(1.0, 2.0))
    with pytest.raises(ValueError):
        IndexSetSpec("mystery", 4)

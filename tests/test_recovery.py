import csv
import math
import warnings

import numpy as np
import pytest

from emplab.distributions import DistributionSpec, NoiseSpec
from emplab.harness import ExperimentConfig, run
from emplab.streams import child_path
from emplab.recovery import (
    RecoveryProblem,
    basis_pursuit,
    bp_recovers,
    certifies_recovery,
    rate_penalty,
    lasso,
    make_recovery_problem,
    recovery_success,
)

from _oracles import basis_pursuit_enum, lasso_kkt_enum


def _random_sparse_instance(n, N, s, rng, noise_sd=0.0, lam=0.0):
    Gamma = rng.standard_normal((N, n))
    v0 = np.zeros(n)
    idx = rng.choice(n, s, replace=False)
    v0[idx] = rng.choice([-1.0, 1.0], s)
    y = Gamma @ v0 - noise_sd * rng.standard_normal(N)
    return RecoveryProblem(Gamma, y, v0, s, lam=lam)


# ---------------------------------------------------------------------------
# LASSO

def test_lasso_unregularized_orthonormal_recovers_exactly():
    rng = np.random.default_rng(9221)
    n, N = 6, 12
    q, _ = np.linalg.qr(rng.standard_normal((N, n)))
    v0 = np.zeros(n)
    v0[[1, 4]] = [1.0, -1.0]
    prob = RecoveryProblem(q, q @ v0, v0, 2, lam=0.0)
    res = lasso(prob)
    np.testing.assert_allclose(res.v_hat, v0, atol=1e-10)
    assert res.converged


def test_lasso_one_dimensional_soft_threshold():
    # column scaled so (1/N) sum x_i^2 = 1  =>  v_hat = soft(a, lam/2)
    N, a, lam = 40, 0.9, 0.5
    col = np.ones(N)
    prob = RecoveryProblem(col[:, None], a * col, np.array([a]), 1, lam=lam)
    res = lasso(prob)
    assert res.v_hat[0] == pytest.approx(a - lam / 2.0, rel=1e-12)
    shrunk_away = RecoveryProblem(col[:, None], 0.2 * col, np.array([0.2]), 1, lam=0.5)
    assert lasso(shrunk_away).v_hat[0] == 0.0


def test_lasso_zero_data_zero_solution():
    rng = np.random.default_rng(9222)
    prob = RecoveryProblem(rng.standard_normal((8, 5)), np.zeros(8), np.zeros(5), 0, lam=0.3)
    res = lasso(prob)
    assert np.all(res.v_hat == 0.0)


def test_lasso_empty_problem_has_a_finite_objective():
    # N = 0: the empty residual contributes 0 (not 0/0), leaving lam * ||v||_1 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lasso(RecoveryProblem(np.zeros((0, 4)), np.zeros(0), np.zeros(4), 0, lam=0.3))
    assert np.array_equal(res.v_hat, np.zeros(4)) and res.converged
    assert res.objective == 0.0


def test_lasso_result_consistency_on_recompute():
    rng = np.random.default_rng(9223)
    prob = _random_sparse_instance(10, 20, 3, rng, noise_sd=0.2, lam=0.1)
    res = lasso(prob)
    r = prob.Gamma @ res.v_hat - prob.y
    obj = float(r @ r) / len(r) + prob.lam * float(np.abs(res.v_hat).sum())
    assert res.residual == pytest.approx(np.linalg.norm(r), rel=1e-10)
    assert res.objective == pytest.approx(obj, rel=1e-10)


def _kkt_violation(prob, v):
    """Largest KKT violation of v, over max(lam, (2/N)||Gamma^T y||_inf).

    With c = (2/N) Gamma^T (y - Gamma v): |c_j - lam sign(v_j)| on the
    support of v, and |c_j| - lam off it.
    """
    N = prob.Gamma.shape[0]
    c = (2.0 / N) * prob.Gamma.T @ (prob.y - prob.Gamma @ v)
    scale = max(prob.lam, (2.0 / N) * float(np.abs(prob.Gamma.T @ prob.y).max()))
    on = v != 0
    worst = max(np.abs(c[on] - prob.lam * np.sign(v[on])).max(initial=0.0),
                (np.abs(c[~on]) - prob.lam).max(initial=0.0))
    return float(worst) / scale


def test_lasso_kkt_residual():
    # the exact path ends on the KKT conditions to rounding, far inside the
    # 1e-9 relative tolerance that converged certifies
    rng = np.random.default_rng(9224)
    prob = _random_sparse_instance(12, 24, 3, rng, noise_sd=0.3, lam=0.2)
    res = lasso(prob)
    assert res.converged
    assert _kkt_violation(prob, res.v_hat) <= 1e-12


def test_lasso_matches_kkt_enumeration():
    rng = np.random.default_rng(9225)
    for trial in range(20):
        n, N = 6, 5
        prob = _random_sparse_instance(n, N, 2, rng, noise_sd=0.4, lam=0.3)
        res = lasso(prob)
        obj_oracle, _ = lasso_kkt_enum(prob.Gamma, prob.y, prob.lam)
        assert res.objective == pytest.approx(obj_oracle, rel=1e-8, abs=1e-10)


def test_lasso_errors_lp_keys():
    rng = np.random.default_rng(9226)
    prob = _random_sparse_instance(8, 16, 2, rng, lam=0.05)
    res = lasso(prob)
    assert set(res.errors_lp) == {1.0, 1.5, 2.0}


@pytest.mark.parametrize("family", ["gaussian", "student_t"])
def test_lasso_certified_on_continuous_designs(family):
    # criterion-09 shape (n 8, N 6, lam 0.25) and bp-phase shapes (n 128,
    # N through the phase transition, the rate penalty): every solve is
    # certified, and the certificate agrees with an independent KKT check
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    shapes = [(8, 6, 2, 0.25)] + [(128, N, 4, rate_penalty(noise, N, 128, 2.0))
                                  for N in (12, 24, 48)]
    for n, N, s, lam in shapes:
        dist = DistributionSpec(family, n, tail_param=6.0 if family == "student_t" else None)
        for t in range(25):
            prob = make_recovery_problem(dist, N, s, (7707, n, N, t), noise=noise, lam=lam)
            res = lasso(prob)
            assert res.converged, (n, N, t)
            assert _kkt_violation(prob, res.v_hat) <= 1e-9


def test_lasso_rejoins_on_the_opposite_boundary():
    # criterion-09 shape: coordinate 2 drops at t = 3.20 and rejoins with
    # the opposite sign later on the next segment.  A no-rejoin rule that
    # barred it from the whole segment, not just from the boundary it had
    # left, ended uncertified with objective 0.52884 instead of 0.52873.
    rng = np.random.default_rng(474)
    for _ in range(88):
        Gamma = rng.standard_normal((6, 8))
        v0 = np.zeros(8)
        v0[rng.choice(8, 2, replace=False)] = rng.choice([-1.0, 1.0], 2)
        y = Gamma @ v0 - 0.3 * rng.standard_normal(6)
    res = lasso(RecoveryProblem(Gamma, y, v0, 2, lam=0.25))
    obj_oracle, v_oracle = lasso_kkt_enum(Gamma, y, 0.25)
    assert res.converged
    assert res.objective == pytest.approx(obj_oracle, rel=1e-12)
    np.testing.assert_allclose(res.v_hat, v_oracle, atol=1e-12)
    assert res.v_hat[2] < 0.0


def test_lasso_lambda_zero_interpolates_at_the_bp_optimum():
    # lam = 0 and N < n: the end of the path is the min-l1 interpolant
    rng = np.random.default_rng(4321)
    for noise_sd in (0.0, 0.3):
        for _ in range(10):
            prob = _random_sparse_instance(40, 12, 2, rng, noise_sd=noise_sd)
            res = lasso(prob)
            assert res.converged
            assert res.residual <= 1e-9 * np.linalg.norm(prob.y)
            bp = basis_pursuit(RecoveryProblem(prob.Gamma, prob.y, prob.v0, prob.s))
            assert np.abs(res.v_hat).sum() == pytest.approx(bp.objective, rel=1e-9, abs=1e-9)


def test_lasso_zero_column_stays_zero():
    for lam in (0.2, 0.0):
        prob = _random_sparse_instance(10, 6, 2, np.random.default_rng(17), noise_sd=0.3, lam=lam)
        prob.Gamma[:, 3] = 0.0
        res = lasso(prob)
        assert res.converged
        assert res.v_hat[3] == 0.0


def test_lasso_rademacher_never_certifies_a_violation():
    # +-1 designs at N 6, n 40 have duplicate, antipodal and dependent
    # columns; a solve may come back uncertified, but never converged and
    # off the KKT conditions
    rng = np.random.default_rng(6040)
    uncertified = 0
    for _ in range(200):
        Gamma = rng.choice([-1.0, 1.0], size=(6, 40))
        v0 = np.zeros(40)
        v0[rng.choice(40, 2, replace=False)] = rng.choice([-1.0, 1.0], 2)
        prob = RecoveryProblem(Gamma, Gamma @ v0 - 0.3 * rng.standard_normal(6), v0, 2, lam=0.2)
        res = lasso(prob)
        uncertified += not res.converged
        assert not (res.converged and _kkt_violation(prob, res.v_hat) > 1e-9)
    print(f"rademacher N=6 n=40 lam=0.2: {uncertified}/200 uncertified")


# ---------------------------------------------------------------------------
# basis pursuit

def test_bp_identity_system():
    y = np.array([1.0, -2.0, 0.0, 3.0])
    prob = RecoveryProblem(np.eye(4), y, y, 4)
    res = basis_pursuit(prob)
    np.testing.assert_allclose(res.v_hat, y, atol=1e-9)


def test_bp_zero_rhs():
    rng = np.random.default_rng(9227)
    for N in (3, 0):
        prob = RecoveryProblem(rng.standard_normal((N, 8)), np.zeros(N), np.zeros(8), 0)
        res = basis_pursuit(prob)
        assert np.all(res.v_hat == 0.0)
        assert res.converged


def test_bp_rejects_non_finite_input():
    rng = np.random.default_rng(41)
    Gamma, y = rng.standard_normal((6, 10)), rng.standard_normal(6)
    for bad_Gamma, bad_y in ((np.where(np.eye(6, 10) > 0, np.nan, Gamma), y),
                             (Gamma, np.where(np.arange(6) == 2, np.inf, y))):
        with pytest.raises(ValueError, match="finite"):
            basis_pursuit(RecoveryProblem(bad_Gamma, bad_y, np.zeros(10), 0))
    # an infinite y on a zero row of Gamma, past the n rows that the factor keeps
    Gamma, y = np.vstack([rng.standard_normal((4, 3)), np.zeros((1, 3))]), np.zeros(5)
    y[4] = np.inf
    with pytest.raises(ValueError, match="finite"):
        basis_pursuit(RecoveryProblem(Gamma, y, np.zeros(3), 0))


def test_bp_feasibility_at_termination():
    rng = np.random.default_rng(9228)
    for _ in range(10):
        prob = _random_sparse_instance(16, 8, 2, rng)
        res = basis_pursuit(prob)
        assert res.residual <= 1e-8 * max(1.0, np.linalg.norm(prob.y))


def test_bp_one_sparse_gaussian_recovery():
    rng = np.random.default_rng(9229)
    n, N = 32, 16
    Gamma = rng.standard_normal((N, n))
    v0 = np.zeros(n)
    v0[0] = 1.0
    prob = RecoveryProblem(Gamma, Gamma @ v0, v0, 1)
    res = basis_pursuit(prob)
    assert np.linalg.norm(res.v_hat - v0) < 1e-6


def test_bp_matches_support_enumeration():
    rng = np.random.default_rng(9230)
    for trial in range(20):
        n, N = 10, 5
        prob = _random_sparse_instance(n, N, 2, rng)
        res = basis_pursuit(prob)
        oracle = basis_pursuit_enum(prob.Gamma, prob.y)
        assert res.objective == pytest.approx(oracle, rel=1e-6, abs=1e-8)


def test_bp_rank_deficient_flagged():
    # duplicated rows with inconsistent rhs cannot be satisfied
    rng = np.random.default_rng(9231)
    row = rng.standard_normal(6)
    Gamma = np.vstack([row, row])
    y = np.array([1.0, 2.0])
    prob = RecoveryProblem(Gamma, y, np.zeros(6), 0)
    res = basis_pursuit(prob)
    assert not res.converged


def test_bp_tall_consistent_system_recovers():
    # N > n: the QR reduction keeps n rows and the solution is unique
    rng = np.random.default_rng(9232)
    prob = _random_sparse_instance(8, 20, 3, rng)
    res = basis_pursuit(prob)
    assert res.converged
    np.testing.assert_allclose(res.v_hat, prob.v0, atol=1e-9)


def test_bp_tall_inconsistent_system_flagged():
    # y off the range of Gamma: the reduced n-row system is solvable, so only
    # the residual check on Gamma v = y can flag it
    rng = np.random.default_rng(9233)
    prob = _random_sparse_instance(8, 20, 3, rng, noise_sd=0.1)
    res = basis_pursuit(prob)
    assert not res.converged
    assert res.residual > 1e-3
    assert np.all(res.v_hat == 0.0)


def test_bp_converges_where_splitting_stalled(tmp_path):
    # operator splitting left one of these three solves unconverged
    config = ExperimentConfig(
        experiment="recovery",
        grids={"n": [128], "s": [4], "N": [12], "x_family": ["student_t"],
               "noise_family": "symmetric_pareto", "q0": 3.0, "c1": 2.0},
        trials=3,
        master_seed=13002184953475769461,
        output_dir=str(tmp_path),
    )
    run(config)
    with (tmp_path / "recovery.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["bp_unconverged"] for row in rows] == ["0"]


# ---------------------------------------------------------------------------
# the dual certificate

def _solve_recovers(Gamma, v0):
    bp = basis_pursuit(RecoveryProblem(Gamma, Gamma @ v0, v0, int(np.count_nonzero(v0))))
    return recovery_success(bp, v0)


@pytest.mark.parametrize("family", ["gaussian", "student_t", "rademacher"])
def test_certificate_implies_basis_pursuit_recovery(family):
    # bp-phase shapes and small rademacher designs, whose columns repeat up
    # to sign: wherever the certificate holds, the LP recovers v0 too
    certified = 0
    for n, N, s in ((128, 24, 4), (128, 48, 4), (64, 32, 2), (40, 6, 2), (40, 10, 2),
                    (32, 8, 1), (16, 16, 8)):
        dist = DistributionSpec(family, n, tail_param=6.0 if family == "student_t" else None)
        for t in range(12):
            prob = make_recovery_problem(dist, N, s, (8821, n, N, t))
            if certifies_recovery(prob.Gamma, prob.v0):
                certified += 1
                assert _solve_recovers(prob.Gamma, prob.v0), (n, N, s, t)
    assert certified >= 20


def test_bp_recovers_solves_only_where_the_certificate_fails():
    dist = DistributionSpec("gaussian", 64)
    outcomes = set()
    for N in (8, 16, 24, 32):
        for t in range(10):
            prob = make_recovery_problem(dist, N, 3, (8822, N, t))
            success, bp = bp_recovers(prob.Gamma, prob.v0)
            certified = certifies_recovery(prob.Gamma, prob.v0)
            assert (bp is None) == certified
            assert success == _solve_recovers(prob.Gamma, prob.v0)
            outcomes.add((certified, success))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_certificate_of_the_zero_vector():
    # 0 is the one point of l1 norm 0, whatever Gamma is, N = 0 included
    rng = np.random.default_rng(9234)
    for N in (0, 3):
        Gamma = rng.standard_normal((N, 6))
        assert certifies_recovery(Gamma, np.zeros(6))
        assert bp_recovers(Gamma, np.zeros(6)) == (True, None)


def _degenerate_instances():
    Gamma = np.random.default_rng(9217).standard_normal((10, 20))
    v0 = np.zeros(20)
    v0[[2, 5, 9]] = [1.0, -1.0, 1.0]
    yield "s > N", Gamma[:2], v0
    yield "N = 0", Gamma[:0], v0
    for sign in (1.0, -1.0):
        dup = Gamma.copy()
        dup[:, 5] = sign * dup[:, 2]
        yield f"support column times {sign:+}", dup, v0
        off = Gamma.copy()
        off[:, 7] = sign * off[:, 9]
        yield f"off-support column times {sign:+}", off, v0
    zero = Gamma.copy()
    zero[:, 2] = 0.0
    yield "zero support column", zero, v0
    # column 2 is minus column 0, so v0 = e_0 and -e_2 tie in l1 norm and
    # |Gamma_2^T z| = 1 exactly in floating point: only a margin below 1
    # keeps the certificate from claiming a unique solution
    yield "exact tie", np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]), np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("case", list(_degenerate_instances()), ids=lambda c: c[0])
def test_certificate_rejects_degenerate_supports(case):
    _, Gamma, v0 = case
    assert certifies_recovery(Gamma, v0) is False
    success, bp = bp_recovers(Gamma, v0)
    assert bp is not None and success == recovery_success(bp, v0)


def test_harness_solves_basis_pursuit_only_off_the_certificate(tmp_path, monkeypatch):
    # a noisy trial skips the LP where the certificate holds; a noise-free
    # one still solves it, since its LASSO columns report basis pursuit
    import emplab.harness as harness
    import emplab.recovery as recovery

    calls = []

    def counted(problem):
        calls.append(problem)
        return basis_pursuit(problem)

    monkeypatch.setattr(harness, "basis_pursuit", counted)
    monkeypatch.setattr(recovery, "basis_pursuit", counted)
    grids = {"n": [64], "s": [3], "N": [10, 20, 30], "x_family": ["gaussian"]}
    trials, seed = 6, 515
    for noise, expected in (("symmetric_pareto", None), ("none", 3 * trials)):
        calls.clear()
        config = ExperimentConfig(experiment="recovery", grids={**grids, "noise_family": noise},
                                  trials=trials, master_seed=seed,
                                  output_dir=str(tmp_path / noise))
        run(config)
        if expected is None:
            cells = [make_recovery_problem(DistributionSpec("gaussian", 64), N, 3,
                                           child_path(seed, ci, ti))
                     for ci, N in enumerate(grids["N"]) for ti in range(trials)]
            expected = sum(not certifies_recovery(p.Gamma, p.v0) for p in cells)
            assert 0 < expected < 3 * trials
        assert len(calls) == expected
        with (tmp_path / noise / "recovery.csv").open() as fh:
            assert [row["bp_unconverged"] for row in csv.DictReader(fh)] == ["0"] * 3


# ---------------------------------------------------------------------------
# penalty scale and experiment grid

def test_lambda_arithmetic_identity():
    noise = NoiseSpec("constant", q0=3.0, lq_norm=1.0)
    n = 64
    N = int(round(math.log(math.e * n)))
    lam = rate_penalty(noise, N, n, 1.0)
    assert lam == pytest.approx(math.sqrt(math.log(math.e * n) / N))


def test_lambda_halves_with_4x_samples():
    noise = NoiseSpec("gaussian", q0=3.0, lq_norm=2.0)
    lam1 = rate_penalty(noise, 100, 32, 1.7)
    lam2 = rate_penalty(noise, 400, 32, 1.7)
    assert lam2 == pytest.approx(lam1 / 2.0, rel=1e-14)
    lam_dbl = rate_penalty(noise, 200, 32, 1.7)
    assert lam_dbl == pytest.approx(lam1 / math.sqrt(2.0), rel=1e-14)


def test_recovery_problem_invariant():
    with pytest.raises(ValueError):
        RecoveryProblem(np.eye(3), np.zeros(3), np.array([1.0, 1.0, 0.0]), 1)


def test_make_recovery_problem_construction():
    dist = DistributionSpec("gaussian", 12)
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    prob = make_recovery_problem(dist, 8, 3, (71,), noise=noise, lam=0.1)
    assert np.count_nonzero(prob.v0) == 3
    assert set(np.unique(prob.v0[prob.v0 != 0])) <= {-1.0, 1.0}
    # y = Gamma v0 - xi holds by construction; reconstruct xi and check its law
    xi = prob.Gamma @ prob.v0 - prob.y
    assert xi.shape == (8,)
    clean = make_recovery_problem(dist, 8, 3, (71,))
    assert np.allclose(clean.y, clean.Gamma @ clean.v0)


def test_recovery_zero_sparsity_always_succeeds(tmp_path):
    config = ExperimentConfig(
        experiment="recovery",
        grids={"n": [16], "s": [0], "N": [8], "x_family": ["gaussian"],
               "noise_family": "none"},
        trials=5,
        master_seed=31,
        output_dir=str(tmp_path),
    )
    run(config)
    with (tmp_path / "recovery.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["success_rate"]) == 1.0


def test_noise_free_lasso_columns_report_basis_pursuit(tmp_path):
    # at lam = 0 the homotopy's certificate accepts any interpolant, and on
    # these rademacher designs some have a larger l1 norm than basis
    # pursuit's; the lam -> 0+ LASSO is the minimum-l1 interpolant
    config = ExperimentConfig(
        experiment="recovery",
        grids={"n": [40], "s": [2], "N": [6, 10, 16], "x_family": ["rademacher"],
               "noise_family": "none"},
        trials=15,
        master_seed=4321,
        output_dir=str(tmp_path),
    )
    run(config)
    with (tmp_path / "recovery.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["N"]) for row in rows] == [6, 10, 16]
    for row in rows:
        ci, N = int(row["cell"]), int(row["N"])
        bp = [basis_pursuit(make_recovery_problem(DistributionSpec("rademacher", 40), N, 2,
                                                  child_path(4321, ci, ti)))
              for ti in range(15)]
        assert float(row["err_l1_med"]) == float(np.median([r.errors_lp[1.0] for r in bp]))
        assert float(row["err_l2_med"]) == float(np.median([r.errors_lp[2.0] for r in bp]))
        assert row["lasso_unconverged"] == row["bp_unconverged"]


def test_error_shape_in_sparsity():
    # medians over s in {2, 4, 8}: l1 error linear in s, l2 error like
    # sqrt(s), each within a factor 1.3 across the fourfold s range
    from emplab.distributions import canonical_heavy_tail_spec
    from emplab.recovery import DEFAULT_LASSO_C1

    n, N, trials = 256, 1024, 21
    dist = canonical_heavy_tail_spec(n)
    noise = NoiseSpec("symmetric_pareto", q0=3.0)
    lam = rate_penalty(noise, N, n, DEFAULT_LASSO_C1)
    med = {}
    for s in (2, 4, 8):
        e1, e2 = [], []
        for t in range(trials):
            prob = make_recovery_problem(dist, N, s, (557, s, t), noise=noise, lam=lam)
            res = lasso(prob)
            e1.append(res.errors_lp[1.0])
            e2.append(res.errors_lp[2.0])
        med[s] = (np.median(e1), np.median(e2))
    r1 = med[8][0] / med[2][0]
    r2 = med[8][1] / med[2][1]
    assert 4.0 / 1.3 <= r1 <= 4.0 * 1.3   # s^(1/1) over a factor 4 in s
    assert 2.0 / 1.3 <= r2 <= 2.0 * 1.3   # s^(1/2)


def test_recovery_success_threshold():
    v0 = np.zeros(4)
    from emplab.recovery import RecoveryResult

    res = RecoveryResult(v_hat=np.full(4, 1e-8), iterations=1, residual=0.0, objective=0.0)
    assert recovery_success(res, v0)
    res_bad = RecoveryResult(v_hat=np.full(4, 1e-3), iterations=1, residual=0.0, objective=0.0)
    assert not recovery_success(res_bad, v0)

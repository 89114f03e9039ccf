import csv
import math
import warnings

import numpy as np
import pytest

from emplab.distributions import DistributionSpec, NoiseSpec, sample_coordinates, sample_noise
from emplab.harness import ExperimentConfig, run
from emplab.streams import rng_from_path
from emplab.recovery import (
    RecoveryProblem,
    basis_pursuit,
    bp_recovers,
    certifies_recovery,
    rate_penalty,
    lasso,
    make_recovery_problem,
    make_recovery_problems,
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
    assert set(res.errors_lp) == {1.0, 2.0}


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


def _lp_optimum(Gamma, y):
    """min ||v||_1 subject to Gamma v = y, by scipy's HiGHS."""
    from scipy.optimize import linprog

    n = Gamma.shape[1]
    lp = linprog(np.ones(2 * n), A_eq=np.hstack([Gamma, -Gamma]), b_eq=y, bounds=(0, None),
                 method="highs")
    assert lp.status == 0
    return lp.fun


# bp-phase-shaped instances (n 128, s 4, Student t): seed path and N.  The
# first six end in 1 to 12 path segments below 1e-12 t_max, whose dual
# points miss |a_j| <= 1 by up to 1.5; in the last four a column also drops
# a rounding error before t = 0, just above that cut, and the segment after
# it misses by 2.5e-4 to 7.5e-3.
_BP_PHASE_TAILS = [
    ((1901, 12, 35), 12), ((1901, 18, 14), 18), ((1901, 24, 3), 24), ((1901, 24, 19), 24),
    ((1901, 30, 4), 30), ((1901, 36, 37), 36), ((1903, 36, 13), 36),
    ((424242, 128, 24, 4, 120), 24), ((424242, 128, 24, 4, 192), 24),
    ((424242, 128, 36, 4, 65), 36),
]


@pytest.mark.parametrize("path, N", _BP_PHASE_TAILS, ids=[str(p) for p, _ in _BP_PHASE_TAILS])
def test_bp_certifies_paths_with_rounding_tails(path, N):
    dist = DistributionSpec("student_t", 128, tail_param=2.0 * math.log(128))
    prob = make_recovery_problem(dist, N, 4, path)
    assert not certifies_recovery(prob.Gamma, prob.v0)
    res = basis_pursuit(prob)
    assert res.converged
    assert res.objective == pytest.approx(_lp_optimum(prob.Gamma, prob.y), rel=1e-10)


@pytest.mark.parametrize("n, N, s, trials", [(40, 10, 2, 60), (40, 6, 2, 150), (32, 12, 3, 150)])
def test_bp_certifies_the_optimum_on_tied_designs(n, N, s, trials):
    # +-1 designs with y = Gamma v0 tie many columns at |c_j| = t at once;
    # joined one at a time, a column still at 0 can be handed a direction of
    # the wrong sign, or a rounding-level violator can join and leave without
    # end.  Every solve must still certify, at HiGHS's optimum
    dist = DistributionSpec("rademacher", n)
    for t in range(trials):
        prob = make_recovery_problem(dist, N, s, (424242, n, N, s, t))
        res = basis_pursuit(prob)
        assert res.converged, t
        assert res.objective == pytest.approx(_lp_optimum(prob.Gamma, prob.y), rel=1e-10), t


def _path_events(fn, *args):
    """fn(*args), with the count of the drops, refused joins and NNLS
    recomputes that every ``_lasso_path`` run inside it made, read off the
    lines that make them by a line tracer."""
    import inspect
    import sys

    import emplab.recovery as recovery

    marks = {"drop": "dropped = active.pop(drop)", "refused": "refused.append(active.pop())",
             "nnls": "G_inv = np.linalg.inv("}
    lines, first = inspect.getsourcelines(recovery._lasso_path)
    where = {first + i: key for i, text in enumerate(lines)
             for key, mark in marks.items() if mark in text}
    assert sorted(where.values()) == sorted(marks)
    counts = dict.fromkeys(marks, 0)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in where:
            counts[where[frame.f_lineno]] += 1
        return local

    code = inspect.unwrap(recovery._lasso_path).__code__
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return fn(*args), counts
    finally:
        sys.settrace(None)


@pytest.mark.parametrize("family, shapes", [
    ("gaussian", [(64, 24, 8, 6)]),
    ("rademacher", [(40, 10, 2, 10), (32, 12, 3, 12)]),
])
def test_updated_active_inverse_keeps_the_exact_optimum(family, shapes):
    # G^-1 is bordered on each join, downdated on each drop, restored on a
    # refused join and recomputed after the NNLS inner loop; through all of
    # them basis pursuit stays at HiGHS's optimum and the LASSO certifies
    events = dict.fromkeys(("drop", "refused", "nnls"), 0)
    for n, N, s, trials in shapes:
        for t in range(trials):
            prob = make_recovery_problem(DistributionSpec(family, n), N, s, (424242, n, N, s, t))
            res, counts = _path_events(basis_pursuit, prob)
            assert res.converged, (n, N, s, t)
            assert res.objective == pytest.approx(_lp_optimum(prob.Gamma, prob.y), rel=1e-10)
            for frac in (0.3, 0.03, 0.003):
                t_max = float(np.abs(prob.Gamma.T @ prob.y).max())
                lam = 2.0 * frac * t_max / N
                fit, more = _path_events(lasso, RecoveryProblem(prob.Gamma, prob.y, prob.v0, s, lam))
                assert fit.converged, (n, N, s, t, frac)
                counts = {k: counts[k] + more[k] for k in counts}
            events = {k: events[k] + counts[k] for k in events}
    assert events["drop"] >= 3
    if family == "rademacher":
        # rounding makes joins refused, and zero coordinates leave, only on tied designs
        assert events["refused"] >= 1 and events["nnls"] >= 1


# ---------------------------------------------------------------------------
# the dual certificate

def _solve_recovers(Gamma, v0):
    bp = basis_pursuit(RecoveryProblem(Gamma, Gamma @ v0, v0, int(np.count_nonzero(v0))))
    return recovery_success(bp, v0)


@pytest.mark.parametrize("family", ["gaussian", "student_t", "rademacher"])
def test_certificate_implies_basis_pursuit_recovery(family):
    # bp-phase shapes and small rademacher designs, whose columns repeat up
    # to sign: wherever the certificate holds, basis pursuit recovers v0 too
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


def _solved_by_the_rule(members, outcomes):
    """The members a harness trial solves, given each member's ``bp_recovers``
    outcome: the uncertified ones with no success at a smaller N of their s."""
    return {i for i, ((s, N, _), (_, bp)) in enumerate(zip(members, outcomes))
            if bp is not None and not any(ok for (s2, N2, _), (ok, _) in zip(members, outcomes)
                                          if s2 == s and N2 < N)}


def _counted_solves(monkeypatch):
    """Patch the basis_pursuit that bp_recovers calls; each solve is logged as
    ((s, N), result)."""
    import emplab.recovery as recovery

    solves = []

    def counted(problem):
        result = basis_pursuit(problem)
        solves.append(((problem.s, problem.Gamma.shape[0]), result))
        return result

    monkeypatch.setattr(recovery, "basis_pursuit", counted)
    return solves


def test_harness_solves_basis_pursuit_only_off_the_certificate(tmp_path, monkeypatch):
    # noisy or not, a trial runs basis pursuit only on the uncertified members
    # up to its first success; every other noise-free member reports errors
    # of exactly 0
    import emplab.harness as harness

    grids = {"n": [64], "s": [3], "N": [10, 20, 30], "x_family": ["gaussian"]}
    members = [(3, N, 0.0) for N in grids["N"]]
    trials, seed = 6, 515
    # the three cells form one group, drawn on the path of its first cell
    problems = [make_recovery_problems(DistributionSpec("gaussian", 64), members, (seed, 0, ti))
                for ti in range(trials)]
    outcomes = [[bp_recovers(p.Gamma, p.v0) for p in probs] for probs in problems]
    solved = [_solved_by_the_rule(members, row) for row in outcomes]
    expected = sum(map(len, solved))
    uncertified = sum(bp is not None for row in outcomes for _, bp in row)
    assert 0 < expected < uncertified
    solves = _counted_solves(monkeypatch)
    for noise in ("symmetric_pareto", "none"):
        solves.clear()
        config = ExperimentConfig(experiment="recovery", grids={**grids, "noise_family": noise},
                                  trials=trials, master_seed=seed,
                                  output_dir=str(tmp_path / noise))
        run(config)
        assert len(solves) == expected
        with (tmp_path / noise / "recovery.csv").open() as fh:
            assert [row["bp_unconverged"] for row in csv.DictReader(fh)] == ["0"] * 3

    group = list(enumerate(harness._RecoveryAdapter.cells(config)))
    for ti, row in enumerate(outcomes):
        records = harness._RecoveryAdapter.trial(config, group, ti)
        for i, ((_, bp), rec) in enumerate(zip(row, records, strict=True)):
            errors = (bp.errors_lp[1.0], bp.errors_lp[2.0]) if i in solved[ti] else (0.0, 0.0)
            assert (rec["err_l1"], rec["err_l2"]) == errors
            assert rec["lasso_unconverged"] == rec["bp_unconverged"] == 0


@pytest.mark.parametrize("law, n, N_grid, trials", [
    # the grid of test_bp_success_is_pathwise_monotone_in_N
    ("student_t", 128, list(range(12, 49, 6)), 30),
    # out of grid order: a trial visits its members by (s, N)
    ("gaussian", 64, [32, 8, 24, 16, 40], 30),
])
def test_harness_trial_decides_as_bp_recovers(law, n, N_grid, trials, tmp_path, monkeypatch):
    # a success at (s, N) decides every larger N of its trial and s; the
    # decisions are bp_recovers' member by member, and basis pursuit runs on
    # exactly the uncertified members at or below each (trial, s)'s first success
    import emplab.harness as harness

    seed = 99
    configs = [ExperimentConfig(experiment="recovery",
                                grids={"n": [n], "s": [2, 4, 8], "N": N_grid, "x_family": [law],
                                       "noise_family": noise},
                                trials=trials, master_seed=seed, output_dir=str(tmp_path))
               for noise in ("none", "symmetric_pareto")]
    group = list(enumerate(harness._RecoveryAdapter.cells(configs[0])))
    members = [(cell["s"], cell["N"], 0.0) for _, cell in group]
    outcomes = [[bp_recovers(p.Gamma, p.v0)
                 for p in make_recovery_problems(group[0][1]["x"], members, (seed, 0, ti))]
                for ti in range(trials)]
    solves = _counted_solves(monkeypatch)
    for config in configs:
        noise_free = config.grids["noise_family"] == "none"
        skipped = failed = 0
        for ti, row in enumerate(outcomes):
            solves.clear()
            records = harness._RecoveryAdapter.trial(config, group, ti)
            assert [rec["bp_success"] for rec in records] == [int(ok) for ok, _ in row]
            solved = _solved_by_the_rule(members, row)
            assert sorted(key for key, _ in solves) == sorted(members[i][:2] for i in solved)
            ran = dict(solves)
            for (s, N, _), rec in zip(members, records, strict=True):
                bp = ran.get((s, N))
                assert rec["bp_unconverged"] == int(bp is not None and not bp.converged)
                if noise_free:
                    errors = (bp.errors_lp[1.0], bp.errors_lp[2.0]) if bp else (0.0, 0.0)
                    assert (rec["err_l1"], rec["err_l2"]) == errors
            skipped += sum(bp is not None for _, bp in row) - len(solved)
            failed += sum(not ok for ok, _ in row)
        # the rule saved solves, and some members failed
        assert skipped > 0 and failed > 0


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


def _stream_draw(dist, N, s, path, noise):
    """The instance of a recovery trial, drawn stream by stream: Gamma, support, signs, xi."""
    Gamma = sample_coordinates(dist, (N, dist.dim), rng_from_path(path, "X"))
    rng_v = rng_from_path(path, "ground_truth")
    supp = rng_v.choice(dist.dim, size=s, replace=False)
    signs = 2.0 * rng_v.integers(0, 2, size=s) - 1.0
    xi = sample_noise(noise, N, rng_from_path(path, "xi")) if noise is not None else np.zeros(N)
    return Gamma, supp, signs, xi


def _assert_instance(prob, Gamma, supp, signs, xi, s, lam):
    v0 = np.zeros(Gamma.shape[1])
    v0[supp[:s]] = signs[:s]
    N = prob.Gamma.shape[0]
    assert prob.Gamma.tobytes() == Gamma[:N].tobytes()
    assert prob.v0.tobytes() == v0.tobytes()
    assert prob.y.tobytes() == (Gamma[:N] @ v0 - xi[:N]).tobytes()
    assert (prob.s, prob.lam) == (s, lam)


@pytest.mark.parametrize("family, noise", [
    ("student_t", NoiseSpec("symmetric_pareto", q0=3.0)),
    ("gaussian", None),
    ("rademacher", NoiseSpec("gaussian", q0=3.0)),
])
@pytest.mark.parametrize("N, s", [(1, 0), (9, 3), (30, 12)])
def test_make_recovery_problem_is_the_one_member_draw(family, noise, N, s):
    dist = DistributionSpec(family, 12, tail_param=5.0 if family == "student_t" else None)
    path = (71, N, s)
    one = make_recovery_problem(dist, N, s, path, noise=noise, lam=0.25)
    [member] = make_recovery_problems(dist, [(s, N, 0.25)], path, noise)
    for field in ("Gamma", "y", "v0"):
        assert getattr(one, field).tobytes() == getattr(member, field).tobytes()
    _assert_instance(one, *_stream_draw(dist, N, s, path, noise), s, 0.25)


@pytest.mark.parametrize("noise", [NoiseSpec("symmetric_pareto", q0=3.0), None])
def test_group_members_read_prefixes_of_one_draw(noise):
    # each member takes the first N rows and the first s support entries of
    # the instance drawn at the largest N and s
    dist = DistributionSpec("student_t", 20, tail_param=6.0)
    members = [(2, 10, 0.5), (0, 25, 0.0), (7, 25, 0.25), (4, 40, 0.125), (7, 1, 1.0)]
    path = (8080, 3)
    draw = _stream_draw(dist, 40, 7, path, noise)
    probs = make_recovery_problems(dist, members, path, noise)
    assert len(probs) == len(members)
    for prob, (s, N, lam) in zip(probs, members):
        assert prob.Gamma.shape == (N, 20)
        _assert_instance(prob, *draw, s, lam)


def test_recovery_draws_once_per_group_and_trial(tmp_path, monkeypatch):
    import emplab.harness as harness

    calls = []

    def counted(dist, members, seed_path, noise=None):
        calls.append((dist.dim, dist.family, list(members), seed_path))
        return make_recovery_problems(dist, members, seed_path, noise)

    monkeypatch.setattr(harness, "make_recovery_problems", counted)
    grids = {"n": [16, 24], "s": [1, 3], "N": [8, 12], "x_family": ["gaussian", "rademacher"],
             "noise_family": "none"}
    trials, seed = 3, 97
    manifest = run(ExperimentConfig(experiment="recovery", grids=grids, trials=trials,
                                    master_seed=seed, output_dir=str(tmp_path)))
    # a group is one (n, law); its four (s, N) cells come in grid order, the
    # law varying fastest, so the first cell of (n_i, law_j) is 8 i + j
    groups = [(n, law, 8 * i + j) for i, n in enumerate(grids["n"])
              for j, law in enumerate(grids["x_family"])]
    assert len(calls) == len(groups) * trials
    assert sorted((dim, law, path) for dim, law, _, path in calls) == sorted(
        (n, law, (seed, first, ti)) for n, law, first in groups for ti in range(trials))
    for _, _, members, _ in calls:
        assert [(s, N) for s, N, _ in members] == [(1, 8), (1, 12), (3, 8), (3, 12)]
    assert manifest.rows == 16 and not manifest.failed
    # every cell's ledger entry points at its group's first cell
    first = {8 * i + 2 * k + j: 8 * i + j for i in range(2) for j in range(2) for k in range(4)}
    assert manifest.seed_ledger == {f"cell{ci}": [seed, first[ci]] for ci in range(16)}


def test_bp_success_is_pathwise_monotone_in_N():
    # v0 feasible for more rows stays the unique minimizer, so on one draw
    # per trial success can only turn on as N grows; a violation could only
    # come from an uncertified solve
    from emplab.distributions import canonical_heavy_tail_spec

    dist = canonical_heavy_tail_spec(128)
    Ns = range(12, 49, 6)
    members = [(s, N, 0.0) for s in (2, 4, 8) for N in Ns]
    pairs = 0
    for t in range(100):
        probs = make_recovery_problems(dist, members, (99, t))
        out = [bp_recovers(p.Gamma, p.v0) for p in probs]
        for i in range(len(members)):
            if members[i][1] == Ns[-1]:
                continue
            (ok, _), (ok_next, bp_next) = out[i], out[i + 1]
            pairs += 1
            if ok and not ok_next:
                assert bp_next is not None and not bp_next.converged
    assert pairs == 1800


def test_basis_pursuit_stops_where_the_path_reaches_zero():
    # on this draw the homotopy drops a column exactly at t = 0 up to
    # rounding, and the next direction is 0; the path must stop there with
    # its certificate, not divide by the zero slope
    from emplab.distributions import canonical_heavy_tail_spec

    members = [(s, N, 0.0) for s in (2, 4, 8) for N in range(12, 49, 6)]
    prob = make_recovery_problems(canonical_heavy_tail_spec(128), members, (99, 90))[1]
    assert prob.Gamma.shape == (18, 128) and prob.s == 2
    assert not certifies_recovery(prob.Gamma, prob.v0)
    success, bp = bp_recovers(prob.Gamma, prob.v0)
    assert success and bp.converged
    assert bp.objective == pytest.approx(_lp_optimum(prob.Gamma, prob.Gamma @ prob.v0), rel=1e-10)


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
    # the three cells form one group, drawn on the path of its first cell
    members = [(2, N, 0.0) for N in (6, 10, 16)]
    draws = [make_recovery_problems(DistributionSpec("rademacher", 40), members, (4321, 0, ti))
             for ti in range(15)]
    solved = [_solved_by_the_rule(members, [bp_recovers(p.Gamma, p.v0) for p in probs])
              for probs in draws]
    assert 0 < sum(map(len, solved)) < 15 * 3
    for row in rows:
        ci = int(row["cell"])
        probs = [draw[ci] for draw in draws]
        bp = [basis_pursuit(prob) for prob in probs]
        # the reference itself is held to HiGHS's optimum
        for prob, r in zip(probs, bp):
            assert r.converged
            assert r.objective == pytest.approx(_lp_optimum(prob.Gamma, prob.y), rel=1e-10)
        # where v0 is proved a minimizer with no solve, by the certificate or by
        # a success at a smaller N, the errors are 0
        for col, p in (("err_l1_med", 1.0), ("err_l2_med", 2.0)):
            errors = [r.errors_lp[p] if ci in done else 0.0 for done, r in zip(solved, bp)]
            assert float(row[col]) == float(np.median(errors))
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

"""Sparse recovery: basis pursuit, LASSO, and the rate-driven penalty.

The measurement model is y_i = <v0, X_i> - xi_i with an s-sparse ground
truth v0.  ``lasso`` minimizes

    (1/N) sum_i (<v, X_i> - y_i)^2 + lam * ||v||_1

by cyclic coordinate descent; with this exact normalization the coordinate
update thresholds the raw inner product <col_j, residual> at N*lam/2.
``basis_pursuit`` solves min ||v||_1 s.t. Gamma v = y exactly, as one
linear program over v = p - q with p, q >= 0, by scipy's HiGHS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import linprog

from .distributions import DistributionSpec, NoiseSpec, sample_coordinates, sample_noise
from .streams import SeedPath, as_seed_path, child_path, rng_from_path

ERROR_NORMS = (1.0, 1.5, 2.0)
EXACT_RECOVERY_RTOL = 1e-6


@dataclass
class RecoveryProblem:
    """One recovery instance; y = Gamma @ v0 - xi by construction."""

    Gamma: np.ndarray
    y: np.ndarray
    v0: np.ndarray
    s: int
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if np.count_nonzero(self.v0) > self.s:
            raise ValueError("v0 has more nonzeros than the declared sparsity")


@dataclass
class RecoveryResult:
    v_hat: np.ndarray
    iterations: int
    residual: float
    objective: float
    errors_lp: dict = field(default_factory=dict)
    converged: bool = True


def _lp_errors(v_hat: np.ndarray, v0: np.ndarray) -> dict:
    diff = np.abs(v_hat - v0)
    return {p: float((diff**p).sum() ** (1.0 / p)) for p in ERROR_NORMS}


def make_recovery_problem(
    dist: DistributionSpec,
    N: int,
    s: int,
    seed_path: int | SeedPath,
    noise: NoiseSpec | None = None,
    lam: float = 0.0,
) -> RecoveryProblem:
    """Draw an instance: uniform support, +-1 entries, optional noise."""
    n = dist.dim
    if not (0 <= s <= n):
        raise ValueError("sparsity s must be in [0, dim]")
    path = as_seed_path(seed_path)
    Gamma = sample_coordinates(dist, (N, n), rng_from_path(path, "X"))
    rng_v = rng_from_path(path, "ground_truth")
    v0 = np.zeros(n)
    if s > 0:
        supp = rng_v.choice(n, size=s, replace=False)
        v0[supp] = 2.0 * rng_v.integers(0, 2, size=s) - 1.0
    xi = sample_noise(noise, N, rng_from_path(path, "xi")) if noise is not None else np.zeros(N)
    y = Gamma @ v0 - xi
    return RecoveryProblem(Gamma=Gamma, y=y, v0=v0, s=s, lam=lam)


def lasso_objective(Gamma: np.ndarray, y: np.ndarray, v: np.ndarray, lam: float) -> float:
    N = Gamma.shape[0]
    resid = Gamma @ v - y
    return float(resid @ resid / N + lam * np.abs(v).sum())


def lasso(problem: RecoveryProblem, tol: float = 1e-8, max_sweeps: int = 2000) -> RecoveryResult:
    """Cyclic coordinate descent on (1/N)||Gamma v - y||^2 + lam ||v||_1.

    Stops when the largest coordinate update in a sweep is below ``tol``;
    descent is monotone by exact coordinate minimization and is checked
    every sweep.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    Gamma, y, lam = problem.Gamma, problem.y, problem.lam
    N, n = Gamma.shape
    G = Gamma.T @ Gamma
    b = Gamma.T @ y
    diag = np.diag(G).copy()
    thresh = N * lam / 2.0

    v = np.zeros(n)
    grad = -b  # G @ v - b, maintained incrementally
    yy = float(y @ y)

    def objective() -> float:
        return float((v @ (grad - b) + yy) / N + lam * np.abs(v).sum())

    prev_obj = objective()
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_step = 0.0
        for j in range(n):
            old = v[j]
            if diag[j] == 0.0:
                new = 0.0
            else:
                rho_j = diag[j] * old - grad[j]
                new = math.copysign(max(abs(rho_j) - thresh, 0.0), rho_j) / diag[j]
            if new != old:
                v[j] = new
                grad += (new - old) * G[:, j]
                step = abs(new - old)
                if step > max_step:
                    max_step = step
        obj = objective()
        if obj > prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
            raise RuntimeError("coordinate descent objective increased; numerical breakdown")
        prev_obj = obj
        if max_step < tol:
            converged = True
            break

    resid = Gamma @ v - y
    return RecoveryResult(
        v_hat=v,
        iterations=sweeps,
        residual=float(np.linalg.norm(resid)),
        objective=float(resid @ resid / N + lam * np.abs(v).sum()),
        errors_lp=_lp_errors(v, problem.v0),
        converged=converged,
    )


def _reduced_triangular_factor(Gamma: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First min(N, n) rows of the triangular factor of (Gamma | y).

    The bits of scipy.linalg.qr(mode="r"), from one Fortran-ordered copy
    factored in place by LAPACK geqrf, instead of the column stack, the
    copy made for LAPACK and the full N x (n + 1) triangle.
    """
    N, n = Gamma.shape
    if N == 0:
        return np.zeros((0, n + 1))  # LAPACK rejects an empty matrix
    A = np.empty((N, n + 1), order="F")
    A[:, :n] = Gamma
    A[:, n] = y
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    geqrf, = get_lapack_funcs(("geqrf",), (A,))
    # the workspace query leaves A alone, so it need not be copied for it
    lwork = int(geqrf(A, lwork=-1, overwrite_a=True)[2][0])
    qr, _, _, info = geqrf(A, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqrf")
    return np.triu(qr[: min(N, n)])


def basis_pursuit(problem: RecoveryProblem) -> RecoveryResult:
    """min ||v||_1 subject to Gamma v = y, as one HiGHS linear program.

    The constraints are first reduced to min(N, n) rows: (R | b) is the
    triangular factor of (Gamma | y), so R v = b has the solutions of
    Gamma v = y whenever that system is consistent.  The reduced system
    cannot see an inconsistent y when N > n, so the result is converged
    only if HiGHS reports an optimum and ||Gamma v - y|| <= 1e-8 max(1, ||y||);
    otherwise v_hat is 0.
    """
    Gamma, y = problem.Gamma, problem.y
    N, n = Gamma.shape
    Rb = _reduced_triangular_factor(Gamma, y)
    R, b = Rb[:, :n], Rb[:, n]
    # presolve only slows HiGHS down on these dense rows (about 2x at n = 256)
    lp = linprog(np.ones(2 * n), A_eq=np.hstack([R, -R]), b_eq=b, bounds=(0, None),
                 method="highs", options={"presolve": False})
    v = lp.x[:n] - lp.x[n:] if lp.status == 0 else np.zeros(n)
    residual = float(np.linalg.norm(Gamma @ v - y))
    converged = lp.status == 0 and residual <= 1e-8 * max(1.0, float(np.linalg.norm(y)))
    if not converged:
        v = np.zeros(n)
    return RecoveryResult(
        v_hat=v,
        iterations=int(lp.nit),
        residual=residual,
        objective=float(np.abs(v).sum()),
        errors_lp=_lp_errors(v, problem.v0),
        converged=converged,
    )


def rate_penalty(noise: NoiseSpec, N: int, n: int, c1: float) -> float:
    """The penalty scale c1 * ||xi||_{L_q0} * sqrt(log(e n) / N).

    Under this choice the estimation error decays at the sqrt(s/N) rate;
    the dimension enters through log(e n).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if c1 <= 0:
        raise ValueError("c1 must be > 0")
    return c1 * noise.lq_norm * math.sqrt(math.log(math.e * n) / N)


def recovery_success(result: RecoveryResult, v0: np.ndarray) -> bool:
    """Exact-recovery test at 1e-6 relative (two orders above basis_pursuit's 1e-8)."""
    err = float(np.linalg.norm(result.v_hat - v0))
    return err <= EXACT_RECOVERY_RTOL * max(1.0, float(np.linalg.norm(v0)))


# Calibrated once on the canonical regime (n=256, Student t coordinates
# with df = 2 ln n, Pareto noise with q0 = 3): the smallest grid value for
# which the median errors reproduce the s^(1/p) sqrt(1/N) shape in both
# norms; see demos/recovery_demo.py.
DEFAULT_LASSO_C1 = 2.0


def calibrate_lasso_c1(
    dist: DistributionSpec,
    noise: NoiseSpec,
    N: int,
    s: int,
    trials: int,
    seed_path: int | SeedPath,
    grid=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0),
) -> float:
    """Grid-search the penalty constant minimizing median l2 error."""
    best_c1, best_err = None, math.inf
    for ci, c1 in enumerate(grid):
        lam = rate_penalty(noise, N, dist.dim, c1)
        errs = []
        for t in range(trials):
            prob = make_recovery_problem(
                dist, N, s, child_path(seed_path, ci, t), noise=noise, lam=lam
            )
            errs.append(lasso(prob).errors_lp[2.0])
        med = float(np.median(errs))
        if med < best_err:
            best_c1, best_err = c1, med
    return best_c1

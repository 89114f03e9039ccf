"""Sparse recovery: basis pursuit, LASSO, and the rate-driven penalty.

The measurement model is y_i = <v0, X_i> - xi_i with an s-sparse ground
truth v0.  ``lasso`` minimizes

    (1/N) sum_i (<v, X_i> - y_i)^2 + lam * ||v||_1

exactly, by the homotopy (LARS-lasso) path in the threshold t = N*lam/2 on
the raw inner products <col_j, residual>; its ``converged`` flag is the KKT
certificate of the returned v, checked from scratch.
``basis_pursuit`` solves min ||v||_1 s.t. Gamma v = y exactly, as one
linear program over v = p - q with p, q >= 0, by scipy's HiGHS.
``bp_recovers`` is the one exact-recovery rule: whether basis pursuit
recovers v0 from y = Gamma v0.  ``certifies_recovery``, the minimum-norm
dual certificate, decides it in closed form where it holds, and
``basis_pursuit`` runs only where it fails.
scipy is imported where it is called, so ``import emplab`` loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, NoiseSpec, sample_coordinates, sample_noise
from .streams import SeedPath, as_seed_path, rng_from_path

ERROR_NORMS = (1.0, 1.5, 2.0)
EXACT_RECOVERY_RTOL = 1e-6
CERTIFICATE_MARGIN = 1e-6


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


def lasso(problem: RecoveryProblem) -> RecoveryResult:
    """Exact LASSO by homotopy: the LARS-lasso path of Osborne, Presnell &
    Turlach (2000) and Efron et al. (2004).

    With c = Gamma^T (y - Gamma v), the solution at threshold t = N lam / 2
    has c_j = t sign(v_j) on its support and |c_j| <= t off it.  The path
    starts at v = 0, t = ||Gamma^T y||_inf and lowers t.  On the active set
    A, v moves along d with (Gamma_A^T Gamma_A) d = sign(c_A), and c along
    a = Gamma^T Gamma_A d, until the next event: a column reaches the
    boundary |c_j| = t and joins, an active coordinate reaches 0 and drops,
    or t reaches N lam / 2.  A column that has just dropped may not rejoin
    at the boundary it left on the next step, and a column numerically in
    the span of the active columns does not join, so the active system
    stays nonsingular without a ridge term.

    ``converged`` is the KKT certificate, computed from scratch on the
    returned v: |c_j - t sign(v_j)| on the support and |c_j| - t off it are
    at most 1e-9 max(t, ||Gamma^T y||_inf).  ``iterations`` counts
    homotopy steps.
    """
    Gamma, y, lam = problem.Gamma, problem.y, problem.lam
    N, n = Gamma.shape
    t_end = N * lam / 2.0
    b = Gamma.T @ y
    c = b.copy()
    v = np.zeros(n)
    t = t_max = float(np.abs(b).max(initial=0.0))
    active: list[int] = []
    join = int(np.argmax(np.abs(b))) if t > t_end else -1
    dropped = -1
    steps = 0
    # a guard against cycling on degenerate designs: a path this long is
    # returned where it stopped, and the certificate below rejects it
    while t > t_end and steps < 4 * (n + N):
        if join >= 0:
            active.append(join)
        steps += 1
        A = np.array(active)
        Gamma_A = Gamma[:, A]
        G = Gamma_A.T @ Gamma_A
        d = np.linalg.solve(G, np.sign(c[A]))
        a = Gamma.T @ (Gamma_A @ d)

        # the step at which c_j - gamma a_j reaches t - gamma (up) or
        # -(t - gamma) (down); a column already on the boundary and moving
        # out joins at once
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(a < 1.0, np.maximum(t - c, 0.0) / (1.0 - a), np.inf)
            down = np.where(a > -1.0, np.maximum(t + c, 0.0) / (1.0 + a), np.inf)
            to_drop = np.where(-v[A] * d > 0.0, -v[A] / d, np.inf)
        if dropped >= 0:
            # it left the boundary it sits on, so it cannot reach it again
            # on this segment; only rounding could say otherwise
            (up if c[dropped] > 0 else down)[dropped] = np.inf
        to_join = np.minimum(up, down)
        to_join[A] = np.inf
        # a join within 1e-12 t_max of the end is skipped: it would move c by
        # less than the certificate's tolerance, and joins that close to
        # t = 0 would only chase rounding noise in c
        gamma, join, drop = t - t_end, -1, -1
        while True:
            k = int(np.argmin(to_join))
            if not to_join[k] < gamma - 1e-12 * t_max:
                break
            col = Gamma[:, k]
            off_span = col - Gamma_A @ np.linalg.solve(G, Gamma_A.T @ col)
            if off_span @ off_span > 1e-16 * (col @ col):
                gamma, join = float(to_join[k]), k
                break
            to_join[k] = np.inf
        k = int(np.argmin(to_drop))
        if to_drop[k] < gamma:
            gamma, join, drop = float(to_drop[k]), -1, k

        v[A] += gamma * d
        c -= gamma * a
        t -= gamma
        dropped = -1
        if drop >= 0:
            dropped = active.pop(drop)
            v[dropped] = 0.0
        if join < 0 and drop < 0:
            break

    resid = Gamma @ v - y
    c = -(Gamma.T @ resid)
    tol = 1e-9 * max(t_end, t_max)
    on = v != 0.0
    converged = bool(
        np.all(np.abs(c[on] - t_end * np.sign(v[on])) <= tol)
        and np.all(np.abs(c[~on]) <= t_end + tol)
    )
    return RecoveryResult(
        v_hat=v,
        iterations=steps,
        residual=float(np.linalg.norm(resid)),
        # an empty residual (N = 0) contributes 0, not 0/0
        objective=float((resid @ resid / N if N else 0.0) + lam * np.abs(v).sum()),
        errors_lp=_lp_errors(v, problem.v0),
        converged=converged,
    )


def basis_pursuit(problem: RecoveryProblem) -> RecoveryResult:
    """min ||v||_1 subject to Gamma v = y, as one HiGHS linear program.

    The constraints are first reduced to min(N, n) rows: (R | b) is the
    triangular factor of (Gamma | y), so R v = b has the solutions of
    Gamma v = y whenever that system is consistent.  The reduced system
    cannot see an inconsistent y when N > n, so the result is converged
    only if HiGHS reports an optimum and ||Gamma v - y|| <= 1e-8 max(1, ||y||);
    otherwise v_hat is 0.
    """
    from scipy.optimize import linprog

    Gamma, y = problem.Gamma, problem.y
    N, n = Gamma.shape
    Gy = np.column_stack([Gamma, y])
    if not np.isfinite(Gy).all():
        raise ValueError("Gamma and y must be finite")
    Rb = np.linalg.qr(Gy, mode="r")[: min(N, n)]
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


def certifies_recovery(Gamma: np.ndarray, v0: np.ndarray) -> bool:
    """Whether the minimum-norm dual certificate proves v0 the unique
    solution of min ||v||_1 subject to Gamma v = Gamma v0.

    With S = supp(v0) and Gamma_S of full column rank, z = Gamma_S
    (Gamma_S^T Gamma_S)^-1 sign(v0_S) has Gamma_S^T z = sign(v0_S); if
    also |Gamma_j^T z| < 1 off S, v0 is the unique minimizer (Fuchs 2004;
    Tropp 2006).  z = Q R^-T sign(v0_S) from a reduced QR of Gamma_S, whose
    rank is read off diag R by the rule of ``gelfand._kernel_projectors``.
    The test asks for |Gamma_j^T z| <= 1 - 1e-6 off S, a margin far above
    the rounding in z.  v0 = 0 certifies: 0 is the one point of norm 0.
    A sufficient test: False (never an exception) when Gamma_S is rank
    deficient, s > N included, or when the certificate misses the margin.
    """
    N, n = Gamma.shape
    supp = np.flatnonzero(v0)
    s = supp.size
    if s == 0:
        return True
    if s > N:
        return False
    Q, R = np.linalg.qr(Gamma[:, supp])
    diag = np.abs(np.diag(R))
    if not np.all(diag > max(N, s) * np.finfo(np.float64).eps * diag.max()):
        return False
    c = Gamma.T @ (Q @ np.linalg.solve(R.T, np.sign(v0[supp])))
    c[supp] = 0.0
    return bool(np.abs(c).max() <= 1.0 - CERTIFICATE_MARGIN)


def bp_recovers(Gamma: np.ndarray, v0: np.ndarray) -> tuple[bool, RecoveryResult | None]:
    """Whether basis pursuit recovers v0 exactly from y = Gamma v0.

    ``certifies_recovery`` decides where it holds, with no linear program;
    elsewhere ``basis_pursuit`` runs and ``recovery_success`` decides.
    Returns the decision and the basis-pursuit result, None where the
    certificate decided.
    """
    if certifies_recovery(Gamma, v0):
        return True, None
    bp = basis_pursuit(RecoveryProblem(Gamma, Gamma @ v0, v0, int(np.count_nonzero(v0))))
    return recovery_success(bp, v0), bp


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

"""Sparse recovery: basis pursuit, LASSO, and the rate-driven penalty.

The measurement model is y_i = <v0, X_i> - xi_i with an s-sparse ground
truth v0.  ``lasso`` minimizes

    (1/N) sum_i (<v, X_i> - y_i)^2 + lam * ||v||_1

exactly, by the homotopy (LARS-lasso) path in the threshold t = N*lam/2 on
the raw inner products <col_j, residual>; its ``converged`` flag is the KKT
certificate of the returned v, checked from scratch.
``basis_pursuit`` solves min ||v||_1 s.t. Gamma v = y exactly, on the same
path run to t = 0, and certifies the result by primal feasibility and the
path's dual point.
``bp_recovers`` is the one exact-recovery rule: whether basis pursuit
recovers v0 from y = Gamma v0.  ``certifies_recovery``, the minimum-norm
dual certificate, decides it in closed form where it holds, and
``basis_pursuit`` runs only where it fails.
The module needs numpy only.
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


def _lasso_path(Gamma: np.ndarray, y: np.ndarray,
                t_end: float) -> tuple[np.ndarray, int, float, float]:
    """The LARS-lasso path of Osborne, Presnell & Turlach (2000) and Efron
    et al. (2004) on (Gamma, y), from v = 0 down to the threshold t_end.

    With c = Gamma^T (y - Gamma v), the solution at threshold t has
    c_j = t sign(v_j) on its support and |c_j| <= t off it.  The path
    starts at v = 0, t = ||Gamma^T y||_inf and lowers t.  On the active set
    A, v moves along d with (Gamma_A^T Gamma_A) d = sign(c_A), and c along
    a = Gamma^T Gamma_A d, until the next event: a column reaches the
    boundary |c_j| = t and joins, an active coordinate reaches 0 and drops,
    or t reaches t_end.  A column that has just dropped may not rejoin
    at the boundary it left on the next step, and a column numerically in
    the span of the active columns does not join, so the active system
    stays nonsingular without a ridge term.  The path depends on (Gamma, y)
    only through Gamma^T Gamma and Gamma^T y, up to rounding.

    Several columns can reach the boundary at once: +-1 designs with
    y = Gamma v0 tie many.  They join one at a time, in steps of length 0,
    as in Lawson & Hanson's (1974) NNLS on the direction problem
    min d^T G d / 2 - sign(c)^T d subject to sign(c_j) d_j >= 0 wherever
    v_j is still 0.  A joining column whose own entry of d lacks the sign of
    c_j left the boundary by rounding only; it may not join until the path
    moves.  An active coordinate still at 0 whose entry of d has the wrong
    sign leaves A, by the NNLS inner loop.  Without these two rules the path
    can end on a feasible point of larger norm, or join and drop one column
    without end.

    Returns (v, steps, t_max, bound): where the path stopped, the number of
    homotopy steps, the starting threshold, and the largest lower bound on
    min ||w||_1 subject to Gamma w = y that the segments' dual points give.
    A segment's z = Gamma_A d has Gamma^T z = a and y^T z = b_A^T d, so by
    weak duality every such w has ||w||_1 >= b_A^T d / ||a||_inf.  Near
    t = 0 this bound meets ||v||_1, whatever rounding does to the last
    segments.
    """
    N, n = Gamma.shape
    b = Gamma.T @ y
    c = b.copy()
    v = np.zeros(n)
    t = t_max = float(np.abs(b).max(initial=0.0))
    bound = 0.0
    active: list[int] = []
    join = int(np.argmax(np.abs(b))) if t > t_end else -1
    dropped = -1
    refused: list[int] = []
    d_last = np.zeros(n)
    steps = 0

    def direction(A):
        Gamma_A = Gamma[:, A]
        G = Gamma_A.T @ Gamma_A
        sign_A = np.sign(c[A])
        return Gamma_A, G, sign_A, np.linalg.solve(G, sign_A)

    # a guard against cycling on degenerate designs: a path this long is
    # returned where it stopped, and the caller's certificate rejects it
    while t > t_end and steps < 4 * (n + N):
        if join >= 0:
            active.append(join)
        steps += 1
        A = np.array(active)
        Gamma_A, G, sign_A, d = direction(A)
        if join >= 0 and sign_A[-1] * d[-1] <= 0.0:
            # its crossing of the boundary was rounding: it may not join
            # before the path moves
            refused.append(active.pop())
            A = A[:-1]
            Gamma_A, G, sign_A, d = direction(A)
        # Lawson-Hanson's inner loop: from the last direction, feasible for
        # every coordinate still at 0, towards d, dropping each such
        # coordinate whose d has the wrong sign where it reaches 0
        x = d_last[A]
        while True:
            bad = (v[A] == 0.0) & (sign_A * d < 0.0)
            if not bad.any():
                break
            ratio = np.full(len(A), np.inf)
            ratio[bad] = x[bad] / (x[bad] - d[bad])
            k = int(np.argmin(ratio))
            x += ratio[k] * (d - x)
            keep = ~bad | (sign_A * x > 0.0)
            keep[k] = False
            active = [j for j, kept in zip(active, keep) if kept]
            A, x = A[keep], x[keep]
            Gamma_A, G, sign_A, d = direction(A)
        d_last[:] = 0.0
        d_last[A] = d
        a = Gamma.T @ (Gamma_A @ d)
        bound = max(bound, float(b[A] @ d) / float(np.abs(a).max()))

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
        to_join[refused] = np.inf
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

        if gamma > 0.0:
            refused = []
        v[A] += gamma * d
        c -= gamma * a
        t -= gamma
        dropped = -1
        if drop >= 0:
            dropped = active.pop(drop)
            v[dropped] = 0.0
        if join < 0 and drop < 0:
            break
    return v, steps, t_max, bound


def lasso(problem: RecoveryProblem) -> RecoveryResult:
    """Exact LASSO by homotopy: ``_lasso_path`` down to t = N lam / 2.

    ``converged`` is the KKT certificate, computed from scratch on the
    returned v: with c = Gamma^T (y - Gamma v), |c_j - t sign(v_j)| on the
    support and |c_j| - t off it are at most 1e-9 max(t, ||Gamma^T y||_inf).
    ``iterations`` counts homotopy steps.
    """
    Gamma, y, lam = problem.Gamma, problem.y, problem.lam
    N = Gamma.shape[0]
    t_end = N * lam / 2.0
    v, steps, t_max, _ = _lasso_path(Gamma, y, t_end)
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
    """min ||v||_1 subject to Gamma v = y, exactly: the LASSO path to t = 0
    (Donoho & Tsaig 2008).

    The constraints are first reduced to min(N, n) rows: (R | b) is the
    triangular factor of (Gamma | y), so R^T R = Gamma^T Gamma and
    R^T b = Gamma^T y, and ``_lasso_path`` runs on (R, b).

    The result is converged only if it carries a primal-dual certificate:
    the primal residual ||Gamma v - y|| <= 1e-8 max(1, ||y||), and
    ||v||_1 <= (1 + 1e-9) times the path's dual lower bound (see
    ``_lasso_path``), so that no feasible point has a norm below
    ||v||_1 / (1 + 1e-9).  The residual check is on Gamma, not R, since the
    reduced system cannot see an inconsistent y when N > n.  Otherwise
    v_hat is 0.  ``iterations`` counts homotopy steps.
    """
    Gamma, y = problem.Gamma, problem.y
    N, n = Gamma.shape
    Gy = np.column_stack([Gamma, y])
    if not np.isfinite(Gy).all():
        raise ValueError("Gamma and y must be finite")
    Rb = np.linalg.qr(Gy, mode="r")[: min(N, n)]
    v, steps, _, bound = _lasso_path(Rb[:, :n], Rb[:, n], 0.0)
    residual = float(np.linalg.norm(Gamma @ v - y))
    converged = (residual <= 1e-8 * max(1.0, float(np.linalg.norm(y)))
                 and float(np.abs(v).sum()) <= (1.0 + 1e-9) * bound)
    if not converged:
        v = np.zeros(n)
    return RecoveryResult(
        v_hat=v,
        iterations=steps,
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

    ``certifies_recovery`` decides where it holds, with no solve;
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

"""Sparse recovery: basis pursuit, LASSO, and the rate-driven penalty.

The measurement model is y_i = <v0, X_i> - xi_i with an s-sparse ground
truth v0.  ``make_recovery_problems`` draws the instances of a whole
sample group, every (s, N) of one law, from one draw at the largest N and
s: each member reads the first N rows and the first s support entries, so
one trial's instances are nested.  ``make_recovery_problem`` is its
one-member case.  ``lasso`` minimizes

    (1/N) sum_i (<v, X_i> - y_i)^2 + lam * ||v||_1

exactly, by the homotopy (LARS-lasso) path in the threshold t = N*lam/2 on
the raw inner products <col_j, residual>; the path keeps the inverse Gram
matrix of its active columns by bordering on each join and a rank-one
downdate on each drop, so no step solves a linear system.  Its
``converged`` flag is the KKT certificate of the returned v, checked from
scratch.
``basis_pursuit`` solves min ||v||_1 s.t. Gamma v = y exactly, on the same
path run to t = 0, and certifies the result by primal feasibility and the
path's dual point.
``bp_recovers`` is the one exact-recovery rule: whether basis pursuit
recovers v0 from y = Gamma v0.  ``certifies_recovery``, the minimum-norm
dual certificate, decides it in closed form where it holds, and
``basis_pursuit`` runs only where it fails.  On nested instances a success
at N is one at every larger N, so the harness calls ``bp_recovers`` on a
trial's members only up to the first success of each s.
The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, NoiseSpec, sample_coordinates, sample_noise
from .streams import SeedPath, rng_from_path

ERROR_NORMS = (1.0, 2.0)
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


def make_recovery_problems(
    dist: DistributionSpec,
    members: list[tuple[int, int, float]],
    seed_path: SeedPath,
    noise: NoiseSpec | None = None,
) -> list[RecoveryProblem]:
    """Every member (s, N, lam) of a sample group, read off one draw.

    The draw on seed_path is one instance at the largest N and s: Gamma
    from the "X" stream, a uniform support (``choice`` without replacement,
    whose order is shuffled) and +-1 signs from "ground_truth", the noise
    xi from "xi".  Member (s, N, lam) takes the first N rows of Gamma and
    xi and the first s support entries and signs, so its instance has the
    law of one drawn at (N, s), and a trial's members are nested: adding
    rows or support entries never redraws the rest.
    """
    n = dist.dim
    if not all(0 <= s <= n for s, _, _ in members):
        raise ValueError("sparsity s must be in [0, dim]")
    N_max = max(N for _, N, _ in members)
    s_max = max(s for s, _, _ in members)
    Gamma = sample_coordinates(dist, (N_max, n), rng_from_path(seed_path, "X"))
    rng_v = rng_from_path(seed_path, "ground_truth")
    supp = rng_v.choice(n, size=s_max, replace=False)
    signs = 2.0 * rng_v.integers(0, 2, size=s_max) - 1.0
    xi = (sample_noise(noise, N_max, rng_from_path(seed_path, "xi")) if noise is not None
          else np.zeros(N_max))
    problems = []
    for s, N, lam in members:
        v0 = np.zeros(n)
        v0[supp[:s]] = signs[:s]
        problems.append(RecoveryProblem(Gamma[:N], Gamma[:N] @ v0 - xi[:N], v0, s, lam))
    return problems


def make_recovery_problem(
    dist: DistributionSpec,
    N: int,
    s: int,
    seed_path: SeedPath,
    noise: NoiseSpec | None = None,
    lam: float = 0.0,
) -> RecoveryProblem:
    """Draw an instance: uniform support, +-1 entries, optional noise.

    The one-member case of ``make_recovery_problems``.
    """
    return make_recovery_problems(dist, [(s, N, lam)], seed_path, noise)[0]


# once per path, not per step: the step lengths divide by zero and by 0/0 where
# no event can happen, and np.where replaces those quotients by inf
@np.errstate(divide="ignore", invalid="ignore")
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

    No step solves a linear system.  G^-1 = (Gamma_A^T Gamma_A)^-1 is kept
    across steps and d = G^-1 sign(c_A).  A joining column col is tested,
    and G^-1 bordered, with h = Gamma_A^T col, u = G^-1 h and the Schur
    complement s = ||col||^2 - h^T u, the squared norm of col off the span
    of Gamma_A: the column joins only if |A| < N and s > 1e-10 ||col||^2, a
    floor above the rounding of the subtraction, and then G^-1 gains the
    row and column (-u^T / s, 1 / s) and its old block becomes
    G^-1 + u u^T / s.  A drop at position k downdates G^-1 to
    G^-1 - g g^T / g_k, with g its k-th column, and deletes row and column
    k.  A refused join restores the inverse from before it, and G^-1 is
    recomputed from scratch only after the NNLS inner loop below changes A.

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
    G_inv = np.zeros((0, 0))
    # the joining column's bordering terms: u = G^-1 Gamma_A^T col and its
    # Schur complement ||col||^2 - (Gamma_A^T col)^T u (A is empty at first)
    u, schur = np.zeros(0), 0.0
    if join >= 0:
        schur = float(Gamma[:, join] @ Gamma[:, join])
    dropped = -1
    refused: list[int] = []
    d_last = np.zeros(n)
    steps = 0

    # a guard against cycling on degenerate designs: a path this long is
    # returned where it stopped, and the caller's certificate rejects it
    while t > t_end and steps < 4 * (n + N):
        G_inv_before = G_inv
        if join >= 0:
            active.append(join)
            # G^-1 bordered by the joining column: (G, h; h^T, ||col||^2)^-1
            m = len(u)
            w = u / schur
            G_inv = np.empty((m + 1, m + 1))
            G_inv[:m, :m] = G_inv_before + u[:, None] * w
            G_inv[:m, m] = G_inv[m, :m] = -w
            G_inv[m, m] = 1.0 / schur
        steps += 1
        A = np.array(active)
        sign_A = np.sign(c[A])
        d = G_inv @ sign_A
        if join >= 0 and sign_A[-1] * d[-1] <= 0.0:
            # its crossing of the boundary was rounding: it may not join
            # before the path moves
            refused.append(active.pop())
            A, sign_A, G_inv = A[:-1], sign_A[:-1], G_inv_before
            d = G_inv @ sign_A
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
            k = int(ratio.argmin())
            x += ratio[k] * (d - x)
            keep = ~bad | (sign_A * x > 0.0)
            keep[k] = False
            active = [j for j, kept in zip(active, keep) if kept]
            A, x, sign_A = A[keep], x[keep], sign_A[keep]
            Gamma_A = Gamma[:, A]
            G_inv = np.linalg.inv(Gamma_A.T @ Gamma_A)
            d = G_inv @ sign_A
        if not d.any():
            # c_A is exactly 0 (or A is empty): the path is at t = 0 up to
            # rounding and cannot move; the segment would give no dual bound
            break
        d_last[:] = 0.0
        d_last[A] = d
        Gamma_A = Gamma[:, A]
        a = Gamma.T @ (Gamma_A @ d)
        bound = max(bound, float(b[A] @ d) / float(np.abs(a).max()))

        # the step at which c_j - gamma a_j reaches t - gamma (up) or
        # -(t - gamma) (down); a column already on the boundary and moving
        # out joins at once
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
        # t = 0 would only chase rounding noise in c.  A column joins only
        # off the span of the active ones: with |A| = N none is, and
        # otherwise its Schur complement, the squared norm of its part off
        # that span, is computed by a subtraction whose rounding the
        # 1e-10 ||col||^2 floor sits above
        gamma, join, drop = t - t_end, -1, -1
        while len(A) < N:
            k = int(to_join.argmin())
            if not to_join[k] < gamma - 1e-12 * t_max:
                break
            col = Gamma[:, k]
            h = Gamma_A.T @ col
            norm2 = float(col @ col)
            u = G_inv @ h
            schur = norm2 - float(h @ u)
            if schur > 1e-10 * norm2:
                gamma, join = float(to_join[k]), k
                break
            to_join[k] = np.inf
        k = int(to_drop.argmin())
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
            # G^-1 of A without its drop-th column: the Schur complement
            # of that pivot, with its row and column deleted
            col = G_inv[:, drop]
            rest = np.arange(len(col)) != drop
            G_inv = (G_inv - col[:, None] * (col / col[drop]))[np.ix_(rest, rest)]
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
    R^T b = Gamma^T y, and ``_lasso_path`` runs on (R, b).  At N <= n this
    removes no rows, but it is no no-op: on integer designs (+-1 rows) the
    correlations Gamma^T (y - Gamma v) of several columns tie exactly, and
    the rounding of R breaks those ties.  Run on the raw (Gamma, y), the
    path left 2 of 60 +-1 instances at n 40, N 10, s 2 uncertified; on
    (R, b) none.

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
# norms; acceptance criterion 07 (tests/test_acceptance.py) checks the l2
# shape at this value.
DEFAULT_LASSO_C1 = 2.0

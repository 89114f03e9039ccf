"""Independent oracles for the test suite.

Nothing here shares code with the library paths it checks, and no oracle
is an unconverged iterate or a second simulation: supports are re-derived
from vertex enumeration or a primal-dual sandwich, moments and gaussian
means from quadrature or closed forms, and the solvers from exhaustive
enumeration over supports / sign patterns.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np
from scipy import integrate, stats


# ---------------------------------------------------------------------------
# gauges, one vector at a time from the definitions

def gauge_direct(spec, v) -> float:
    """inf{t > 0 : v in t*V} from each family's membership test, in plain Python."""
    a = [abs(float(x)) for x in v]
    l1, l2 = math.fsum(a), math.hypot(*a)
    if spec.family == "l1_ball":
        return l1 / spec.rho
    if spec.family == "l2_ball":
        return l2 / spec.r
    if spec.family == "sparse_cap":
        return l2 if sum(x > 0 for x in a) <= spec.s else math.inf
    if spec.family == "l1_cap_l2":
        return max(l1 / spec.rho, l2 / spec.r)
    # v in t*conv(signed permutations of w) iff t*w* majorizes |v|* weakly
    best, pv, pw = 0.0, 0.0, 0.0
    for x, w in zip(sorted(a, reverse=True), sorted((abs(w) for w in spec.w), reverse=True)):
        pv, pw = pv + x, pw + w
        if pv > 0:
            best = max(best, pv / pw if pw > 0 else math.inf)
    return best


# ---------------------------------------------------------------------------
# moments by quadrature

def gaussian_abs_moment_quad(q: float) -> float:
    val, _ = integrate.quad(lambda x: 2.0 * x**q * stats.norm.pdf(x), 0.0, np.inf)
    return val


def student_abs_moment_quad(nu: float, q: float) -> float:
    val, _ = integrate.quad(
        lambda x: 2.0 * x**q * stats.t.pdf(x, nu), 0.0, np.inf, limit=200
    )
    return val


# ---------------------------------------------------------------------------
# support functions

def support_l1_vertices(z: np.ndarray, rho: float) -> float:
    """Max over the 2n vertices +-rho e_j."""
    best = 0.0
    for j in range(len(z)):
        for sgn in (-1.0, 1.0):
            best = max(best, abs(sgn * rho * z[j]))
    return best

def support_sparse_cap_enum(z: np.ndarray, s: int) -> float:
    """Max over all supports of size <= s of the Euclidean norm of z there."""
    n = len(z)
    best = 0.0
    for k in range(1, min(s, n) + 1):
        for idx in combinations(range(n), k):
            best = max(best, math.sqrt(sum(z[j] ** 2 for j in idx)))
    return best


def support_permutation_polytope_enum(z: np.ndarray, w: np.ndarray) -> float:
    """Max over all n! 2^n signed permutations of w (signs collapse to abs)."""
    best = 0.0
    az = np.abs(z)
    for perm in permutations(np.abs(w)):
        best = max(best, float(np.dot(perm, az)))
    return best


def support_l1_cap_l2_sandwich(Z: np.ndarray, rho: float, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on sup over rho*B1 cap r*B2 of |<z, v>|, per row of Z.

    For any tau >= 0, splitting z into its clip at tau and the soft
    threshold s = (|z| - tau)_+ sign z gives <z, v> <= tau ||v||_1 +
    ||s||_2 ||v||_2, so rho*tau + r*||s||_2 is an upper bound (weak
    duality), and s scaled into the set is a feasible point, so its value
    is a lower bound.  The two meet where s touches both constraints,
    ||s||_1 / ||s||_2 = rho / r; that ratio falls as tau grows, and tau is
    put there by bisection on [0, max|z|].  At tau = 0 (the l1 constraint
    slack) the bounds are r*||z||_2 from both sides; at tau = max|z| (rho <= r
    or ties at the top) the lower bound is the best vertex min(rho, r) e_j.
    """
    A = np.abs(np.asarray(Z, dtype=np.float64))
    target = rho / r
    top = A.max(axis=1)
    lo, hi = np.zeros(len(A)), top.copy()
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        s = np.maximum(A - mid[:, None], 0.0)
        l1, l2 = s.sum(axis=1), np.sqrt((s * s).sum(axis=1))
        # an all-zero s (mid = max|z|) has ratio 0 by convention: tau too large
        above = l1 > target * l2
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    # the smallest tau with ratio <= rho/r, or 0 if the ratio starts below it
    tau = np.where(A.sum(axis=1) <= target * np.sqrt((A * A).sum(axis=1)), 0.0, hi)
    s = np.maximum(A - tau[:, None], 0.0)
    l1, l2 = s.sum(axis=1), np.sqrt((s * s).sum(axis=1))
    upper = rho * tau + r * l2
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.minimum(rho / l1, r / l2)
        lower = np.where(l1 > 0, scale * (s * A).sum(axis=1), 0.0)
    lower = np.maximum(lower, min(rho, r) * top)
    return lower, upper


# ---------------------------------------------------------------------------
# solvers by enumeration

def basis_pursuit_enum(Gamma: np.ndarray, y: np.ndarray) -> float:
    """Optimal value of min ||v||_1 s.t. Gamma v = y, by support enumeration.

    Some optimal basic solution uses at most N columns; enumerate every
    support of size <= N, solve the restricted system exactly (least
    squares by the pseudo-inverse, all supports of one size in one batch),
    keep the feasible candidates.
    """
    N, n = Gamma.shape
    ynorm = max(1.0, float(np.linalg.norm(y)))
    best = 0.0 if float(np.linalg.norm(y)) <= 1e-9 * ynorm else math.inf
    for k in range(1, min(N, n) + 1):
        subs = Gamma[:, list(combinations(range(n), k))].transpose(1, 0, 2)
        sols = np.linalg.pinv(subs) @ y
        feasible = np.linalg.norm(subs @ sols[..., None] - y[:, None], axis=(1, 2)) <= 1e-9 * ynorm
        if feasible.any():
            best = min(best, float(np.abs(sols[feasible]).sum(axis=1).min()))
    return best


def lasso_kkt_enum(Gamma: np.ndarray, y: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """Global LASSO minimizer by support + sign-pattern enumeration.

    For every support S and sign vector sigma on S, solve the stationarity
    system of (1/N)||Gamma v - y||^2 + lam ||v||_1 restricted to S and keep
    candidates whose signs match and whose off-support gradients satisfy
    the KKT bound.  All sign patterns of one support are solved in one
    batch.  Returns (objective, v).
    """
    N, n = Gamma.shape
    thresh = N * lam / 2.0
    b = Gamma.T @ y
    G = Gamma.T @ Gamma

    def objective(v):
        resid = Gamma @ v - y
        return float(resid @ resid) / N + lam * float(np.abs(v).sum())

    best_obj = objective(np.zeros(n))
    best_v = np.zeros(n)
    # v = 0 candidate requires |b_j| <= thresh for all j; we keep it anyway as
    # an upper bound (enumeration below will beat it if it is not optimal)
    for k in range(1, n + 1):
        # column m of sigmas is the sign pattern of mask m: bit i gives sign i
        masks = np.arange(1 << k)
        sigmas = np.where((masks[None, :] >> np.arange(k)[:, None]) & 1, 1.0, -1.0)
        for idx in combinations(range(n), k):
            idx = list(idx)
            try:
                V_s = np.linalg.solve(G[np.ix_(idx, idx)], b[idx, None] - thresh * sigmas)
            except np.linalg.LinAlgError:
                continue
            V = np.zeros((n, 1 << k))
            V[idx] = V_s
            off = np.ones(n, dtype=bool)
            off[idx] = False
            grad_off = G[off] @ V - b[off, None]
            ok = (np.sign(V_s) == sigmas).all(axis=0)
            ok &= (np.abs(grad_off) <= thresh * (1 + 1e-9)).all(axis=0)
            if not ok.any():
                continue
            resid = Gamma @ V[:, ok] - y[:, None]
            objs = (resid * resid).sum(axis=0) / N + lam * np.abs(V[:, ok]).sum(axis=0)
            m = int(np.argmin(objs))
            v = V[:, np.flatnonzero(ok)[m]]
            obj = objective(v)
            if obj < best_obj:
                best_obj, best_v = obj, v
    return best_obj, best_v


# ---------------------------------------------------------------------------
# kernel projector from a full SVD

def kernel_projector_svd(Gamma: np.ndarray) -> tuple[np.ndarray, int]:
    """I - V_r V_r^T from the right singular vectors of the nonzero singular
    values (the numpy matrix_rank threshold); returns (projector, rank)."""
    _, sv, Vt = np.linalg.svd(Gamma)
    rank = int(np.count_nonzero(sv > max(Gamma.shape) * np.finfo(np.float64).eps * sv.max()))
    return np.eye(Gamma.shape[1]) - Vt[:rank].T @ Vt[:rank], rank


# ---------------------------------------------------------------------------
# gaussian means in closed form

def gaussian_max_abs_mean_quad(n: int) -> float:
    """E max_j |g_j| over n standard gaussians, as the quadrature of its tail
    P(max_j |g_j| > t) = 1 - erf(t/sqrt 2)^n over t >= 0."""
    val, _ = integrate.quad(
        lambda t: -math.expm1(n * math.log1p(-math.erfc(t / math.sqrt(2.0)))) if t > 0 else 1.0,
        0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def gaussian_l2_norm_mean(n: int) -> float:
    """E ||G||_2 over n standard gaussians: the chi mean sqrt 2 Gamma((n+1)/2) / Gamma(n/2)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2))

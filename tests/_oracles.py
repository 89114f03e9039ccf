"""Independent oracles for the test suite.

Nothing here shares code with the library paths it checks: supports are
re-derived from vertex enumeration or generic projected-gradient ascent,
moments from numerical quadrature, and the solvers from exhaustive
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


def support_permutation_polytope_sampled(
    z: np.ndarray, w: np.ndarray, rng: np.random.Generator, n_perms: int = 20000
) -> float:
    """Sampled signed permutations plus the greedy aligned vertex."""
    az = np.abs(z)
    aw = np.abs(np.asarray(w, dtype=np.float64))
    best = 0.0
    for _ in range(n_perms):
        best = max(best, float(np.dot(rng.permutation(aw), az)))
    # vertex aligning the largest |w| entries with the largest |z| entries
    vertex = np.empty_like(aw)
    vertex[np.argsort(-az)] = np.sort(aw)[::-1]
    return max(best, float(np.dot(vertex, az)))


def _proj_l2_cols(X: np.ndarray, r: float) -> np.ndarray:
    nrm = np.linalg.norm(X, axis=0)
    return X * np.minimum(1.0, r / np.maximum(nrm, 1e-300))


def _proj_l1_cols(X: np.ndarray, rho: float) -> np.ndarray:
    A = np.abs(X)
    inside = A.sum(axis=0) <= rho
    S = np.sort(A, axis=0)[::-1]
    cs = np.cumsum(S, axis=0) - rho
    ks = np.arange(1, A.shape[0] + 1)[:, None]
    k_max = A.shape[0] - 1 - (S - cs / ks > 0)[::-1].argmax(axis=0)
    theta = np.maximum(cs[k_max, np.arange(A.shape[1])] / (k_max + 1), 0.0)
    out = np.sign(X) * np.maximum(A - theta, 0.0)
    return np.where(inside, X, out)


def _dykstra_l1_l2(X0: np.ndarray, rho: float, r: float, iters: int = 400) -> np.ndarray:
    x = X0.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = _proj_l1_cols(x + p, rho)
        p = x + p - y
        x_new = _proj_l2_cols(y + q, r)
        q = y + q - x_new
        if np.abs(x_new - x).max() < 1e-15 * max(1.0, np.abs(x_new).max()):
            x = x_new
            break
        x = x_new
    return x


def support_l1_cap_l2_pga(Z: np.ndarray, rho: float, r: float, outer: int = 80) -> np.ndarray:
    """Projected gradient ascent with alternating (Dykstra) projections.

    Maximizes <z, v> over rho*B1 cap r*B2 for each column of Z with a
    decaying step; iterates are feasible, so the best value is a lower
    bound converging to the true support.
    """
    n, B = Z.shape
    v = np.zeros((n, B))
    best = np.zeros(B)
    base = 4.0 * min(rho, r) / np.maximum(np.linalg.norm(Z, axis=0), 1e-300)
    for k in range(outer):
        eta = base / (1.0 + 0.1 * k)
        v = _dykstra_l1_l2(v + eta * Z, rho, r, iters=1000)
        best = np.maximum(best, np.abs((v * Z).sum(axis=0)))
    return best


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
# direct simulations

def direct_gaussian_max_abs(n: int, draws: int, seed: int) -> tuple[float, float]:
    """Direct simulation of E max_j |g_j|; returns (mean, stderr)."""
    rng = np.random.default_rng(seed)
    vals = np.empty(draws)
    done = 0
    chunk = max(1, 4_000_000 // n)
    while done < draws:
        take = min(chunk, draws - done)
        vals[done:done + take] = np.abs(rng.standard_normal((take, n))).max(axis=1)
        done += take
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def direct_gaussian_l2_norm(n: int, draws: int, seed: int) -> tuple[float, float]:
    """Direct simulation of E ||G||_2; returns (mean, stderr)."""
    rng = np.random.default_rng(seed)
    vals = np.linalg.norm(rng.standard_normal((draws, n)), axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))

"""Coordinate-symmetric index sets, exact support functions, and widths.

Five built-in families, each closed under coordinate permutations and sign
flips (so the associated sup-norm is 1-unconditional):

- ``l1_ball``: rho * B_1^n
- ``l2_ball``: r * B_2^n
- ``sparse_cap``: {v : ||v||_0 <= s, ||v||_2 <= 1}
- ``l1_cap_l2``: rho * B_1^n  intersected with  r * B_2^n
- ``permutation_polytope``: convex hull of all signed permutations of w

Support values sup_{v in V} |<v, z>| are evaluated exactly (closed forms;
the l1/l2 intersection by one count per row that finds the segment of
sorted |z| holding its dual minimizer, then a closed-form minimum).  The
gaussian mean widths of the two balls are exact (``gaussian_width``).
Monte-Carlo gaussian mean widths carry standard errors; every Monte-Carlo
reduction is a numpy pairwise-summation mean, reproducible for a fixed
seed path to the last bit and order-independent to ~1e-12 relative.
Every gaussian sample is drawn by ``_gaussian_blocks``; the widths at many
radii (``gaussian_mean_widths``) share one sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import ConfigurationError
from .streams import SeedPath, rng_from_path

FAMILIES = ("l1_ball", "l2_ball", "sparse_cap", "l1_cap_l2", "permutation_polytope")

# Convergence tolerance, relative to ||z||, of the 1-D bounded minimization
# used for the localized permutation-polytope support (the one family
# without a closed form).
_LOCALIZED_SCAN_TOL = 1e-12

# Values per block of the gaussian stream (_gaussian_blocks)
_GAUSSIAN_BLOCK_VALUES = 1_000_000

# Gauss-Legendre panels of the l1-ball width integral over [0, _L1_UPPER];
# beyond the upper end erfc(t/sqrt 2) underflows to 0
_L1_PANELS, _L1_NODES, _L1_UPPER = 48, 32, 40.0

# log(Gamma(x + 1/2) / Gamma(x)) = log(x)/2 + sum_k c_k x^-(2k+1), asymptotically
# (c_k from the Bernoulli numbers B_2 .. B_10); the omitted term is below
# 1e-16 relative at x >= _L2_SERIES_FROM / 2
_L2_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)
_L2_SERIES_FROM = 40


@dataclass(frozen=True)
class IndexSetSpec:
    """One of the built-in index-set families on R^dim.

    ``rho`` is the l1 radius (l1_ball, l1_cap_l2), ``r`` the l2 radius
    (l2_ball, l1_cap_l2), ``s`` the sparsity (sparse_cap) and ``w`` the
    generating vector (permutation_polytope).  Use the factory helpers
    rather than filling unused fields.
    """

    family: str
    dim: int
    rho: float = 1.0
    r: float = 1.0
    s: int = 1
    w: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown index-set family {self.family!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family in ("l1_ball", "l1_cap_l2") and self.rho <= 0:
            raise ValueError("l1 radius rho must be > 0")
        if self.family in ("l2_ball", "l1_cap_l2") and self.r <= 0:
            raise ValueError("l2 radius r must be > 0")
        if self.family == "sparse_cap" and not (1 <= self.s):
            raise ValueError("sparsity s must be >= 1")
        if self.family == "permutation_polytope":
            if self.w is None or len(self.w) != self.dim:
                raise ValueError("permutation_polytope needs w with len(w) == dim")
            object.__setattr__(self, "w", tuple(float(v) for v in self.w))
            if not any(self.w):
                raise ValueError("permutation_polytope with w = 0 is the set {0}")

    def to_dict(self) -> dict:
        d = {"family": self.family, "dim": self.dim}
        if self.family in ("l1_ball", "l1_cap_l2"):
            d["rho"] = self.rho
        if self.family in ("l2_ball", "l1_cap_l2"):
            d["r"] = self.r
        if self.family == "sparse_cap":
            d["s"] = self.s
        if self.family == "permutation_polytope":
            d["w"] = list(self.w)
        return d

    def label(self) -> str:
        if self.family == "l1_ball":
            return f"l1_ball(rho={self.rho:g})"
        if self.family == "l2_ball":
            return f"l2_ball(r={self.r:g})"
        if self.family == "sparse_cap":
            return f"sparse_cap(s={self.s})"
        if self.family == "l1_cap_l2":
            return f"l1_cap_l2(rho={self.rho:g},r={self.r:g})"
        return f"permutation_polytope(n={self.dim})"


def l1_ball(dim: int, rho: float = 1.0) -> IndexSetSpec:
    return IndexSetSpec("l1_ball", dim, rho=rho)


def l2_ball(dim: int, r: float = 1.0) -> IndexSetSpec:
    return IndexSetSpec("l2_ball", dim, r=r)


def sparse_cap(dim: int, s: int) -> IndexSetSpec:
    return IndexSetSpec("sparse_cap", dim, s=s)


def l1_cap_l2(dim: int, rho: float = 1.0, r: float = 1.0) -> IndexSetSpec:
    return IndexSetSpec("l1_cap_l2", dim, rho=rho, r=r)


def permutation_polytope(w) -> IndexSetSpec:
    w = tuple(float(v) for v in w)
    return IndexSetSpec("permutation_polytope", len(w), w=w)


def index_set_from_dict(d: dict) -> IndexSetSpec:
    """The index set a config dict describes; ConfigurationError if none."""
    try:
        kwargs = dict(d)
        family = kwargs.pop("family")
        dim = kwargs.pop("dim")
        if any(type(v) is not int or v < 1 for v in (dim, kwargs.get("s", 1))):
            raise ValueError("dim and s must be integers >= 1")
        if "w" in kwargs and kwargs["w"] is not None:
            kwargs["w"] = tuple(kwargs["w"])
        return IndexSetSpec(family, dim, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad index set {d!r}: {exc!r}") from exc


def d2(spec: IndexSetSpec, localized_radius: float | None = None) -> float:
    """Euclidean radius sup_{v in V} ||v||_2 (of V cap rB_2 when localized)."""
    if spec.family == "l1_ball":
        base = spec.rho
    elif spec.family == "l2_ball":
        base = spec.r
    elif spec.family == "sparse_cap":
        base = 1.0
    elif spec.family == "l1_cap_l2":
        base = min(spec.rho, spec.r)
    else:
        base = float(np.linalg.norm(spec.w))
    if localized_radius is not None:
        base = min(base, float(localized_radius))
    return base


def _as_batch(z: np.ndarray, dim: int) -> np.ndarray:
    Z = np.asarray(z, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z[None, :]
    if Z.ndim != 2 or Z.shape[1] != dim:
        raise ValueError(f"expected vectors of length {dim}, got shape {np.shape(z)}")
    return Z


def _top_s_norms(Z: np.ndarray, s: int) -> np.ndarray:
    n = Z.shape[1]
    A2 = Z * Z
    if s >= n:
        return np.sqrt(A2.sum(axis=1))
    part = np.partition(A2, n - s, axis=1)[:, n - s:]
    return np.sqrt(part.sum(axis=1))


def _sorted_abs_desc(Z: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(Z), axis=1)[:, ::-1]


def _l1_cap_l2_curve(A: np.ndarray, rho: float):
    """r -> exact sup over rho*B1 cap r*B2, from rows sorted as |z| descending.

    The value is the convex dual min_{mu>=0} g(mu) = rho*mu + r*||soft(z,mu)||_2,
    least where the ratio ||soft(z,mu)||_1/||soft(z,mu)||_2, nonincreasing in
    mu, meets rho/r (the threshold search of l1-ball projection).  The ratios
    at the breakpoints mu = a_k are built once, from norms that are prefix
    sums of nonnegative terms; at each radius the count k of ratios <= rho/r
    names the segment [a_{k+1}, a_k] (a_{n+1} = 0) holding the minimizer.
    g's closed-form stationary point on segment k and on each neighbour,
    clipped into its segment, is an upper bound; the least of the three is
    exact, the neighbours absorbing rounding in the count.
    """
    n = A.shape[1]
    ks = np.arange(1, n + 1, dtype=np.float64)
    gap = A[:, :-1] - A[:, 1:]
    k_gap = ks[:-1] * gap
    # l1_k = ||soft(z, a_k)||_1, q_k = ||soft(z, a_k)||_2^2; a zero soft(z, a_k) has ratio 0
    l1, q = np.zeros(A.shape), np.zeros(A.shape)
    np.cumsum(k_gap, axis=1, out=l1[:, 1:])
    np.cumsum(gap * (2.0 * l1[:, :-1] + k_gap), axis=1, out=q[:, 1:])
    l2 = np.sqrt(q)
    ratio = np.divide(l1, l2, out=l2, where=l2 > 0)
    rows = np.arange(len(A))

    def at(r: float) -> np.ndarray:
        count = np.count_nonzero(ratio <= rho / r, axis=1)
        best = np.full(len(A), np.inf)
        for seg in (count - 2, count - 1, count):  # k - 1 for segment k and its neighbours
            seg = np.clip(seg, 0, n - 1)
            a = A[rows, seg]
            width = a - np.where(seg < n - 1, A[rows, np.minimum(seg + 1, n - 1)], 0.0)
            s1, s2, k = l1[rows, seg], q[rows, seg], seg + 1.0
            # mu = a_k - x gives ||soft||_2^2 = q + x (2 l1 + k x), stationary at x = (u - l1)/k
            # with u = rho sqrt(W/(k r^2 - rho^2)), W = k q - l1^2; where k r^2 <= rho^2,
            # g increases in mu on the segment (u = inf, x at the lower end)
            W = np.maximum(k * s2 - s1 * s1, 0.0)
            denom = k * (r * r) - rho * rho
            u = rho * np.sqrt(np.divide(W, denom, out=np.full_like(W, np.inf), where=denom > 0))
            x = np.clip((u - s1) / k, 0.0, width)
            best = np.minimum(best, rho * (a - x) + r * np.sqrt(s2 + x * (2.0 * s1 + k * x)))
        return best

    return at


def support_batch(spec: IndexSetSpec, Z: np.ndarray) -> np.ndarray:
    """sup_{v in V} |<v, z>| for each row z of Z.  Exact."""
    Z = _as_batch(Z, spec.dim)
    if spec.family == "l1_ball":
        return spec.rho * np.abs(Z).max(axis=1)
    if spec.family == "l2_ball":
        return spec.r * np.linalg.norm(Z, axis=1)
    if spec.family == "sparse_cap":
        return _top_s_norms(Z, spec.s)
    if spec.family == "l1_cap_l2":
        return _l1_cap_l2_curve(_sorted_abs_desc(Z), spec.rho)(spec.r)
    w_star = np.sort(np.abs(np.asarray(spec.w)))[::-1]
    return _sorted_abs_desc(Z) @ w_star


def support(spec: IndexSetSpec, z: np.ndarray) -> float:
    """sup_{v in V} |<v, z>|; exact closed form per family."""
    return float(support_batch(spec, np.asarray(z, dtype=np.float64)[None, :])[0])


# ---------------------------------------------------------------------------
# localized supports: V cap (radius * B_2^n)

def _prox_owl(z: np.ndarray, lam_w: np.ndarray, isotonic_regression) -> np.ndarray:
    """prox of the ordered-weighted-l1 penalty sum_j lam_w[j] * |x|_(j).

    Sorted soft-shrink followed by an isotonic (nonincreasing) projection
    and clipping at zero; exact for nonincreasing nonnegative weights.
    ``isotonic_regression`` is scipy.optimize's, imported by the caller.
    """
    sign = np.sign(z)
    a = np.abs(z)
    order = np.argsort(-a, kind="stable")
    shrunk = a[order] - lam_w
    iso = isotonic_regression(shrunk, increasing=False).x
    x_sorted = np.maximum(iso, 0.0)
    out = np.empty_like(a)
    out[order] = x_sorted
    return sign * out


def _owl_value(x: np.ndarray, w_star: np.ndarray) -> float:
    return float(np.sort(np.abs(x))[::-1] @ w_star)


def _permpoly_localized_support_one(
    z: np.ndarray, w_star: np.ndarray, radius: float, isotonic_regression, minimize_scalar
) -> float:
    """sup over (perm polytope of w) cap radius*B2 of <v, z>.

    Computed as the infimal convolution  min_u OWL_w(u) + radius*||z - u||_2
    via scipy's bounded Brent minimization over the scalar t in

        F(t) = min_u OWL_w(u) + (radius/2) (||z - u||^2 / t + t),

    which is convex in t; the inner minimum is the exact OWL prox.  Every
    evaluation is an upper bound on the true support, and the returned
    minimum is the best value evaluated, so the result (together with the
    endpoint candidates u = z and u = 0) converges to the exact value from
    above.  ``isotonic_regression`` and ``minimize_scalar`` are
    scipy.optimize's, imported by the caller.
    """
    znorm = float(np.linalg.norm(z))
    if znorm == 0.0:
        return 0.0
    best = min(_owl_value(z, w_star), radius * znorm)  # u = z and u = 0

    def f_of_t(t: float) -> float:
        u = _prox_owl(z, (t / radius) * w_star, isotonic_regression)
        return _owl_value(u, w_star) + (radius / (2.0 * t)) * float(
            np.sum((z - u) ** 2)
        ) + 0.5 * radius * t

    res = minimize_scalar(f_of_t, bounds=(1e-9 * znorm, znorm), method="bounded",
                          options={"xatol": _LOCALIZED_SCAN_TOL * znorm})
    return min(best, float(res.fun))


def support_curve(spec: IndexSetSpec, Z: np.ndarray):
    """r -> localized_support_batch(spec, Z, r), for many radii on one Z.

    The work that does not depend on r (sorting |z| and the breakpoint
    ratios of the l1 families, the norms of l2_ball and sparse_cap) is done
    once; the permutation polytope evaluates each radius on its own.
    """
    Z = _as_batch(Z, spec.dim)
    fam = spec.family
    if fam == "l2_ball":
        norms = np.linalg.norm(Z, axis=1)
        at = lambda r: min(spec.r, r) * norms
    elif fam == "sparse_cap":
        norms = _top_s_norms(Z, spec.s)
        at = lambda r: min(1.0, r) * norms
    elif fam == "l1_ball":
        at = _l1_cap_l2_curve(_sorted_abs_desc(Z), spec.rho)
    elif fam == "l1_cap_l2":
        l1_l2 = _l1_cap_l2_curve(_sorted_abs_desc(Z), spec.rho)
        at = lambda r: l1_l2(min(spec.r, r))
    else:
        at = lambda r: _permpoly_localized_support(spec, Z, r)

    def curve(radius: float) -> np.ndarray:
        if radius <= 0:
            raise ValueError("localized radius must be > 0")
        return at(radius)

    return curve


def _permpoly_localized_support(spec: IndexSetSpec, Z: np.ndarray, radius: float) -> np.ndarray:
    # no closed form for the intersection
    if radius >= d2(spec):
        return support_batch(spec, Z)
    from scipy.optimize import isotonic_regression, minimize_scalar

    w_star = np.sort(np.abs(np.asarray(spec.w)))[::-1]
    return np.array([
        _permpoly_localized_support_one(z, w_star, radius, isotonic_regression, minimize_scalar)
        for z in Z
    ])


def localized_support_batch(
    spec: IndexSetSpec, Z: np.ndarray, radius: float | None
) -> np.ndarray:
    """sup over V cap radius*B2 of |<v, z>| for each row z."""
    if radius is None:
        return support_batch(spec, Z)
    return support_curve(spec, Z)(radius)


def gauge_batch(spec: IndexSetSpec, V: np.ndarray) -> np.ndarray:
    """Minkowski functional inf{t > 0 : v in t*V} for each row v of V (+inf if none)."""
    V = _as_batch(V, spec.dim)
    if spec.family == "l1_ball":
        return np.abs(V).sum(axis=1) / spec.rho
    if spec.family == "l2_ball":
        return np.linalg.norm(V, axis=1) / spec.r
    if spec.family == "sparse_cap":
        dense = np.count_nonzero(V, axis=1) > spec.s
        return np.where(dense, math.inf, np.linalg.norm(V, axis=1))
    if spec.family == "l1_cap_l2":
        return np.maximum(np.abs(V).sum(axis=1) / spec.rho, np.linalg.norm(V, axis=1) / spec.r)
    # permutation polytope: v in t*V  iff  prefix sums of v* are dominated
    # by t * prefix sums of w* (a positive prefix of v* over a zero one of
    # w* divides to +inf)
    pv = np.cumsum(_sorted_abs_desc(V), axis=1)
    pw = np.cumsum(np.sort(np.abs(np.asarray(spec.w)))[::-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pv > 0, pv / pw, 0.0).max(axis=1)


def gauge(spec: IndexSetSpec, v: np.ndarray) -> float:
    """Minkowski functional inf{t > 0 : v in t*V}; inf is +inf if none."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (spec.dim,):
        raise ValueError(f"expected a vector of length {spec.dim}")
    return float(gauge_batch(spec, v[None, :])[0])


# ---------------------------------------------------------------------------
# exact widths

@functools.cache
def _l1_width_rule() -> tuple[np.ndarray, np.ndarray]:
    """log erf(t/sqrt 2) at the Gauss-Legendre nodes t of the l1 width integral; the weights."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_L1_NODES)
    h = _L1_UPPER / _L1_PANELS
    t = (np.arange(_L1_PANELS)[:, None] + 0.5 * (x + 1.0)) * h
    tail = np.array([math.erfc(v / math.sqrt(2.0)) for v in t.ravel()])
    return np.log1p(-tail), np.tile(0.5 * h * w, _L1_PANELS)


def gaussian_width(spec: IndexSetSpec) -> float | None:
    """The gaussian mean width E sup_{v in V} <G, v> in closed form, or None.

    Exact to rounding (about 1e-16 relative) for the two balls:

    - ``l1_ball``: rho E||G||_inf = rho int_0^inf 1 - erf(t/sqrt 2)^n dt, on
      Gauss-Legendre panels, with the integrand as -expm1(n log erf) so
      that large n loses nothing;
    - ``l2_ball``: r E||G||_2 = r sqrt(2) Gamma((n+1)/2) / Gamma(n/2), by
      the gamma ratio at small n and its asymptotic series beyond.

    None for the other families; ``gaussian_mean_width`` estimates theirs.
    """
    n = spec.dim
    if spec.family == "l1_ball":
        log_erf, weights = _l1_width_rule()
        return spec.rho * math.fsum(-np.expm1(n * log_erf) * weights)
    if spec.family == "l2_ball":
        if n < _L2_SERIES_FROM:
            return spec.r * math.sqrt(2.0) * math.gamma((n + 1) / 2) / math.gamma(n / 2)
        x = n / 2
        log_ratio = sum(c / x ** (2 * k + 1) for k, c in enumerate(_L2_SERIES))
        return spec.r * math.sqrt(n) * math.exp(log_ratio)
    return None


# ---------------------------------------------------------------------------
# Monte-Carlo widths

@dataclass(frozen=True)
class WidthEstimate:
    """Monte-Carlo estimate of a mean width, with its sampling error.

    ``d2`` is the Euclidean radius of the (possibly localized) set and
    ``complexity_ratio`` the squared ratio (mean / d2)^2.
    """

    mean: float
    std_error: float
    draws: int
    localized_radius: float | None
    d2: float
    complexity_ratio: float


def _make_width_estimate(values: np.ndarray, spec, localized_radius) -> WidthEstimate:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.inf
    rad = d2(spec, localized_radius)
    ratio = (mean / rad) ** 2 if rad > 0 else math.nan
    return WidthEstimate(
        mean=mean,
        std_error=se,
        draws=len(values),
        localized_radius=localized_radius,
        d2=rad,
        complexity_ratio=ratio,
    )


def _gaussian_blocks(dim: int, draws: int, seed_path: int | SeedPath):
    """The draws x dim standard gaussians of the "gaussian" stream on seed_path.

    Yields row blocks of _GAUSSIAN_BLOCK_VALUES // dim rows (at least one);
    concatenated, they are the sample drawn at once.
    """
    rng = rng_from_path(seed_path, "gaussian")
    chunk = max(1, _GAUSSIAN_BLOCK_VALUES // dim)
    for done in range(0, draws, chunk):
        yield rng.standard_normal((min(chunk, draws - done), dim))


def gaussian_mean_widths(
    spec: IndexSetSpec, draws: int, radii, seed_path: int | SeedPath = (0,)
) -> list[WidthEstimate]:
    """``gaussian_mean_width`` at every radius in ``radii``, all on one sample.

    A radius of None is the whole set.  Each block of the sample is
    evaluated at every radius, through one ``support_curve`` when some
    radius is finite, before the next block is drawn.  On the sample each
    row's support is concave in r and 0 at r = 0, so width(r)/r is
    nonincreasing in r.
    """
    if draws < 2:
        raise ValueError("draws must be >= 2")
    radii = list(radii)
    localized = any(r is not None for r in radii)
    values = np.empty((len(radii), draws))
    done = 0
    for G in _gaussian_blocks(spec.dim, draws, seed_path):
        curve = support_curve(spec, G) if localized else None
        for i, r in enumerate(radii):
            values[i, done:done + len(G)] = support_batch(spec, G) if r is None else curve(r)
        done += len(G)
        del G, curve  # freed before the next block is drawn and its curve built
    return [_make_width_estimate(v, spec, r) for v, r in zip(values, radii)]


def gaussian_mean_width(
    spec: IndexSetSpec,
    draws: int,
    localized_radius: float | None = None,
    seed_path: int | SeedPath = (0,),
) -> WidthEstimate:
    """Monte-Carlo E sup_{v in V cap rB2} |<G, v>| over standard gaussians."""
    return gaussian_mean_widths(spec, draws, [localized_radius], seed_path)[0]


# ---------------------------------------------------------------------------
# unconditionality diagnostics

UNCONDITIONALITY_TOL = 1e-10


@dataclass(frozen=True)
class UnconditionalityReport:
    """Max violations of the three symmetry clauses over random trials.

    Violations are relative to max(1, |h|).  Any figure above
    ``UNCONDITIONALITY_TOL`` signals an implementation bug in the support
    function, not bad data.
    """

    trials: int
    max_permutation_violation: float
    max_sign_violation: float
    max_majorization_violation: float

    @property
    def passed(self) -> bool:
        worst = max(
            self.max_permutation_violation,
            self.max_sign_violation,
            self.max_majorization_violation,
        )
        return worst <= UNCONDITIONALITY_TOL


def unconditionality_check(
    spec: IndexSetSpec, trials: int, seed_path: int | SeedPath = (0,)
) -> UnconditionalityReport:
    """Test invariance under permutations/sign flips and majorization monotonicity."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng_from_path(seed_path, "directions")
    n = spec.dim
    perm_err = 0.0
    sign_err = 0.0
    major_err = 0.0
    for _ in range(trials):
        z = rng.standard_normal(n) * math.exp(rng.uniform(-2.0, 2.0))
        h = support(spec, z)
        scale = max(1.0, abs(h))

        perm = rng.permutation(n)
        perm_err = max(perm_err, abs(support(spec, z[perm]) - h) / scale)

        signs = 2.0 * rng.integers(0, 2, size=n) - 1.0
        sign_err = max(sign_err, abs(support(spec, signs * z) - h) / scale)

        # x with sorted |x| dominated pointwise by sorted |z|
        mult = rng.uniform(0.0, 1.0, size=n)
        x = rng.permutation(np.abs(z)) * mult * (2.0 * rng.integers(0, 2, size=n) - 1.0)
        hx = support(spec, x)
        major_err = max(major_err, max(0.0, hx - h) / scale)
    return UnconditionalityReport(
        trials=trials,
        max_permutation_violation=perm_err,
        max_sign_violation=sign_err,
        max_majorization_violation=major_err,
    )

"""Jacobi polynomials, branching coefficients, and the discrete corner kernel.

Classical Jacobi polynomials are evaluated by the standard three-term
recurrence in the normalization with value Gamma(n+alpha+1)/(n! Gamma(alpha+1))
at x = 1.  Their multivariate determinantal extension, evaluated at the
all-ones vector through a closed product formula, yields a Markov kernel
from partitions of length N+1 to partitions of length N via a two-step
branching sum.  Under diffusive scaling (partitions ~ kappa * lambda,
kappa -> infinity after taking square roots of coordinates) the kernel rows
converge to the continuous (N+1 -> N) alpha-link of ``kernels``.
``compare_scaling_limit`` reads both CDFs off one grid: the discrete one
from the row's targets, the continuous one from the panel masses of one
Gauss panel cubature of ``verify`` over the link's cell, cut at every grid
line.

One batched row serves every N: the branching weight B(m, l) is an
m-part times an l-part, so the sum over each coordinate of the
intermediate partition is a difference of one compensated prefix sum of
the m-part, and every target of a row comes from the same few array passes.

Gamma-heavy quantities are evaluated in log-space; scaling tests push
arguments past 10^3 where direct Gamma overflows.

The branching coefficients are pinned by two independent checks in the
tests: the two-step expansion must reproduce the determinant evaluation of
the polynomial with one argument set to 1, and every kernel row must sum
to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chamber import Partition, gap_products, link_cell
# density_lambda_plus stays bound here for perfbench/spans.py, which wraps it by this path
from .kernels import (_libm, _require_alpha, density_lambda_plus,  # noqa: F401
                      density_lambda_plus_rows)

__all__ = [
    "JacobiParams",
    "jacobi_p",
    "jacobi_p_at_one",
    "leading_k",
    "mv_jacobi",
    "mv_jacobi_at_one",
    "log_mv_jacobi_at_one",
    "coef_B",
    "coef_A",
    "coef_c",
    "log_coef_c",
    "kernel_row",
    "compare_scaling_limit",
]

_MIN_GAP = 1e-6
# absolute tolerance of the continuous CDF (scipy quad's default epsabs)
_CDF_TOL = 1.49e-8


def _lgamma(v):
    """log|Gamma(v)| of a scalar or an array of floats, +inf at the poles
    (the non-positive integers), as scipy.special.gammaln gives it."""
    if isinstance(v, (float, int)):  # np.float64 too: most calls take one number
        try:
            return math.lgamma(v)
        except (ValueError, OverflowError):  # a pole, or beyond the float range
            return math.inf
    v = np.asarray(v, dtype=float)
    return _libm(_lgamma, v.ravel()).reshape(v.shape)


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents alpha, beta > -1 on [-1, 1] (resp. [0, 1])."""

    alpha: float
    beta: float

    def __post_init__(self):
        _require_alpha(self.alpha)
        _require_alpha(self.beta, "beta")

    @property
    def sigma(self) -> float:
        return (self.alpha + self.beta + 1.0) / 2.0


def jacobi_p(n: int, params: JacobiParams, x):
    """Jacobi polynomial of degree n at x (scalar or array)."""
    if n < 0:
        raise ValueError(f"degree n={n} must be >= 0")
    a, b = params.alpha, params.beta
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0)
        c2 = (2.0 * k + a + b - 1.0) * ((2.0 * k + a + b) * (2.0 * k + a + b - 2.0) * x + a * a - b * b)
        c3 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return p_cur if p_cur.ndim else float(p_cur)


def jacobi_p_at_one(n: int, params: JacobiParams) -> float:
    """Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1)), via log-gamma."""
    if n < 0:
        raise ValueError(f"degree n={n} must be >= 0")
    a = params.alpha
    return float(np.exp(_lgamma(n + a + 1.0) - _lgamma(n + 1.0) - _lgamma(a + 1.0)))


def leading_k(n: int, params: JacobiParams) -> float:
    """Leading coefficient 2^(-n) Gamma(2n+2sigma)/(Gamma(n+2sigma) n!)."""
    if n < 0:
        raise ValueError(f"degree n={n} must be >= 0")
    if n == 0:
        return 1.0
    two_sigma = 2.0 * params.sigma
    if two_sigma + n <= 0 or (two_sigma <= 0 and float(two_sigma).is_integer()):
        raise ValueError(f"gamma pole at 2*sigma={two_sigma}")
    return float(np.exp(-n * np.log(2.0) + _lgamma(2.0 * n + two_sigma)
                        - _lgamma(n + two_sigma) - _lgamma(n + 1.0)))


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(tuple(lam))


def mv_jacobi(lam, xs, params: JacobiParams) -> float:
    """det[ p_{lam_i + n - i}(x_j) ] / prod_{i<j} (x_i - x_j).

    The denominator uses the descending convention, which makes the value
    agree with the closed form at the all-ones vector (and hence positive
    near it).  Arguments must be pairwise separated by more than 1e-6.
    """
    lam = _as_partition(lam)
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    parts = lam.padded(n)
    if n > 1 and np.diff(np.sort(xs)).min() <= _MIN_GAP:
        raise ValueError(f"arguments too close: two differ by <= {_MIN_GAP}")
    mat = np.array([[jacobi_p(parts[i] + n - (i + 1), params, xs[j]) for j in range(n)]
                    for i in range(n)])
    # prod_{i<j} (x_i - x_j) negates each factor of the ascending Vandermonde
    den = (-1.0) ** (n * (n - 1) // 2) * gap_products(xs[None, :], xs[None, :])[0]
    return float(np.linalg.det(mat) / den)


def _log_c_rows(parts: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """log c per row of the (T, n) integer parts."""
    out = np.full(len(parts), n * _lgamma(alpha + 1.0))
    for i in range(1, n + 1):
        k = parts[:, i - 1] + n - i
        out += _lgamma(k + 1.0) - _lgamma(k + alpha + 1.0)
    return out


def _log_cp_rows(parts: np.ndarray, n: int, params: JacobiParams) -> np.ndarray:
    """log c_lam P_lam(1_n) per row of the (T, n) integer parts.  The factors
    Gamma(k_i+a+1)/Gamma(k_i+1) of P(1_n) cancel against c, so no large
    log-gamma of a part enters, and at n = 1 the value is exactly 0."""
    a = params.alpha
    two_sigma = 2.0 * params.sigma
    out = np.full(len(parts), n * _lgamma(a + 1.0) - n * (n - 1) / 2.0 * math.log(2.0))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out += _libm(math.log, parts[:, i - 1] - parts[:, j - 1] + (j - i))
            out += _libm(math.log, parts[:, i - 1] + parts[:, j - 1] + (2 * n - i - j) + two_sigma)
        out -= _lgamma(n - i + a + 1.0) + _lgamma(i)
    return out


def log_mv_jacobi_at_one(lam, n: int, params: JacobiParams) -> float:
    """log of the (positive) closed-form value at the all-ones vector."""
    parts = np.array([_as_partition(lam).padded(n)])
    return float(_log_cp_rows(parts, n, params)[0] - _log_c_rows(parts, n, params.alpha)[0])


def mv_jacobi_at_one(lam, n: int, params: JacobiParams) -> float:
    return float(np.exp(log_mv_jacobi_at_one(lam, n, params)))


def _log_B_m(m, params: JacobiParams):
    """The m-part of log B(m, l), log 2 included."""
    a, b = params.alpha, params.beta
    m = np.asarray(m, dtype=float)
    return (np.log(2.0 * m + a + b + 2.0) + _lgamma(m + b + 1.0) + _lgamma(m + 1.0)
            - math.log(2.0) - _lgamma(m + a + b + 2.0) - _lgamma(m + a + 2.0))


def _log_B_l(l, params: JacobiParams):
    """The l-part of log B(m, l).  Its factor (2l+a+b+1) Gamma(l+a+b+1) is
    grouped so l = 0 has no pole: there it equals Gamma(a+b+2) exactly."""
    a, b = params.alpha, params.beta
    l = np.asarray(l, dtype=float)
    safe = np.where(l >= 1, l, 1.0)
    block = np.where(l >= 1, np.log(2.0 * safe + a + b + 1.0) + _lgamma(safe + a + b + 1.0),
                     _lgamma(a + b + 2.0))
    return block + _lgamma(l + a + 1.0) - _lgamma(l + b + 1.0) - _lgamma(l + 1.0)


def log_coef_B(m, l, params: JacobiParams):
    """log B(m, l); the weight is strictly positive for alpha, beta > -1."""
    if np.any(np.asarray(m) < 0) or np.any(np.asarray(l) < 0):
        raise ValueError("B(m, l) needs m, l >= 0")
    return _log_B_m(m, params) + _log_B_l(l, params)


def coef_B(m: int, l: int, params: JacobiParams) -> float:
    return float(np.exp(log_coef_B(m, l, params)))


def coef_A(mu, nu, n: int, params: JacobiParams) -> float:
    """prod_{i=1}^{n-1} B(mu_i + n - i - 1, nu_i + n - i - 1)."""
    mu_p = _as_partition(mu).padded(n - 1)
    nu_p = _as_partition(nu).padded(n - 1)
    idx = np.arange(1, n)
    return float(np.exp(np.sum(log_coef_B(np.array(mu_p) + n - idx - 1,
                                          np.array(nu_p) + n - idx - 1, params))))


def log_coef_c(lam, n: int, alpha: float) -> float:
    return float(_log_c_rows(np.array([_as_partition(lam).padded(n)]), n, alpha)[0])


def coef_c(lam, n: int, alpha: float) -> float:
    """Gamma(alpha+1)^n prod_i Gamma(lam_i+n-i+1)/Gamma(lam_i+n-i+alpha+1)."""
    return float(np.exp(log_coef_c(lam, n, alpha)))


def _row(lam, n: int, params: JacobiParams):
    """Every target of the row at lam, as (T, n) integer parts in
    lexicographic order, and its weight.

    The weight of nu sums (c_nu / c_lam) A_{mu,nu} P_nu(1_N)/P_lam(1_{N+1})
    over the intermediate partitions mu interlacing both.  Those constraints
    are independent boxes lo_i <= mu_i <= hi_i, and B(m, l) is an m-part
    times an l-part, so each coordinate's sum over mu_i is a difference of
    one compensated prefix sum of the m-part.
    """
    lam_p = np.array(_as_partition(lam).padded(n + 1))
    # nu_i runs over [lam_{i+2}, lam_i] (lam_{N+2} = 0), non-increasing in i
    lows = np.append(lam_p[2:], 0)[:n]
    sizes = lam_p[:n] - lows + 1
    nus = np.indices(sizes).reshape(n, int(np.prod(sizes))).T + lows
    nus = nus[np.all(nus[:, :-1] >= nus[:, 1:], axis=1)]
    ms = np.arange(lam_p[0] + n)  # every shifted argument m, l <= lam_1 + N - 1
    f = np.exp(_log_B_m(ms, params))
    cum = np.concatenate([[0.0], np.cumsum(f)])
    # each prefix step's rounding error (TwoSum), summed apart: a window deep
    # in the prefix sums keeps its relative precision where f decays fast
    step = cum[1:] - cum[:-1]
    err = np.concatenate([[0.0], np.cumsum((cum[:-1] - (cum[1:] - step)) + (f - step))])
    log_l = _log_B_l(ms, params)
    log_w = _log_cp_rows(nus, n, params) - _log_cp_rows(lam_p[None, :], n + 1, params)[0]
    sums = 1.0
    for i in range(n):
        shift = n - 1 - i
        lo = np.maximum(lam_p[i + 1], nus[:, i]) + shift
        hi = (np.minimum(lam_p[i], nus[:, i - 1]) if i else lam_p[0]) + shift
        log_w += log_l[nus[:, i] + shift]
        sums = sums * ((cum[hi + 1] - cum[lo]) + (err[hi + 1] - err[lo]))
    return nus, np.exp(log_w) * sums


def kernel_row(lam, n: int, params: JacobiParams):
    """All transition targets and their weights; weights sum to 1.

    Returns (list of Partition, array of probabilities).
    """
    nus, probs = _row(lam, n, params)
    return [Partition(tuple(nu)) for nu in nus.tolist()], probs


def compare_scaling_limit(lam, kappa: int, params: JacobiParams):
    """Sup |CDF| discrepancy between the rescaled discrete kernel row at
    kappa*lambda and its continuous limit law.

    The discrete variable Z/kappa is compared, through the change of
    variables y = nu^2 (weight 2 nu d nu per coordinate), against the
    continuous (N+1 -> N) alpha-link at x = lambda^2.  Both CDFs are read
    off one grid, the lattice midpoints (k + 1/2)/kappa at N = 1 and the
    12 x 12 grid j lambda_1/12 - 1/(2 kappa) at N = 2: the discrete one
    from the row's targets, the continuous one from the panel masses of one
    Gauss panel cubature of ``verify`` over the link's cell, cut at every
    grid line so each panel lies in one grid cell, to 1.49e-8.  Returns a
    dict with the sup discrepancy and the row mass.
    """
    lam = _as_partition(lam)
    if int(kappa) != kappa or kappa < 1:
        raise ValueError(f"kappa={kappa} must be a positive integer")
    kappa = int(kappa)
    n = lam.length - 1
    if n not in (1, 2):
        raise ValueError("scaling comparison supports N = 1 or 2")
    if len(set(lam.parts)) != lam.length or min(lam.parts) < 1:
        raise ValueError("lambda needs distinct positive parts")
    x_sq = np.sort(np.asarray(lam.parts, dtype=float) ** 2)

    nus, probs = _row(lam.scaled(kappa), n, params)
    if n == 1:
        grid = (nus[:, 0] + 0.5) / kappa
    else:
        grid = np.linspace(0.0, lam.parts[0], 13)[1:] - 0.5 / kappa
    sup = np.max(np.abs(_grid_cdf(nus[:, ::-1], probs, grid * kappa)  # ascending targets
                        - _link_cdf(params.alpha, x_sq, grid)))
    return {"sup_discrepancy": float(sup), "row_mass": float(probs.sum()), "kappa": kappa, "n": n}


def _link_cdf(alpha: float, x_sq: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """P(sqrt(Y) <= g per coordinate) at each node g of grid^N, Y ~ continuous
    (N+1 -> N) link at x_sq, from one cubature over the link's cell cut at
    every grid line, so each panel lies in one grid cell."""
    from .verify import quad_cell

    cuts = np.maximum(grid, 0.0) ** 2  # the CDF is 0 at a node at or below 0
    q = quad_cell(lambda ys: density_lambda_plus_rows(alpha, x_sq, ys),
                  link_cell("lambda_plus", x_sq), _CDF_TOL, breaks=(*x_sq, *cuts), alpha=alpha)
    return _grid_cdf(q.corners, q.masses, cuts)


def _grid_cdf(points, weights, grid) -> np.ndarray:
    """The weight of the (m, d) points at or below each node of the product
    grid grid^d (grid ascending): a histogram over the grid cells, the cell
    of a point being the first node at or above it in each coordinate,
    summed cumulatively along each axis.  Points above the last node count
    at no node."""
    idx = np.searchsorted(grid, points, side="left")
    inside = np.all(idx < grid.size, axis=1)
    cdf = np.zeros((grid.size,) * points.shape[1])
    np.add.at(cdf, tuple(idx[inside].T), weights[inside])
    for axis in range(cdf.ndim):
        cdf = cdf.cumsum(axis)
    return cdf

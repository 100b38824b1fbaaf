"""Jacobi polynomials, branching coefficients, and the discrete corner kernel.

Classical Jacobi polynomials are evaluated by the standard three-term
recurrence in the normalization with value Gamma(n+alpha+1)/(n! Gamma(alpha+1))
at x = 1.  Their multivariate determinantal extension, evaluated at the
all-ones vector through a closed product formula, yields a Markov kernel
from partitions of length N+1 to partitions of length N via a two-step
branching sum.  Under diffusive scaling (partitions ~ kappa * lambda,
kappa -> infinity after taking square roots of coordinates) the kernel rows
converge to the continuous (N+1 -> N) alpha-link of ``kernels``.

Gamma-heavy quantities are evaluated in log-space; scaling tests push
arguments past 10^3 where direct Gamma overflows.

The branching coefficients are pinned by two independent checks in the
tests: the two-step expansion must reproduce the determinant evaluation of
the polynomial with one argument set to 1, and every kernel row must sum
to one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .chamber import Partition
# density_lambda_plus stays bound here for perfbench/spans.py, which wraps it by this path
from .kernels import density_lambda_plus, density_lambda_plus_rows  # noqa: F401

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
    "discrete_kernel",
    "kernel_row",
    "compare_scaling_limit",
]

_MIN_GAP = 1e-6
# absolute tolerance of the continuous CDF (scipy quad's default epsabs)
_CDF_TOL = 1.49e-8


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents alpha, beta > -1 on [-1, 1] (resp. [0, 1])."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > -1:
            raise ValueError(f"alpha={self.alpha} must be > -1")
        if not self.beta > -1:
            raise ValueError(f"beta={self.beta} must be > -1")

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
    return float(np.exp(gammaln(n + a + 1.0) - gammaln(n + 1.0) - gammaln(a + 1.0)))


def leading_k(n: int, params: JacobiParams) -> float:
    """Leading coefficient 2^(-n) Gamma(2n+2sigma)/(Gamma(n+2sigma) n!)."""
    if n < 0:
        raise ValueError(f"degree n={n} must be >= 0")
    if n == 0:
        return 1.0
    two_sigma = 2.0 * params.sigma
    if two_sigma + n <= 0 or (two_sigma <= 0 and float(two_sigma).is_integer()):
        raise ValueError(f"gamma pole at 2*sigma={two_sigma}")
    return float(np.exp(-n * np.log(2.0) + gammaln(2.0 * n + two_sigma)
                        - gammaln(n + two_sigma) - gammaln(n + 1.0)))


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
    for i in range(n):
        for j in range(i + 1, n):
            if abs(xs[i] - xs[j]) <= _MIN_GAP:
                raise ValueError(f"arguments too close: |x_{i}-x_{j}| <= {_MIN_GAP}")
    mat = np.array([[jacobi_p(parts[i] + n - (i + 1), params, xs[j]) for j in range(n)]
                    for i in range(n)])
    den = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            den *= xs[i] - xs[j]
    return float(np.linalg.det(mat) / den)


def log_mv_jacobi_at_one(lam, n: int, params: JacobiParams) -> float:
    """log of the (positive) closed-form value at the all-ones vector."""
    lam = _as_partition(lam)
    parts = lam.padded(n)
    a = params.alpha
    two_sigma = 2.0 * params.sigma
    out = -n * (n - 1) / 2.0 * math.log(2.0)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out += math.log(parts[i - 1] - parts[j - 1] + j - i)
            out += math.log(parts[i - 1] + parts[j - 1] + 2 * n - i - j + two_sigma)
    for i in range(1, n + 1):
        k = parts[i - 1] + n - i
        out += gammaln(k + a + 1.0) - gammaln(k + 1.0) - gammaln(n - i + a + 1.0) - gammaln(i)
    return float(out)


def mv_jacobi_at_one(lam, n: int, params: JacobiParams) -> float:
    return float(np.exp(log_mv_jacobi_at_one(lam, n, params)))


def _log_l_block(l, a: float, b: float):
    """log of (2l+a+b+1) Gamma(l+a+b+1), grouped so l = 0 has no pole:
    there it equals Gamma(a+b+2) exactly."""
    l = np.asarray(l, dtype=float)
    safe = np.where(l >= 1, l, 1.0)
    general = np.log(2.0 * safe + a + b + 1.0) + gammaln(safe + a + b + 1.0)
    return np.where(l >= 1, general, gammaln(a + b + 2.0))


def log_coef_B(m, l, params: JacobiParams):
    """log B(m, l); the weight is strictly positive for alpha, beta > -1."""
    a, b = params.alpha, params.beta
    m = np.asarray(m, dtype=float)
    l = np.asarray(l, dtype=float)
    if np.any(m < 0) or np.any(l < 0):
        raise ValueError("B(m, l) needs m, l >= 0")
    out = (np.log(2.0 * m + a + b + 2.0) + gammaln(m + b + 1.0) + gammaln(m + 1.0)
           + _log_l_block(l, a, b) + gammaln(l + a + 1.0)
           - math.log(2.0) - gammaln(m + a + b + 2.0) - gammaln(m + a + 2.0)
           - gammaln(l + b + 1.0) - gammaln(l + 1.0))
    return out


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
    lam = _as_partition(lam)
    parts = lam.padded(n)
    out = n * gammaln(alpha + 1.0)
    for i in range(1, n + 1):
        k = parts[i - 1] + n - i
        out += gammaln(k + 1.0) - gammaln(k + alpha + 1.0)
    return float(out)


def coef_c(lam, n: int, alpha: float) -> float:
    """Gamma(alpha+1)^n prod_i Gamma(lam_i+n-i+1)/Gamma(lam_i+n-i+alpha+1)."""
    return float(np.exp(log_coef_c(lam, n, alpha)))


def _mu_ranges(lam_p, nu_p, n):
    """Per-coordinate bounds for the intermediate partition: the interlacing
    constraints are independent boxes, so the branching sum over mu factors."""
    ranges = []
    for i in range(1, n + 1):
        lo = max(lam_p[i], nu_p[i - 1])
        hi = min(lam_p[i - 1], nu_p[i - 2]) if i >= 2 else lam_p[i - 1]
        ranges.append((lo, hi))
    return ranges


def discrete_kernel(lam, nu, params: JacobiParams, n: int | None = None) -> float:
    """Transition weight from a length-(N+1) partition to a length-N one.

    Sums (c_nu / c_lam) A_{mu,nu} P_nu(1_N)/P_lam(1_{N+1}) over intermediate
    partitions mu interlacing both; zero when no mu exists.
    """
    lam = _as_partition(lam)
    nu = _as_partition(nu)
    if n is None:
        n = max(lam.length - 1, nu.length, 1)
    lam_p = lam.padded(n + 1)
    nu_p = nu.padded(n)
    ranges = _mu_ranges(lam_p, nu_p, n)
    if any(lo > hi for lo, hi in ranges):
        return 0.0
    log_base = (log_coef_c(nu, n, params.alpha) - log_coef_c(lam, n + 1, params.alpha)
                + log_mv_jacobi_at_one(nu, n, params) - log_mv_jacobi_at_one(lam, n + 1, params))
    total = np.exp(log_base)
    for i, (lo, hi) in enumerate(ranges, start=1):
        ms = np.arange(lo, hi + 1) + (n + 1) - i - 1
        total *= np.exp(log_coef_B(ms, nu_p[i - 1] + (n + 1) - i - 1, params)).sum()
    return float(total)


def kernel_row(lam, n: int, params: JacobiParams):
    """All transition targets and their weights; weights sum to 1.

    Returns (list of Partition, array of probabilities).
    """
    lam = _as_partition(lam)
    lam_p = lam.padded(n + 1)
    boxes = [range(lam_p[i + 2] if i + 2 <= n else 0, lam_p[i] + 1) for i in range(n)]
    targets, probs = [], []
    for nu_tuple in itertools.product(*boxes):
        if any(nu_tuple[i] < nu_tuple[i + 1] for i in range(n - 1)):
            continue
        nu = Partition(nu_tuple)
        targets.append(nu)
        probs.append(discrete_kernel(lam, nu, params, n=n))
    return targets, np.asarray(probs)


def _kernel_row_1d(lam, params: JacobiParams):
    """Vectorized single-coordinate row (used at scaled sizes)."""
    lam = _as_partition(lam)
    l1, l2 = lam.padded(2)
    a, b = params.alpha, params.beta
    ms = np.arange(0, l1 + 1, dtype=float)
    f = np.exp(np.log(2.0 * ms + a + b + 2.0) + gammaln(ms + b + 1.0) + gammaln(ms + 1.0)
               - math.log(2.0) - gammaln(ms + a + b + 2.0) - gammaln(ms + a + 2.0))
    cum_f = np.cumsum(f)
    nus = np.arange(0, l1 + 1)
    lo = np.maximum(nus, l2)
    tail = cum_f[l1] - np.where(lo >= 1, cum_f[np.maximum(lo - 1, 0)], 0.0)
    log_g = _log_l_block(nus, a, b) + gammaln(nus + a + 1.0) - gammaln(nus + b + 1.0) - gammaln(nus + 1.0)
    # for single-part partitions, log c_nu + log P_nu(1_1) = 0 term by term
    log_c_nu = gammaln(a + 1.0) + gammaln(nus + 1.0) - gammaln(nus + a + 1.0)
    log_p_nu = -log_c_nu
    log_base = (log_c_nu + log_p_nu - log_coef_c(lam, 2, a) - log_mv_jacobi_at_one(lam, 2, params))
    probs = np.exp(log_base + log_g) * tail
    return nus, probs


def compare_scaling_limit(lam, kappa: int, params: JacobiParams):
    """Sup |CDF| discrepancy between the rescaled discrete kernel row at
    kappa*lambda and its continuous limit law.

    The discrete variable Z/kappa is compared, through the change of
    variables y = nu^2 (weight 2 nu d nu per coordinate), against the
    continuous (N+1 -> N) alpha-link at x = lambda^2.  CDFs are compared on
    the lattice midpoints (k + 1/2)/kappa.  Returns a dict with the sup
    discrepancy and the row mass.
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
    scaled = lam.scaled(kappa)
    x_sq = np.sort(np.asarray(lam.parts, dtype=float) ** 2)

    if n == 1:
        nus, probs = _kernel_row_1d(scaled, params)
        mass = float(probs.sum())
        disc_cdf = np.cumsum(probs)
        grid = (nus + 0.5) / kappa
        cont_cdf = _cdf_1d_on_grid(params.alpha, x_sq, grid)
        sup = float(np.max(np.abs(disc_cdf - cont_cdf)))
        return {"sup_discrepancy": sup, "row_mass": mass, "kappa": kappa, "n": n}

    targets, probs = kernel_row(scaled, n, params)
    mass = float(probs.sum())
    pts = np.array([t.padded(n)[::-1] for t in targets], dtype=float)  # ascending pairs
    # continuous joint CDF from a cumulative midpoint table in the squared
    # coordinates (midpoint resolution ~ 1e-3 is ample on this grid of CDF queries)
    m_cells = 400
    cum, step = _cum_density_table(params.alpha, x_sq, m_cells)
    grid1 = np.linspace(0.0, lam.parts[0], 13)[1:] - 0.5 / kappa
    sup = 0.0
    for a_v in grid1:
        for b_v in grid1:
            d_val = probs[(pts[:, 0] <= a_v * kappa) & (pts[:, 1] <= b_v * kappa)].sum()
            i = min(int(a_v**2 / step), m_cells) - 1
            j = min(int(b_v**2 / step), m_cells) - 1
            c_val = cum[i, j] if (i >= 0 and j >= 0) else 0.0
            sup = max(sup, abs(d_val - c_val))
    return {"sup_discrepancy": float(sup), "row_mass": mass, "kappa": kappa, "n": n}


def _cum_density_table(alpha: float, x_sq: np.ndarray, m_cells: int):
    """Cumulative midpoint sums of the (3 -> 2) link density at x_sq on an
    m_cells x m_cells grid over [0, max x_sq]^2; returns (table, cell side)."""
    step = float(x_sq[-1]) / m_cells
    mids = (np.arange(m_cells) + 0.5) * step
    i, j = np.triu_indices(m_cells)
    dens = np.zeros((m_cells, m_cells))
    dens[i, j] = density_lambda_plus_rows(alpha, x_sq, np.column_stack([mids[i], mids[j]]))
    return dens.cumsum(axis=0).cumsum(axis=1) * step * step, step


def _cdf_1d_on_grid(alpha: float, x_sq: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """CDF of sqrt(Y), Y ~ continuous link at x_sq, at the grid points."""
    from .verify import quad_intervals

    ends = np.minimum(grid, math.sqrt(x_sq[-1])) ** 2
    edges = np.unique(np.concatenate([[0.0], ends, x_sq]))
    parts, _ = quad_intervals(lambda ys: density_lambda_plus_rows(alpha, x_sq, ys), edges,
                              _CDF_TOL, alpha)
    cum = np.concatenate([[0.0], np.cumsum(parts)])
    return cum[np.searchsorted(edges, ends)]

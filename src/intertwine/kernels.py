"""The three interlacing Markov links between adjacent chamber dimensions.

``density_L`` is the parameter-free link from dimension N+1 to N (uniform
re-weighting by a Vandermonde ratio on the interlacing cell).  The two
alpha-deformed links on the non-negative chamber are ``density_lambda_eq``
(dimension N to N, lower-interlacing cell) and ``density_lambda_plus``
(dimension N+1 to N), whose per-coordinate weight integrates y^alpha/z^(alpha+1)
over the overlap interval, with the conventions x_0 = 0 and y_{N+1} = inf.
Each density is evaluated row-wise (``density_*_rows``: one source point x,
many points y); the scalar ``density_*`` are its one-point form.

Samplers draw exactly from these densities by rejection with product
envelopes; acceptance degrades with dimension, which is fine at the desk
scales (N <= 4) the verification harness uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chamber import as_coords, gap_products, vandermonde_rows

__all__ = [
    "KernelParams",
    "density_L",
    "density_lambda_eq",
    "density_lambda_plus",
    "density_L_rows",
    "density_lambda_eq_rows",
    "density_lambda_plus_rows",
    "sample_L_many",
    "sample_lambda_eq_many",
    "sample_lambda_plus_many",
    "sample_L_each",
    "sample_lambda_eq_each",
    "sample_lambda_plus_each",
]

RETRY_CAP = 10**7
_ALPHA_LOG_BRANCH = 1e-10


@dataclass(frozen=True)
class KernelParams:
    """Link parameters: alpha > -1 and the target dimension n."""

    alpha: float
    n: int

    def __post_init__(self):
        if not self.alpha > -1:
            raise ValueError(f"alpha={self.alpha} must be > -1")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")


def shifted_factorial(x: float, n: int) -> float:
    """(x)_n = x (x+1) ... (x+n-1); empty product for n = 0."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def _require_strict(x, nonneg: bool) -> np.ndarray:
    arr = as_coords(x)
    if np.any(np.diff(arr) <= 0):
        raise ValueError(f"x must be strictly increasing, got {arr}")
    if nonneg and arr[0] <= 0:
        raise ValueError(f"x must have x_1 > 0, got {arr}")
    return arr


def _require_alpha(alpha) -> None:
    if not alpha > -1:
        raise ValueError(f"alpha={alpha} must be > -1")


def _as_rows(Y, n: int) -> np.ndarray:
    rows = np.asarray(Y, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"dimension mismatch: expected rows of length {n}, "
                         f"got shape {rows.shape}")
    return rows


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of the ``math`` module over a 1-D array.  numpy's SIMD log,
    expm1 and pow can round differently from the C library in the last bit;
    the link weights keep the C library's values."""
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)


def density_L_rows(x, Y) -> np.ndarray:
    """N! Vandermonde(y)/Vandermonde(x) per row y of Y on the interlacing
    cell of x, else 0."""
    xa = _require_strict(x, nonneg=False)
    n = xa.size - 1
    ya = _as_rows(Y, n)
    ok = (np.all(np.diff(ya, axis=1) >= 0, axis=1)
          & np.all(xa[:-1] <= ya, axis=1) & np.all(ya <= xa[1:], axis=1))
    num = vandermonde_rows(ya)
    den = float(vandermonde_rows(xa[None, :])[0])
    return np.where(ok, math.factorial(n) * num / den, 0.0)


def density_lambda_eq_rows(alpha: float, x, Y) -> np.ndarray:
    """(alpha+1)_N prod(y_k^a / x_k^(a+1)) Vdm(y)/Vdm(x) per row y of Y on
    the lower cell of x, else 0; inf at y_1 = 0 when alpha < 0."""
    _require_alpha(alpha)
    xa = _require_strict(x, nonneg=True)
    n = xa.size
    ya = _as_rows(Y, n)
    ok = (np.all(np.diff(ya, axis=1) >= 0, axis=1) & (ya[:, 0] >= 0)
          & np.all(ya <= xa, axis=1) & np.all(xa[:-1] <= ya[:, 1:], axis=1))
    with np.errstate(all="ignore"):
        ratio = np.prod(ya**alpha / xa ** (alpha + 1), axis=1)
        num = vandermonde_rows(ya)
        den = float(vandermonde_rows(xa[None, :])[0])
        out = shifted_factorial(alpha + 1, n) * ratio * num / den
    out[(ya[:, 0] == 0.0) & (alpha < 0)] = math.inf
    return np.where(ok, out, 0.0)


def _interval_weight_rows(alpha: float, y: np.ndarray, a: np.ndarray,
                          b: np.ndarray) -> np.ndarray:
    """int_a^b y^alpha z^(-alpha-1) dz in closed form per entry; 0 unless
    0 < a < b, inf at y = 0 when alpha < 0."""
    out = np.zeros(y.shape)
    ok = (a > 0) & (a < b)
    log_ratio = _libm(math.log, b[ok] / a[ok])
    if abs(alpha) < _ALPHA_LOG_BRANCH:
        out[ok] = log_ratio
        return out
    # (y/a)^alpha (1 - (a/b)^alpha)/alpha, written to avoid cancellation;
    # the C library's pow, as for Python floats, with 0^alpha = inf for alpha < 0
    base = y[ok] / a[ok]
    power = np.full(base.shape, 0.0 if alpha > 0 else math.inf)
    pos = base > 0
    power[pos] = _libm(lambda v: math.pow(v, alpha), base[pos])
    out[ok] = power * -_libm(math.expm1, -alpha * log_ratio) / alpha
    return out


def density_lambda_plus_rows(alpha: float, x, Y) -> np.ndarray:
    """Density of the (N+1 -> N) alpha-link per row y of Y, with x strictly
    interior; inf at y_1 = 0 when alpha < 0."""
    _require_alpha(alpha)
    xa = _require_strict(x, nonneg=True)
    n = xa.size - 1
    ya = _as_rows(Y, n)
    ok = np.all(np.diff(ya, axis=1) >= 0, axis=1) & (ya[:, 0] >= 0)
    lo_ind = np.concatenate([[0.0], xa[:-2]])
    ok &= np.all((lo_ind <= ya) & (ya <= xa[1:]), axis=1)
    upper = np.concatenate([np.minimum(xa[1:-1], ya[:, 1:]), np.full((ya.shape[0], 1), xa[-1])],
                           axis=1)
    factors = _interval_weight_rows(alpha, ya, np.maximum(xa[:-1], ya), upper)
    ok &= np.all(factors != 0.0, axis=1)
    num = vandermonde_rows(ya)
    den = float(vandermonde_rows(xa[None, :])[0])
    with np.errstate(all="ignore"):
        weight = np.ones(ya.shape[0])
        for k in range(n):
            weight *= factors[:, k]
        out = math.factorial(n) * shifted_factorial(alpha + 1, n) * num / den * weight
    return np.where(ok, out, 0.0)


def density_L(x, y) -> float:
    """Scalar form of :func:`density_L_rows` at one point y."""
    return float(density_L_rows(x, as_coords(y)[None, :])[0])


def density_lambda_eq(params: KernelParams, x, y) -> float:
    """Scalar form of :func:`density_lambda_eq_rows` at one point y."""
    return float(density_lambda_eq_rows(params.alpha, x, as_coords(y)[None, :])[0])


def density_lambda_plus(params: KernelParams, x, y) -> float:
    """Scalar form of :func:`density_lambda_plus_rows` at one point y."""
    return float(density_lambda_plus_rows(params.alpha, x, as_coords(y)[None, :])[0])


# ---------------------------------------------------------------------------
# exact rejection samplers (vectorized over rows; one stream per call)
# ---------------------------------------------------------------------------


def _rejection_fill(propose, accept_ratio, m: int, n: int, rng) -> np.ndarray:
    """Generic row-wise rejection loop with the package-wide retry cap."""
    out = np.empty((m, n))
    pending = np.ones(m, dtype=bool)
    attempts = np.zeros(m, dtype=np.int64)
    while pending.any():
        idx = np.flatnonzero(pending)
        y = propose(idx, rng)
        ratio = accept_ratio(idx, y)
        acc = rng.uniform(size=idx.size) < ratio
        out[idx[acc]] = y[acc]
        pending[idx[acc]] = False
        attempts[idx] += 1
        if np.any(attempts[pending] >= RETRY_CAP):
            raise RuntimeError(
                f"rejection sampler exceeded {RETRY_CAP} attempts for a row; "
                "input configuration is too degenerate"
            )
    return out


def sample_L_each(xs: np.ndarray, rng) -> np.ndarray:
    """One draw of the parameter-free link per row of xs (shape (m, N+1))."""
    xs = np.asarray(xs, dtype=float)
    m, np1 = xs.shape
    if np1 < 2:
        raise ValueError(f"the parameter-free link needs sources of dimension >= 2, got {np1}")
    n = np1 - 1
    lo, hi = xs[:, :-1], xs[:, 1:]
    env = gap_products(hi, lo)  # prod_{k<l} (x_{l+1} - x_k) bounds Vdm(y) on the cell

    def propose(idx, rng):
        u = rng.uniform(size=(idx.size, n))
        return lo[idx] + u * (hi[idx] - lo[idx])

    def ratio(idx, y):
        return vandermonde_rows(y) / env[idx]

    return _rejection_fill(propose, ratio, m, n, rng)


def sample_lambda_eq_each(alpha: float, xs: np.ndarray, rng) -> np.ndarray:
    """One draw of the (N -> N) alpha-link per row of xs (shape (m, N))."""
    _require_alpha(alpha)
    xs = np.asarray(xs, dtype=float)
    if np.any(xs[:, 0] <= 0):
        raise ValueError("all rows need x_1 > 0")
    m, n = xs.shape
    lo = np.concatenate([np.zeros((m, 1)), xs[:, :-1]], axis=1)
    ap1 = alpha + 1.0
    lo_p, hi_p = lo**ap1, xs**ap1
    env = gap_products(xs, lo)  # prod_{k<l} (x_l - x_{k-1}), x_0 = 0, bounds Vdm(y)

    def propose(idx, rng):
        u = rng.uniform(size=(idx.size, n))
        return (u * (hi_p[idx] - lo_p[idx]) + lo_p[idx]) ** (1.0 / ap1)

    def ratio(idx, y):
        return vandermonde_rows(y) / env[idx]

    return _rejection_fill(propose, ratio, m, n, rng)


def sample_lambda_plus_each(alpha: float, xs: np.ndarray, rng) -> np.ndarray:
    """One draw of the (N+1 -> N) alpha-link per row, via the two-step
    decomposition: parameter-free link first, then the equal-dimension link."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs[:, 0] <= 0):
        raise ValueError("all rows need x_1 > 0")
    z = sample_L_each(xs, rng)
    # the intermediate point is a.s. interior; repair float-boundary rows
    for _ in range(64):
        bad = (z[:, 0] <= 0) | np.any(np.diff(z, axis=1) <= 0, axis=1)
        if not bad.any():
            break
        z[bad] = sample_L_each(xs[bad], rng)
    else:
        raise RuntimeError("could not draw an interior intermediate point")
    return sample_lambda_eq_each(alpha, z, rng)


def sample_L_many(x, n_samples: int, rng) -> np.ndarray:
    xa = _require_strict(x, nonneg=False)
    return sample_L_each(np.tile(xa, (n_samples, 1)), rng)


def sample_lambda_eq_many(params: KernelParams, x, n_samples: int, rng) -> np.ndarray:
    xa = _require_strict(x, nonneg=True)
    return sample_lambda_eq_each(params.alpha, np.tile(xa, (n_samples, 1)), rng)


def sample_lambda_plus_many(params: KernelParams, x, n_samples: int, rng) -> np.ndarray:
    xa = _require_strict(x, nonneg=True)
    return sample_lambda_plus_each(params.alpha, np.tile(xa, (n_samples, 1)), rng)

"""The three interlacing Markov links between adjacent chamber dimensions.

``density_L`` is the parameter-free link from dimension N+1 to N (uniform
re-weighting by a Vandermonde ratio on the interlacing cell).  The two
alpha-deformed links on the non-negative chamber are ``density_lambda_eq``
(dimension N to N, lower-interlacing cell) and ``density_lambda_plus``
(dimension N+1 to N), whose per-coordinate weight integrates y^alpha/z^(alpha+1)
over the overlap interval, with the conventions x_0 = 0 and y_{N+1} = inf.
Each density is evaluated row-wise (``density_*_rows``: one source point x
for every row y, or (m, N') source rows paired with the m rows y); the
scalar ``density_*`` are its one-point form.

Each source is checked once, where its cell is made: ``_source`` wants it
finite and strictly increasing, with x_1 > 0 for the alpha-links, and returns
its interlacing cell, ``chamber.link_cell``.  Each density lives on that cell;
samplers draw exactly from it by one rejection routine with a product
envelope, whose acceptance degrades with dimension, which is fine at the desk
scales (N <= 4) the verification harness uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chamber import as_coords, gap_products, in_cell, link_cell, vandermonde_rows

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


def _require_alpha(alpha) -> None:
    if not alpha > -1:
        raise ValueError(f"alpha={alpha} must be > -1")


@dataclass(frozen=True)
class KernelParams:
    """Link parameters: alpha > -1 and the target dimension n.  The source
    point has dimension n + 1 for lambda_plus and n for lambda_eq."""

    alpha: float
    n: int

    def __post_init__(self):
        _require_alpha(self.alpha)
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")


def shifted_factorial(x: float, n: int) -> float:
    """(x)_n = x (x+1) ... (x+n-1); empty product for n = 0."""
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def _source(kind: str, x, ndim: int) -> tuple:
    """``(x, lo, hi)``: x checked as a source of link ``kind``, one vector
    (ndim 1) or (m, N) rows (ndim 2), and its cell from ``link_cell``.  A
    source is finite and strictly increasing, with x_1 > 0 for the two
    alpha-links; the error names the first row that is not."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim:
        raise ValueError(f"the {kind} link takes its source as "
                         f"{'one vector' if ndim == 1 else '(m, N) rows'}, got shape {x.shape}")
    # a NaN fails both comparisons; an empty source goes on to link_cell's dimension error
    low = x.min(initial=math.inf)
    if not (-math.inf < low and x.max(initial=-math.inf) < math.inf):
        _refuse(x, ~np.isfinite(x).all(axis=-1), "finite")
    lo, hi = link_cell(kind, x)
    # on strictly increasing rows the least entry is the least x_1
    if not ((x[..., :-1] < x[..., 1:]).all() and (kind == "L" or low > 0)):
        bad = ~(x[..., :-1] < x[..., 1:]).all(axis=-1)
        if kind != "L":
            bad |= ~(x[..., 0] > 0)
        _refuse(x, bad, "strictly increasing" + ("" if kind == "L" else " with x_1 > 0"))
    return x, lo, hi


def _refuse(x: np.ndarray, bad, need: str):
    i = int(np.argmax(bad))
    row, where = (x, "") if x.ndim == 1 else (x[i], f" in row {i}")
    raise ValueError(f"x must be {need}, got {row}{where}")


def _density_rows(kind: str, x, Y) -> tuple:
    """What the three ``density_*_rows`` start from: the checked source x,
    one vector or rows paired with Y's, the rows y of Y (target dimension),
    the mask of rows in x's cell, Vdm(y) per row and Vdm(x) per source row."""
    x = np.asarray(x, dtype=float)
    xa, lo, hi = _source(kind, x, 2 if x.ndim == 2 else 1)
    ya = np.asarray(Y, dtype=float)
    if ya.ndim != 2 or ya.shape[1] != lo.shape[-1]:
        raise ValueError(f"dimension mismatch: expected rows of length {lo.shape[-1]}, "
                         f"got shape {ya.shape}")
    if xa.ndim == 2 and xa.shape[0] != ya.shape[0]:
        raise ValueError(f"row-count mismatch: {len(xa)} source rows for {len(ya)} rows y")
    return (xa, ya, in_cell(ya, lo, hi), vandermonde_rows(ya),
            vandermonde_rows(np.atleast_2d(xa)))


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` of the ``math`` module over a 1-D array, read one Python number
    at a time through a memoryview, never as one list.  numpy's SIMD log,
    expm1 and pow can round differently from the C library in the last bit;
    the link weights keep the C library's values."""
    return np.fromiter(map(fn, memoryview(values)), dtype=float, count=values.size)


def density_L_rows(x, Y) -> np.ndarray:
    """N! Vandermonde(y)/Vandermonde(x) per row y of Y on the interlacing
    cell of x, else 0."""
    _, ya, ok, num, den = _density_rows("L", x, Y)
    return np.where(ok, math.factorial(ya.shape[1]) * num / den, 0.0)


def density_lambda_eq_rows(alpha: float, x, Y) -> np.ndarray:
    """(alpha+1)_N prod(y_k^a / x_k^(a+1)) Vdm(y)/Vdm(x) per row y of Y on
    the lower cell of x, else 0; inf at y_1 = 0 when alpha < 0."""
    _require_alpha(alpha)
    xa, ya, ok, num, den = _density_rows("lambda_eq", x, Y)
    with np.errstate(all="ignore"):
        ratio = np.prod(ya**alpha / xa ** (alpha + 1), axis=1)
        out = shifted_factorial(alpha + 1, ya.shape[1]) * ratio * num / den
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
    xa, ya, ok, num, den = _density_rows("lambda_plus", x, Y)
    n = ya.shape[1]
    # the intermediate z_k of the two-step link: the L cell clipped by y, y_{N+1} = inf
    lo, hi = link_cell("L", xa)
    y_next = np.concatenate([ya[:, 1:], np.full((ya.shape[0], 1), math.inf)], axis=1)
    factors = _interval_weight_rows(alpha, ya, np.maximum(lo, ya), np.minimum(hi, y_next))
    ok &= np.all(factors != 0.0, axis=1)
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
    """Scalar form of :func:`density_lambda_eq_rows` at one point y; x has
    dimension ``params.n``."""
    return float(density_lambda_eq_rows(params.alpha, as_coords(x, params.n),
                                        as_coords(y)[None, :])[0])


def density_lambda_plus(params: KernelParams, x, y) -> float:
    """Scalar form of :func:`density_lambda_plus_rows` at one point y; x has
    dimension ``params.n + 1``."""
    return float(density_lambda_plus_rows(params.alpha, as_coords(x, params.n + 1),
                                          as_coords(y)[None, :])[0])


# ---------------------------------------------------------------------------
# exact rejection samplers (vectorized over rows; one stream per call)
# ---------------------------------------------------------------------------


def _cell_rejection(lo: np.ndarray, hi: np.ndarray, power: float, rng) -> np.ndarray:
    """One draw per row from the density prop. to Vdm(y) prod y_k^(power-1)
    on the cell lo <= y <= hi: each y_k is proposed by inverting its CDF and
    the row accepted with Vdm(y) / prod_{k<l} (hi_l - lo_k) <= 1.  Every
    pending row is proposed once per round, so a row still pending after
    round k has been tried exactly k times; RETRY_CAP rounds raise.  A row
    whose cell pins two adjacent coordinates (lo**power == hi**power) to one
    float has Vdm(y) = 0 in every proposal, and is refused before any draw."""
    m, n = lo.shape
    lo_p, hi_p = lo**power, hi**power
    pin = np.where(lo_p == hi_p, lo_p ** (1.0 / power), np.nan)  # the proposal's bits
    stuck = np.argwhere(pin[:, 1:] == pin[:, :-1])
    if stuck.size:
        row, k = stuck[0]
        raise ValueError(f"no proposal can be accepted in row {row}: coordinates {k + 1} "
                         f"and {k + 2} of its cell are both pinned to {float(pin[row, k])!r}")
    env = gap_products(hi, lo)
    out = np.empty((m, n))
    pending = np.ones(m, dtype=bool)
    rounds = 0
    while pending.any():
        idx = np.flatnonzero(pending)
        u = rng.uniform(size=(idx.size, n))
        y = (u * (hi_p[idx] - lo_p[idx]) + lo_p[idx]) ** (1.0 / power)
        acc = rng.uniform(size=idx.size) < vandermonde_rows(y) / env[idx]
        out[idx[acc]] = y[acc]
        pending[idx[acc]] = False
        rounds += 1
        if rounds >= RETRY_CAP and pending.any():
            raise RuntimeError(
                f"rejection sampler exceeded {RETRY_CAP} attempts for a row; "
                "input configuration is too degenerate"
            )
    return out


def sample_L_each(xs: np.ndarray, rng) -> np.ndarray:
    """One draw of the parameter-free link per row of xs (shape (m, N+1))."""
    _, lo, hi = _source("L", xs, 2)
    return _cell_rejection(lo, hi, 1.0, rng)


def sample_lambda_eq_each(alpha: float, xs: np.ndarray, rng) -> np.ndarray:
    """One draw of the (N -> N) alpha-link per row of xs (shape (m, N))."""
    _require_alpha(alpha)
    _, lo, hi = _source("lambda_eq", xs, 2)
    return _cell_rejection(lo, hi, alpha + 1.0, rng)


def sample_lambda_plus_each(alpha: float, xs: np.ndarray, rng) -> np.ndarray:
    """One draw of the (N+1 -> N) alpha-link per row, via the two-step
    decomposition: parameter-free link first, then the equal-dimension link.
    The intermediate rows are strictly increasing with z_1 >= x_1 > 0, since
    the first stage accepts only rows with Vdm(z) > 0 on its cell."""
    _require_alpha(alpha)
    xs, _, _ = _source("lambda_plus", xs, 2)
    return sample_lambda_eq_each(alpha, sample_L_each(xs, rng), rng)


def sample_L_many(x, n_samples: int, rng) -> np.ndarray:
    xa, _, _ = _source("L", x, 1)
    return sample_L_each(np.tile(xa, (n_samples, 1)), rng)


def sample_lambda_eq_many(params: KernelParams, x, n_samples: int, rng) -> np.ndarray:
    xa, _, _ = _source("lambda_eq", as_coords(x, params.n), 1)
    return sample_lambda_eq_each(params.alpha, np.tile(xa, (n_samples, 1)), rng)


def sample_lambda_plus_many(params: KernelParams, x, n_samples: int, rng) -> np.ndarray:
    xa, _, _ = _source("lambda_plus", as_coords(x, params.n + 1), 1)
    return sample_lambda_plus_each(params.alpha, np.tile(xa, (n_samples, 1)), rng)

"""Equilibrium ensembles on the non-negative chamber.

The Pickrell ensemble (heavy-tailed, density prop. to
Vdm^2 prod x^alpha (1+x)^(-2N-alpha-s), finite mass iff s > -1) is the
invariant law of the Pickrell diffusion.  The Laguerre ensemble
(Vdm^2 prod x^alpha e^(-x)) is not taken on authority: it enters tests only
after its own validation gates (1-D flux balance, long-run simulation).
A one-to-one change of variables u = x/(1+x) maps Pickrell to the Jacobi
ensemble on [0,1]^N with second exponent beta = s.
"""

from __future__ import annotations

import numpy as np

from .chamber import as_coords, vandermonde
from .diffusion import PickrellParams
from .matrixmodel import _check_alpha_int, radial_part_many, sample_ginibre

__all__ = [
    "pickrell_density_unnorm",
    "pickrell_log_density_rows",
    "sample_pickrell",
    "laguerre_density_unnorm",
    "sample_laguerre_many",
    "sample_laguerre_mcmc",
    "jacobi_map",
    "jacobi_map_inverse",
    "jacobi_ensemble_density_unnorm",
]

# the log-space random-walk chain: proposal scale, burn-in, thinning, chains
_MCMC_STEP = 2.0
_MCMC_BURN_IN = 10_000
_MCMC_THIN = 10
_MCMC_CHAINS = 50
# steps whose proposal draws are made and transformed together
_MCMC_BLOCK = 256


def _chamber_density(arr: np.ndarray, weight_of, upper: float = np.inf) -> float:
    """Vdm^2(arr) prod weight_of(arr); 0 unless arr ascends in [0, upper]."""
    if np.any(arr < 0) or np.any(arr > upper) or np.any(np.diff(arr) < 0):
        return 0.0
    with np.errstate(divide="ignore"):
        weight = np.prod(weight_of(arr))
    return float(vandermonde(arr) ** 2 * weight)


def pickrell_density_unnorm(params: PickrellParams, x) -> float:
    """Vdm^2(x) prod x_k^alpha (1+x_k)^(-2N-alpha-s); 0 outside the chamber."""
    expo = -(2.0 * params.n + params.alpha + params.s)
    return _chamber_density(as_coords(x, expected_dim=params.n),
                            lambda arr: arr**params.alpha * (1.0 + arr) ** expo)


def _log_vdm_sq_density_rows(log_weight, rows, log_sums=None) -> np.ndarray:
    """Row-wise log Vdm^2(x) + log_weight(x, sum log x) on the open chamber,
    else -inf.  ``log_sums`` holds each row's sum of logs when the caller has
    it.  The Vandermonde sum runs over i < j in order, as the chains rely on."""
    rows = np.asarray(rows, dtype=float)
    rising = rows[:, 1:] > rows[:, :-1]
    if (rows[:, 0] > 0).all() and rising.all():  # every row inside: no masked copies
        ok, r = None, rows
    else:
        ok = (rows[:, 0] > 0) & rising.all(axis=1)
        out = np.full(rows.shape[0], -np.inf)
        if not ok.any():
            return out
        r = rows[ok]
    if log_sums is None:
        log_sums = np.log(r).sum(axis=1)
    elif ok is not None:
        log_sums = log_sums[ok]
    logw = log_weight(r, log_sums)
    logv = np.zeros(r.shape[0])
    n = r.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            logv += 2.0 * np.log(r[:, j] - r[:, i])
    if ok is None:
        return logv + logw
    out[ok] = logv + logw
    return out


def _pickrell_log_weight(params: PickrellParams):
    def log_weight(r, log_sums):
        expo = -(2.0 * r.shape[1] + params.alpha + params.s)
        return params.alpha * log_sums + expo * np.log1p(r).sum(axis=1)

    return log_weight


def pickrell_log_density_rows(params: PickrellParams, rows: np.ndarray) -> np.ndarray:
    """Row-wise log of the unnormalized density; -inf outside the chamber."""
    return _log_vdm_sq_density_rows(_pickrell_log_weight(params), rows)


def _pickrell_exact_1d(params: PickrellParams, n_samples: int, rng) -> np.ndarray:
    # N = 1, alpha = 0: CDF 1 - (1+x)^(-(1+s)) inverts in closed form
    u = rng.uniform(size=n_samples)
    return ((1.0 - u) ** (-1.0 / (1.0 + params.s)) - 1.0)[:, None]


def _logspace_rw_chain(log_weight, n: int, n_samples: int, rng):
    """Random-walk Metropolis in log-coordinates on sorted positive vectors,
    targeting Vdm^2(x) exp(log_weight(x, sum log x)) on the open chamber.

    Proposals multiply each coordinate by exp(_MCMC_STEP * normal) and
    re-sort; the acceptance ratio carries the prod(x) Jacobian of the log map,
    from the same logs as the weight.  _MCMC_CHAINS chains run vectorized;
    after _MCMC_BURN_IN steps every _MCMC_THIN-th state is kept, interleaved
    across chains.  Each step draws its proposal normals, then one uniform
    per chain, and what it draws does not depend on the state; so the draws
    are made in blocks of _MCMC_BLOCK steps, in that same order, and
    exponentiated and logged once per block.
    """
    n_chains = max(1, min(_MCMC_CHAINS, n_samples))
    kept_per_chain = -(-n_samples // n_chains)  # ceil
    n_steps = _MCMC_BURN_IN + _MCMC_THIN * kept_per_chain
    # spread chain starts over the bulk of the target
    x = np.sort(rng.gamma(shape=2.0, scale=1.0, size=(n_chains, n)), axis=1)
    for k in range(1, n):  # break exact float ties (probability-zero event)
        tie = x[:, k] <= x[:, k - 1]
        x[tie, k] = x[tie, k - 1] * (1.0 + 1e-9) + 1e-12
    log_sums = np.log(x).sum(axis=1)
    log_pi = _log_vdm_sq_density_rows(log_weight, x, log_sums) + log_sums
    kept = np.empty((kept_per_chain, n_chains, n))
    normals = np.empty((_MCMC_BLOCK, n_chains, n))
    uniforms = np.empty((_MCMC_BLOCK, n_chains))
    accepted = 0
    for lo in range(0, n_steps, _MCMC_BLOCK):
        size = min(_MCMC_BLOCK, n_steps - lo)
        for b in range(size):
            rng.standard_normal(out=normals[b])
            rng.random(out=uniforms[b])  # uniform(size=n_chains) draws the same doubles
        factors = np.exp(_MCMC_STEP * normals[:size])
        log_u = np.log(uniforms[:size])
        for b in range(size):
            prop = x * factors[b]
            prop.sort(axis=1)
            log_sums = np.log(prop).sum(axis=1)
            log_pi_prop = _log_vdm_sq_density_rows(log_weight, prop, log_sums) + log_sums
            acc = log_u[b] < log_pi_prop - log_pi
            np.copyto(x, prop, where=acc[:, None])
            np.copyto(log_pi, log_pi_prop, where=acc)
            accepted += np.count_nonzero(acc)
            k, r = divmod(lo + b - _MCMC_BURN_IN, _MCMC_THIN)
            if k >= 0 and r == 0:
                kept[k] = x
    out = kept.reshape(-1, n)[:n_samples]
    info = {"method": "mcmc-logspace", "acceptance_rate": accepted / (n_chains * n_steps),
            "burn_in": _MCMC_BURN_IN, "thin": _MCMC_THIN, "step": _MCMC_STEP, "n_chains": n_chains}
    return out, info


def sample_pickrell(params: PickrellParams, n_samples: int, rng, *, return_info: bool = False):
    """Draws from the Pickrell ensemble as an (n_samples, N) array of
    ascending rows.

    N = 1 with alpha = 0 uses exact inverse-CDF sampling; otherwise the
    log-space random-walk chain of _logspace_rw_chain.
    """
    if not params.s > -1:
        raise ValueError(f"s={params.s} must be > -1 for a finite ensemble")
    if params.n == 1 and params.alpha == 0.0:
        out = _pickrell_exact_1d(params, n_samples, rng)
        info = {"method": "exact-1d", "acceptance_rate": None,
                "burn_in": 0, "thin": 1, "step": None, "n_chains": 1}
        return (out, info) if return_info else out
    out, info = _logspace_rw_chain(_pickrell_log_weight(params), params.n, n_samples, rng)
    return (out, info) if return_info else out


def sample_laguerre_mcmc(alpha: float, n: int, n_samples: int, rng) -> np.ndarray:
    """MCMC route to the Laguerre ensemble, independent of the Ginibre
    radial construction (used to cross-validate it)."""
    return _logspace_rw_chain(lambda r, log_sums: alpha * log_sums - r.sum(axis=1),
                              n, n_samples, rng)[0]


def laguerre_density_unnorm(alpha: float, n: int, x) -> float:
    """Vdm^2(x) prod x_k^alpha e^(-x_k); 0 outside the chamber."""
    return _chamber_density(as_coords(x, expected_dim=n), lambda arr: arr**alpha * np.exp(-arr))


def sample_laguerre_many(alpha, n: int, n_samples: int, rng) -> np.ndarray:
    """Radial parts of (n+alpha) x n Ginibre matrices (ascending rows)."""
    g = sample_ginibre(n + _check_alpha_int(alpha), n, rng, size=n_samples)
    return radial_part_many(g)


def jacobi_map(x):
    """u_i = x_i / (1 + x_i), an order-preserving bijection onto [0, 1)."""
    arr = as_coords(x)
    return arr / (1.0 + arr)


def jacobi_map_inverse(u):
    """x_i = u_i / (1 - u_i); u_i = 1 has no finite preimage."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr >= 1.0):
        raise ValueError("inverse map undefined at u >= 1")
    return arr / (1.0 - arr)


def jacobi_ensemble_density_unnorm(alpha: float, beta: float, n: int, u) -> float:
    """Vdm^2(u) prod u_k^alpha (1-u_k)^beta on the ordered unit cube."""
    return _chamber_density(as_coords(u, expected_dim=n),
                            lambda arr: arr**alpha * (1.0 - arr) ** beta, upper=1.0)

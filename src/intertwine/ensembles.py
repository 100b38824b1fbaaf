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

from dataclasses import dataclass

import numpy as np

from .chamber import as_coords, vandermonde
from .matrixmodel import radial_part_many, sample_ginibre

__all__ = [
    "EnsembleParams",
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


@dataclass(frozen=True)
class EnsembleParams:
    """Pickrell parameters: real s, alpha > -1, dimension n.

    Sampling additionally requires s > -1 (finite total mass)."""

    s: float
    alpha: float
    n: int

    def __post_init__(self):
        if not self.alpha > -1:
            raise ValueError(f"alpha={self.alpha} must be > -1")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")


def pickrell_density_unnorm(params: EnsembleParams, x) -> float:
    """Vdm^2(x) prod x_k^alpha (1+x_k)^(-2N-alpha-s); 0 outside the chamber."""
    arr = as_coords(x, expected_dim=params.n)
    if np.any(arr < 0) or np.any(np.diff(arr) < 0):
        return 0.0
    expo = -(2.0 * params.n + params.alpha + params.s)
    with np.errstate(divide="ignore"):
        weight = np.prod(arr**params.alpha * (1.0 + arr) ** expo)
    return float(vandermonde(arr) ** 2 * weight)


def _log_vdm_sq_density_rows(log_weight, rows) -> np.ndarray:
    """Row-wise log Vdm^2(x) + log_weight(x) on the open chamber, else -inf;
    the Vandermonde sum runs over i < j in order, as the chains rely on."""
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    out = np.full(m, -np.inf)
    ok = np.all(rows > 0, axis=1) & np.all(np.diff(rows, axis=1) > 0, axis=1)
    if not ok.any():
        return out
    r = rows[ok]
    logw = log_weight(r)
    logv = np.zeros(r.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            logv += 2.0 * np.log(r[:, j] - r[:, i])
    out[ok] = logv + logw
    return out


def pickrell_log_density_rows(params: EnsembleParams, rows: np.ndarray) -> np.ndarray:
    """Row-wise log of the unnormalized density; -inf outside the chamber."""
    def log_weight(r):
        expo = -(2.0 * r.shape[1] + params.alpha + params.s)
        return params.alpha * np.log(r).sum(axis=1) + expo * np.log1p(r).sum(axis=1)

    return _log_vdm_sq_density_rows(log_weight, rows)


def _pickrell_exact_1d(params: EnsembleParams, n_samples: int, rng) -> np.ndarray:
    # N = 1, alpha = 0: CDF 1 - (1+x)^(-(1+s)) inverts in closed form
    u = rng.uniform(size=n_samples)
    return ((1.0 - u) ** (-1.0 / (1.0 + params.s)) - 1.0)[:, None]


def _logspace_rw_chain(log_target_rows, n: int, n_samples: int, rng, step, burn_in,
                       thin, n_chains):
    """Random-walk Metropolis in log-coordinates on sorted positive vectors.

    Proposals multiply each coordinate by exp(step * normal) and re-sort;
    the acceptance ratio carries the prod(x) Jacobian of the log map.
    Chains run vectorized; kept states are interleaved across chains.
    """
    n_chains = max(1, min(n_chains, n_samples))
    kept_per_chain = -(-n_samples // n_chains)  # ceil
    n_steps = burn_in + thin * kept_per_chain
    # spread chain starts over the bulk of the target
    x = np.sort(rng.gamma(shape=2.0, scale=1.0, size=(n_chains, n)), axis=1)
    for k in range(1, n):  # break exact float ties (probability-zero event)
        tie = x[:, k] <= x[:, k - 1]
        x[tie, k] = x[tie, k - 1] * (1.0 + 1e-9) + 1e-12
    log_pi = log_target_rows(x) + np.log(x).sum(axis=1)
    kept = []
    accepted = 0
    proposed = 0
    for it in range(n_steps):
        prop = np.sort(x * np.exp(step * rng.standard_normal(size=x.shape)), axis=1)
        log_pi_prop = log_target_rows(prop) + np.log(prop).sum(axis=1)
        acc = np.log(rng.uniform(size=n_chains)) < log_pi_prop - log_pi
        x[acc] = prop[acc]
        log_pi[acc] = log_pi_prop[acc]
        accepted += int(acc.sum())
        proposed += n_chains
        if it >= burn_in and (it - burn_in) % thin == 0:
            kept.append(x.copy())
    out = np.concatenate(kept, axis=0)[:n_samples]
    info = {"method": "mcmc-logspace", "acceptance_rate": accepted / proposed,
            "burn_in": burn_in, "thin": thin, "step": step, "n_chains": n_chains}
    return out, info


def sample_pickrell(params: EnsembleParams, n_samples: int, rng, *, step: float = 2.0,
                    burn_in: int = 10_000, thin: int = 10, n_chains: int = 50,
                    return_info: bool = False):
    """Draws from the Pickrell ensemble as an (n_samples, N) array of
    ascending rows.

    N = 1 with alpha = 0 uses exact inverse-CDF sampling; otherwise the
    log-space random-walk chain with the stated burn-in and thinning.
    """
    if not params.s > -1:
        raise ValueError(f"s={params.s} must be > -1 for a finite ensemble")
    if params.n == 1 and params.alpha == 0.0:
        out = _pickrell_exact_1d(params, n_samples, rng)
        info = {"method": "exact-1d", "acceptance_rate": None,
                "burn_in": 0, "thin": 1, "step": None, "n_chains": 1}
        return (out, info) if return_info else out
    out, info = _logspace_rw_chain(lambda rows: pickrell_log_density_rows(params, rows),
                                   params.n, n_samples, rng, step, burn_in, thin, n_chains)
    return (out, info) if return_info else out


def sample_laguerre_mcmc(alpha: float, n: int, n_samples: int, rng, *, step: float = 2.0,
                         burn_in: int = 10_000, thin: int = 10, n_chains: int = 50,
                         return_info: bool = False):
    """MCMC route to the Laguerre ensemble, independent of the Ginibre
    radial construction (used to cross-validate it)."""
    out, info = _logspace_rw_chain(lambda rows: laguerre_log_density_rows(alpha, rows),
                                   n, n_samples, rng, step, burn_in, thin, n_chains)
    return (out, info) if return_info else out


def laguerre_density_unnorm(alpha: float, n: int, x) -> float:
    """Vdm^2(x) prod x_k^alpha e^(-x_k); 0 outside the chamber."""
    arr = as_coords(x, expected_dim=n)
    if np.any(arr < 0) or np.any(np.diff(arr) < 0):
        return 0.0
    with np.errstate(divide="ignore"):
        weight = np.prod(arr**alpha * np.exp(-arr))
    return float(vandermonde(arr) ** 2 * weight)


def laguerre_log_density_rows(alpha: float, rows: np.ndarray) -> np.ndarray:
    return _log_vdm_sq_density_rows(lambda r: alpha * np.log(r).sum(axis=1) - r.sum(axis=1),
                                    rows)


def sample_laguerre_many(alpha, n: int, n_samples: int, rng) -> np.ndarray:
    """Radial parts of (n+alpha) x n Ginibre matrices (ascending rows)."""
    ai = int(alpha)
    if ai != alpha or ai < 0:
        raise ValueError(f"Ginibre sampler needs integer alpha >= 0, got {alpha}")
    g = sample_ginibre(n + ai, n, rng, size=n_samples)
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
    arr = as_coords(u, expected_dim=n)
    if np.any(arr < 0) or np.any(arr > 1) or np.any(np.diff(arr) < 0):
        return 0.0
    with np.errstate(divide="ignore"):
        weight = np.prod(arr**alpha * (1.0 - arr) ** beta)
    return float(vandermonde(arr) ** 2 * weight)

"""Equilibrium ensembles on the non-negative chamber.

The Pickrell ensemble (heavy-tailed, density prop. to
Vdm^2 prod x^alpha (1+x)^(-2N-alpha-s), finite mass iff s > -1) is the
invariant law of the Pickrell diffusion, drawn exactly as the spectrum of a
complex matrix-F.  The Laguerre ensemble (Vdm^2 prod x^alpha e^(-x)), drawn
at integer alpha as Ginibre radial parts, is not taken on authority: it
enters tests only after its own validation gates (1-D flux balance,
long-run simulation).
A one-to-one change of variables u = x/(1+x) maps Pickrell to the Jacobi
ensemble on [0,1]^N with second exponent beta = s.
"""

from __future__ import annotations

import warnings

import numpy as np

from .chamber import as_coords, vandermonde
from .diffusion import PickrellParams
from .matrixmodel import _check_alpha_int, radial_part_many, sample_ginibre

__all__ = [
    "pickrell_density_unnorm",
    "sample_pickrell",
    "laguerre_density_unnorm",
    "sample_laguerre_many",
    "jacobi_map",
    "jacobi_map_inverse",
    "jacobi_ensemble_density_unnorm",
]


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


def _bartlett(dof: float, n: int, m: int, rng) -> np.ndarray:
    """m lower-triangular Bartlett factors T of complex Wisharts T T* with dof
    > n - 1: |T_ii|^2 ~ Gamma(dof - i), floored at the smallest normal float
    (a shape near 0 underflows to 0 and would make T singular), and standard
    complex normals below the diagonal."""
    t = np.zeros((m, n, n), dtype=complex)
    diag = np.arange(n)
    gam = rng.standard_gamma(dof - diag, size=(m, n))
    t[:, diag, diag] = np.sqrt(np.maximum(gam, np.finfo(float).tiny))
    rows, cols = np.tril_indices(n, -1)
    shape = (m, rows.size)  # real parts drawn first, then imaginary parts
    t[:, rows, cols] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return t


def sample_pickrell(params: PickrellParams, n_samples: int, rng, *, return_info: bool = False):
    """Exact i.i.d. draws from the Pickrell ensemble, (n_samples, N) ascending
    rows: the spectrum of the complex matrix-F B^-1 A, for independent complex
    Wisharts A and B of N + alpha and N + s degrees of freedom, taken as the
    squared singular values of C = T_B^-1 T_A for their Bartlett factors.
    Near s = -1 the law passes the float range: at s = -0.99 up to 0.1% of
    rows hold inf, counted in one RuntimeWarning, and x_1 = 0 where x_N / x_1
    passes the SVD's range."""
    if not params.s > -1:
        raise ValueError(f"s={params.s} must be > -1 for a finite ensemble")
    t_b = _bartlett(params.n + params.s, params.n, n_samples, rng)
    t_a = _bartlett(params.n + params.alpha, params.n, n_samples, rng)
    with np.errstate(over="ignore"):
        out = radial_part_many(np.linalg.solve(t_b, t_a))
    if n_inf := int(np.isinf(out).any(axis=1).sum()):
        warnings.warn(f"{n_inf} of {n_samples} Pickrell draws at (s, alpha, N) = "
                      f"({params.s}, {params.alpha}, {params.n}) passed the float range: inf",
                      RuntimeWarning, stacklevel=1)
    return (out, {"method": "matrix-f"}) if return_info else out


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

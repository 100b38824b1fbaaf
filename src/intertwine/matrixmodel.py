"""Random-matrix realizations of the interlacing links and boundary kernel.

Squared singular values ("radial parts") of Ginibre/Haar-built matrices give
independent exact samplers for the alpha-links at non-negative integer alpha,
and a concrete corner model for the ergodic bi-unitarily invariant measures
indexed by boundary points.  The corner model is an artifact construction:
its constants are pinned by matching one-entry characteristic functions to
the closed form ``char_F_omega``.
"""

from __future__ import annotations

import math

import numpy as np

from .chamber import BoundaryPoint, _check_start, as_coords, gamma_bar

__all__ = [
    "sample_ginibre",
    "sample_haar",
    "corner",
    "radial_part_many",
    "sample_lambda_plus_via_matrices_many",
    "sample_lambda_eq_via_matrices_many",
    "char_F_omega",
    "sample_P_omega_corner",
    "sample_lambda_omega_many",
]

# entry characteristic-function constants of the corner model, fixed so that
# E exp(i r Re X_jk) = char_F_omega(r): Gaussian part needs c_g^2/4 = 4 and
# each rank-one part needs c_r^2/4 = 4
GAUSS_COEF = 4.0
RANK_ONE_COEF = 4.0


def sample_ginibre(m: int, n: int, rng, size: int | None = None) -> np.ndarray:
    """i.i.d. complex Gaussian entries with E|entry|^2 = 1."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    shape = (m, n) if size is None else (size, m, n)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_haar(n: int, rng, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix.

    Column j of Q is multiplied by conj(R_jj)/|R_jj| so the distribution is
    exactly Haar; a zero diagonal entry (probability zero) triggers a redraw.
    """
    for _ in range(64):
        z = sample_ginibre(n, n, rng, size=size)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        mod = np.abs(d)
        if np.any(mod == 0.0):
            continue
        return q * (np.conj(d) / mod)[..., None, :]
    raise RuntimeError("QR repeatedly produced a zero diagonal entry")


def corner(x: np.ndarray, m2: int, n2: int) -> np.ndarray:
    """Upper-left m2 x n2 block (batched over leading axes)."""
    m, n = x.shape[-2], x.shape[-1]
    if not (1 <= m2 <= m and 1 <= n2 <= n):
        raise ValueError(f"corner ({m2},{n2}) does not fit in ({m},{n})")
    return x[..., :m2, :n2]


def radial_part_many(x: np.ndarray) -> np.ndarray:
    """Squared singular values, ascending, of each matrix in a batch."""
    x = np.asarray(x)
    m, n = x.shape[-2], x.shape[-1]
    if m < n:
        raise ValueError(f"radial part needs rows >= cols, got {m} < {n}")
    s = np.linalg.svd(x, compute_uv=False)
    vals = np.maximum(s, 0.0) ** 2
    return vals[..., ::-1].copy()  # svd returns descending


def _check_alpha_int(alpha) -> int:
    if not 0 <= alpha < math.inf or int(alpha) != alpha:  # NaN fails the range test
        raise ValueError(f"matrix model needs integer alpha >= 0, got {alpha}")
    return int(alpha)


def sample_lambda_plus_via_matrices_many(alpha, x, n_samples: int, rng) -> np.ndarray:
    """Radial part of the (N+alpha) x N corner of V D U, batched.

    D stacks diag(sqrt(x)) on top of an alpha x (N+1) zero block; V and U
    are independent Haar unitaries of sizes N+alpha+1 and N+1.
    """
    ai = _check_alpha_int(alpha)
    xa = as_coords(x)
    _check_start(xa, "x")
    np1 = xa.size
    n = np1 - 1
    if n < 1:
        raise ValueError("x must have dimension >= 2")
    d = np.zeros((np1 + ai, np1), dtype=complex)
    d[:np1, :np1] = np.diag(np.sqrt(xa))
    v = sample_haar(np1 + ai, rng, size=n_samples)
    u = sample_haar(np1, rng, size=n_samples)
    prod = v @ d @ u
    return radial_part_many(corner(prod, n + ai, n))


def sample_lambda_eq_via_matrices_many(alpha, z, n_samples: int, rng) -> np.ndarray:
    """Radial part of (corner of Haar(N+alpha+1)) diag(sqrt(z)), batched."""
    ai = _check_alpha_int(alpha)
    za = as_coords(z)
    _check_start(za, "z")
    n = za.size
    v = sample_haar(n + ai + 1, rng, size=n_samples)
    block = corner(v, n + ai, n)
    return radial_part_many(block * np.sqrt(za)[None, None, :])


def char_F_omega(omega: BoundaryPoint, lam: float) -> float:
    """exp(-4 gamma_bar lam^2) prod_i 1/(1 + 4 alpha_i lam^2)."""
    gb = gamma_bar(omega)
    out = float(np.exp(-4.0 * gb * lam * lam))
    for a in omega.alphas:
        out /= 1.0 + 4.0 * a * lam * lam
    return out


def sample_P_omega_corner(omega: BoundaryPoint, m: int, n: int, rng, size: int | None = None) -> np.ndarray:
    """m x n corner of the ergodic invariant measure indexed by omega.

    X = 4 sqrt(gamma_bar) G + 4 sum_i sqrt(alpha_i) xi^(i) eta^(i)*, with G
    Ginibre and xi, eta independent standard complex Gaussian vectors; the
    one-entry characteristic function then equals char_F_omega.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    gb = gamma_bar(omega)
    batch = () if size is None else (size,)
    x = GAUSS_COEF * np.sqrt(gb) * (
        rng.standard_normal(batch + (m, n)) + 1j * rng.standard_normal(batch + (m, n))
    ) / np.sqrt(2.0)
    for a in omega.alphas:
        if a == 0.0:
            continue
        xi = (rng.standard_normal(batch + (m,)) + 1j * rng.standard_normal(batch + (m,))) / np.sqrt(2.0)
        eta = (rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))) / np.sqrt(2.0)
        x = x + RANK_ONE_COEF * np.sqrt(a) * (xi[..., :, None] * np.conj(eta)[..., None, :])
    return x


def sample_lambda_omega_many(alpha, n_dim: int, omega: BoundaryPoint, rng, n_samples: int) -> np.ndarray:
    """Radial part of the (N+alpha) x N corner under the omega measure."""
    ai = _check_alpha_int(alpha)
    x = sample_P_omega_corner(omega, n_dim + ai, n_dim, rng, size=n_samples)
    return radial_part_many(x)

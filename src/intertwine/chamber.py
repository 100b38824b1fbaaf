"""Weyl-chamber geometry.

A particle configuration is a plain ascending float array (any sequence is
accepted); a batch of them is an (m, N) array of ascending rows.  This
module holds the interlacing cells that support the three links
(``link_cell`` states each once; ``in_cell`` tests membership), the
boundary space of decreasing mass sequences, and integer partitions (the
discrete chamber).  Boundary points and partitions are immutable values
with pure-function operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundaryPoint",
    "Partition",
    "vandermonde",
    "link_cell",
    "in_cell",
    "interlace_plus",
    "interlace_eq",
    "embed_boundary",
    "gamma_bar",
]


def as_coords(x, expected_dim: int | None = None) -> np.ndarray:
    """Coerce a sequence to a float vector, checking dim."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a coordinate vector, got shape {arr.shape}")
    if expected_dim is not None and arr.size != expected_dim:
        raise ValueError(f"dimension mismatch: expected {expected_dim}, got {arr.size}")
    return arr


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary configuration: decreasing masses plus a total-mass bound.

    ``alphas`` is a finite non-increasing vector of non-negative reals (the
    tail is implicitly zero) and ``gamma``, also finite, dominates their sum.
    """

    alphas: tuple
    gamma: float

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gamma", float(self.gamma))
        if not np.all(np.isfinite([*alphas, self.gamma])):
            raise ValueError(f"non-finite mass or gamma in {alphas}, gamma={self.gamma}")
        if any(a < 0 for a in alphas):
            raise ValueError(f"negative mass in {alphas}")
        if any(alphas[i] < alphas[i + 1] for i in range(len(alphas) - 1)):
            raise ValueError(f"masses not non-increasing: {alphas}")
        # tolerate roundoff from embeddings that make sum(alphas) == gamma
        slack = 1e-12 * max(1.0, abs(self.gamma))
        if sum(alphas) > self.gamma + slack:
            raise ValueError(f"sum(alphas)={sum(alphas)} exceeds gamma={self.gamma}")


@dataclass(frozen=True)
class Partition:
    """Non-increasing vector of non-negative integers; () is the empty one."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not non-increasing: {parts}")

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def padded(self, n: int) -> tuple:
        """Parts extended with zeros to length n (error if longer than n)."""
        if len(self.parts) > n:
            raise ValueError(f"partition {self.parts} longer than {n}")
        return self.parts + (0,) * (n - len(self.parts))

    def scaled(self, k: int) -> "Partition":
        return Partition(tuple(k * p for p in self.parts))


def vandermonde(x) -> float:
    """prod_{i<j} (x_j - x_i) over the raw vector; 1 for dim <= 1.

    Antisymmetric under coordinate transpositions, so unsorted input is
    allowed (used by sign tests); ascending input gives the usual
    non-negative value.
    """
    return float(vandermonde_rows(as_coords(x)[None, :])[0])


def vandermonde_rows(rows: np.ndarray) -> np.ndarray:
    """Row-wise Vandermonde of an (m, n) array (vectorized over rows)."""
    rows = np.asarray(rows, dtype=float)
    return gap_products(rows, rows)


def gap_products(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Row-wise prod_{i<j} (hi_j - lo_i) of two (m, n) arrays, multiplied in
    (i, j) order; ``hi = lo`` gives the Vandermonde, shifted copies of one
    row bound it on an interlacing cell."""
    m, n = hi.shape
    out = np.ones(m)
    for i in range(n):
        for j in range(i + 1, n):
            out *= hi[:, j] - lo[:, i]
    return out


def link_cell(kind: str, x) -> tuple:
    """The interlacing cell ``(lo, hi)`` that link ``kind`` maps the source
    x into, for one vector or for rows, with x_0 = 0; y is ascending in each
    cell, which lo <= y <= hi already forces for the first two:

    - ``"L"`` (N+1 -> N):           x_k     <= y_k <= x_{k+1};
    - ``"lambda_eq"`` (N -> N):     x_{k-1} <= y_k <= x_k;
    - ``"lambda_plus"`` (N+1 -> N): x_{k-1} <= y_k <= x_{k+1}.
    """
    x = np.asarray(x, dtype=float)
    below = np.concatenate([np.zeros(x.shape[:-1] + (1,)), x[..., :-1]], axis=-1)
    if kind == "L":
        lo, hi = x[..., :-1], x[..., 1:]
    elif kind == "lambda_eq":
        lo, hi = below, x
    elif kind == "lambda_plus":
        lo, hi = below[..., :-1], x[..., 1:]
    else:
        raise ValueError(f"unknown link {kind!r}; choose from 'L', 'lambda_eq', 'lambda_plus'")
    if hi.shape[-1] < 1:
        need = 1 if kind == "lambda_eq" else 2
        raise ValueError(f"the {kind} link needs sources of dimension >= {need}, "
                         f"got {x.shape[-1]}")
    return lo, hi


def in_cell(y, lo, hi):
    """y ascending and lo <= y <= hi (closed), per vector or per row."""
    y = np.asarray(y, dtype=float)
    return (np.all(np.diff(y, axis=-1) >= 0, axis=-1)
            & np.all((lo <= y) & (y <= hi), axis=-1))


def interlace_plus(x, y) -> bool:
    """x_1 <= y_1 <= x_2 <= ... <= y_N <= x_{N+1} (closed inequalities)."""
    lo, hi = link_cell("L", as_coords(x))
    return bool(in_cell(as_coords(y, lo.size), lo, hi))


def interlace_eq(x, y) -> bool:
    """0 <= y_1 <= x_1 <= y_2 <= ... <= y_N <= x_N (closed inequalities)."""
    lo, hi = link_cell("lambda_eq", as_coords(x))
    return bool(in_cell(as_coords(y, lo.size), lo, hi))


def embed_boundary(x) -> BoundaryPoint:
    """Scaled embedding of an N-particle configuration into the boundary.

    The i-th largest coordinate, divided by N^2, becomes the i-th mass;
    gamma is the scaled coordinate sum, so gamma_bar of the result vanishes
    up to roundoff.
    """
    arr = as_coords(x)
    if not arr.size:
        raise ValueError("boundary embedding needs a point, got the empty configuration ()")
    if arr[0] < 0:
        raise ValueError("boundary embedding needs non-negative coordinates")
    n = arr.size
    alphas = tuple(arr[::-1] / n**2)
    gamma = float(np.sum(arr) / n**2)
    # guard the Omega constraint against summation-order roundoff
    gamma = max(gamma, float(sum(alphas)))
    return BoundaryPoint(alphas, gamma)


def gamma_bar(omega: BoundaryPoint) -> float:
    """Mass not carried by the alphas: gamma - sum(alphas) >= 0."""
    return omega.gamma - sum(omega.alphas)

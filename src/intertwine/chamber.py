"""Weyl-chamber geometry.

Ordered particle configurations, the interlacing cells that support the
corner kernels, the boundary space of decreasing mass sequences, and integer
partitions (the discrete chamber).  Everything here is an immutable value
with pure-function operations.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "OrderedPoint",
    "BoundaryPoint",
    "Partition",
    "vandermonde",
    "interlace_plus",
    "interlace_eq",
    "embed_boundary",
    "gamma_bar",
]


class Domain(enum.Enum):
    WHOLE_LINE = "whole_line"
    NON_NEGATIVE = "non_negative"


@dataclass(frozen=True)
class OrderedPoint:
    """A point of the closed chamber: coordinates sorted non-decreasingly.

    With ``domain=NON_NEGATIVE`` the first coordinate must additionally be
    >= 0.  Sortedness is checked exactly; samplers sort before constructing.
    """

    coords: tuple
    domain: Domain = Domain.WHOLE_LINE

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) == 0:
            raise ValueError("OrderedPoint needs at least one coordinate")
        if any(not np.isfinite(c) for c in coords):
            raise ValueError(f"non-finite coordinate in {coords}")
        if any(coords[i] > coords[i + 1] for i in range(len(coords) - 1)):
            raise ValueError(f"coordinates not sorted: {coords}")
        if self.domain is Domain.NON_NEGATIVE and coords[0] < 0.0:
            raise ValueError(f"negative coordinate {coords[0]} in non-negative chamber")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def is_strictly_increasing(self) -> bool:
        c = self.coords
        return all(c[i] < c[i + 1] for i in range(len(c) - 1))

    def is_strictly_interior(self) -> bool:
        """Pairwise distinct and, in the non-negative chamber, min > 0."""
        if not self.is_strictly_increasing():
            return False
        if self.domain is Domain.NON_NEGATIVE:
            return self.coords[0] > 0.0
        return True

    def to_json(self) -> str:
        return json.dumps({"coords": list(self.coords), "domain": self.domain.value})

    @classmethod
    def from_json(cls, s: str) -> "OrderedPoint":
        d = json.loads(s)
        return cls(tuple(d["coords"]), Domain(d["domain"]))

    def to_csv_row(self) -> str:
        return ",".join(format(c, ".9g") for c in self.coords)

    @classmethod
    def from_csv_row(cls, row: str, domain: Domain = Domain.WHOLE_LINE) -> "OrderedPoint":
        return cls(tuple(float(tok) for tok in row.split(",")), domain)


def as_coords(x, expected_dim: int | None = None) -> np.ndarray:
    """Coerce an OrderedPoint or sequence to a float vector, checking dim."""
    arr = x.as_array() if isinstance(x, OrderedPoint) else np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a coordinate vector, got shape {arr.shape}")
    if expected_dim is not None and arr.size != expected_dim:
        raise ValueError(f"dimension mismatch: expected {expected_dim}, got {arr.size}")
    return arr


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary configuration: decreasing masses plus a total-mass bound.

    ``alphas`` is a finite non-increasing vector of non-negative reals (the
    tail is implicitly zero) and ``gamma`` dominates their sum.
    """

    alphas: tuple
    gamma: float

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gamma", float(self.gamma))
        if any(a < 0 for a in alphas):
            raise ValueError(f"negative mass in {alphas}")
        if any(alphas[i] < alphas[i + 1] for i in range(len(alphas) - 1)):
            raise ValueError(f"masses not non-increasing: {alphas}")
        # tolerate roundoff from embeddings that make sum(alphas) == gamma
        slack = 1e-12 * max(1.0, abs(self.gamma))
        if sum(alphas) > self.gamma + slack:
            raise ValueError(f"sum(alphas)={sum(alphas)} exceeds gamma={self.gamma}")

    def to_json(self) -> str:
        return json.dumps({"alphas": list(self.alphas), "gamma": self.gamma})

    @classmethod
    def from_json(cls, s: str) -> "BoundaryPoint":
        d = json.loads(s)
        return cls(tuple(d["alphas"]), d["gamma"])


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
    allowed (used by sign tests); OrderedPoint input gives the usual
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


def interlace_plus(x, y) -> bool:
    """x_1 <= y_1 <= x_2 <= ... <= y_N <= x_{N+1} (closed inequalities)."""
    xa = as_coords(x)
    ya = as_coords(y)
    if xa.size != ya.size + 1:
        raise ValueError(f"dim(x)={xa.size} must equal dim(y)+1={ya.size + 1}")
    return bool(np.all(xa[:-1] <= ya) and np.all(ya <= xa[1:]))


def interlace_eq(x, y) -> bool:
    """0 <= y_1 <= x_1 <= y_2 <= ... <= y_N <= x_N (closed inequalities)."""
    xa = as_coords(x)
    ya = as_coords(y)
    if xa.size != ya.size:
        raise ValueError(f"dim(x)={xa.size} must equal dim(y)={ya.size}")
    if ya[0] < 0:
        return False
    return bool(np.all(ya <= xa) and np.all(xa[:-1] <= ya[1:]))


def embed_boundary(x) -> BoundaryPoint:
    """Scaled embedding of an N-particle configuration into the boundary.

    The i-th largest coordinate, divided by N^2, becomes the i-th mass;
    gamma is the scaled coordinate sum, so gamma_bar of the result vanishes
    up to roundoff.
    """
    arr = as_coords(x)
    if isinstance(x, OrderedPoint) and x.domain is not Domain.NON_NEGATIVE:
        raise ValueError("boundary embedding needs a non-negative configuration")
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

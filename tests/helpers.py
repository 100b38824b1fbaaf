"""Shared oracles for the test suite (independent of the code paths they check)."""

import math

import numpy as np

from intertwine.chamber import Partition


def lambda_plus_cdf_12(y):
    """Closed-form CDF of the (2 -> 1) link at x = (1, 2), alpha = 0.

    Density log(2 / max(1, y)) on [0, 2]; integrates to y log 2 below 1 and
    y log(2/y) + y - 1 above."""
    y = np.asarray(y, dtype=float)
    out = np.where(y <= 1.0, y * math.log(2.0),
                   y * np.log(2.0 / np.clip(y, 1e-300, None)) + y - 1.0)
    return np.clip(out, 0.0, 1.0)


def partitions_up_to(max_weight, max_len):
    """All partitions of weight <= max_weight with at most max_len parts."""
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], max_weight, max_weight)
    return [Partition(p) for p in out]


def _strict(x, nonneg):
    xa = np.asarray(x, dtype=float)
    assert np.all(np.diff(xa) > 0) and (not nonneg or xa[0] > 0)
    return xa


def _vdm(v):
    out = 1.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            out *= v[j] - v[i]
    return out


def ref_density_L(x, y):
    """Scalar per-point reference for ``kernels.density_L_rows``, one point
    at a time with the same operation order."""
    xa = _strict(x, nonneg=False)
    ya = np.asarray(y, dtype=float)
    n = ya.size
    if np.any(np.diff(ya) < 0):
        return 0.0
    if not (np.all(xa[:-1] <= ya) and np.all(ya <= xa[1:])):
        return 0.0
    return math.factorial(n) * _vdm(ya) / _vdm(xa)


def ref_density_lambda_eq(alpha, x, y):
    """Scalar per-point reference for ``kernels.density_lambda_eq_rows``."""
    xa = _strict(x, nonneg=True)
    ya = np.asarray(y, dtype=float)
    n = xa.size
    if np.any(np.diff(ya) < 0) or ya[0] < 0:
        return 0.0
    if not (np.all(ya <= xa) and np.all(xa[:-1] <= ya[1:])):
        return 0.0
    if ya[0] == 0.0 and alpha < 0:
        return math.inf
    with np.errstate(divide="ignore"):
        ratio = float(np.prod(ya**alpha / xa ** (alpha + 1)))
    sf = 1.0
    for k in range(n):
        sf *= alpha + 1 + k
    return sf * ratio * _vdm(ya) / _vdm(xa)


def ref_density_lambda_plus(alpha, x, y):
    """Scalar per-point reference for ``kernels.density_lambda_plus_rows``
    (Python floats and the math module for the interval weights)."""
    xa = _strict(x, nonneg=True)
    ya = np.asarray(y, dtype=float)
    n = xa.size - 1
    if np.any(np.diff(ya) < 0) or ya[0] < 0:
        return 0.0
    weight = 1.0
    for k in range(n):
        lo_ind = xa[k - 1] if k >= 1 else 0.0
        if not (lo_ind <= ya[k] <= xa[k + 1]):
            return 0.0
        upper = xa[k + 1] if k == n - 1 else min(xa[k + 1], ya[k + 1])
        a, b, yk = float(max(xa[k], ya[k])), float(upper), float(ya[k])
        if a <= 0 or a >= b:
            return 0.0
        if abs(alpha) < 1e-10:
            weight *= math.log(b / a)
        else:
            weight *= (yk / a) ** alpha * (-math.expm1(-alpha * math.log(b / a))) / alpha
        if weight == 0.0:
            return 0.0
    sf = 1.0
    for k in range(n):
        sf *= alpha + 1 + k
    return math.factorial(n) * sf * _vdm(ya) / _vdm(xa) * weight

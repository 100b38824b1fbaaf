"""Statistical and exact checks for the kernel/diffusion identities.

Distribution-level identities (intertwinings, invariance, consistency,
boundary coherence) are certified by two-path Monte Carlo and an energy
distance permutation test; analytic identities (eigenfunctions, conjugation
identities, drift forms, kernel normalizations) are checked by exact
calculus and a Gauss panel cubature over an interlacing cell as
``chamber.link_cell`` returns it: fixed-order tensor Gauss rules on panels
cut at the cell's break points (Gauss-Jacobi for the y^alpha factor at
y = 0), with an error estimate from a rerun at doubled order that must meet
the check's tolerance.  Both rules come from one Golub-Welsch eigenproblem
solved by numpy, so exact calculus loads no scipy module.  An integrand over
the source of a link (the two-step decomposition) evaluates the link on
source rows paired with its target rows.  Every check returns a TestReport
whose metadata records seeds and sizes, and all randomness flows from named
streams derived from one master seed, so reruns are bit-identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .chamber import BoundaryPoint, as_coords, embed_boundary, gamma_bar, link_cell
# simulate_laguerre_matrix_paths stays bound here for perfbench/spans.py
from .diffusion import (PickrellParams, SdeConfig, boundary_flow,  # noqa: F401
                        simulate_laguerre_matrix_paths, simulate_laguerre_paths,
                        simulate_pickrell_paths)
from .ensembles import sample_pickrell
# density_L, density_lambda_eq, density_lambda_plus and the three
# sample_*_many stay bound here for perfbench/spans.py, which wraps them by this path
from .kernels import (density_L, density_L_rows,  # noqa: F401
                      density_lambda_eq, density_lambda_eq_rows, density_lambda_plus,
                      density_lambda_plus_rows, sample_L_each, sample_L_many,
                      sample_lambda_eq_each, sample_lambda_eq_many,
                      sample_lambda_plus_each, sample_lambda_plus_many)
from .rng import generator, named_seed

__all__ = [
    "TestReport",
    "quad_1d",
    "quad_cell",
    "quad_intervals",
    "Quadrature",
    "energy_perm_test",
    "check_intertwine_laguerre",
    "check_intertwine_pickrell",
    "check_shifted_intertwine",
    "check_invariance_pickrell",
    "check_consistency",
    "apply_generator_1d",
    "check_vandermonde_eigen",
    "check_h_transform_identities",
    "check_h_constants",
    "check_pickrell_drift_forms",
    "check_flow_convergence",
    "check_kernel_normalization",
    "check_decomposition",
    "flow_start_profile",
    "run_suite",
    "SUITES",
]

P_THRESHOLD = 0.01


@dataclass
class TestReport:
    """Outcome of one verification: statistic, optional p-value, verdict."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    statistic: float
    threshold: float
    passed: bool
    p_value: float | None = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def statistical(cls, name, statistic, p_value, threshold=P_THRESHOLD, meta=None):
        return cls(name=name, statistic=float(statistic), threshold=float(threshold),
                   passed=bool(p_value > threshold), p_value=float(p_value),
                   meta=dict(meta or {}))

    @classmethod
    def deterministic(cls, name, statistic, threshold, meta=None):
        return cls(name=name, statistic=float(statistic), threshold=float(threshold),
                   passed=bool(statistic <= threshold), p_value=None,
                   meta=dict(meta or {}))

    def to_dict(self) -> dict:
        def _round(v):
            if isinstance(v, (float, np.floating)):
                return float(f"{float(v):.9g}")
            if isinstance(v, np.integer):
                return int(v)
            return v

        return {
            "name": self.name,
            "statistic": _round(self.statistic),
            "p_value": None if self.p_value is None else _round(self.p_value),
            "threshold": _round(self.threshold),
            "passed": self.passed,
            "meta": {k: _round(v) if isinstance(v, float) else v for k, v in self.meta.items()},
        }


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def quad_1d(f, a: float, b: float, tol: float = 1e-10, points=None) -> float:
    """Adaptive quadrature of f on [a, b] to absolute tolerance tol."""
    from scipy.integrate import IntegrationWarning, quad  # only tests call quad_1d

    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, epsabs=tol * 0.5, epsrel=1.49e-8, limit=500,
                        points=points)
    if err > 50.0 * max(tol, abs(val) * 1e-7):
        raise RuntimeError(f"quadrature did not converge: value={val}, err={err}")
    return float(val)


QUAD_ORDER = 16  # Gauss points per panel and coordinate; the error estimate doubles it
QUAD_BLOCK = 2048  # integrand rows per call of a 1-D rule, bounding temporary memory


class Quadrature(NamedTuple):
    """A cubature result: value, error estimate and integrand evaluations."""

    value: float
    err: float
    n_eval: int


@lru_cache(maxsize=None)
def _reference_rule(k: int, alpha: float) -> tuple:
    """k-point Gauss rule on [-1, 1] of the weight (1+t)^alpha: Gauss-Legendre
    at alpha = 0, Gauss-Jacobi otherwise, with the weight divided back out of
    the weights so the rule applies to integrands that carry it.

    Both come from one path (Golub and Welsch, Math. Comp. 23, 1969): the
    nodes are the eigenvalues of the weight's k x k Jacobi matrix, built from
    the three-term recurrence of its monic orthogonal polynomials, and the
    weights are mu0 v0^2, with v0 the first component of each unit
    eigenvector and mu0 = 2^(alpha+1)/(alpha+1) the weight's total mass.
    The weights are scaled to sum to mu0, and the Legendre rule is made
    exactly symmetric, which keeps the normalization checks at rounding
    level."""
    j = np.arange(1.0, k)
    s = 2.0 * j + alpha
    diag = np.empty(k)
    diag[0] = alpha / (alpha + 2.0)
    diag[1:] = alpha * alpha / (s * (s + 2.0))
    off = 2.0 * j * (j + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    t, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    v0_sq = v[0] ** 2
    w = 2.0 ** (alpha + 1.0) / (alpha + 1.0) * v0_sq / v0_sq.sum()
    if alpha == 0.0:
        t, w = (t - t[::-1]) / 2.0, (w + w[::-1]) / 2.0
    else:
        w = w / (1.0 + t) ** alpha
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _panel_nodes(lo, hi, k: int, alpha: float):
    """Nodes and weights, shape lo.shape + (k,), of the k-point rule on each
    panel [lo, hi] (empty when hi < lo); panels starting at 0 get the
    Gauss-Jacobi rule for y^alpha unless alpha is a non-negative integer
    (then y^alpha is a polynomial)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = (np.maximum(hi, lo) - lo)[..., None] / 2.0
    t, w = _reference_rule(k, 0.0)
    y = lo[..., None] + half * (t + 1.0)
    wt = half * w
    at0 = lo == 0.0
    if at0.any() and not (alpha >= 0 and float(alpha).is_integer()):
        tj, wj = _reference_rule(k, float(alpha))
        y[at0] = half[at0] * (tj + 1.0)
        wt[at0] = half[at0] * wj
    return y, wt


def _split(lo: float, hi: float, points) -> np.ndarray:
    """[lo, hi] cut at the points strictly inside it, as sorted panel edges."""
    inner = [p for p in points if lo < p < hi]
    return np.array(sorted({lo, hi, *inner}), dtype=float)


def quad_cell(f, cell, tol: float = 1e-8, breaks=(), alpha: float = 0.0) -> Quadrature:
    """Gauss panel cubature over an interlacing cell, with an error estimate.

    ``f`` is row-wise: it maps an (m, d) array of points to m values.
    ``cell = (lo, hi)``, in d = 1 or 2 coordinates as ``chamber.link_cell``
    returns it, is the set of ascending points of the box lo <= y <= hi:
    y_2 runs over [max(y_1, lo_2), hi_2].  Every coordinate range is cut
    into panels at the ``breaks`` inside it, where the integrand is not
    smooth; the first coordinate is also cut at lo_2, where the inner range
    turns.  Each panel gets a tensor Gauss-Legendre rule, Gauss-Jacobi on
    panels starting at 0 when the integrand carries a factor y^alpha there.
    The rule runs at orders QUAD_ORDER and 2 QUAD_ORDER; the larger gives
    the value, and the panel-wise sum of |difference| the error estimate,
    which must not exceed ``tol``, so an undeclared kink or jump raises.
    """
    lo, hi = np.asarray(cell, dtype=float)
    if lo.size not in (1, 2):
        raise ValueError("quad_cell supports cells of dimension 1 and 2")
    if not lo[0] < hi[0]:
        raise ValueError(f"need lo < hi, got [{lo[0]}, {hi[0]}]")
    edges1 = _split(lo[0], hi[0], (*breaks, *lo[1:]))
    if lo.size == 1:
        return quad_intervals(f, edges1, tol, alpha)[1]
    totals = np.zeros((2, edges1.size - 1))
    n_eval = 0
    for p, (a, b) in enumerate(zip(edges1[:-1], edges1[1:])):
        inner = sorted(c for c in breaks if max(0.5 * (a + b), lo[1]) < c < hi[1])
        for o, k in enumerate((QUAD_ORDER, 2 * QUAD_ORDER)):
            y1, w1 = _panel_nodes(a, b, k, alpha)
            cuts = np.column_stack([np.maximum(y1, lo[1]), *(np.full(k, c) for c in inner),
                                    np.full(k, hi[1])])
            y2, w2 = _panel_nodes(cuts[:, :-1], cuts[:, 1:], k, alpha)
            pts = np.column_stack([np.broadcast_to(y1[:, None, None], y2.shape).ravel(),
                                   y2.ravel()])
            totals[o, p] = np.sum((w1[:, None, None] * w2).ravel() * f(pts))
            n_eval += pts.shape[0]
    err = float(np.sum(np.abs(totals[1] - totals[0])))
    return _converged(Quadrature(float(totals[1].sum()), err, n_eval), tol)


def quad_intervals(f, edges, tol: float, alpha: float = 0.0):
    """Integrals of a row-wise 1-D integrand over each [edges[i], edges[i+1]]
    (edges sorted, repeats allowed), all panels in one pass with the rule of
    :func:`quad_cell`.  Returns the per-interval values and their Quadrature
    total; the error estimate bounds every partial sum and must not exceed
    ``tol``."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    vals = np.zeros((2, lo.size))
    n_eval = 0
    for o, k in enumerate((QUAD_ORDER, 2 * QUAD_ORDER)):
        step = max(1, QUAD_BLOCK // k)
        for i in range(0, lo.size, step):
            y, w = _panel_nodes(lo[i:i + step], hi[i:i + step], k, alpha)
            vals[o, i:i + step] = np.sum(w * f(y.reshape(-1, 1)).reshape(y.shape), axis=1)
            n_eval += y.size
    err = float(np.sum(np.abs(vals[1] - vals[0])))
    return vals[1], _converged(Quadrature(float(vals[1].sum()), err, n_eval), tol)


def _converged(q: Quadrature, tol: float) -> Quadrature:
    if not q.err <= tol:
        raise RuntimeError(f"cubature did not converge: value={q.value}, err={q.err} > tol={tol}")
    return q


# ---------------------------------------------------------------------------
# two-sample machinery
# ---------------------------------------------------------------------------


def _as_rows(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _require_power(n_perm: int, threshold: float) -> None:
    """A permutation test whose smallest p-value, 1/(n_perm+1), exceeds the
    threshold passes whatever the samples; refuse it before any draw."""
    if n_perm < 1 or 1.0 / (n_perm + 1.0) > threshold:
        raise ValueError(f"n_perm={n_perm} is too small: the smallest p-value "
                         f"1/(n_perm+1) exceeds the threshold {threshold}")


# pooled-distance columns per block in d >= 2: an (n, 256) float64 block is
# 8 MB at the default 2 x 2,048 pooled points
_ENERGY_BLOCK = 256


def energy_perm_test(a, b, n_perm: int, rng, threshold: float = P_THRESHOLD,
                     max_points: int = 2048, name: str = "energy_perm_test") -> TestReport:
    """Energy-distance two-sample permutation test.

    statistic = 2 E||a-b|| - E||a-a'|| - E||b-b'|| with plug-in (V-statistic)
    means, so identical samples score exactly 0; the p-value counts label
    permutations with a statistic at least as large.  Inputs larger than
    ``max_points`` per group are subsampled (exactness of the permutation
    test is unaffected; only power changes).

    Row 0 of one (n_perm + 1, n) label matrix is the observed split of the n
    pooled points and rows 1.. are the permuted splits; every statistic is
    computed in float64 from it, and no n x n array is formed.  In one
    dimension the statistic is 2 * integral of (F_a - F_b)^2 (Szekely and
    Rizzo, JSPI 2013): one sort of the pooled sample, then prefix sums of
    each row's labels give its empirical CDFs on the gaps, with no distances
    at all.  In d >= 2 the distance matrix is built ``_ENERGY_BLOCK``
    columns at a time and multiplied by the label matrix, so memory stays
    O(n * (n_perm + _ENERGY_BLOCK)): under 64 MB at 2 x 2,048 points and
    n_perm = 300.
    """
    _require_power(n_perm, threshold)
    a = _as_rows(a)
    b = _as_rows(b)
    if a.shape[0] < 100 or b.shape[0] < 100:
        raise ValueError("energy test needs at least 100 points per sample")
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share a dimension")
    # a non-finite row decides the test (in 1-D an inf makes every statistic
    # inf, so all tie and p = 1); refuse it before any draw
    for label, sample in (("a", a), ("b", b)):
        bad = int(np.count_nonzero(~np.isfinite(sample).all(axis=1)))
        if bad:
            raise ValueError(f"energy test: {bad} of the {len(sample)} rows of sample {label} "
                             "are not finite")
    full_na, full_nb = a.shape[0], b.shape[0]
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], size=max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], size=max_points, replace=False)]
    na, nb = a.shape[0], b.shape[0]
    n = na + nb
    pooled = np.vstack([a, b])
    labels = np.zeros((n_perm + 1, n), dtype=bool)
    labels[0, :na] = True
    for row in labels[1:]:
        row[rng.permutation(n)[:na]] = True
    stat = _energy_stats(pooled, labels, na, nb)
    observed = float(stat[0])
    count = int((stat[1:] >= observed).sum())
    p_value = (count + 1.0) / (n_perm + 1.0)
    meta = {"n_a": full_na, "n_b": full_nb, "n_a_used": na, "n_b_used": nb, "n_perm": n_perm}
    return TestReport.statistical(name, observed, p_value, threshold, meta)


def _energy_stats(pooled, labels, na, nb) -> np.ndarray:
    """Energy statistic of each row of the boolean ``labels`` (True: group
    a, na of them per row) over the (n, d) ``pooled`` points, in float64."""
    n = na + nb
    if pooled.shape[1] == 1:
        # 2 sum_k (F_a - F_b)^2 gap_k; after the k smallest points, c of them
        # labelled a, na nb (F_a - F_b) = c n - k na is an integer, exact in
        # float64 as is its square (for n max(na, nb) below 9e7): only the
        # gaps and the sum over them round
        x = pooled[:, 0]
        order = np.argsort(x, kind="stable")
        gaps = np.diff(x[order])
        diff = np.cumsum(labels[:, order[:-1]], axis=1, dtype=np.float64)
        diff *= n
        diff -= np.arange(1.0, n) * na
        diff *= diff
        return 2.0 * (diff @ gaps) / (float(na) * nb) ** 2
    from scipy.spatial.distance import cdist  # only d >= 2 needs distances

    # s_aa = v.D.v and s_ab = v.(D 1) - s_aa, over column blocks of D
    v = labels.astype(np.float64)
    s_aa = np.zeros(v.shape[0])
    colsum = np.empty(n)
    for lo in range(0, n, _ENERGY_BLOCK):
        cols = slice(lo, lo + _ENERGY_BLOCK)
        dist = cdist(pooled, pooled[cols])
        colsum[cols] = dist.sum(axis=0)
        s_aa += np.einsum("ij,ij->i", v[:, cols], v @ dist)
    s_ab = v @ colsum - s_aa
    s_bb = colsum.sum() - 2.0 * s_ab - s_aa
    return 2.0 * s_ab / (na * nb) - s_aa / (na * na) - s_bb / (nb * nb)


def interiorize_rows(rows: np.ndarray) -> np.ndarray:
    """Sorted copies with a positive floor of 1e-12 and ties nudged apart.

    Simulated states can sit exactly on the chamber boundary (a
    discretization artifact of measure zero in the continuum); kernel
    densities need strictly interior inputs.
    """
    rows = np.sort(np.asarray(rows, dtype=float), axis=1)
    rows[:, 0] = np.maximum(rows[:, 0], 1e-12)
    for k in range(1, rows.shape[1]):
        tie = rows[:, k] <= rows[:, k - 1]
        rows[tie, k] = rows[tie, k - 1] * (1.0 + 1e-12) + 1e-12
    return rows


# ---------------------------------------------------------------------------
# intertwining / invariance / consistency checks
# ---------------------------------------------------------------------------


# The three links of one projective system: which -> (alpha shift and extra
# dimension of the upper level, the link, alpha shift of the lower level).
# The upper level pushed through the link is the lower level, for the
# Pickrell diffusions (intertwinings) and their equilibria (consistency).
_LINKS = {
    "alpha-link": (0.0, 1, "lambda_plus", 0.0),
    "free-link": (0.0, 1, "L", 1.0),
    "eq-link": (1.0, 0, "lambda_eq", 0.0),
}


def _push(kind, alpha, rows, rng):
    """One draw of link ``kind`` per source row."""
    if kind == "L":
        return sample_L_each(rows, rng)
    each = sample_lambda_plus_each if kind == "lambda_plus" else sample_lambda_eq_each
    return each(alpha, rows, rng)


def _laguerre(alpha, n, *run):
    return simulate_laguerre_paths(alpha, n, *run)[0]


def _pickrell(s):
    return lambda alpha, n, *run: simulate_pickrell_paths(PickrellParams(s, alpha, n), *run)[0]


def _two_path(name, seed, n_perm, path_a, path_b, meta) -> TestReport:
    """Energy test of path A's samples against path B's on the 'perm' stream.

    Each path maps a stream namer (tag -> seed named from ``seed``) to its
    samples; samplers are looked up as module attributes when a path runs.
    """
    _require_power(n_perm, P_THRESHOLD)
    stream = partial(named_seed, seed)
    rep = energy_perm_test(path_a(stream), path_b(stream), n_perm,
                           generator(stream("perm")), name=name)
    rep.meta.update({"seed": seed, **meta})
    return rep


def _intertwine(name, meta, which, up, down, alpha, alpha_b, n, x, t, n_samples, dt, seed,
                n_perm) -> TestReport:
    """Evolve the upper level from x, then push through the link (path A),
    against drawing from the link at x, then evolving the lower level at
    ``alpha_b`` (path B).  ``up`` and ``down`` map (alpha, dimension, start,
    config, paths, seed) to terminal states."""
    da, dn, kind, db = _LINKS[which]
    xa = as_coords(x, expected_dim=n + dn)
    cfg = SdeConfig(dt=dt, t=t)

    def path_a(stream):
        ends = up(alpha + da, n + dn, xa, cfg, n_samples, stream("pathA-evolve"))
        return _push(kind, alpha, interiorize_rows(ends), generator(stream("pathA-kernel")))

    def path_b(stream):
        z = _push(kind, alpha_b, np.tile(xa, (n_samples, 1)), generator(stream("pathB-kernel")))
        return down(alpha_b + db, n, z, cfg, n_samples, stream("pathB-evolve"))

    return _two_path(name, seed, n_perm, path_a, path_b, dict(meta, dt=dt, t=t, alpha=alpha))


def check_intertwine_laguerre(alpha, n, x, t, n_samples, dt, seed, n_perm=500,
                              alpha_mismatch=0.0) -> TestReport:
    """Two-path check: evolve then project vs project then evolve.

    With ``alpha_mismatch`` nonzero the second path runs at a shifted
    parameter; the test is then expected to fail (sensitivity control).
    """
    return _intertwine(f"intertwine-laguerre[N={n},alpha={alpha},t={t}]",
                       {"alpha_mismatch": alpha_mismatch, "x": [float(v) for v in as_coords(x)]},
                       "alpha-link", _laguerre, _laguerre, alpha, alpha + alpha_mismatch, n, x,
                       t, n_samples, dt, seed, n_perm)


def check_intertwine_pickrell(s, alpha, n, x, t, n_samples, dt, seed, n_perm=500,
                              s_mismatch=0.0) -> TestReport:
    """Two-path check for the Pickrell semigroup through the (N+1 -> N) link."""
    return _intertwine(f"intertwine-pickrell[N={n},s={s},alpha={alpha},t={t}]",
                       {"s": s, "s_mismatch": s_mismatch, "x": [float(v) for v in as_coords(x)]},
                       "alpha-link", _pickrell(s), _pickrell(s + s_mismatch), alpha, alpha, n, x,
                       t, n_samples, dt, seed, n_perm)


def check_shifted_intertwine(kind, s, alpha, n, x, t, n_samples, dt, seed,
                             n_perm=500) -> TestReport:
    """Parameter-shifted intertwinings of the Pickrell semigroups.

    kind='L':        evolve at alpha upstairs == evolve at alpha+1 downstairs,
                     through the parameter-free link (x has dimension N+1).
    kind='LambdaEq': evolve at alpha+1 == evolve at alpha, through the
                     equal-dimension alpha-link (x has dimension N).
    """
    which = {"L": "free-link", "LambdaEq": "eq-link"}.get(kind)
    if which is None:
        raise ValueError(f"unknown kind {kind!r}")
    return _intertwine(f"shifted-intertwine-{kind}[N={n},s={s},alpha={alpha},t={t}]",
                       {"s": s, "kind": kind}, which, _pickrell(s), _pickrell(s), alpha, alpha,
                       n, x, t, n_samples, dt, seed, n_perm)


def check_invariance_pickrell(s, alpha, n, t, n_samples, dt, seed, n_perm=500,
                              s_mismatch=0.0) -> TestReport:
    """Evolved equilibrium samples must match fresh equilibrium samples."""
    _require_power(n_perm, P_THRESHOLD)
    pool = sample_pickrell(PickrellParams(s, alpha, n), 2 * n_samples,
                           generator(named_seed(seed, "ensemble")))
    cfg = SdeConfig(dt=dt, t=t)
    return _two_path(
        f"invariance-pickrell[N={n},s={s},alpha={alpha},t={t}]", seed, n_perm,
        lambda stream: _pickrell(s + s_mismatch)(alpha, n, pool[:n_samples], cfg, n_samples,
                                                 stream("evolve")),
        lambda stream: pool[n_samples:],
        {"dt": dt, "t": t, "s": s, "alpha": alpha, "s_mismatch": s_mismatch})


def check_consistency(which, s, alpha, n, n_samples, seed, n_perm=500) -> TestReport:
    """Push equilibrium ensembles through a link and compare with the target.

    which='alpha-link': dimension N+1 ensemble through the (N+1 -> N)
        alpha-link equals the dimension N ensemble (same alpha).
    which='free-link':  dimension N+1 ensemble through the parameter-free
        link equals the dimension N ensemble at alpha+1.
    which='eq-link':    dimension N ensemble at alpha+1 through the
        equal-dimension alpha-link equals the dimension N ensemble at alpha.
    """
    if which not in _LINKS:
        raise ValueError(f"unknown consistency identity {which!r}")
    da, dn, kind, db = _LINKS[which]

    def pushed(stream):
        src = sample_pickrell(PickrellParams(s, alpha + da, n + dn), n_samples,
                              generator(stream("source")))
        return _push(kind, alpha, interiorize_rows(src), generator(stream("kernel")))

    return _two_path(
        f"consistency-{which}[N={n},s={s},alpha={alpha}]", seed, n_perm, pushed,
        lambda stream: sample_pickrell(PickrellParams(s, alpha + db, n), n_samples,
                                       generator(stream("target"))),
        {"s": s, "alpha": alpha, "which": which})


# ---------------------------------------------------------------------------
# exact generator-level identities
# ---------------------------------------------------------------------------


def generator_drift_coeffs(s, alpha, n, hat=False):
    """(c1, c0) of the first-order part c1 x + c0 of the one-particle
    generator x(1+x) d^2 + (c1 x + c0) d; ``hat`` selects the Siegmund dual."""
    if hat:
        return (2.0 * n + s, -alpha)
    return (2.0 - 2.0 * n - s, alpha + 1.0)


def apply_generator_1d(s, alpha, n, coeffs, x):
    """Apply the one-particle generator to a polynomial (ascending coeffs)."""
    p = np.polynomial.Polynomial(coeffs)
    c1, c0 = generator_drift_coeffs(s, alpha, n)
    x = np.asarray(x, dtype=float)
    d1 = p.deriv()(x)
    d2 = p.deriv(2)(x)
    out = x * (1.0 + x) * d2 + (c1 * x + c0) * d1
    return out if out.ndim else float(out)


class _PowerForm:
    """Function x^a (1+x)^b P(x); closed under the generators' calculus."""

    def __init__(self, a, b, poly):
        self.a = float(a)
        self.b = float(b)
        self.poly = poly if isinstance(poly, np.polynomial.Polynomial) else np.polynomial.Polynomial(poly)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x**self.a * (1.0 + x) ** self.b * self.poly(x)

    def apply_generator(self, s, alpha, n, hat=False) -> "_PowerForm":
        xp = np.polynomial.Polynomial([0.0, 1.0])
        one_px = np.polynomial.Polynomial([1.0, 1.0])
        p = self.poly
        # f' = x^(a-1)(1+x)^(b-1) [a(1+x)P + b x P + x(1+x)P']
        p1 = self.a * one_px * p + self.b * xp * p + xp * one_px * p.deriv()
        a1, b1 = self.a - 1.0, self.b - 1.0
        p2 = a1 * one_px * p1 + b1 * xp * p1 + xp * one_px * p1.deriv()
        c1, c0 = generator_drift_coeffs(s, alpha, n, hat=hat)
        drift_poly = np.polynomial.Polynomial([c0, c1])
        # x(1+x) f'' and (c1 x + c0) f' both live at exponents (a-1, b-1)
        return _PowerForm(a1, b1, p2 + drift_poly * p1)


def h_transform_constants(s, alpha, n):
    """(c, d) with c = -2N - s and d = -alpha (2N + s + alpha - 1),
    stated at level N+1 (pass n = N)."""
    return (-2.0 * n - s, -alpha * (2.0 * n + s + alpha - 1.0))


def check_vandermonde_eigen(s, alpha, n, points, threshold: float = 1e-8) -> TestReport:
    """The Vandermonde factor is an eigenfunction of the summed one-particle
    generators, with eigenvalue N(N-1)(-4N+2-3s)/6; exact-calculus check."""
    lam = n * (n - 1) * (-4.0 * n + 2.0 - 3.0 * s) / 6.0
    worst = 0.0
    for x in points:
        arr = as_coords(x, expected_dim=n)
        diff = arr[:, None] - arr[None, :]
        np.fill_diagonal(diff, np.inf)
        s1 = (1.0 / diff).sum(axis=1)
        q1 = (1.0 / diff**2).sum(axis=1)
        c1, c0 = generator_drift_coeffs(s, alpha, n)
        lhs = float(np.sum(arr * (1.0 + arr) * (s1**2 - q1) + (c1 * arr + c0) * s1))
        worst = max(worst, abs(lhs - lam) / max(1.0, abs(lam)))
    return TestReport.deterministic(f"vandermonde-eigenfunction[N={n},s={s}]", worst, threshold,
                                    {"s": s, "alpha": alpha, "n": n,
                                     "eigenvalue": lam, "n_points": len(points)})


def check_h_transform_identities(s, alpha, n, points, threshold: float = 1e-8) -> TestReport:
    """Both conjugation identities behind the parameter shifts, checked by
    exact closed-form differentiation on polynomial test functions.

    (i)  dual(s,alpha) at level N+1 applied to m^-1 g equals
         c m^-1 g + m^-1 L(s,alpha+1) g, with m^-1 = x^(alpha+1)(1+x)^(-2N-s-alpha-1);
    (ii) L(s+2alpha-2, -alpha) at level N+1 applied to x^alpha g equals
         d x^alpha g + x^alpha L(s,alpha) g.
    """
    pts = np.asarray(points, dtype=float)
    if np.any(pts <= 0):
        raise ValueError("evaluation points must be positive")
    c_const, d_const = h_transform_constants(s, alpha, n)
    worst = 0.0
    for g_coeffs in ([1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]):
        g = np.polynomial.Polynomial(g_coeffs)
        # (i)
        m_inv_g = _PowerForm(alpha + 1.0, -(2.0 * n + s + alpha + 1.0), g)
        lhs = m_inv_g.apply_generator(s, alpha, n + 1, hat=True)(pts)
        lg = apply_generator_1d(s, alpha + 1.0, n, g_coeffs, pts)
        rhs = c_const * m_inv_g(pts) + _PowerForm(alpha + 1.0, -(2.0 * n + s + alpha + 1.0),
                                                  [1.0])(pts) * lg
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        # (ii)
        xag = _PowerForm(alpha, 0.0, g)
        lhs2 = xag.apply_generator(s + 2.0 * alpha - 2.0, -alpha, n + 1)(pts)
        lg2 = apply_generator_1d(s, alpha, n, g_coeffs, pts)
        rhs2 = d_const * xag(pts) + pts**alpha * lg2
        scale2 = np.maximum(1.0, np.maximum(np.abs(lhs2), np.abs(rhs2)))
        worst = max(worst, float(np.max(np.abs(lhs2 - rhs2) / scale2)))
    return TestReport.deterministic(f"h-transform-identities[N={n},s={s},alpha={alpha}]",
                                    worst, threshold,
                                    {"s": s, "alpha": alpha, "n": n, "n_points": pts.size})


# the names of the two randomized checks also name their streams
_H_CONSTANTS = "h-transform-constants"
_DRIFT_FORMS = "pickrell-drift-forms"


def check_h_constants(seed, n_draws: int = 100, threshold: float = 1e-12) -> TestReport:
    """d(s, alpha+1) - c(s + 2 alpha) = d(s, alpha) at random parameters."""
    rng = generator(named_seed(seed, _H_CONSTANTS))
    worst = 0.0
    for _ in range(n_draws):
        s = rng.uniform(-3.0, 3.0)
        alpha = rng.uniform(-0.9, 3.0)
        n = int(rng.integers(1, 12))
        c_shift, _ = h_transform_constants(s + 2.0 * alpha, alpha, n)
        _, d_up = h_transform_constants(s, alpha + 1.0, n)
        _, d_base = h_transform_constants(s, alpha, n)
        worst = max(worst, abs(d_up - c_shift - d_base) / max(1.0, abs(d_base)))
    return TestReport.deterministic(_H_CONSTANTS, worst, threshold, {"n_draws": n_draws, "seed": seed})


def check_pickrell_drift_forms(seed, n_draws: int = 100, threshold: float = 1e-10) -> TestReport:
    """The interaction form and the product form of the drift agree."""
    from .diffusion import pickrell_drift, pickrell_drift_interaction_form

    rng = generator(named_seed(seed, _DRIFT_FORMS))
    worst = 0.0
    for _ in range(n_draws):
        n = int(rng.integers(1, 5))
        params = PickrellParams(s=rng.uniform(-2, 3), alpha=rng.uniform(-0.9, 3), n=n)
        x = np.sort(rng.uniform(0.05, 5.0, size=n))
        x += np.arange(n) * 1e-3  # keep a safe gap
        d1 = pickrell_drift(params, x)
        d2 = pickrell_drift_interaction_form(params, x)
        worst = max(worst, float(np.max(np.abs(d1 - d2) / np.maximum(1.0, np.abs(d1)))))
    return TestReport.deterministic(_DRIFT_FORMS, worst, threshold, {"n_draws": n_draws, "seed": seed})


# ---------------------------------------------------------------------------
# kernel normalization / decomposition
# ---------------------------------------------------------------------------


def check_kernel_normalization(kind, alpha, x, tol: float = 1e-6) -> TestReport:
    """Total mass of a kernel density over its interlacing cell equals 1."""
    xa = as_coords(x)
    cell = link_cell(kind, xa)
    if cell[0].size > 2:
        raise ValueError("normalization quadrature supports N <= 2")
    f = {"L": lambda ys: density_L_rows(xa, ys),
         "lambda_eq": lambda ys: density_lambda_eq_rows(alpha, xa, ys),
         "lambda_plus": lambda ys: density_lambda_plus_rows(alpha, xa, ys)}[kind]
    q = quad_cell(f, cell, tol=tol * 0.1, breaks=tuple(xa), alpha=0.0 if kind == "L" else alpha)
    x_list = [float(v) for v in xa]
    return TestReport.deterministic(f"normalization-{kind}[alpha={alpha},x={x_list}]",
                                    abs(q.value - 1.0), tol,
                                    {"alpha": alpha, "x": x_list, "mass": q.value,
                                     "quad_err": q.err, "n_eval": q.n_eval})


def check_decomposition(alpha, x=(1.0, 2.0), n_grid: int = 20, tol: float = 1e-6) -> TestReport:
    """The (2 -> 1) alpha-link factors through the parameter-free link
    followed by the equal-dimension alpha-link; pointwise quadrature check."""
    xa = as_coords(x, expected_dim=2)
    ys = np.linspace(xa[1] * 0.02, xa[1] * 0.98, n_grid)
    direct = density_lambda_plus_rows(alpha, xa, ys[:, None])
    # the source point z of the second link, the integration variable, runs
    # over the L cell of x clipped by y
    (z_lo,), (z_hi,) = link_cell("L", xa)
    worst = quad_err = 0.0
    n_eval = 0
    for y, d in zip(ys, direct):
        lo = max(z_lo, y)
        composed = 0.0
        if lo < z_hi:
            q = quad_cell(lambda zs: density_L_rows(xa, zs)
                          * density_lambda_eq_rows(alpha, zs, np.full(zs.shape, y)),
                          ((lo,), (z_hi,)), tol=tol * 1e-2)
            composed, quad_err, n_eval = q.value, max(quad_err, q.err), n_eval + q.n_eval
        worst = max(worst, abs(d - composed))
    return TestReport.deterministic(f"decomposition[alpha={alpha}]", worst, tol,
                                    {"alpha": alpha, "x": list(xa), "n_grid": n_grid,
                                     "quad_err": quad_err, "n_eval": n_eval})


# ---------------------------------------------------------------------------
# boundary flow
# ---------------------------------------------------------------------------


def flow_start_profile(omega: BoundaryPoint, n: int) -> np.ndarray:
    """A deterministic N-particle start whose boundary embedding realizes
    omega: the masses become spikes at N^2 alpha_i; the unassigned mass
    gamma_bar N^2 is spread over the remaining slots as a quadratic ramp
    (hard-edge-like shape; its embedded masses vanish as N grows).

    A linear ramp would put the top particles ~ 2 gamma_bar N^2 / N apart,
    close enough that the explicit Euler repulsion overshoots at dt = 1e-3;
    the quadratic shape keeps gaps safely above the overshoot threshold.
    """
    k = len(omega.alphas)
    if k > n:
        raise ValueError(f"need n >= {k} slots for the masses")
    spikes = [n * n * a for a in omega.alphas]
    m = n - k
    rem = n * n * gamma_bar(omega)
    if m == 0:
        if rem > 1e-9 * max(1.0, omega.gamma) * n * n:
            raise ValueError("no slots left for the unassigned mass")
        ramp = []
    else:
        scale = 6.0 * rem / (m * (m + 1.0) * (2.0 * m + 1.0))
        ramp = [scale * j * j for j in range(1, m + 1)]
    x = np.sort(np.asarray(spikes + ramp))
    for i in range(1, n):
        if x[i] <= x[i - 1]:
            x[i] = x[i - 1] + 1e-9 * (1.0 + x[i - 1])
    return x


def check_flow_convergence(alpha, n, omega_start: BoundaryPoint, t_grid, n_paths,
                           dt, seed, threshold: float = 0.15) -> TestReport:
    """Scaled Laguerre ensembles track the deterministic boundary flow.

    statistic = max over the time grid of |mean scaled sum - gamma flow|
    plus the top-mass deviation; the reference flow starts from the realized
    embedding of the constructed particle start.
    """
    x0 = flow_start_profile(omega_start, n)
    omega0 = embed_boundary(x0)
    t_grid = sorted(t_grid)
    _, snaps, info = simulate_laguerre_paths(alpha, n, x0, SdeConfig(dt=dt, t=t_grid[-1]),
                                             n_paths, named_seed(seed, "paths"),
                                             snapshots_at=t_grid)
    worst = 0.0
    track = {}
    for ts in t_grid:
        rows = snaps[ts]
        flow = boundary_flow(omega0, ts)
        gamma_hat = float(rows.sum(axis=1).mean()) / n**2
        alpha1_hat = float(rows[:, -1].mean()) / n**2
        alpha1_flow = flow.alphas[0] if flow.alphas else 0.0
        dev = abs(gamma_hat - flow.gamma) + abs(alpha1_hat - alpha1_flow)
        worst = max(worst, dev)
        track[f"t={ts}"] = {"gamma_hat": gamma_hat, "gamma_flow": flow.gamma,
                            "alpha1_hat": alpha1_hat, "alpha1_flow": alpha1_flow,
                            "gamma_var": float(rows.sum(axis=1).var() / n**4)}
    return TestReport.deterministic(f"boundary-flow[N={n},gamma0={omega_start.gamma}]",
                                    worst, threshold,
                                    {"seed": seed, "alpha": alpha, "n": n, "dt": dt,
                                     "n_paths": n_paths, "guard_fraction": info["guard_fraction"],
                                     "track": track})


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_identities(seed, sizes):
    reports = []
    rng = generator(named_seed(seed, "identity-points"))
    for s, a, n in [(1.0, 0.0, 2), (1.0, 0.5, 3), (-0.5, 2.0, 3), (2.0, 1.0, 1)]:
        pts = [np.sort(rng.uniform(0.1, 5.0, size=n)) + np.arange(n) * 1e-2 for _ in range(25)]
        reports.append(check_vandermonde_eigen(s, a, n, pts))
    for s, a, n in [(1.0, 0.5, 2), (-0.5, 1.5, 3), (2.0, 0.0, 1)]:
        pts = rng.uniform(0.1, 5.0, size=25)
        reports.append(check_h_transform_identities(s, a, n, pts))
    reports.append(check_h_constants(seed))
    reports.append(check_pickrell_drift_forms(seed))
    for a in (0.0, 0.5, 2.0):
        reports.append(check_kernel_normalization("L", a, (1.0, 2.0)))
        reports.append(check_kernel_normalization("L", a, (0.5, 1.5, 3.0)))
        reports.append(check_kernel_normalization("lambda_eq", a, (1.0, 2.0)))
        reports.append(check_kernel_normalization("lambda_plus", a, (1.0, 2.0)))
        reports.append(check_kernel_normalization("lambda_plus", a, (0.5, 1.5, 3.0)))
    for a in (0.0, 1.0):
        reports.append(check_decomposition(a))
    return reports


# Monte Carlo suite -> rows of (stream tag, check, leading arguments); each
# check is looked up when its suite runs and gets the sizes by keyword
_MONTE_CARLO = {
    "intertwine": [
        ("lag-1", "check_intertwine_laguerre", (0.0, 1, (1.0, 2.0), 0.5)),
        ("lag-2", "check_intertwine_laguerre", (1.0, 2, (0.5, 1.5, 3.0), 0.5)),
        ("pic-1", "check_intertwine_pickrell", (1.0, 0.0, 1, (1.0, 2.0), 0.5)),
        ("shift-L", "check_shifted_intertwine", ("L", 1.0, 0.0, 1, (1.0, 2.0), 0.5)),
        ("shift-eq", "check_shifted_intertwine", ("LambdaEq", 1.0, 0.5, 2, (1.0, 2.5), 0.5)),
    ],
    "invariance": [(f"inv-{n}-{a}", "check_invariance_pickrell", (1.0, a, n, 0.5))
                   for n in (1, 2) for a in (0.0, 1.0)],
    "consistency": [(f"cons-{which}-{a}", "check_consistency", (which, 1.0, a, 1))
                    for which in _LINKS for a in (0.0, 1.0)],
}


def _suite_monte_carlo(suite, seed, sizes):
    kw = {"n_samples": sizes.get("n_samples", 4000), "n_perm": sizes.get("n_perm", 300)}
    if suite != "consistency":  # equilibrium draws only, no time steps
        kw["dt"] = sizes.get("dt", 1e-3)
    return [globals()[check](*args, seed=named_seed(seed, tag), **kw)
            for tag, check, args in _MONTE_CARLO[suite]]


def _suite_flow(seed, sizes):
    n_paths = sizes.get("n_paths", 300)
    dt = sizes.get("dt", 1e-3)
    return [
        check_flow_convergence(0.0, 50, BoundaryPoint((), 3.0), (0.25, 0.5, 1.0),
                               n_paths, dt, named_seed(seed, "flow-3")),
        check_flow_convergence(0.0, 50, BoundaryPoint((), 1.0), (0.25, 0.5, 1.0),
                               n_paths, dt, named_seed(seed, "flow-1")),
    ]


def _suite_branching_limit(seed, sizes):
    from .branching import JacobiParams, Partition, compare_scaling_limit, kernel_row

    kappa = sizes.get("kappa", 200)
    params = JacobiParams(0.0, 0.0)
    reports = []
    worst = 0.0
    for lam_parts in [(1,), (2,), (1, 1), (2, 1), (3, 2, 1), (2, 2, 2)]:
        lam = Partition(lam_parts)
        n = max(1, lam.length - 1)
        _, probs = kernel_row(lam, n, params)
        worst = max(worst, abs(probs.sum() - 1.0))
    reports.append(TestReport.deterministic("branching-row-sums", worst, 1e-10, {}))
    res_hi = compare_scaling_limit(Partition((2, 1)), kappa, params)
    res_lo = compare_scaling_limit(Partition((2, 1)), max(10, kappa // 10), params)
    reports.append(TestReport.deterministic("branching-scaling-limit",
                                            res_hi["sup_discrepancy"], 0.05,
                                            {"kappa": kappa,
                                             "coarse": res_lo["sup_discrepancy"],
                                             "row_mass": res_hi["row_mass"]}))
    reports.append(TestReport.deterministic("branching-scaling-monotone",
                                            res_hi["sup_discrepancy"],
                                            1.2 * res_lo["sup_discrepancy"],
                                            {"kappa_fine": kappa}))
    return reports


SUITES = {
    "identities": _suite_identities,
    **{suite: partial(_suite_monte_carlo, suite) for suite in _MONTE_CARLO},
    "flow": _suite_flow,
    "branching-limit": _suite_branching_limit,
}


def run_suite(suite: str, seed: int, **sizes) -> list:
    """Run one named suite (or 'all'); reports are seed-deterministic."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    return [rep for name in names for rep in SUITES[name](named_seed(seed, name), sizes)]

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import stats

from intertwine.chamber import interlace_eq, interlace_plus
from intertwine.kernels import (KernelParams, density_L, density_L_rows, density_lambda_eq,
                                density_lambda_eq_rows, density_lambda_plus,
                                density_lambda_plus_rows, sample_L_each, sample_L_many,
                                sample_lambda_eq_many, sample_lambda_plus_many)
from intertwine.rng import generator
from intertwine.verify import quad_1d
from helpers import (lambda_plus_cdf_12, ref_density_L, ref_density_lambda_eq,
                     ref_density_lambda_plus)


def test_density_L_examples():
    assert density_L((1, 3), (2,)) == pytest.approx(0.5)
    assert density_L((1, 3), (4,)) == 0.0
    assert density_L((0, 1, 2), (0.5, 1.5)) == pytest.approx(1.0)


def test_density_L_requires_strict_x():
    with pytest.raises(ValueError):
        density_L((1, 1), (1,))


def test_density_lambda_eq_examples():
    assert density_lambda_eq(KernelParams(0, 1), (2,), (1,)) == pytest.approx(0.5)
    assert density_lambda_eq(KernelParams(1, 1), (2,), (1,)) == pytest.approx(0.5)
    assert density_lambda_eq(KernelParams(0, 2), (1, 2), (0.5, 3)) == 0.0
    with pytest.raises(ValueError):
        density_lambda_eq(KernelParams(0, 2), (0.0, 1.0), (0.0, 0.5))


def test_density_lambda_plus_examples():
    p = KernelParams(0, 1)
    assert density_lambda_plus(p, (1, 2), (1.5,)) == pytest.approx(math.log(4 / 3))
    assert density_lambda_plus(p, (1, 2), (3,)) == 0.0
    with pytest.raises(ValueError):
        density_lambda_plus(p, (0.0, 2.0), (1.0,))


def test_density_lambda_plus_normalizes_analytically():
    # for x = (1, 2), alpha = 0 the mass is x1 log(x2/x1) + x2 - x1 - ... = 1
    p = KernelParams(0, 1)
    mass = quad_1d(lambda y: density_lambda_plus(p, (1.0, 2.0), (y,)), 0.0, 2.0,
                   tol=1e-10, points=[1.0])
    assert mass == pytest.approx(1.0, abs=1e-8)


@st.composite
def _link_inputs(draw):
    """A link kind, alpha, a strictly increasing x > 0 for N in {1, 2, 3}, and
    points inside the cell, outside it, on its edges and at y_1 = 0."""
    kind = draw(st.sampled_from(["L", "lambda_eq", "lambda_plus"]))
    n = draw(st.integers(1, 3))
    alpha = draw(st.one_of(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]),
                           st.floats(-0.95, 3.0)))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n + 1, max_size=n + 1))
    x = np.cumsum(gaps)
    if kind == "lambda_eq":
        x = x[:n]
    coord = st.one_of(st.sampled_from([0.0, *x.tolist()]), st.floats(0.0, float(x[-1]) + 0.5))
    pts = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=8))
    pts = np.sort(np.array(pts), axis=1)
    if draw(st.booleans()):  # an unsorted row lies outside every cell
        pts[0] = pts[0][::-1]
    return kind, alpha, x, pts


def _bits(v):
    return np.float64(v).tobytes()


@hypothesis.given(_link_inputs())
def test_density_rows_match_scalar_bit_for_bit(inputs):
    kind, alpha, x, pts = inputs
    params = KernelParams(alpha, pts.shape[1])
    rows, scalar, ref = {
        "L": (lambda: density_L_rows(x, pts), lambda y: density_L(x, y),
              lambda y: ref_density_L(x, y)),
        "lambda_eq": (lambda: density_lambda_eq_rows(alpha, x, pts),
                      lambda y: density_lambda_eq(params, x, y),
                      lambda y: ref_density_lambda_eq(alpha, x, y)),
        "lambda_plus": (lambda: density_lambda_plus_rows(alpha, x, pts),
                        lambda y: density_lambda_plus(params, x, y),
                        lambda y: ref_density_lambda_plus(alpha, x, y)),
    }[kind]
    values = rows()
    for y, v in zip(pts, values):
        assert _bits(v) == _bits(scalar(y))
        try:
            expected = ref(y)
        except ZeroDivisionError:  # 0^alpha for alpha < 0: the weight is infinite at y_1 = 0
            assert v in (0.0, math.inf)
            continue
        assert _bits(v) == _bits(expected)


def test_density_rows_edge_values():
    assert density_lambda_eq_rows(-0.5, (1.0, 2.0), [[0.0, 1.5]])[0] == math.inf
    assert density_lambda_plus_rows(-0.5, (1.0, 2.0), [[0.0]])[0] == math.inf
    assert density_lambda_plus_rows(0.5, (1.0, 2.0), [[0.0]])[0] == 0.0
    with pytest.raises(ValueError):
        density_L_rows((1.0, 2.0), [[1.5, 1.7]])
    with pytest.raises(ValueError):
        density_lambda_plus_rows(-1.0, (1.0, 2.0), [[1.5]])


def test_sample_L_uniform_case():
    rng = generator(101)
    y = sample_L_many((0.0, 1.0), 10_000, rng).ravel()
    assert stats.kstest(y, "uniform").pvalue > 0.01


def test_sample_L_symmetric_mean():
    rng = generator(102)
    y = sample_L_many((1.0, 3.0), 20_000, rng).ravel()
    se = y.std() / math.sqrt(y.size)
    assert abs(y.mean() - 2.0) < 3 * se


def test_sample_L_histogram_matches_density():
    # alpha-free link at x = (0, 1, 2): density is linear, so the midpoint
    # value equals the cell average exactly
    rng = generator(103)
    x = (0.0, 1.0, 2.0)
    n = 100_000
    ys = sample_L_many(x, n, rng)
    edges1 = np.linspace(0, 1, 21)
    edges2 = np.linspace(1, 2, 21)
    counts, _, _ = np.histogram2d(ys[:, 0], ys[:, 1], bins=[edges1, edges2])
    area = (edges1[1] - edges1[0]) * (edges2[1] - edges2[0])
    mid1 = (edges1[:-1] + edges1[1:]) / 2
    mid2 = (edges2[:-1] + edges2[1:]) / 2
    z_worst, n_bad = 0.0, 0
    for i, a in enumerate(mid1):
        for j, b in enumerate(mid2):
            p_bin = density_L(x, (a, b)) * area
            sigma = math.sqrt(p_bin * (1 - p_bin) * n)
            z = abs(counts[i, j] - n * p_bin) / sigma
            z_worst = max(z_worst, z)
            n_bad += z > 3.0
    assert n_bad <= 0.015 * 400  # 3-sigma outliers at roughly the nominal rate
    assert z_worst < 5.0


def test_sample_lambda_eq_examples():
    rng = generator(104)
    p0 = KernelParams(0, 1)
    y = sample_lambda_eq_many(p0, (2.0,), 10_000, rng).ravel()
    assert stats.kstest(y, "uniform", args=(0, 2)).pvalue > 0.01
    p1 = KernelParams(1, 1)
    y1 = sample_lambda_eq_many(p1, (1.0,), 20_000, rng).ravel()
    # density 2y on [0, 1]: mean 2/3, CDF u^2
    se = y1.std() / math.sqrt(y1.size)
    assert abs(y1.mean() - 2 / 3) < 3 * se
    assert stats.kstest(y1, lambda u: np.clip(u, 0, 1) ** 2).pvalue > 0.01


def test_sample_lambda_eq_histogram_matches_density():
    rng = generator(105)
    p = KernelParams(0, 2)
    x = (1.0, 2.0)
    n = 100_000
    ys = sample_lambda_eq_many(p, x, n, rng)
    edges1 = np.linspace(0, 1, 11)
    edges2 = np.linspace(1, 2, 11)
    counts, _, _ = np.histogram2d(ys[:, 0], ys[:, 1], bins=[edges1, edges2])
    area = 0.1 * 0.1
    n_bad = 0
    for i, a in enumerate((edges1[:-1] + edges1[1:]) / 2):
        for j, b in enumerate((edges2[:-1] + edges2[1:]) / 2):
            p_bin = density_lambda_eq(p, x, (a, b)) * area
            sigma = math.sqrt(p_bin * (1 - p_bin) * n)
            n_bad += abs(counts[i, j] - n * p_bin) > 3.5 * sigma
    assert n_bad <= 2


def test_sample_lambda_plus_matches_closed_form():
    rng = generator(106)
    p = KernelParams(0, 1)
    y = sample_lambda_plus_many(p, (1.0, 2.0), 20_000, rng).ravel()
    assert y.min() >= 0.0 and y.max() <= 2.0
    assert stats.kstest(y, lambda_plus_cdf_12).pvalue > 0.01


def test_samplers_respect_interlacing_support():
    rng = generator(107)
    x3 = (0.5, 1.5, 3.0)
    for row in sample_L_many(x3, 200, rng):
        assert interlace_plus(x3, np.sort(row))
    x2 = (1.0, 2.5)
    for row in sample_lambda_eq_many(KernelParams(0.7, 2), x2, 200, rng):
        assert interlace_eq(x2, np.sort(row))
    p = KernelParams(1.3, 2)
    for row in sample_lambda_plus_many(p, x3, 200, rng):
        assert density_lambda_plus(p, x3, np.sort(row)) > 0.0


def test_support_scales_homogeneously():
    rng = generator(108)
    x = np.array([0.5, 1.5, 3.0])
    c = 2.5
    rows = sample_L_many(c * x, 300, rng)
    for row in rows:
        assert interlace_plus(x, np.sort(row) / c)


def test_many_samplers_single_draw():
    rng = generator(109)
    y = sample_L_many((1.0, 3.0), 1, rng)[0]
    assert y.size == 1 and 1.0 <= y[0] <= 3.0
    z = sample_lambda_eq_many(KernelParams(0.5, 2), (1.0, 2.0), 1, rng)[0]
    assert interlace_eq((1.0, 2.0), z)
    w = sample_lambda_plus_many(KernelParams(0.5, 1), (1.0, 2.0), 1, rng)[0]
    assert 0.0 <= w[0] <= 2.0


def test_free_link_rejects_one_coordinate_source():
    with pytest.raises(ValueError, match="dimension >= 2"):
        sample_L_many((1.0,), 5, generator(110))
    with pytest.raises(ValueError, match="dimension >= 2"):
        sample_L_each(np.ones((5, 1)), generator(110))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(-1.0, 1)
    with pytest.raises(ValueError):
        KernelParams(0.0, 0)

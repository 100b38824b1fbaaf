import math
from functools import partial
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import stats

from intertwine import kernels
from intertwine.chamber import in_cell, interlace_eq, interlace_plus, link_cell
from intertwine.kernels import (KernelParams, density_L, density_L_rows, density_lambda_eq,
                                density_lambda_eq_rows, density_lambda_plus,
                                density_lambda_plus_rows, sample_L_each, sample_L_many,
                                sample_lambda_eq_each, sample_lambda_eq_many,
                                sample_lambda_plus_each, sample_lambda_plus_many)
from intertwine.rng import generator
from intertwine.verify import _push, quad_1d
from helpers import (lambda_plus_cdf_12, ref_cell_mask, ref_density_L, ref_density_lambda_eq,
                     ref_density_lambda_plus, ref_sample_L_each, ref_sample_lambda_eq_each,
                     ref_sample_lambda_plus_each, same_bits)


def test_density_L_examples():
    assert density_L((1, 3), (2,)) == pytest.approx(0.5)
    assert density_L((1, 3), (4,)) == 0.0
    assert density_L((0, 1, 2), (0.5, 1.5)) == pytest.approx(1.0)


def test_density_L_requires_strict_x():
    with pytest.raises(ValueError):
        density_L((1, 1), (1,))


@pytest.mark.parametrize("x", [(math.nan,), (1.0, math.nan), (1.0, math.nan, 3.0),
                               (-math.inf, 1.0), (1.0, math.inf), (math.inf,)])
def test_source_points_must_be_finite(x):
    with pytest.raises(ValueError, match="finite"):
        sample_L_many(x, 3, generator(0))


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


@pytest.mark.parametrize("kind", ["L", "lambda_eq", "lambda_plus"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
def test_paired_rows_match_one_row_forms_bit_for_bit(kind, n, alpha):
    # source rows with a target in or near each one's cell, a third of them at
    # y_1 = 0, where the alpha-links are infinite for alpha < 0
    rng = np.random.default_rng(116)
    m = 60
    xs = np.cumsum(rng.uniform(0.05, 2.0, size=(m, n if kind == "lambda_eq" else n + 1)), axis=1)
    lo, hi = link_cell(kind, xs)
    ys = np.sort(lo + rng.uniform(-0.1, 1.1, size=lo.shape) * (hi - lo), axis=1)
    ys[::3, 0] = 0.0
    ys = np.sort(ys, axis=1)
    params = KernelParams(alpha, n)
    rows, one_row = {
        "L": (lambda: density_L_rows(xs, ys), lambda x, y: density_L(x, y)),
        "lambda_eq": (lambda: density_lambda_eq_rows(alpha, xs, ys),
                      lambda x, y: density_lambda_eq(params, x, y)),
        "lambda_plus": (lambda: density_lambda_plus_rows(alpha, xs, ys),
                        lambda x, y: density_lambda_plus(params, x, y)),
    }[kind]
    values = rows()
    assert same_bits(values, [one_row(x, y) for x, y in zip(xs, ys)])
    at_zero = np.zeros(m, dtype=bool)
    at_zero[::3] = in_cell(ys[::3], lo[::3], hi[::3])
    assert np.all((values[at_zero] == math.inf) == (kind != "L" and alpha < 0))
    assert np.count_nonzero(np.isfinite(values) & (values > 0)) >= m // 4


def test_paired_rows_refuse_a_row_count_mismatch():
    xs = np.array([_GOOD, _GOOD])
    for call in (lambda: density_L_rows(xs, np.ones((3, 2))),
                 lambda: density_lambda_eq_rows(0.5, xs, np.ones((1, 3))),
                 lambda: density_lambda_plus_rows(0.5, xs, np.empty((0, 2)))):
        with pytest.raises(ValueError, match="row-count mismatch: 2 source rows"):
            call()


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


def test_kernel_params_dimension_must_match_x():
    # lambda_plus maps dimension N + 1 to N, lambda_eq maps N to N
    rng = generator(111)
    state = rng.bit_generator.state
    for call in (lambda: density_lambda_plus(KernelParams(0.0, 9), (1, 2), (1.5,)),
                 lambda: density_lambda_eq(KernelParams(0.0, 2), (1.0,), (0.5,)),
                 lambda: sample_lambda_plus_many(KernelParams(0.0, 5), (1.0, 2.0), 3, rng),
                 lambda: sample_lambda_eq_many(KernelParams(0.0, 1), (1.0, 2.0), 3, rng)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()
    assert rng.bit_generator.state == state  # refused before any draw


class _CountingRng:
    """A generator that records the size of every uniform draw."""

    def __init__(self, seed):
        self.rng, self.sizes = generator(seed), []

    def uniform(self, size):
        self.sizes.append(size)
        return self.rng.uniform(size=size)


_CLOSE = np.nextafter(np.nextafter(1.3, 2.0), 2.0)


def test_cell_rejection_refuses_a_row_no_proposal_can_pass():
    # lo = hi with a tie in row 2: every proposal has Vdm(y) = 0 there
    lo = np.array([[0.5, 1.0], [0.5, 1.0], [1.0, 1.0]])
    rng = _CountingRng(112)
    with pytest.raises(ValueError, match="row 2: coordinates 1 and 2 .* pinned to 1.0$"):
        kernels._cell_rejection(lo, np.ones((3, 2)), 1.0, rng)
    assert rng.sizes == []
    # under y^0.1 two sources an ulp apart collapse to one float; the
    # refusal comes before the RETRY_CAP = 10**7 rounds, some 300 s
    x = np.array([[1.3, np.nextafter(1.3, 2.0), _CLOSE]])
    rng = generator(112)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="row 0: coordinates 2 and 3"):
        sample_lambda_eq_each(-0.9, x, rng)
    assert rng.bit_generator.state == state


def test_cell_rejection_stops_at_retry_cap(monkeypatch):
    monkeypatch.setattr(kernels, "RETRY_CAP", 3)
    # six coordinates proposed on one interval: Vdm(y) / env is a product of
    # 15 gaps under 1, so a valid row is all but never accepted
    rng = _CountingRng(112)
    with pytest.raises(RuntimeError, match="exceeded 3 attempts"):
        kernels._cell_rejection(np.zeros((4, 6)), np.ones((4, 6)), 1.0, rng)
    assert rng.sizes == [(4, 6), 4] * 3  # three rounds, each proposing every row
    # an N = 1 cell has an empty envelope: every row is accepted in the first round
    rng = _CountingRng(112)
    assert np.array_equal(kernels._cell_rejection(np.ones((4, 1)), np.ones((4, 1)), 1.0, rng),
                          np.ones((4, 1)))
    assert rng.sizes == [(4, 1), 4]


_ALPHAS = st.sampled_from([-0.9, -0.5, 0.0, 0.5, 2.0])


@st.composite
def _sampler_inputs(draw):
    """A seed, alpha, and m positive (m, N+1) sources for N in {1, 2, 3},
    different in every row, and a shift that moves some below 0."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.lists(st.floats(0.05, 2.0), min_size=n + 1, max_size=n + 1),
                         min_size=m, max_size=m))
    xs = np.cumsum(np.array(gaps), axis=1)
    return draw(st.integers(0, 2**32 - 1)), draw(_ALPHAS), xs, draw(st.floats(-5.0, 1.0))


def _outcome(sample, rng):
    try:
        return sample(rng)
    except (RuntimeError, ValueError) as stop:  # the round cap, or a refused cell
        return stop


def _same_draws(sample, ref, seed):
    """Equal draws, or the same round-cap error, and equal final states; a
    cell that no proposal can pass is refused where the reference runs to
    its cap."""
    rng, replay = generator(seed), generator(seed)
    ours, theirs = _outcome(sample, rng), _outcome(ref, replay)
    if isinstance(ours, ValueError):
        assert "no proposal can be accepted" in str(ours)
        assert isinstance(theirs, RuntimeError) and "exceeded" in str(theirs)
        return
    if isinstance(ours, RuntimeError):
        assert isinstance(theirs, RuntimeError)
        assert "exceeded" in str(ours) and "exceeded" in str(theirs)
    else:
        assert same_bits(ours, theirs)
    assert rng.bit_generator.state == replay.bit_generator.state


@hypothesis.given(_sampler_inputs())
def test_cell_rejection_draws_as_the_callback_samplers(inputs):
    # the one cell routine consumes the stream and draws the bits of the
    # samplers that each had their own proposal and ratio callbacks, and the
    # (N+1 -> N) alpha-link those of its version with the interior-repair loop
    seed, alpha, xs, shift = inputs
    xs_eq = xs[:, :-1]
    _same_draws(lambda g: sample_L_each(xs + shift, g),
                lambda g: ref_sample_L_each(xs + shift, g), seed)
    _same_draws(lambda g: sample_lambda_eq_each(alpha, xs_eq, g),
                lambda g: ref_sample_lambda_eq_each(alpha, xs_eq, g), seed)
    _same_draws(lambda g: sample_lambda_plus_each(alpha, xs, g),
                lambda g: ref_sample_lambda_plus_each(alpha, xs, g), seed)


@st.composite
def _one_source(draw):
    """A seed, alpha, a row count and one positive source of dimension N+1,
    N in {1, 2, 3}, whose neighbours are either 1-3 ulps or 0.05-2 apart."""
    x = [draw(st.floats(0.05, 5.0))]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x.append(x[-1] + draw(st.floats(0.05, 2.0)))
        else:
            x.append(float(np.nextafter(x[-1], math.inf)))
            for _ in range(draw(st.integers(0, 2))):
                x[-1] = float(np.nextafter(x[-1], math.inf))
    return draw(st.integers(0, 2**32 - 1)), draw(_ALPHAS), np.array(x), draw(st.integers(1, 40))


@hypothesis.given(_one_source())
@hypothesis.example((0, -0.9, np.array([1.3, np.nextafter(1.3, 2.0), _CLOSE, 2.0]), 3))
def test_path_b_draws_as_the_many_samplers(inputs):
    # path B of the two-path checks pushes m copies of one source through
    # verify._push; it draws the bits that the per-link sample_*_many drew.
    # Under y^(alpha+1) with alpha near -1, coordinates an ulp or two apart
    # can collapse a cell so that no row is ever accepted: the samplers
    # refuse it, where the reference runs to its (here low) round cap.
    seed, alpha, x, m = inputs
    cap = 200
    for kind, x_k, ref in (("L", x, ref_sample_L_each),
                           ("lambda_eq", x[:-1], partial(ref_sample_lambda_eq_each, alpha)),
                           ("lambda_plus", x, partial(ref_sample_lambda_plus_each, alpha))):
        rows = np.tile(x_k, (m, 1))
        with mock.patch.object(kernels, "RETRY_CAP", cap):
            _same_draws(lambda g: _push(kind, alpha, rows, g),
                        lambda g: ref(rows, g, retry_cap=cap), seed)


_GOOD = (1.0, 2.0, 3.0)
# (case, source): every link refuses the first six, and the alpha-links also the
# last two (x_1 > 0); as a sampler's row 1, after a good row 0, the error names it
_BAD_SOURCES = [("nan", (1.0, math.nan, 3.0)), ("inf", (1.0, 2.0, math.inf)),
                ("-inf", (-math.inf, 1.0, 2.0)), ("descending", (3.0, 2.0, 1.0)),
                ("tied", (1.0, 1.0, 3.0)), ("all tied", (1.0, 1.0, 1.0)),
                ("x_1 = 0", (0.0, 1.0, 2.0)), ("x_1 < 0", (-1.0, 1.0, 2.0))]
_EACH = {"L": sample_L_each,
         "lambda_eq": partial(sample_lambda_eq_each, 0.5),
         "lambda_plus": partial(sample_lambda_plus_each, 0.5)}
_ROWS = {"L": density_L_rows,
         "lambda_eq": partial(density_lambda_eq_rows, 0.5),
         "lambda_plus": partial(density_lambda_plus_rows, 0.5)}
_TARGET_DIM = {"L": 2, "lambda_eq": 3, "lambda_plus": 2}  # from a source of dimension 3


def _cases(kinds):
    return [pytest.param(kind, x, id=f"{kind}-{case}") for kind in kinds
            for case, x in _BAD_SOURCES if kind != "L" or not case.startswith("x_1")]


@pytest.mark.parametrize("kind,x", _cases(_EACH))
def test_row_samplers_refuse_a_bad_source_row_before_any_draw(kind, x, monkeypatch):
    # a row that can never be accepted ran to RETRY_CAP rounds; at 3 it fails fast
    monkeypatch.setattr(kernels, "RETRY_CAP", 3)
    rng = generator(113)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"x must be .* in row 1$"):
        _EACH[kind](np.array([_GOOD, x]), rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("kind,x", _cases(_ROWS))
def test_row_densities_refuse_a_bad_source(kind, x):
    with pytest.raises(ValueError, match="x must be"):
        _ROWS[kind](x, np.ones((1, _TARGET_DIM[kind])))


@pytest.mark.parametrize("kind", _EACH)
def test_links_refuse_a_source_of_the_wrong_shape(kind):
    rng = generator(114)
    state = rng.bit_generator.state
    ys = np.ones((1, _TARGET_DIM[kind]))
    for call, message in ((lambda: _EACH[kind](np.array(_GOOD), rng), r"as \(m, N\) rows"),
                          (lambda: _EACH[kind](np.empty((2, 0)), rng), "dimension >= "),
                          (lambda: _ROWS[kind](np.array([_GOOD, _GOOD]), ys), "row-count"),
                          (lambda: _ROWS[kind](np.ones((1, 1, 3)), ys), "takes its source as"),
                          (lambda: _ROWS[kind]((), np.empty((1, 0))), "dimension >= ")):
        with pytest.raises(ValueError, match=message):
            call()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sample", [sample_lambda_eq_each, sample_lambda_plus_each])
def test_alpha_samplers_refuse_alpha_before_any_draw(sample):
    rng = generator(115)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="alpha=-2.0 must be > -1"):
        sample(-2.0, np.array([_GOOD]), rng)
    assert rng.bit_generator.state == state


@hypothesis.given(_link_inputs())
def test_in_cell_matches_the_density_masks(inputs):
    kind, _, x, pts = inputs
    expected = ref_cell_mask(kind, x, pts)
    assert np.array_equal(in_cell(pts, *link_cell(kind, x)), expected)
    # a cell per row: the same source repeated gives the same verdicts
    assert np.array_equal(in_cell(pts, *link_cell(kind, np.tile(x, (len(pts), 1)))), expected)

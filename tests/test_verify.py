import math
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import intertwine.verify as verify
from intertwine.chamber import BoundaryPoint, embed_boundary, gamma_bar
from intertwine.rng import child_seed, generator, named_seed
from intertwine.verify import (TestReport, apply_generator_1d, check_consistency,
                               check_h_constants, check_h_transform_identities,
                               check_intertwine_laguerre, check_invariance_pickrell,
                               check_kernel_normalization, check_vandermonde_eigen,
                               energy_perm_test, flow_start_profile,
                               generator_drift_coeffs, interiorize_rows,
                               quad_1d, quad_cell)

from helpers import energy_draws, energy_vstat, mean_distance


@hypothesis.given(st.floats(0, 1), st.floats(0.001, 0.2))
def test_report_statistical_invariant(p_value, threshold):
    rep = TestReport.statistical("toy", 0.1, p_value, threshold)
    assert rep.passed == (p_value > threshold)


@hypothesis.given(st.floats(0, 10), st.floats(0, 10))
def test_report_deterministic_invariant(stat, threshold):
    rep = TestReport.deterministic("toy", stat, threshold)
    assert rep.passed == (stat <= threshold)


def test_quad_1d_examples():
    assert quad_1d(lambda x: x, 0, 1, tol=1e-12) == pytest.approx(0.5, abs=1e-10)
    val = quad_1d(lambda y: math.log(2 / max(1.0, y)), 0, 2, tol=1e-10, points=[1.0])
    assert val == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        quad_1d(lambda x: x, 1, 0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5, 2.0, -0.5])
@pytest.mark.parametrize("k", [16, 32])
def test_reference_rule_is_gauss_for_its_weight(k, alpha):
    from scipy.special import roots_jacobi, roots_legendre

    t, w = verify._reference_rule(k, alpha)
    # the rule times (1+t)^alpha integrates polynomials of degree < 2k exactly
    for j in range(2 * k):
        exact = 2.0 ** (alpha + j + 1.0) / (alpha + j + 1.0)
        assert abs(np.sum(w * (1.0 + t) ** (alpha + j)) - exact) <= 1e-13 * exact
    if alpha == 0.0:
        t_ref, w_ref = roots_legendre(k)
    else:
        t_ref, w_ref = roots_jacobi(k, 0.0, alpha)
        w_ref = w_ref / (1.0 + t_ref) ** alpha
    assert np.max(np.abs(t - t_ref)) <= 1e-14
    assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-11
    assert not t.flags.writeable and not w.flags.writeable


def test_quad_cell_triangle():
    # area of {0 < y1 < y2 < 1} is 1/2
    q = quad_cell(lambda ys: np.ones(len(ys)), ((0.0, 0.0), (1.0, 1.0)), tol=1e-9)
    assert q.value == pytest.approx(0.5, abs=1e-8)
    # y2 >= 1/2 too: the inner range turns at y1 = lo_2, which is cut without a break
    q = quad_cell(lambda ys: np.ones(len(ys)), ((0.0, 0.5), (1.0, 1.0)), tol=1e-12)
    assert q.value == pytest.approx(0.375, abs=1e-14)


def test_quad_cell_raises_on_undeclared_jump():
    # {2 y1 < 0.6, y2 < 0.6} inside the cell {0 < y1 < 1/2, y1 < y2 < 1}: a jump
    # in y1 at 0.3 and in y2 at 0.6; the area is int_0^0.3 (0.6 - y1) dy1 = 0.135
    def step(ys):
        return ((2.0 * ys[:, 0] < 0.6) & (ys[:, 1] < 0.6)).astype(float)

    cell = ((0.0, 0.0), (0.5, 1.0))
    with pytest.raises(RuntimeError, match="did not converge"):
        quad_cell(step, cell, tol=1e-12, breaks=(0.6,))
    q = quad_cell(step, cell, tol=1e-12, breaks=(0.3, 0.6))
    assert q.value == pytest.approx(0.135, abs=1e-14) and q.err <= 1e-12


def test_energy_test_identical_sets():
    x = np.linspace(0, 1, 200)[:, None]
    rep = energy_perm_test(x, x.copy(), 99, generator(1))
    assert abs(rep.statistic) < 1e-12
    assert rep.p_value > 0.5
    assert rep.passed


def test_energy_test_detects_shift():
    rng = generator(2)
    a = rng.uniform(0, 1, size=1000)
    b = rng.uniform(0.5, 1.5, size=1000)
    rep = energy_perm_test(a, b, 1999, generator(3))
    assert rep.p_value < 0.001
    assert not rep.passed


def test_energy_test_requires_min_size():
    with pytest.raises(ValueError):
        energy_perm_test(np.ones(50), np.ones(200), 99, generator(0))
    # 1/(n_perm+1) above the threshold: the test could never fail
    with pytest.raises(ValueError, match="n_perm=10"):
        energy_perm_test(np.ones(200), np.zeros(200), 10, generator(0))
    with pytest.raises(ValueError, match="n_perm=0"):
        energy_perm_test(np.ones(200), np.zeros(200), 0, generator(0))
    rng = generator(0)
    with pytest.raises(ValueError, match="n_perm=10"):
        check_intertwine_laguerre(0.0, 1, (1.0, 2.0), 0.5, 20_000, 1e-3, 1, n_perm=10,
                                  alpha_mismatch=2.0)
    rep = energy_perm_test(np.ones(200), np.zeros(200), 99, rng)
    assert rep.p_value == 0.01 and not rep.passed


def test_energy_test_refuses_non_finite_rows():
    data = generator(30)
    a = data.normal(size=(200, 2))
    b = data.normal(size=(3000, 2))
    rng = generator(31)
    state = rng.bit_generator.state
    # in 1-D one inf row made the observed and every permuted statistic inf,
    # so the test passed with p = 1 although b is shifted by 5
    with pytest.raises(ValueError, match="1 of the 201 rows of sample a are not finite"):
        energy_perm_test(np.r_[a[:, 0], np.inf], b[:, 0] + 5.0, 99, rng)
    # in d >= 2 the statistic came out NaN and the test failed at the floor p
    b_bad = b.copy()
    b_bad[[3, 2999], 0] = np.nan
    b_bad[5] = -np.inf
    with pytest.raises(ValueError, match="3 of the 3000 rows of sample b are not finite"):
        energy_perm_test(a, b_bad, 99, rng)
    # refused before any draw: subsampling b would have drawn from rng
    assert rng.bit_generator.state == state
    assert energy_perm_test(a, b, 99, rng).passed


def test_energy_test_subsamples_large_inputs():
    rng = generator(4)
    a = rng.normal(size=6000)
    b = rng.normal(size=6000)
    rep = energy_perm_test(a, b, 99, generator(5), max_points=500)
    assert rep.meta["n_a_used"] == 500 and rep.meta["n_a"] == 6000
    assert rep.passed


def test_energy_test_calibration():
    # under the null the rejection rate at level 0.05 is binomial(0.05)
    rng = generator(6)
    rejections = 0
    n_rep = 300
    for k in range(n_rep):
        a = rng.normal(size=150)
        b = rng.normal(size=150)
        rep = energy_perm_test(a, b, 199, generator(child_seed(7, k)), threshold=0.05)
        rejections += not rep.passed
    rate = rejections / n_rep
    sigma = math.sqrt(0.05 * 0.95 / n_rep)
    assert abs(rate - 0.05) <= 3 * sigma


@hypothesis.settings(max_examples=30)
@hypothesis.given(d=st.sampled_from([1, 2, 3]), na=st.integers(100, 220),
                  nb=st.integers(100, 220), max_points=st.integers(100, 250),
                  grid=st.booleans(), shift=st.sampled_from([0.0, 0.3]),
                  seed=st.integers(0, 2**31))
def test_energy_test_matches_brute_force_oracle(d, na, nb, max_points, grid, shift, seed):
    data = generator(seed)
    a = data.normal(size=(na, d))
    b = data.normal(size=(nb, d)) + shift
    if grid:  # half-integer values: many repeats, and zero gaps in 1-D
        a, b = np.round(2.0 * a) / 2.0, np.round(2.0 * b) / 2.0
    n_perm = 99
    rep = energy_perm_test(a, b, n_perm, generator(seed + 1), max_points=max_points)
    sub_a, sub_b, perms = energy_draws(na, nb, n_perm, generator(seed + 1), max_points)
    a_used = a if sub_a is None else a[sub_a]
    b_used = b if sub_b is None else b[sub_b]
    assert (rep.meta["n_a_used"], rep.meta["n_b_used"]) == (len(a_used), len(b_used))
    pooled = np.vstack([a_used, b_used])
    # relative 1e-10, with a floor far below the float64 cancellation scale of
    # the oracle's own three means for statistics that cancel to about 0
    tol = 1e-13 * mean_distance(pooled, pooled)
    want = energy_vstat(a_used, b_used)
    assert rep.statistic == pytest.approx(want, rel=1e-10, abs=tol)
    if len(pooled) > 300:
        return
    labels = np.zeros((n_perm + 1, len(pooled)), dtype=bool)
    labels[0, :len(a_used)] = True
    for row, idx in zip(labels[1:], perms):
        row[idx] = True
    got = verify._energy_stats(pooled, labels, len(a_used), len(b_used))
    oracle = np.array([energy_vstat(pooled[idx], np.delete(pooled, idx, axis=0))
                       for idx in perms])
    assert got[0] == rep.statistic
    assert got[1:] == pytest.approx(oracle, rel=1e-10, abs=tol)
    # the oracle's count, up to permutations that tie the observed statistic
    count = round(rep.p_value * (n_perm + 1)) - 1
    assert (oracle > want + tol).sum() <= count <= (oracle >= want - tol).sum()


@pytest.mark.parametrize("d", [1, 2])
def test_energy_test_memory_and_stream(d):
    data = generator(20 + d)
    a = data.normal(size=(4000, d))
    b = data.normal(size=(4000, d))
    rng = generator(9)
    tracemalloc.start()
    try:
        energy_perm_test(a, b, 300, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no n x n array: the 4,096-point float64 distance matrix alone is 134 MB
    assert peak < 64e6
    replay = generator(9)
    energy_draws(4000, 4000, 300, replay, 2048)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_apply_generator_1d():
    assert apply_generator_1d(1.0, 0.0, 2, [1.0], 0.7) == 0.0
    # f = x: (2 - 2N - s) x + alpha + 1
    s, alpha, n = 1.5, 0.3, 2
    x = 0.9
    assert apply_generator_1d(s, alpha, n, [0.0, 1.0], x) == pytest.approx(
        (2 - 2 * n - s) * x + alpha + 1)
    # power rule: the conjugating power x^alpha is an eigenfunction of the
    # shifted-parameter generator with eigenvalue d = -alpha(2N+s+alpha-1)
    from intertwine.verify import _PowerForm, h_transform_constants
    for s, alpha, n in [(1.0, 0.5, 1), (2.0, 1.3, 3), (-0.5, 0.9, 2)]:
        f = _PowerForm(alpha, 0.0, [1.0])
        lf = f.apply_generator(s + 2 * alpha - 2.0, -alpha, n + 1)
        _, d = h_transform_constants(s, alpha, n)
        for x in (0.3, 1.0, 2.7):
            assert lf(x) == pytest.approx(d * x**alpha, rel=1e-12)


def test_vandermonde_eigen_hand_cases():
    pts1 = [np.array([1.7])]
    rep = check_vandermonde_eigen(2.0, 0.5, 1, pts1)
    assert rep.passed and rep.meta["eigenvalue"] == 0.0
    pts2 = [np.array([0.5, 2.0]), np.array([1.0, 4.0])]
    rep2 = check_vandermonde_eigen(1.0, 0.0, 2, pts2)
    assert rep2.passed
    assert rep2.meta["eigenvalue"] == pytest.approx(-3.0)  # N(N-1)(-4N+2-3s)/6


def test_h_transform_identities_pass():
    rng = generator(9)
    for s, alpha, n in [(1.0, 0.5, 2), (-0.5, 1.5, 3), (2.0, 0.0, 1)]:
        rep = check_h_transform_identities(s, alpha, n, rng.uniform(0.1, 5.0, 30))
        assert rep.passed, rep.to_dict()
    rep = check_h_constants(10)
    assert rep.passed


def test_alpha_zero_generator_coefficient_identity():
    # the two-level generators coincide after the stated parameter shifts
    rng = generator(11)
    for _ in range(100):
        s = rng.uniform(-3, 3)
        alpha = rng.uniform(-0.9, 3)
        n = int(rng.integers(1, 10))
        left = generator_drift_coeffs(s + 2 * alpha, -alpha, n)
        right = generator_drift_coeffs(s + 2 * (alpha - 1), -alpha, n + 1)
        assert left == pytest.approx(right, abs=1e-12)


def test_normalization_reports():
    rep = check_kernel_normalization("lambda_eq", 0.0, (1.0, 2.0))
    assert rep.passed and rep.meta["mass"] == pytest.approx(1.0, abs=1e-6)
    assert 0 <= rep.meta["quad_err"] <= rep.threshold and rep.meta["n_eval"] > 0
    with pytest.raises(ValueError):
        check_kernel_normalization("nope", 0.0, (1.0, 2.0))


# integrand evaluations the identities suite's normalization cells take, per
# (kind, x); every alpha gives the same panels
_NORMALIZATION_N_EVAL = {("L", (1.0, 2.0)): 48, ("L", (0.5, 1.5, 3.0)): 1280,
                         ("lambda_eq", (1.0, 2.0)): 1280, ("lambda_plus", (1.0, 2.0)): 96,
                         ("lambda_plus", (0.5, 1.5, 3.0)): 5120}


@pytest.mark.parametrize("kind, x", list(_NORMALIZATION_N_EVAL))
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_normalization_bounds_from_the_cell(kind, x, alpha):
    # the identities suite's cases: the link's cell integrates to the mass 1
    # with the panels (and so the evaluation count) of the per-kind bounds it replaced
    rep = check_kernel_normalization(kind, alpha, x)
    assert rep.meta["n_eval"] == _NORMALIZATION_N_EVAL[kind, x]
    assert abs(rep.meta["mass"] - 1.0) <= 1e-12


def test_interiorize_rows():
    rows = np.array([[0.0, 1.0], [2.0, 2.0], [3.0, 1.0]])
    fixed = interiorize_rows(rows)
    assert np.all(fixed[:, 0] > 0)
    assert np.all(np.diff(fixed, axis=1) > 0)
    # already-interior rows pass through unchanged
    clean = np.array([[0.5, 1.5]])
    assert np.array_equal(interiorize_rows(clean), clean)


def test_flow_start_profile_embedding():
    omega = BoundaryPoint((0.5,), 1.0)
    x0 = flow_start_profile(omega, 20)
    emb = embed_boundary(np.sort(x0))
    assert emb.gamma == pytest.approx(1.0, rel=1e-9)
    assert emb.alphas[0] == pytest.approx(0.5, rel=1e-6)
    assert gamma_bar(emb) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        flow_start_profile(BoundaryPoint((0.1, 0.1), 0.2), 1)


def test_intertwine_trivial_at_t0():
    rep = check_intertwine_laguerre(0.0, 1, (1.0, 2.0), 0.0, 600, 1e-3, 12, n_perm=199)
    assert rep.passed, rep.to_dict()


def test_invariance_trivial_at_t0():
    rep = check_invariance_pickrell(1.0, 0.0, 1, 0.0, 600, 1e-3, 13, n_perm=199)
    assert rep.passed, rep.to_dict()


def test_consistency_rejects_unknown_identity():
    with pytest.raises(ValueError):
        check_consistency("sideways", 1.0, 0.0, 1, 600, 14)


def test_named_seed_stability():
    assert named_seed(0, "abc") == named_seed(0, "abc")
    assert named_seed(0, "abc") != named_seed(0, "abd")
    assert named_seed(1, "abc") != named_seed(0, "abc")

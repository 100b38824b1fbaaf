import itertools
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from intertwine import verify
from intertwine.branching import (JacobiParams, _lgamma, _link_cdf, coef_A, coef_B,
                                  coef_c, compare_scaling_limit,
                                  jacobi_p, jacobi_p_at_one, kernel_row,
                                  leading_k, log_coef_B, log_coef_c,
                                  log_mv_jacobi_at_one, mv_jacobi,
                                  mv_jacobi_at_one)
from intertwine.chamber import Partition
from intertwine.kernels import (KernelParams, density_lambda_plus_rows,
                                sample_lambda_plus_many)
from intertwine.rng import generator

from helpers import partitions_up_to

P00 = JacobiParams(0.0, 0.0)


def test_lgamma_matches_scipy_gammaln():
    from scipy.special import gammaln

    # the arguments branching takes: alpha, beta > -1 shifted by degrees and
    # parts up to a few thousand, integers and half-integers included
    rng = generator(11)
    v = np.concatenate([rng.uniform(1e-3, 2.0, 2000), rng.uniform(2.0, 2500.0, 2000),
                        np.arange(1.0, 2500.0), np.arange(0.5, 2500.0)])
    got = _lgamma(v)
    assert got.shape == v.shape
    assert np.all(np.abs(got - gammaln(v)) <= 2e-15 * np.maximum(1.0, np.abs(gammaln(v))))
    # the scalar path takes Python and numpy floats and ints, and 0-d arrays the array one
    for x in (0.5, 3, np.float64(17.5), 1234.5):
        assert _lgamma(x) == pytest.approx(float(gammaln(x)), rel=2e-15, abs=2e-15)
    assert _lgamma(np.array(2.5)).shape == () and _lgamma(v[:1000].reshape(2, -1)).shape == (2, 500)
    # +inf at the poles, as gammaln
    for pole in (0.0, -1, -3.0, np.array([0.0, -2.0])):
        assert np.all(np.isinf(_lgamma(pole))) and np.all(np.isinf(gammaln(pole)))


def test_jacobi_p_basics():
    xs = np.linspace(-1, 1, 7)
    assert np.allclose(jacobi_p(0, P00, xs), 1.0)
    assert jacobi_p_at_one(1, JacobiParams(2.0, 0.0)) == pytest.approx(3.0)
    # orthogonality of degrees 1 and 2 under the flat weight
    val, _ = quad(lambda x: jacobi_p(1, P00, x) * jacobi_p(2, P00, x), -1, 1)
    assert abs(val) < 1e-8


def test_jacobi_p_at_one_against_recurrence():
    for params in (P00, JacobiParams(1.5, 0.3), JacobiParams(-0.5, 2.0)):
        for n in range(31):
            direct = jacobi_p(n, params, 1.0)
            closed = jacobi_p_at_one(n, params)
            assert abs(direct - closed) < 1e-10 * max(1.0, abs(closed))
    assert jacobi_p_at_one(0, P00) == 1.0
    assert jacobi_p_at_one(2, P00) == pytest.approx(1.0)


def test_leading_coefficient():
    assert leading_k(0, P00) == 1.0
    assert leading_k(1, P00) == pytest.approx(1.0)
    for params in (P00, JacobiParams(0.7, 1.2)):
        for n in range(11):
            # exact polynomial fit recovers the top coefficient
            xs = np.cos(np.pi * np.arange(n + 1) / max(n, 1)) if n else np.array([0.0])
            coeffs = np.polynomial.polynomial.polyfit(xs, jacobi_p(n, params, xs), n)
            assert coeffs[-1] == pytest.approx(leading_k(n, params), rel=1e-8)


def test_mv_jacobi_small_cases():
    assert mv_jacobi(Partition(()), np.array([0.3]), P00) == pytest.approx(1.0)
    for m in range(4):
        assert mv_jacobi(Partition((m,)), np.array([0.42]), P00) == pytest.approx(
            jacobi_p(m, P00, 0.42))
    with pytest.raises(ValueError):
        mv_jacobi(Partition((1, 0)), np.array([0.5, 0.5 + 1e-8]), P00)


def test_mv_jacobi_symmetric_in_arguments():
    rng = generator(501)
    params = JacobiParams(0.8, 0.2)
    for _ in range(10):
        xs = rng.uniform(-0.9, 0.9, size=3)
        while np.min(np.diff(np.sort(xs))) < 1e-3:
            xs = rng.uniform(-0.9, 0.9, size=3)
        base = mv_jacobi(Partition((2, 1)), xs, params)
        for perm in itertools.permutations(range(3)):
            val = mv_jacobi(Partition((2, 1)), xs[list(perm)], params)
            assert val == pytest.approx(base, rel=1e-9)


def test_mv_jacobi_at_one_reductions():
    for m in range(5):
        assert mv_jacobi_at_one(Partition((m,)), 1, P00) == pytest.approx(
            jacobi_p_at_one(m, P00))
    assert mv_jacobi_at_one(Partition((2,)), 1, P00) == pytest.approx(1.0)


def richardson_at_one(lam, n, params, eps=2e-2, levels=4):
    def val(e):
        xs = np.array([1.0 - e * k for k in range(n)])
        return mv_jacobi(lam, xs, params)
    if n == 1:
        return val(0.0)
    table = [val(eps / 2**i) for i in range(levels)]
    fac = 2.0
    while len(table) > 1:
        table = [(fac * table[i + 1] - table[i]) / (fac - 1) for i in range(len(table) - 1)]
        fac *= 2.0
    return table[0]


@pytest.mark.parametrize("params", [P00, JacobiParams(1.0, 0.5)])
def test_mv_jacobi_at_one_matches_determinant_limit(params):
    for n in (1, 2, 3):
        for lam in partitions_up_to(4, n):
            closed = mv_jacobi_at_one(lam, n, params)
            est = richardson_at_one(lam, n, params)
            assert abs(est - closed) < 1e-6 * max(1.0, abs(closed)), (lam, n)


def test_coef_examples():
    assert coef_c(Partition(()), 1, 0.0) == pytest.approx(1.0)
    assert coef_c(Partition((1,)), 1, 1.0) == pytest.approx(0.5)
    assert coef_A(Partition(()), Partition(()), 1, P00) == 1.0
    # hand-computed flat-weight values: B(m, l) = (2l+1)/(m+1)
    assert coef_B(0, 0, P00) == pytest.approx(1.0)
    assert coef_B(1, 0, P00) == pytest.approx(0.5)
    assert coef_B(1, 1, P00) == pytest.approx(1.5)


@hypothesis.given(st.integers(0, 12), st.integers(0, 12),
                  st.floats(min_value=0, max_value=3), st.floats(min_value=0, max_value=3))
def test_branching_weights_positive(m, l, a, b):
    assert coef_B(m, l, JacobiParams(a, b)) > 0.0


def test_branching_identity_against_determinants():
    # the two-step expansion of the polynomial with last argument pinned at 1
    rng = generator(502)
    for params in (P00, JacobiParams(1.0, 0.5), JacobiParams(-0.4, 0.6)):
        for lam_parts in [(0, 0), (1, 0), (2, 1), (2, 2), (1, 1, 0), (2, 1, 0), (3, 1, 1)]:
            lam = Partition(lam_parts)
            n = lam.length
            xs_head = np.sort(rng.uniform(-0.9, 0.9, size=n - 1))[::-1]
            lhs = mv_jacobi(lam, np.concatenate([xs_head, [1.0]]), params)
            rhs = 0.0
            lam_p = lam.padded(n)
            mu_boxes = [range(lam_p[i + 1], lam_p[i] + 1) for i in range(n - 1)]
            for mu in itertools.product(*mu_boxes):
                if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
                    continue
                nu_boxes = [range(mu[i + 1] if i + 1 < n - 1 else 0, mu[i] + 1)
                            for i in range(n - 1)]
                for nu in itertools.product(*nu_boxes):
                    if any(nu[i] < nu[i + 1] for i in range(len(nu) - 1)):
                        continue
                    rhs += (coef_c(Partition(nu), n - 1, params.alpha)
                            / coef_c(lam, n, params.alpha)
                            * coef_A(Partition(mu), Partition(nu), n, params)
                            * mv_jacobi(Partition(nu), xs_head, params))
            assert rhs == pytest.approx(lhs, rel=1e-8), (lam_parts, params)


def test_discrete_kernel_zero_partition():
    targets, probs = kernel_row(Partition((0, 0)), 1, P00)
    table = {t.parts: p for t, p in zip(targets, probs)}
    assert table[(0,)] == pytest.approx(1.0)
    assert all(p == pytest.approx(1.0) or p == 0.0 for p in probs)


def test_discrete_kernel_hand_computed_row():
    # lambda = (1, 0), flat weight: both targets carry probability 1/2
    targets, probs = kernel_row(Partition((1, 0)), 1, P00)
    table = {t.parts: p for t, p in zip(targets, probs)}
    assert table == pytest.approx({(0,): 0.5, (1,): 0.5})
    # (5,) does not interlace (2, 0), so it is no target
    targets, _ = kernel_row(Partition((2, 0)), 1, P00)
    assert [t.parts for t in targets] == [(0,), (1,), (2,)]


def test_row_sums_are_one():
    for params in (P00, JacobiParams(1.0, 1.0), JacobiParams(0.0, 1.0)):
        for n in (1, 2):
            for lam in partitions_up_to(6, n + 1):
                _, probs = kernel_row(lam, n, params)
                assert abs(probs.sum() - 1.0) < 1e-10, (lam, n, params)


def test_kernel_row_matches_vectorized_1d():
    # at N = 1 each target (k,) sums B(m, k) over m in [max(k, l2), l1], and
    # c_nu P_nu(1_1) = 1 for one-part nu, so only lambda's factors remain
    params = JacobiParams(1.0, 0.5)
    lam = Partition((5, 2))
    l1, l2 = lam.padded(2)
    targets, probs = kernel_row(lam, 1, params)
    ks = np.arange(0, l1 + 1)
    ms = np.arange(0, l1 + 1)
    window = (ms[None, :] >= np.maximum(ks, l2)[:, None]) & (ms[None, :] <= l1)
    b_grid = np.exp(log_coef_B(ms[None, :], ks[:, None], params))
    fast = (np.where(window, b_grid, 0.0).sum(axis=1)
            * math.exp(-log_coef_c(lam, 2, params.alpha) - log_mv_jacobi_at_one(lam, 2, params)))
    assert [t.parts[0] if t.parts else 0 for t in targets] == list(ks)
    assert probs == pytest.approx(fast, rel=1e-12)


def test_two_step_regrouping_equals_kernel():
    # grouping the double branching sum by the intermediate partition must
    # reproduce the factored kernel evaluation, whose sums over mu are
    # differences of prefix sums
    for lam_parts, params in [
        ((3, 1, 0), JacobiParams(1.0, 0.0)),
        ((5, 2), JacobiParams(1.0, 0.5)),
        ((3, 2, 1, 0), JacobiParams(-0.4, 0.6)),
        # scaled, with the m-part of B decaying like m^-5: the windows of mu_i
        # lie deep in the prefix sums, and uncompensated sums miss by 6e-12
        ((30, 20, 10), JacobiParams(2.0, 3.0)),
    ]:
        lam = Partition(lam_parts)
        n = lam.length - 1
        targets, probs = kernel_row(lam, n, params)
        lam_p = lam.padded(n + 1)
        mus = [mu for mu in itertools.product(*[range(lam_p[i + 1], lam_p[i] + 1)
                                                for i in range(n)])
               if all(mu[i] >= mu[i + 1] for i in range(n - 1))]
        for t, p in zip(targets, probs):
            nu_p = t.padded(n)
            direct = 0.0
            for mu in mus:
                if any(nu_p[i] > mu[i] for i in range(n)):
                    continue
                if any(nu_p[i] < mu[i + 1] for i in range(n - 1)):
                    continue
                direct += coef_A(Partition(mu), t, n + 1, params)
            direct *= (coef_c(t, n, params.alpha) / coef_c(lam, n + 1, params.alpha)
                       * math.exp(log_mv_jacobi_at_one(t, n, params)
                                  - log_mv_jacobi_at_one(lam, n + 1, params)))
            assert direct == pytest.approx(p, rel=1e-12, abs=1e-15), (lam_parts, params, t)


def test_non_integral_partition_is_refused():
    # (2.5, 1) used to become (2, 1) and give that partition's row
    for call in (lambda: kernel_row((2.5, 1), 1, P00),
                 lambda: compare_scaling_limit((2.5, 1), 10, P00)):
        with pytest.raises(ValueError, match="non-integral"):
            call()


def test_scaling_limit_small_kappa():
    res = compare_scaling_limit(Partition((2, 1)), 50, P00)
    assert abs(res["row_mass"] - 1.0) < 1e-10
    assert res["sup_discrepancy"] < 0.05
    with pytest.raises(ValueError):
        compare_scaling_limit(Partition((2, 2)), 10, P00)
    with pytest.raises(ValueError):
        compare_scaling_limit(Partition((2, 1)), 2.5, P00)


def test_scaling_limit_two_dimensional():
    res = compare_scaling_limit(Partition((3, 2, 1)), 25, P00)
    assert abs(res["row_mass"] - 1.0) < 1e-9
    assert res["sup_discrepancy"] < 0.1
    # the discrepancy is the kernel's, so it decays like 1/kappa: 0.26 of the
    # kappa = 25 value at kappa = 100; an integrator error would stall it
    far = compare_scaling_limit(Partition((3, 2, 1)), 100, P00)
    assert far["sup_discrepancy"] <= 0.35 * res["sup_discrepancy"]
    # at kappa = 2 one grid point sits at 0, where the CDF is 0
    assert compare_scaling_limit(Partition((3, 2, 1)), 2, P00)["sup_discrepancy"] < 0.3


@pytest.mark.parametrize("alpha", [-0.5, 2.0])
def test_two_dimensional_cdf_matches_link_draws(alpha):
    # the continuous CDF of the N = 2 comparison, on its kappa = 25 grid,
    # against the empirical CDF of exact link draws
    x_sq = np.array([1.0, 4.0, 9.0])
    n = 200_000
    ys = sample_lambda_plus_many(KernelParams(alpha, 2), x_sq, n, generator(503))
    grid = np.linspace(0.0, 3.0, 13)[1:] - 0.5 / 25
    cdf = _link_cdf(alpha, x_sq, grid)
    for a_v, row in zip(grid, cdf):
        for b_v, p in zip(grid, row):
            emp = np.count_nonzero((ys[:, 0] <= a_v * a_v) & (ys[:, 1] <= b_v * b_v)) / n
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(emp - p) <= 4.5 * se + 1.5e-8, (alpha, a_v, b_v, emp, p)


def _cdf_per_node(alpha, x_sq, a_v, b_v):
    """P(sqrt(Y_1) <= a_v, sqrt(Y_2) <= b_v), a_v, b_v > 0, as one cubature of
    its own: the link's cell with its upper corner clipped to (a_v^2, b_v^2),
    and b_v^2 a break, since the inner range empties past y_1 = b_v^2."""
    b = b_v * b_v
    cell = ((0.0, x_sq[0]), (min(a_v * a_v, x_sq[1]), min(b, x_sq[2])))
    return verify.quad_cell(lambda ys: density_lambda_plus_rows(alpha, x_sq, ys), cell, 1.49e-8,
                            breaks=(*x_sq, b), alpha=alpha).value


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0])
def test_two_dimensional_grid_cdf_matches_per_node_cubature(alpha):
    x_sq = np.array([1.0, 4.0, 9.0])
    grid = np.linspace(0.0, 3.0, 13)[1:] - 0.5 / 25
    cdf = _link_cdf(alpha, x_sq, grid)
    ref = [[_cdf_per_node(alpha, x_sq, a_v, b_v) for b_v in grid] for a_v in grid]
    assert np.max(np.abs(cdf - ref)) <= 3e-8


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.0])
def test_one_dimensional_grid_cdf_matches_cubature_to_each_node(alpha):
    # the lattice midpoints of (2, 1) at kappa = 10, the last past sqrt(x_2) = 2
    x_sq = np.array([1.0, 4.0])
    grid = (np.arange(21) + 0.5) / 10
    cdf = _link_cdf(alpha, x_sq, grid)
    ref = [verify.quad_cell(lambda ys: density_lambda_plus_rows(alpha, x_sq, ys),
                            ((0.0,), (min(g * g, 4.0),)), 1.49e-8, breaks=(1.0,), alpha=alpha).value
           for g in grid]
    assert np.max(np.abs(cdf - ref)) <= 3e-8


@pytest.mark.parametrize("lam", [(2, 1), (3, 2, 1)])
def test_scaling_limit_makes_one_cubature(lam, monkeypatch):
    calls = []
    quad_cell = verify.quad_cell
    monkeypatch.setattr(verify, "quad_cell", lambda *a, **k: calls.append(1) or quad_cell(*a, **k))
    compare_scaling_limit(Partition(lam), 10, P00)
    assert len(calls) == 1


def test_jacobi_params_validation():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.5)
    # a non-finite exponent passed, and kernel_row returned NaN probabilities
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^alpha={bad} must be > -1"):
            JacobiParams(bad, 0.0)
        with pytest.raises(ValueError, match=f"^beta={bad} must be > -1"):
            JacobiParams(0.0, bad)
    assert JacobiParams(1.0, 2.0).sigma == pytest.approx(2.0)

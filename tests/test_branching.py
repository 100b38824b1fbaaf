import itertools
import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

from intertwine.branching import (JacobiParams, _cum_density_table, coef_A, coef_B, coef_c,
                                  compare_scaling_limit, discrete_kernel,
                                  jacobi_p, jacobi_p_at_one, kernel_row,
                                  leading_k, log_mv_jacobi_at_one, mv_jacobi,
                                  mv_jacobi_at_one)
from intertwine.chamber import Partition
from intertwine.rng import generator

from helpers import partitions_up_to, ref_density_lambda_plus

P00 = JacobiParams(0.0, 0.0)


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
    assert discrete_kernel(Partition((1, 0)), Partition((0,)), P00) == pytest.approx(0.5)
    assert discrete_kernel(Partition((1, 0)), Partition((1,)), P00) == pytest.approx(0.5)
    assert discrete_kernel(Partition((2, 0)), Partition((5,)), P00) == 0.0


def test_row_sums_are_one():
    for params in (P00, JacobiParams(1.0, 1.0), JacobiParams(0.0, 1.0)):
        for n in (1, 2):
            for lam in partitions_up_to(6, n + 1):
                _, probs = kernel_row(lam, n, params)
                assert abs(probs.sum() - 1.0) < 1e-10, (lam, n, params)


def test_kernel_row_matches_vectorized_1d():
    from intertwine.branching import _kernel_row_1d
    params = JacobiParams(1.0, 0.5)
    lam = Partition((5, 2))
    targets, probs = kernel_row(lam, 1, params)
    nus, fast = _kernel_row_1d(lam, params)
    table = dict(zip(nus, fast))
    for t, p in zip(targets, probs):
        assert p == pytest.approx(table[t.parts[0] if t.parts else 0], rel=1e-12)


def test_two_step_regrouping_equals_kernel():
    # grouping the double branching sum by the intermediate partition must
    # reproduce the factored kernel evaluation exactly
    params = JacobiParams(1.0, 0.0)
    lam = Partition((3, 1, 0))
    n = 2
    targets, probs = kernel_row(lam, n, params)
    lam_p = lam.padded(n + 1)
    for t, p in zip(targets, probs):
        nu_p = t.padded(n)
        direct = 0.0
        mu_boxes = [range(lam_p[i + 1], lam_p[i] + 1) for i in range(n)]
        for mu in itertools.product(*mu_boxes):
            if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
                continue
            if any(nu_p[i] > mu[i] for i in range(n)):
                continue
            if any(i + 1 < n and nu_p[i] < mu[i + 1] for i in range(n)):
                continue
            direct += (coef_c(t, n, params.alpha) / coef_c(lam, n + 1, params.alpha)
                       * coef_A(Partition(mu), t, n + 1, params)
                       * math.exp(log_mv_jacobi_at_one(t, n, params)
                                  - log_mv_jacobi_at_one(lam, n + 1, params)))
        assert direct == pytest.approx(p, rel=1e-12, abs=1e-15)


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


def test_cum_density_table_matches_scalar_loop():
    # the midpoint table behind the N = 2 comparison, against the per-point loop
    x_sq = np.array([1.0, 4.0, 9.0])
    m_cells = 120
    for alpha in (0.0, 0.5):
        cum, step = _cum_density_table(alpha, x_sq, m_cells)
        mids = (np.arange(m_cells) + 0.5) * (float(x_sq[-1]) / m_cells)
        dens = np.zeros((m_cells, m_cells))
        for i, y1 in enumerate(mids):
            for j in range(i, m_cells):
                dens[i, j] = ref_density_lambda_plus(alpha, x_sq, (y1, mids[j]))
        assert np.array_equal(cum, dens.cumsum(axis=0).cumsum(axis=1) * step * step)


def test_jacobi_params_validation():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.5)
    assert JacobiParams(1.0, 2.0).sigma == pytest.approx(2.0)

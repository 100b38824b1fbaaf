import math

import numpy as np
import pytest
from scipy import stats

from intertwine.diffusion import PickrellParams, SdeConfig, simulate_laguerre_paths
from intertwine.ensembles import (jacobi_ensemble_density_unnorm, jacobi_map,
                                  jacobi_map_inverse, laguerre_density_unnorm,
                                  pickrell_density_unnorm, sample_laguerre_many, sample_pickrell)
from intertwine.rng import generator
from intertwine.verify import energy_perm_test, quad_cell

from helpers import (ref_laguerre_log_density_rows, ref_logspace_rw_chain,
                     ref_pickrell_log_density_rows)


def laguerre_chain(alpha, n, n_samples, rng):
    return ref_logspace_rw_chain(lambda rows: ref_laguerre_log_density_rows(alpha, rows),
                                 n, n_samples, rng)[0]


def test_pickrell_density_examples():
    p = PickrellParams(1.0, 0.0, 1)
    # N = 1, alpha = 0: density prop. to (1+x)^(-2-s)
    assert pickrell_density_unnorm(p, (1.0,)) == pytest.approx(2.0 ** (-3.0))
    p2 = PickrellParams(1.0, 0.5, 2)
    assert pickrell_density_unnorm(p2, (1.0, 1.0)) == 0.0
    assert pickrell_density_unnorm(p2, (1.0, 2.0)) > 0.0


def test_pickrell_exact_sampler_matches_cdf():
    rng = generator(401)
    p = PickrellParams(1.0, 0.0, 1)
    x = sample_pickrell(p, 10_000, rng)
    assert stats.kstest(x.ravel(), lambda v: 1 - (1 + v) ** -2.0).pvalue > 0.01
    assert abs(np.median(x) - (math.sqrt(2) - 1)) < 0.02
    assert np.all(x > 0)


def test_pickrell_sampler_rejects_infinite_mass():
    with pytest.raises(ValueError):
        sample_pickrell(PickrellParams(-1.0, 0.0, 1), 10, generator(0))


@pytest.mark.parametrize("s, alpha", [(1.0, 0.0), (1.0, 1.0), (0.3, -0.5)])
def test_pickrell_n1_is_a_beta_law_under_the_jacobi_map(s, alpha):
    # N = 1: x = g_(alpha+1) / g_(s+1), so u = x/(1+x) ~ Beta(alpha+1, s+1)
    x = sample_pickrell(PickrellParams(s, alpha, 1), 10_000, generator(440))
    u = jacobi_map(x.ravel())
    assert stats.kstest(u, "beta", args=(alpha + 1.0, s + 1.0)).pvalue > 0.01


@pytest.mark.parametrize("s, alpha, n", [(1.5, 0.7, 2), (1.0, 1.0, 3), (1.0, 0.0, 2),
                                         (0.3, -0.5, 2)])
def test_pickrell_matrix_f_matches_the_log_space_chain(s, alpha, n):
    # the chain is an independent route to the same law; its draws are
    # thinned but not i.i.d., so this only indicates agreement
    params = PickrellParams(s, alpha, n)
    exact, info = sample_pickrell(params, 2000, generator(441), return_info=True)
    assert info == {"method": "matrix-f"}
    assert np.array_equal(exact, sample_pickrell(params, 2000, generator(441)))
    chain, _ = ref_logspace_rw_chain(lambda rows: ref_pickrell_log_density_rows(params, rows),
                                     n, 2000, generator(442))
    rep = energy_perm_test(np.log(exact), np.log(chain), 300, generator(443))
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("s, alpha", [(1.0, -0.9), (-0.9, 0.5)])
def test_pickrell_rows_are_finite_positive_and_strictly_increasing(s, alpha, n):
    # the eigenvalues of C C* lose the small end here (x_1 <= 0 in about 2%
    # of rows at alpha = -0.9); the singular values of C keep it
    x = sample_pickrell(PickrellParams(s, alpha, n), 20_000, generator(444))
    assert x.shape == (20_000, n)
    assert np.all(np.isfinite(x)) and np.all(x[:, 0] > 0) and np.all(np.diff(x, axis=1) > 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pickrell_near_s_minus_one_draws_without_nan(n):
    # Gamma(0.01) draws underflow to 0 without the floor, and the solve fails
    with np.errstate(over="ignore"):  # a few rows pass the float range: inf
        x = sample_pickrell(PickrellParams(-0.99, 0.0, n), 20_000, generator(445))
    assert not np.any(np.isnan(x)) and np.all(x >= 0)
    assert np.all(np.diff(x, axis=1) >= 0)


def test_pickrell_mcmc_n1_alpha1_matches_cdf():
    # density prop. to x (1+x)^-4: CDF 1 - 3(1+x)^-2 + 2(1+x)^-3
    rng = generator(403)
    x = sample_pickrell(PickrellParams(1.0, 1.0, 1), 8000, rng)
    cdf = lambda v: 1 - 3 * (1 + v) ** -2.0 + 2 * (1 + v) ** -3.0
    assert stats.kstest(x.ravel(), cdf).pvalue > 0.01


def test_pickrell_mcmc_sum_marginal_vs_quadrature():
    params = PickrellParams(1.0, 0.0, 2)
    rng = generator(404)
    n = 20_000
    x = sample_pickrell(params, n, rng)
    sums = x.sum(axis=1)

    def density(rows):
        return np.array([pickrell_density_unnorm(params, row) for row in rows])

    # panels doubling in length along the (1+x)^-5 tails, which one fixed-order
    # Gauss panel per coordinate does not resolve to 1e-9
    tail = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    total = quad_cell(density, [(0.0, 25.0), (lambda x1: x1, 60.0)], tol=1e-9, breaks=tail).value
    edges = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0]
    n_bad = 0
    for a, b in zip(edges[:-1], edges[1:]):
        # the lower bound of x2 has a kink at x1 = a/2
        prob = quad_cell(density, [(0.0, b / 2),
                                   (lambda x1: np.maximum(x1, a - x1), lambda x1: b - x1)],
                         tol=1e-9, breaks=(a / 2,)).value / total
        emp = np.mean((sums >= a) & (sums < b))
        sigma = math.sqrt(prob * (1 - prob) / n)
        n_bad += abs(emp - prob) > 3 * sigma
    assert n_bad <= 1  # one marginal 3-sigma excursion allowed over 7 bins


def test_laguerre_density_flux_balance():
    # stationarity of the one-particle law x^alpha e^-x for dX = sqrt(2X)dB
    # + (alpha+1-X)dt: the probability flux x rho' + (x - alpha) rho vanishes
    for alpha in (0.0, 0.7, 2.0):
        for x in np.linspace(0.2, 8.0, 25):
            rho = x**alpha * math.exp(-x)
            drho = (alpha / x - 1.0) * rho
            flux = x * drho + (x - alpha) * rho
            assert abs(flux) < 1e-12 * max(1.0, rho)
    assert laguerre_density_unnorm(0.5, 2, (1.0, 1.0)) == 0.0


def test_laguerre_density_long_run_and_mcmc_agree():
    term, _, _ = simulate_laguerre_paths(0.0, 2, (0.5, 1.5), SdeConfig(2e-3, 12.0), 3000, 405)
    ref = laguerre_chain(0.0, 2, 3000, generator(406))
    rep = energy_perm_test(term, ref, 300, generator(407))
    assert rep.passed, rep.to_dict()


def test_ginibre_radial_matches_laguerre_density_mcmc():
    rad = sample_laguerre_many(1, 2, 4000, generator(408))
    ref = laguerre_chain(1.0, 2, 4000, generator(409))
    rep = energy_perm_test(rad, ref, 300, generator(410))
    assert rep.passed, rep.to_dict()


def test_sample_laguerre_examples():
    rng = generator(411)
    x0 = sample_laguerre_many(0, 1, 10_000, rng)
    assert stats.kstest(x0.ravel(), "expon").pvalue > 0.01
    x2 = sample_laguerre_many(2, 1, 10_000, rng)
    assert stats.kstest(x2.ravel(), "gamma", args=(3,)).pvalue > 0.01
    pt = sample_laguerre_many(1, 3, 1, rng)[0]
    assert pt[0] >= 0 and list(pt) == sorted(pt)
    with pytest.raises(ValueError):
        sample_laguerre_many(0.5, 1, 10, rng)


def test_jacobi_map_examples():
    assert jacobi_map((1.0,)) == pytest.approx([0.5])
    assert jacobi_map((0.0,)) == pytest.approx([0.0])
    x = np.array([0.3, 1.7, 9.0])
    assert jacobi_map_inverse(jacobi_map(x)) == pytest.approx(x, rel=1e-12)
    with pytest.raises(ValueError):
        jacobi_map_inverse((1.0,))


def test_jacobi_ensemble_density_examples():
    assert jacobi_ensemble_density_unnorm(0.0, 0.0, 1, (0.3,)) == 1.0
    assert jacobi_ensemble_density_unnorm(1.0, 2.0, 2, (0.4, 0.4)) == 0.0
    assert jacobi_ensemble_density_unnorm(0.0, 0.0, 1, (1.2,)) == 0.0


def test_change_of_variables_density_identity():
    # u = x/(1+x) carries the heavy-tailed ensemble onto the [0,1] ensemble
    # with second exponent beta = s; the transformed density ratio (with
    # Jacobian prod (1-u)^-2) must be constant in x
    rng = generator(413)
    params = PickrellParams(1.5, 0.7, 2)
    ratios = []
    for _ in range(10):
        x = np.sort(rng.uniform(0.1, 4.0, size=2))
        x[1] += 0.05
        u = jacobi_map(x)
        dens_u = pickrell_density_unnorm(params, x) * np.prod((1 - u) ** -2.0)
        ratios.append(dens_u / jacobi_ensemble_density_unnorm(params.alpha, params.s, 2, u))
    assert np.ptp(ratios) < 1e-9 * max(ratios)


def test_pickrell_pushforward_is_jacobi_beta_s():
    # s = 1, alpha = 0, N = 1: u = x/(1+x) has density 2(1-u) on [0, 1]
    rng = generator(412)
    x = sample_pickrell(PickrellParams(1.0, 0.0, 1), 10_000, rng)
    u = jacobi_map(x.ravel())
    cdf = lambda v: np.clip(2 * v - v**2, 0, 1)
    assert stats.kstest(u, cdf).pvalue > 0.01

import math

import numpy as np
import pytest
from scipy import stats

from intertwine.chamber import BoundaryPoint
from intertwine.kernels import (KernelParams, sample_lambda_eq_many,
                                sample_lambda_plus_many)
from intertwine.matrixmodel import (char_F_omega, corner, radial_part_many,
                                    sample_ginibre,
                                    sample_haar, sample_lambda_eq_via_matrices_many,
                                    sample_lambda_omega_many,
                                    sample_lambda_plus_via_matrices_many,
                                    sample_P_omega_corner)
from intertwine.rng import generator
from intertwine.verify import energy_perm_test
from helpers import lambda_plus_cdf_12


def test_ginibre_moments():
    rng = generator(201)
    z = sample_ginibre(1, 1, rng, size=100_000)[:, 0, 0]
    mod2 = np.abs(z) ** 2
    se = mod2.std() / math.sqrt(z.size)
    assert abs(mod2.mean() - 1.0) < 3 * se
    assert abs(z.mean()) < 3 / math.sqrt(z.size)  # E|z|^2 = 1 so SE(mean) ~ n^-1/2
    assert stats.kstest(mod2, "expon").pvalue > 0.01


def test_haar_unitarity_and_moments():
    rng = generator(202)
    u = sample_haar(5, rng)
    assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-10
    batch = sample_haar(3, rng, size=30_000)
    m = np.abs(batch[:, 0, 0]) ** 2
    se = m.std() / math.sqrt(m.size)
    assert abs(m.mean() - 1 / 3) < 3 * se
    phases = sample_haar(1, rng, size=30_000)[:, 0, 0]
    assert abs(phases.mean()) < 3 / math.sqrt(phases.size)
    assert np.allclose(np.abs(phases), 1.0)


def test_corner_examples():
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(corner(np.eye(3), 2, 2), np.eye(2))
    assert np.array_equal(corner(x, 3, 4), x)
    assert np.array_equal(corner(corner(x, 3, 3), 2, 1), corner(x, 2, 1))
    with pytest.raises(ValueError):
        corner(x, 4, 2)


def test_radial_part_examples():
    assert tuple(radial_part_many(np.diag([2.0, 3.0])[None])[0]) == pytest.approx((4.0, 9.0))
    assert tuple(radial_part_many(np.zeros((1, 3, 2)))[0]) == (0.0, 0.0)
    rng = generator(203)
    x = sample_ginibre(4, 3, rng)
    u = sample_haar(3, rng)
    v = sample_haar(4, rng)
    a = radial_part_many(x[None])[0]
    b = radial_part_many((v @ x @ u)[None])[0]
    assert np.abs(a - b).max() < 1e-8
    with pytest.raises(ValueError):
        radial_part_many(np.zeros((1, 2, 3)))


def test_lambda_plus_via_matrices_matches_density():
    rng = generator(204)
    vals = sample_lambda_plus_via_matrices_many(0, (1.0, 2.0), 30_000, rng).ravel()
    assert stats.kstest(vals, lambda_plus_cdf_12).pvalue > 0.01
    assert tuple(sample_lambda_plus_via_matrices_many(0, (0.0, 0.0), 1, rng)[0]) == (0.0,)
    with pytest.raises(ValueError):
        sample_lambda_plus_via_matrices_many(0.5, (1.0, 2.0), 10, rng)


@pytest.mark.parametrize("n_dim,alpha,x", [(1, 0, (1.0, 2.0)), (1, 2, (1.0, 2.0)),
                                           (2, 1, (0.5, 1.5, 3.0))])
def test_lambda_plus_cross_implementation(n_dim, alpha, x):
    rng = generator(205 + n_dim + alpha)
    a = sample_lambda_plus_via_matrices_many(alpha, x, 4000, rng)
    b = sample_lambda_plus_many(KernelParams(alpha, n_dim), x, 4000, rng)
    rep = energy_perm_test(a, b, 300, generator(206 + n_dim + alpha))
    assert rep.passed, rep.to_dict()


def test_lambda_eq_via_matrices():
    rng = generator(207)
    vals = sample_lambda_eq_via_matrices_many(0, (1.0,), 30_000, rng).ravel()
    assert stats.kstest(vals, "uniform").pvalue > 0.01
    assert np.array_equal(sample_lambda_eq_via_matrices_many(2, (0.0,), 3, rng),
                          np.zeros((3, 1)))
    a = sample_lambda_eq_via_matrices_many(1, (1.0, 2.0), 4000, rng)
    b = sample_lambda_eq_many(KernelParams(1, 2), (1.0, 2.0), 4000, rng)
    rep = energy_perm_test(a, b, 300, generator(208))
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("bad,need", [(math.nan, "finite"), (math.inf, "finite"),
                                      (-1.0, "non-negative")])
def test_matrix_link_samplers_refuse_a_bad_source_before_any_draw(bad, need):
    # a NaN source reached the SVD ("SVD did not converge"), an inf one the matmul
    rng = generator(215)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^x must be {need}"):
        sample_lambda_plus_via_matrices_many(1, (1.0, bad), 3, rng)
    with pytest.raises(ValueError, match=f"^z must be {need}"):
        sample_lambda_eq_via_matrices_many(1, (bad, 2.0), 3, rng)
    assert rng.bit_generator.state == state


def test_char_F_omega_examples():
    assert char_F_omega(BoundaryPoint((), 1.0), 0.5) == pytest.approx(math.exp(-1))
    assert char_F_omega(BoundaryPoint((0.25,), 0.25), 1.0) == pytest.approx(0.5)
    assert char_F_omega(BoundaryPoint((0.3, 0.1), 2.0), 0.0) == 1.0


@pytest.mark.parametrize("omega", [BoundaryPoint((), 0.7),
                                   BoundaryPoint((0.5,), 0.5),
                                   BoundaryPoint((0.4, 0.2), 1.0)])
def test_corner_model_characteristic_function(omega):
    rng = generator(209)
    x = sample_P_omega_corner(omega, 2, 2, rng, size=60_000)[:, 0, 0]
    for r in (0.1, 0.3, 0.5, 1.0, 2.0):
        vals = np.cos(r * x.real)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - char_F_omega(omega, r)) < 3.5 * se


def test_corner_model_degenerate_omega():
    rng = generator(210)
    assert np.all(sample_P_omega_corner(BoundaryPoint((), 0.0), 3, 2, rng) == 0.0)
    assert tuple(sample_lambda_omega_many(0, 2, BoundaryPoint((), 0.0), rng, 1)[0]) == (0.0, 0.0)
    # sum(alphas) = gamma + 1.5e-12 is roundoff that BoundaryPoint admits: no free mass
    # to draw, as at sum(alphas) = gamma, where the corner model used to refuse it
    roundoff, exact = BoundaryPoint((2.0,), 2.0 - 1.5e-12), BoundaryPoint((2.0,), 2.0)
    assert np.array_equal(sample_P_omega_corner(roundoff, 2, 2, generator(216), size=3),
                          sample_P_omega_corner(exact, 2, 2, generator(216), size=3))
    # a zero dimension gave an empty corner, a negative one numpy's error;
    # both are refused before any draw
    omega, state = BoundaryPoint((0.5,), 1.0), rng.bit_generator.state
    for m, n in ((0, 2), (2, 0), (-1, 2), (2, -3)):
        with pytest.raises(ValueError, match="matrix dimensions must be >= 1"):
            sample_P_omega_corner(omega, m, n, rng)
    for alpha in (0, 1):
        with pytest.raises(ValueError, match="matrix dimensions must be >= 1"):
            sample_lambda_omega_many(alpha, 0, omega, rng, 3)
    assert rng.bit_generator.state == state


def test_boundary_kernel_coherence_through_links():
    # omega -> dim 2 -> link down to dim 1  must equal  omega -> dim 1
    omega = BoundaryPoint((0.5,), 1.0)
    rng = generator(211)
    up = sample_lambda_omega_many(0, 2, omega, rng, 4000)
    from intertwine.verify import interiorize_rows
    from intertwine.kernels import sample_lambda_plus_each
    down = sample_lambda_plus_each(0.0, interiorize_rows(up), rng)
    direct = sample_lambda_omega_many(0, 1, omega, rng, 4000)
    rep = energy_perm_test(down, direct, 300, generator(212))
    assert rep.passed, rep.to_dict()


def test_boundary_kernel_coherence_alpha_shift():
    # omega at alpha+1 -> equal-dimension alpha-link  must equal  omega at alpha
    omega = BoundaryPoint((0.5,), 1.0)
    rng = generator(213)
    up = sample_lambda_omega_many(1, 1, omega, rng, 4000)
    from intertwine.verify import interiorize_rows
    from intertwine.kernels import sample_lambda_eq_each
    down = sample_lambda_eq_each(0.0, interiorize_rows(up), rng)
    direct = sample_lambda_omega_many(0, 1, omega, rng, 4000)
    rep = energy_perm_test(down, direct, 300, generator(214))
    assert rep.passed, rep.to_dict()

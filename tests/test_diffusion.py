import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import stats

import intertwine.diffusion as diffusion
from intertwine.chamber import BoundaryPoint
from intertwine.diffusion import (PickrellParams, Scheme, SdeConfig,
                                  boundary_flow, laguerre_drift, pickrell_drift,
                                  pickrell_drift_interaction_form,
                                  simulate_laguerre_matrix_paths, simulate_laguerre_paths,
                                  simulate_pickrell_matrix_paths, simulate_pickrell_paths)
from intertwine.ensembles import sample_laguerre_many
from intertwine.rng import generator


def test_sde_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(dt=0.0, t=1.0)
    with pytest.raises(ValueError):
        SdeConfig(dt=2.0, t=1.0)
    with pytest.raises(ValueError):
        SdeConfig(dt=1e-3, t=-1.0)
    assert SdeConfig(dt=1e-3, t=0.0).step_sizes() == []
    hs = SdeConfig(dt=0.4, t=1.0).step_sizes()
    assert sum(hs) == pytest.approx(1.0) and len(hs) == 3


def test_pickrell_params_validation():
    with pytest.raises(ValueError):
        PickrellParams(1.0, -1.0, 1)
    with pytest.raises(ValueError):
        PickrellParams(1.0, 0.0, 0)


def test_laguerre_drift_examples():
    assert laguerre_drift(0.0, 1, (3.0,)) == pytest.approx([-2.0])
    assert laguerre_drift(0.0, 2, (1.0, 2.0)) == pytest.approx([-2.0, 3.0])
    with pytest.raises(ValueError):
        laguerre_drift(0.0, 2, (1.0, 1.0))


@hypothesis.given(st.floats(min_value=0.01, max_value=5),
                  st.lists(st.floats(min_value=0.01, max_value=5), min_size=1, max_size=4),
                  st.floats(min_value=-0.9, max_value=3))
def test_laguerre_drift_interactions_cancel(x0, gaps, alpha):
    x = x0 + np.cumsum([0.0] + gaps)  # well-separated configuration
    n = x.size
    total = laguerre_drift(alpha, n, x).sum()
    assert total == pytest.approx(np.sum(-x + alpha + n), rel=1e-9, abs=1e-7)


def test_pickrell_drift_examples():
    assert pickrell_drift(PickrellParams(1.0, 0.0, 1), (2.0,)) == pytest.approx([-1.0])
    # interaction-term identity at x = (1, 2), coordinate 1
    lhs = 2 * 1 * 2 / (1 - 2)
    rhs = (2 * 1 * 2 + 1 + 2) / (1 - 2) + (2 - 1) * (2 * 1 + 1)
    assert lhs == pytest.approx(rhs)
    p = PickrellParams(1.5, 0.5, 2)
    a = pickrell_drift(p, (1.0, 2.0))
    b = pickrell_drift_interaction_form(p, (1.0, 2.0))
    assert a == pytest.approx(b, rel=1e-12)


def test_pickrell_drift_forms_agree_at_random_points():
    rng = generator(301)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = PickrellParams(float(rng.uniform(-2, 3)), float(rng.uniform(-0.9, 3)), n)
        x = np.sort(rng.uniform(0.05, 5.0, size=n)) + np.arange(n) * 1e-3
        a, b = pickrell_drift(p, x), pickrell_drift_interaction_form(p, x)
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-10


def test_simulate_laguerre_t0_and_mean():
    cfg0 = SdeConfig(1e-3, 0.0)
    assert tuple(simulate_laguerre_paths(0.0, 1, (3.0,), cfg0, 1, 0)[0][0]) == (3.0,)
    term, _, info = simulate_laguerre_paths(0.0, 1, (3.0,), SdeConfig(1e-3, math.log(2)),
                                            20_000, 302)
    target = 3.0 * 0.5 + 1.0 * 0.5  # x0 e^-t + (alpha+1)(1 - e^-t)
    se = term.std() / math.sqrt(term.shape[0])
    assert abs(term.mean() - target) < 3 * se + 2e-3  # 3 SE plus O(dt) bias allowance


def test_simulate_laguerre_long_run_stationary():
    term, _, _ = simulate_laguerre_paths(0.0, 1, (0.5,), SdeConfig(2e-3, 12.0), 4000, 303)
    assert stats.kstest(term.ravel(), "expon").pvalue > 0.01


def test_simulate_laguerre_ordering_and_guards():
    term, _, info = simulate_laguerre_paths(1.0, 3, (1.0, 2.0, 3.0),
                                            SdeConfig(1e-3, 0.5), 500, 304)
    assert np.all(np.diff(term, axis=1) >= 0)
    assert info["guard_fraction"] < 0.01


def test_paths_reproducible_and_chunk_independent(monkeypatch):
    cfg = SdeConfig(1e-3, 0.2)
    a, _, _ = simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 500, 305)
    b, _, _ = simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 500, 305)
    assert np.array_equal(a, b)
    monkeypatch.setattr(diffusion, "_CHUNK_FLOAT_BUDGET", 5e4)
    c, _, _ = simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 500, 305)
    assert np.array_equal(a, c)  # per-path streams: chunking cannot matter


def test_matrix_lift_requires_scheme_tag():
    with pytest.raises(ValueError):
        simulate_laguerre_matrix_paths(0, 1, (1.0,), SdeConfig(1e-3, 0.1), 10, 0)
    with pytest.raises(ValueError):
        simulate_laguerre_paths(0.0, 1, (1.0,), SdeConfig(1e-3, 0.1, Scheme.MATRIX_LIFT), 10, 0)


def test_matrix_lift_matches_particles_n1():
    cfg_m = SdeConfig(1e-3, math.log(2), Scheme.MATRIX_LIFT)
    mat, _, _ = simulate_laguerre_matrix_paths(0, 1, (3.0,), cfg_m, 6000, 306)
    par, _, _ = simulate_laguerre_paths(0.0, 1, (3.0,), SdeConfig(1e-3, math.log(2)), 6000, 307)
    assert stats.ks_2samp(mat.ravel(), par.ravel()).pvalue > 0.01
    assert np.all(mat >= 0.0)


def test_matrix_lift_stationary_start():
    cfg = SdeConfig(2e-3, 0.3, Scheme.MATRIX_LIFT)
    mat, _, _ = simulate_laguerre_matrix_paths(1, 2, None, cfg, 5000, 308, init="ginibre")
    ref = sample_laguerre_many(1, 2, 5000, generator(309))
    assert stats.ks_2samp(mat[:, 0], ref[:, 0]).pvalue > 0.01
    assert stats.ks_2samp(mat[:, 1], ref[:, 1]).pvalue > 0.01


def test_simulate_pickrell_t0_and_mean():
    p = PickrellParams(1.0, 0.0, 1)
    assert tuple(simulate_pickrell_paths(p, (1.0,), SdeConfig(1e-3, 0.0), 1, 0)[0][0]) == (1.0,)
    term, _, _ = simulate_pickrell_paths(p, (1.0,), SdeConfig(1e-3, 1.0), 20_000, 310)
    se = term.std() / math.sqrt(term.shape[0])
    assert abs(term.mean() - 1.0) < 3 * se + 5e-3


def test_pickrell_matrix_matches_particles_n1():
    p = PickrellParams(1.0, 0.0, 1)
    mat, _ = simulate_pickrell_matrix_paths(p, (1.0,), SdeConfig(1e-3, 0.5, Scheme.MATRIX_LIFT),
                                            5000, 311)
    par, _, _ = simulate_pickrell_paths(p, (1.0,), SdeConfig(1e-3, 0.5), 5000, 312)
    assert stats.ks_2samp(mat.ravel(), par.ravel()).pvalue > 0.01
    assert np.all(mat >= 0.0)


def test_pickrell_matrix_trace_mean():
    p = PickrellParams(2.0, 1.0, 2)
    x0 = (1.0, 2.0)
    t = 0.4
    mat, _ = simulate_pickrell_matrix_paths(p, x0, SdeConfig(1e-3, t, Scheme.MATRIX_LIFT),
                                            8000, 313)
    traces = mat.sum(axis=1)
    target = sum(x0) * math.exp(-p.s * t) + p.n * (p.n + p.alpha) * (1 - math.exp(-p.s * t)) / p.s
    se = traces.std() / math.sqrt(traces.size)
    assert abs(traces.mean() - target) < 3 * se + 2e-2


def test_pickrell_matrix_vs_particles_n2():
    from intertwine.verify import energy_perm_test
    p = PickrellParams(2.0, 1.0, 2)
    mat, _ = simulate_pickrell_matrix_paths(p, (1.0, 2.0), SdeConfig(1e-3, 0.5, Scheme.MATRIX_LIFT),
                                            4000, 314)
    par, _, _ = simulate_pickrell_paths(p, (1.0, 2.0), SdeConfig(1e-3, 0.5), 4000, 315)
    rep = energy_perm_test(mat, par, 300, generator(316))
    assert rep.passed, rep.to_dict()


def test_matrix_paths_single_path():
    cfg = SdeConfig(5e-3, 0.1, Scheme.MATRIX_LIFT)
    pt = simulate_laguerre_matrix_paths(1, 2, (1.0, 2.0), cfg, 1, 317)[0][0]
    assert pt.size == 2 and pt[0] >= 0 and pt[0] <= pt[1]
    pt2 = simulate_pickrell_matrix_paths(PickrellParams(1.0, 0.5, 2), (1.0, 2.0), cfg, 1, 318)[0][0]
    assert pt2.size == 2 and pt2[0] >= 0 and pt2[0] <= pt2[1]


def test_path_simulators_reject_zero_paths():
    p = PickrellParams(1.0, 0.0, 1)
    euler, lift = SdeConfig(1e-3, 0.01), SdeConfig(1e-3, 0.01, Scheme.MATRIX_LIFT)
    for run in (lambda: simulate_laguerre_paths(0.0, 1, (1.0,), euler, 0, 0),
                lambda: simulate_pickrell_paths(p, (1.0,), euler, 0, 0),
                lambda: simulate_laguerre_matrix_paths(0, 1, (1.0,), lift, 0, 0),
                lambda: simulate_pickrell_matrix_paths(p, (1.0,), lift, 0, 0)):
        with pytest.raises(ValueError, match="n_paths"):
            run()


def test_boundary_flow_examples():
    assert boundary_flow(BoundaryPoint((), 3.0), math.log(2)).gamma == pytest.approx(2.0)
    fixed = BoundaryPoint((0.0, 0.0), 1.0)
    for t in (0.0, 0.7, 5.0):
        flowed = boundary_flow(fixed, t)
        assert flowed.gamma == pytest.approx(1.0) and all(a == 0 for a in flowed.alphas)
    late = boundary_flow(BoundaryPoint((0.5, 0.2), 2.0), 50.0)
    assert abs(late.gamma - 1.0) < 1e-12
    assert all(a < 1e-12 for a in late.alphas)
    with pytest.raises(ValueError):
        boundary_flow(BoundaryPoint((), 1.0), -0.1)


@hypothesis.given(st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=5),
                  st.floats(min_value=0, max_value=3), st.floats(min_value=0, max_value=3))
def test_boundary_flow_semigroup_and_domain(gamma_extra, a1, s, t):
    omega = BoundaryPoint((a1, a1 / 2), 1.5 * a1 + gamma_extra)
    one = boundary_flow(boundary_flow(omega, s), t)
    two = boundary_flow(omega, s + t)
    assert one.gamma == pytest.approx(two.gamma, rel=1e-12, abs=1e-12)
    assert np.allclose(one.alphas, two.alphas, rtol=1e-12, atol=1e-12)
    assert sum(two.alphas) <= two.gamma + 1e-12 * max(1.0, two.gamma)

import math
import sys
import threading
import tracemalloc

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
from intertwine.matrixmodel import sample_haar
from intertwine.rng import generator

from helpers import (ref_lift_chunk, ref_pairwise_sum, ref_pickrell_matrix_step,
                     ref_sanitize_rows, same_bits)


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sde_config_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match=f"^t={bad} must be finite"):
        SdeConfig(dt=1e-3, t=bad)
    with pytest.raises(ValueError, match=f"^dt={bad} must be finite"):
        SdeConfig(dt=bad, t=1.0)


def test_pickrell_params_validation():
    with pytest.raises(ValueError):
        PickrellParams(1.0, -1.0, 1)
    with pytest.raises(ValueError):
        PickrellParams(1.0, 0.0, 0)
    with pytest.raises(ValueError, match="integer >= 1"):
        PickrellParams(1.0, 0.0, 2.5)
    assert PickrellParams(1.0, 0.0, np.int64(2)).n == 2
    # a NaN s passed and failed at the first Euler step, asking for a smaller dt
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^s={bad} must be finite"):
            PickrellParams(bad, 0.0, 1)
        with pytest.raises(ValueError, match=f"^alpha={bad} must be > -1"):
            PickrellParams(1.0, bad, 1)


@pytest.mark.parametrize("simulate", [simulate_laguerre_paths, simulate_laguerre_matrix_paths])
@pytest.mark.parametrize("n", [0, 1.0])
def test_laguerre_simulators_refuse_a_dimension_below_one_or_not_integral(simulate, n):
    # n = 0 used to reach a division by n * n in the chunking
    with pytest.raises(ValueError, match="integer >= 1"):
        simulate(0.0, n, np.ones(int(n)), SdeConfig(0.01, 0.1), 2, 1)


@pytest.mark.parametrize("alpha", [-1.0, math.nan])
def test_laguerre_simulator_and_drift_refuse_alpha_at_most_minus_one(alpha):
    # the Pickrell parameters refuse it with the same message
    with pytest.raises(ValueError, match=f"^alpha={alpha} must be > -1"):
        laguerre_drift(alpha, 2, (1.0, 2.0))
    with pytest.raises(ValueError, match=f"^alpha={alpha} must be > -1"):
        simulate_laguerre_paths(alpha, 2, (1.0, 2.0), SdeConfig(1e-3, 0.5), 200, 1)
    with pytest.raises(ValueError, match=f"^alpha={alpha} must be > -1"):
        PickrellParams(1.0, alpha, 2)
    assert laguerre_drift(-0.5, 2, (1.0, 2.0)) == pytest.approx([-2.5, 2.5])
    terminal, _, info = simulate_laguerre_paths(-0.5, 2, (1.0, 2.0), SdeConfig(1e-2, 0.1), 5, 1)
    assert terminal.shape == (5, 2) and info["n_steps"] == 10


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


@pytest.mark.parametrize("drift", [lambda x: laguerre_drift(0.5, 3, x),
                                   lambda x: pickrell_drift(PickrellParams(1.0, 0.5, 3), x),
                                   lambda x: pickrell_drift_interaction_form(
                                       PickrellParams(1.0, 0.5, 3), x)])
def test_drifts_refuse_a_wrong_dimension(drift):
    for x in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="dimension mismatch: expected 3"):
            drift(x)


def test_pickrell_drift_forms_agree_at_random_points():
    rng = generator(301)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = PickrellParams(float(rng.uniform(-2, 3)), float(rng.uniform(-0.9, 3)), n)
        x = np.sort(rng.uniform(0.05, 5.0, size=n)) + np.arange(n) * 1e-3
        a, b = pickrell_drift(p, x), pickrell_drift_interaction_form(p, x)
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-10


@st.composite
def _chamber_rows(draw):
    """A few ascending, pairwise distinct rows; some gaps are tiny, so the
    drift clamp binds on some pairs at cap_dt = 1e-3."""
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 50]))
    m = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    tiny = draw(st.floats(1e-9, 1e-2))
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random((m, n)) < 0.3, tiny * rng.random((m, n)) + 1e-12,
                    rng.exponential(1.0, (m, n)))
    return np.cumsum(gaps, axis=1)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_chamber_rows(), st.sampled_from([None, 1e-3]),
                  st.floats(-2, 3), st.floats(-0.9, 3))
def test_drift_rows_bit_exact_against_mask_and_clip(x, cap_dt, s, alpha):
    m, n = x.shape
    xi, xj = x[:, :, None], x[:, None, :]
    # the engine reuses one workspace across steps and chunks: it holds the
    # previous step's values, and has more rows than the ragged last chunk
    dirty = [None, np.full((2, m, n, n), np.nan),
             np.random.default_rng(m * n).normal(0, 1e300, (2, m + 2, n, n))]
    want = -x + alpha + n + ref_pairwise_sum(x, xi + xj, cap_dt)
    for work in dirty:
        assert np.array_equal(diffusion._laguerre_drift_rows(alpha, x, cap_dt, work), want)
    want = -s * x + n + alpha + ref_pairwise_sum(x, 2.0 * xi * xj + xi + xj, cap_dt)
    for work in dirty:
        assert np.array_equal(diffusion._pickrell_drift_rows(s, alpha, x, cap_dt, work), want)
    # the interaction form's numerator 2 x_i (1 + x_i), on rows: the column
    # route at n <= _COLUMN_MAX_N with m > 1, the tensor route otherwise
    numer = (2.0 * x * (1.0 + x))[:, :, None] * np.ones((1, 1, n))
    want = ref_pairwise_sum(x, numer, cap_dt)
    for work in dirty:
        assert np.array_equal(diffusion._pair_drift(x, diffusion._interaction_numer, cap_dt,
                                                    work), want)
    p = PickrellParams(s, alpha, n)
    want = (2.0 - 2.0 * n - s) * x[0] + alpha + 1.0 + ref_pairwise_sum(x[:1], numer[:1])[0]
    assert np.array_equal(pickrell_drift_interaction_form(p, x[0]), want)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_column_drift_bit_exact_with_binding_clamp(n):
    assert n <= diffusion._COLUMN_MAX_N  # the column route, not the (m, n, n) tensors
    rng = np.random.default_rng(n)
    m = 300
    gaps = np.where(rng.random((m, n)) < 0.5, 1e-5 * rng.random((m, n)) + 1e-12,
                    rng.exponential(1.0, (m, n)))
    # ascending rows with tiny gaps, then rows in any order with x_i = -x_j pairs,
    # whose zero numerators give -0 terms (the tensor sum adds onto +0)
    signed = rng.permuted(np.concatenate([np.arange(1.0, n // 2 + 1),
                                          -np.arange(1.0, n // 2 + 1),
                                          [0.25] * (n % 2)]) * np.ones((20, 1)), axis=1)
    for x in (np.cumsum(gaps, axis=1), signed):
        xi, xj = x[:, :, None], x[:, None, :]
        for cap_dt in (None, 1e-3):
            pairs = ref_pairwise_sum(x, xi + xj, cap_dt)
            # the drift's other terms would absorb the sign of a zero pair sum
            assert same_bits(diffusion._pair_drift(x, diffusion._laguerre_numer, cap_dt, None),
                             pairs)
            assert same_bits(diffusion._laguerre_drift_rows(0.5, x, cap_dt),
                             -x + 0.5 + n + pairs)
            want = -1.5 * x + n + 0.5 + ref_pairwise_sum(x, 2.0 * xi * xj + xi + xj, cap_dt)
            assert same_bits(diffusion._pickrell_drift_rows(1.5, 0.5, x, cap_dt), want)
    x = np.cumsum(gaps, axis=1)
    numer = x[:, :, None] + x[:, None, :]
    assert not np.array_equal(ref_pairwise_sum(x, numer, 1e-3), ref_pairwise_sum(x, numer))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 9])
def test_sanitize_sort_network_matches_sort_and_old_guard(n):
    rng = np.random.default_rng(20 + n)
    x = rng.normal(0.0, 2.0, (2000, n))
    # exact ties, zeros of both signs, and values whose reflections tie
    hit = rng.random(x.shape) < 0.4
    x[hit] = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -2.5], hit.sum())
    got, guarded = diffusion._sanitize_rows(x.copy())
    want, want_guarded = ref_sanitize_rows(x.copy())
    assert same_bits(got, want) and np.array_equal(guarded, want_guarded)
    assert guarded.any() and not guarded.all()
    y = np.abs(x)
    diffusion._sort_rows(y)
    assert same_bits(y, np.sort(np.abs(x), axis=1))


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


def _three(term, info):
    """The Pickrell lift's (terminal, info) in the other simulators' shape."""
    return term, {}, info


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _noise_threads(monkeypatch) -> set:
    """The set that the following runs add each path-noise-drawing thread to."""
    seen = set()
    path_generator = diffusion.path_generator

    class Recorded:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            seen.add(threading.get_ident())
            return self.gen.standard_normal(*args, **kwargs)

    monkeypatch.setattr(diffusion, "path_generator", lambda *key: Recorded(path_generator(*key)))
    return seen


def test_paths_reproducible_and_chunk_independent(monkeypatch):
    cfg = SdeConfig(1e-3, 0.2)
    lift = SdeConfig(1e-2, 0.3, Scheme.MATRIX_LIFT)
    p = PickrellParams(1.0, 0.5, 3)
    runs = {
        "laguerre": lambda: simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 500, 305,
                                                    snapshots_at=(0.05, 0.2)),
        "pickrell": lambda: simulate_pickrell_paths(p, (0.5, 1.0, 2.0), cfg, 300, 319,
                                                    snapshots_at=(0.1,)),
        "laguerre-N7": lambda: simulate_laguerre_paths(1.0, 7, np.arange(1.0, 8.0), cfg, 40, 321,
                                                       snapshots_at=(0.1,)),
        "laguerre-N8": lambda: simulate_laguerre_paths(1.0, 8, np.arange(1.0, 9.0), cfg, 10, 324,
                                                       snapshots_at=(0.1,)),
        "pickrell-N8": lambda: simulate_pickrell_paths(PickrellParams(1.0, 0.5, 8),
                                                       np.arange(1.0, 9.0), cfg, 10, 325,
                                                       snapshots_at=(0.1,)),
        "laguerre-lift": lambda: simulate_laguerre_matrix_paths(1, 2, (1.0, 2.0), lift, 300, 322,
                                                                snapshots_at=(0.1, 0.3)),
        "laguerre-lift-ginibre": lambda: simulate_laguerre_matrix_paths(
            1, 2, None, lift, 200, 323, init="ginibre"),
    }
    ref = {name: run() for name, run in runs.items()}
    again = {name: run() for name, run in runs.items()}
    # every run is one chunk at the default budgets; these end each in a ragged chunk:
    # 48, 21, 3, 3 and 3 particle paths (pair budget 195 floats over N^2) and 24 and 62
    # Laguerre-lift paths (138 paths a chunk); a chunk's noise is then drawn 3, 2, 1 and
    # 3 paths at a time (fill budget 1300 floats over 200 N, or over 30 steps of 12 lift
    # floats), so the last, 20-path Laguerre chunk, every 21-path Pickrell chunk and the
    # last, 62-path Ginibre-start lift chunk end in a ragged fill too; at N = 7 and 8 one
    # path's 200 steps do not fit a fill and are drawn in runs of 185 and 162 steps
    monkeypatch.setattr(diffusion, "_CHUNK_MAX_PATHS", 138)
    monkeypatch.setattr(diffusion, "_PAIR_FLOAT_BUDGET", 3 * 49 + 48)
    monkeypatch.setattr(diffusion, "_FILL_FLOAT_BUDGET", 1300)
    threads = _noise_threads(monkeypatch)
    chunked = {}
    for cores in (1, 4):  # one chunk in flight, then up to four
        monkeypatch.setattr(diffusion, "_CORES", cores)
        for name, run in runs.items():
            threads.clear()
            chunked[name, cores] = run()
            # the column route (N <= 7, as in every lift here) stays on the caller,
            # the tensor route goes to worker threads
            if cores == 1 or "N8" not in name:
                assert threads == {threading.get_ident()}, name
            else:
                assert threads and threading.get_ident() not in threads, name
    for name, (term, snaps, info) in ref.items():
        # per-path streams: neither chunking nor the chunks in flight can matter
        for other in (again[name], chunked[name, 1], chunked[name, 4]):
            assert _same_bytes(term, other[0]) and info == other[2]
            assert snaps.keys() == other[1].keys()
            assert all(_same_bytes(snaps[ts], other[1][ts]) for ts in snaps)


def test_euler_noise_in_blocks_is_the_noise_of_one_block(monkeypatch):
    cfg = SdeConfig(1e-3, 0.2)
    lift = SdeConfig(1e-2, 0.29, Scheme.MATRIX_LIFT)
    runs = [lambda: simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 500, 305,
                                            snapshots_at=(0.05, 0.2)),
            lambda: simulate_pickrell_paths(PickrellParams(1.0, 0.5, 8), np.arange(1.0, 9.0),
                                            cfg, 10, 325, snapshots_at=(0.1,)),
            lambda: simulate_laguerre_matrix_paths(1, 2, None, lift, 200, 323, init="ginibre",
                                                   snapshots_at=(0.15,)),
            lambda: _three(*simulate_pickrell_matrix_paths(PickrellParams(1.0, 0.5, 3),
                                                           (1.0, 2.0, 3.0), lift, 50, 326))]
    ref = [run() for run in runs]  # one block of all steps each
    # 7 steps of 1,000 floats (snapshot at step 50 mid-block, a last block of 4 steps),
    # 87 steps of 80 floats (N = 8; a last block of 26 steps), 2 steps of 2,400 lift
    # floats after the Ginibre start (snapshot at step 15 mid-block, a last block of 1
    # step) and 7 steps of 900 (a last block of 1 step)
    monkeypatch.setattr(diffusion, "_BLOCK_FLOAT_BUDGET", 7000)
    for (term, snaps, info), run in zip(ref, runs):
        got = run()
        assert _same_bytes(term, got[0]) and info == got[2]
        assert snaps.keys() == got[1].keys()
        assert all(_same_bytes(snaps[ts], got[1][ts]) for ts in snaps)


def test_no_chunk_holds_more_noise_than_the_block_budget(monkeypatch):
    """Every draw of every simulator returns at most _BLOCK_FLOAT_BUDGET
    floats, also where a lift's noise per path-step caps its chunks."""
    draws = []
    step_major = diffusion._step_major

    def recording(gens, k, shape):
        noise = step_major(gens, k, shape)
        c, noise_floats = len(gens), math.prod(shape)
        assert noise.shape == (k, c, *shape) and noise.size == k * c * noise_floats
        draws.append((noise_floats, c, noise.size))
        return noise

    monkeypatch.setattr(diffusion, "_step_major", recording)
    budget = 2000
    monkeypatch.setattr(diffusion, "_BLOCK_FLOAT_BUDGET", budget)
    lift = SdeConfig(1e-2, 0.05, Scheme.MATRIX_LIFT)
    cfg = SdeConfig(1e-2, 0.05)
    p = PickrellParams(1.0, 0.5, 3)
    simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 1500, 360)
    simulate_pickrell_paths(p, (1.0, 2.0, 3.0), cfg, 100, 361)
    simulate_laguerre_matrix_paths(1, 2, None, lift, 400, 362, init="ginibre")
    simulate_pickrell_matrix_paths(p, (1.0, 2.0, 3.0), lift, 400, 363)
    assert {floats for floats, _, _ in draws} == {2, 3, 12, 18}
    assert max(size for _, _, size in draws) <= budget
    # the lifts' chunks are capped at 166 and 111 paths, a step's noise fitting the budget
    assert {c for floats, c, _ in draws if floats >= 12} == {166, 68, 111, 67}


def test_a_block_larger_than_the_fill_buffer_is_held_once():
    """One N = 256 path (the pair cap's chunk there) draws a whole 8 MB block
    of 4,096 steps; the drawer fills it a run of steps at a time, so it holds
    the block and at most one fill buffer, and the path's normals keep the
    order and bits of one draw."""
    k = diffusion._BLOCK_FLOAT_BUDGET // 256
    assert diffusion._PAIR_FLOAT_BUDGET // 256**2 == 1 and 256 * k > diffusion._FILL_FLOAT_BUDGET
    tracemalloc.start()
    try:
        noise = diffusion._step_major([np.random.default_rng(9)], k, (256,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert noise.shape == (k, 1, 256)
    assert peak < noise.nbytes + 8 * diffusion._FILL_FLOAT_BUDGET + 2**16
    assert same_bits(noise[:, 0], np.random.default_rng(9).standard_normal((k, 256)))


def test_streams_and_failures_stay_on_the_calling_thread(monkeypatch):
    calls = []
    path_generator = diffusion.path_generator
    nan_from = {}  # path index -> first step whose noise is NaN

    class NanNoise:
        def __init__(self, gen, step):
            self.gen, self.step = gen, step

        def standard_normal(self, out):
            self.gen.standard_normal(out=out)
            out[self.step - 1:] = np.nan
            return out

    def recorded(master_seed, index):
        calls.append((threading.get_ident(), index))
        gen = path_generator(master_seed, index)
        return NanNoise(gen, nan_from[index]) if index in nan_from else gen

    monkeypatch.setattr(diffusion, "path_generator", recorded)
    # 16 paths a chunk at N = 8: big enough that numpy drops the interpreter lock inside
    # the pair drift, which each chunk builds in its own workspace
    monkeypatch.setattr(diffusion, "_PAIR_FLOAT_BUDGET", 16 * 64)

    def run(cores):
        monkeypatch.setattr(diffusion, "_CORES", cores)
        calls.clear()
        return simulate_laguerre_paths(0.0, 8, np.arange(1.0, 9.0), SdeConfig(1e-2, 0.2), 72,
                                       340, snapshots_at=(0.1,))

    serial = run(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap often, so a race on shared buffers would show
    try:
        # all five chunks in flight at once, more threads than cores
        threaded = [run(8) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    # five chunks, the last ragged; every stream is made on the caller, in path order
    assert calls == [(threading.get_ident(), i) for i in range(72)]
    for term, snaps, info in threaded:
        assert _same_bytes(serial[0], term) and serial[2] == info
        assert _same_bytes(serial[1][0.1], snaps[0.1])

    # chunk 1 (paths 16-31) fails at step 7 and chunk 2 (paths 32-47) at step 3: the
    # first chunk's error wins, as in a serial run, and the threads are gone after it
    nan_from.update({20: 7, 40: 3})
    before = threading.active_count()
    for cores, last_started in ((1, 31), (2, 47)):
        with pytest.raises(RuntimeError, match=r"^NaN state at step 7; reduce dt$"):
            run(cores)
        # no chunk is started after the failing one, but for those already in flight
        assert calls == [(threading.get_ident(), i) for i in range(last_started + 1)]
        assert threading.active_count() == before


@pytest.mark.parametrize("simulate", [
    lambda cfg, snaps: simulate_laguerre_paths(0.0, 2, (1.0, 2.0), cfg, 3, 1,
                                               snapshots_at=snaps),
    lambda cfg, snaps: simulate_laguerre_matrix_paths(
        1, 2, (1.0, 2.0), SdeConfig(cfg.dt, cfg.t, Scheme.MATRIX_LIFT), 3, 2,
        snapshots_at=snaps),
], ids=["laguerre", "laguerre-lift"])
def test_snapshot_times_on_one_step_all_get_its_state(simulate):
    cfg = SdeConfig(1e-2, 0.2)
    _, ref, _ = simulate(cfg, (0.1, 0.2))
    # 0.1 + 1e-12 rounds onto the step of 0.1, and 0.2 - 1e-12 onto the last one
    _, snaps, _ = simulate(cfg, (0.1, 0.1 + 1e-12, 0.2 - 1e-12, 0.2))
    assert snaps.keys() == {0.1, 0.1 + 1e-12, 0.2 - 1e-12, 0.2}
    for ts, want in ((0.1, ref[0.1]), (0.1 + 1e-12, ref[0.1]), (0.2 - 1e-12, ref[0.2]),
                     (0.2, ref[0.2])):
        assert np.array_equal(snaps[ts], want)


def test_pickrell_matrix_paths_chunk_independent(monkeypatch):
    p = PickrellParams(1.0, 0.5, 2)
    cfg = SdeConfig(1e-2, 0.3, Scheme.MATRIX_LIFT)
    term, info = simulate_pickrell_matrix_paths(p, (0.5, 1.5), cfg, 300, 320)
    again, info_again = simulate_pickrell_matrix_paths(p, (0.5, 1.5), cfg, 300, 320)
    # one chunk at the default cap; this one ends in a ragged chunk of 92 of the 300
    # paths, and N = 2 keeps the chunks on the caller one at a time whatever the core count
    monkeypatch.setattr(diffusion, "_CHUNK_MAX_PATHS", 208)
    threads = _noise_threads(monkeypatch)
    for cores in (1, 4):
        monkeypatch.setattr(diffusion, "_CORES", cores)
        term_c, info_c = simulate_pickrell_matrix_paths(p, (0.5, 1.5), cfg, 300, 320)
        assert _same_bytes(term, again) and _same_bytes(term, term_c)
        assert info == info_again == info_c and info["clip_fraction"] > 0
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("simulate", [
    lambda cfg, lift: simulate_laguerre_paths(1.0, 3, (2.0, 1.0, 3.0), cfg, 4, 330),
    lambda cfg, lift: simulate_pickrell_paths(PickrellParams(1.0, 0.5, 3), (2.0, 1.0, 3.0),
                                              cfg, 4, 331),
    lambda cfg, lift: simulate_laguerre_matrix_paths(1, 3, (2.0, 1.0, 3.0), lift, 4, 332),
    lambda cfg, lift: _three(*simulate_pickrell_matrix_paths(
        PickrellParams(1.0, 0.5, 3), (2.0, 1.0, 3.0), lift, 4, 333)),
], ids=["laguerre", "pickrell", "laguerre-lift", "pickrell-lift"])
def test_t0_gives_ascending_rows_and_the_same_info_keys(simulate):
    term, snaps, info = simulate(SdeConfig(1e-2, 0.0), SdeConfig(1e-2, 0.0, Scheme.MATRIX_LIFT))
    assert term.shape == (4, 3) and snaps == {}
    assert np.allclose(term, [1.0, 2.0, 3.0], rtol=1e-12) and np.all(np.diff(term, axis=1) > 0)
    later = simulate(SdeConfig(1e-2, 0.02), SdeConfig(1e-2, 0.02, Scheme.MATRIX_LIFT))[2]
    assert info.keys() == later.keys() and info["n_steps"] == 0 and info["n_paths"] == 4


def test_laguerre_lift_refuses_a_start_its_init_does_not_use():
    lift = SdeConfig(1e-2, 0.1, Scheme.MATRIX_LIFT)
    for x0, init, match in [(None, "diag", "needs a starting configuration"),
                            ((1.0, 2.0), "ginibre", "x0 must be None"),
                            ((-5.0, np.nan), "ginibre", "x0 must be None"),
                            ((1.0, 2.0), "stationary", "unknown init")]:
        with pytest.raises(ValueError, match=match):
            simulate_laguerre_matrix_paths(1, 2, x0, lift, 3, 0, init=init)


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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_pickrell_spectral_step_couples_to_the_matrix_step(n):
    """Fed G = V* dW V, the spectral step gives the eigenvalues of the
    full-matrix step from X = V diag(w) V* under dW, for Haar V, to 1e-12 of
    the row's largest |eigenvalue|, and the same count of clipped paths."""
    rng = generator(340 + n)
    m = 400
    s, alpha = 1.0, -0.8
    clipped_in = clipped_out = 0
    for h in (1e-3, 0.05, 0.3):
        # spectra over several scales, some entries exactly 0 or below it (the clip binds)
        w = rng.exponential(1.0, (m, n)) * 10.0 ** rng.uniform(-4, 1, (m, 1))
        w[rng.random((m, n)) < 0.1] = 0.0
        w[rng.random((m, n)) < 0.1] *= -1.0
        w.sort(axis=1)
        vecs = sample_haar(n, rng, size=m)
        dw = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        g = vecs.conj().transpose(0, 2, 1) @ dw @ vecs
        want, want_clipped = ref_pickrell_matrix_step(s, alpha, w, vecs, dw, h)
        got, got_clipped = diffusion._pickrell_lift_step(s, alpha, w, g, h, 0)
        scale = np.maximum(np.clip(w, 0.0, None), np.abs(want)).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert got_clipped == want_clipped
        clipped_in += int((w < 0).any(axis=1).sum())
        clipped_out += got_clipped
    assert clipped_in > 0 and clipped_out > 0


@pytest.mark.parametrize("lift, m, n", [("laguerre-diag", 3, 2), ("laguerre-ginibre", 3, 2),
                                         ("pickrell", 3, 3)])
def test_lift_chunk_noise_bit_identical_to_the_complex_temporary_fill(monkeypatch, lift, m, n):
    """Each lift draws its chunk noise through the shared drawer, _step_major,
    as (steps, paths, 2, m, n) floats and makes each step's complex noise of
    them; every path's normals come out in the order, and with the bits, of
    the per-path complex temporary, after the Ginibre start where there is one."""
    calls = []
    run_paths = diffusion._run_paths

    def capture(scheme, cfg, n_paths, master_seed, dim, noise_shape, start, *args, **kwargs):
        calls.append((master_seed, noise_shape, start))
        return run_paths(scheme, cfg, n_paths, master_seed, dim, noise_shape, start,
                         *args, **kwargs)

    monkeypatch.setattr(diffusion, "_run_paths", capture)
    cfg = SdeConfig(1e-2, 0.1, Scheme.MATRIX_LIFT)
    x0 = np.arange(1.0, n + 1.0)
    ginibre = lift == "laguerre-ginibre"
    if lift == "pickrell":
        simulate_pickrell_matrix_paths(PickrellParams(1.0, 0.5, n), x0, cfg, 2, 350)
    else:
        simulate_laguerre_matrix_paths(m - n, n, None if ginibre else x0, cfg, 2, 351,
                                       init="ginibre" if ginibre else "diag")
    [(seed, noise_shape, start)] = calls
    paths, n_steps = range(7, 1507), 40
    gens = [diffusion.path_generator(seed, i) for i in paths]
    state = start(slice(7, 1507), gens)
    z = diffusion._step_major(gens, n_steps, noise_shape)
    assert z.shape == (n_steps, len(gens), 2, m, n)
    noise = np.stack([diffusion._complex_noise(step) for step in z])
    want_starts, want = ref_lift_chunk((diffusion.path_generator(seed, i) for i in paths),
                                       n_steps, m, n, ginibre=ginibre)
    assert same_bits(noise.view(float), want.view(float))
    if ginibre:
        assert same_bits(state.view(float), want_starts.view(float))


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

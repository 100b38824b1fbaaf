"""Time-stepping simulators for the interacting particle diffusions.

Two N-particle systems on the non-negative chamber are simulated with a
guarded Euler scheme: the Laguerre system (Ornstein-Uhlenbeck analogue of
non-colliding squared Bessel particles) and the Pickrell system, whose
square-root diffusion coefficient is sqrt(2x(1+x)).  Both admit matrix
lifts whose spectra realize the same laws and are simulated as independent
cross-checks.  The boundary flow of scaled configurations is deterministic
and exposed in closed form.

The guards only repair discretization artifacts (the continuum dynamics
neither collide nor leave the chamber): negative coordinates are reflected
by absolute value, coordinates are re-sorted, exact ties are nudged apart
by 1e-12 (1+|x|), and per-pair repulsion kicks are clamped to half the pair
distance per step (see _pairwise_sum).

Monte Carlo drivers derive one stream per path index from the master seed
(see rng.path_generator), so an ensemble result is bit-reproducible for a
fixed seed regardless of chunking or worker count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chamber import BoundaryPoint, OrderedPoint, as_coords
from .rng import path_generator

__all__ = [
    "Scheme",
    "SdeConfig",
    "PickrellParams",
    "laguerre_drift",
    "pickrell_drift",
    "pickrell_drift_interaction_form",
    "simulate_laguerre_paths",
    "simulate_laguerre_matrix_paths",
    "simulate_pickrell_paths",
    "simulate_pickrell_matrix_paths",
    "boundary_flow",
]

_TIE_EPS = 1e-12
_CHUNK_FLOAT_BUDGET = 2.5e7


class Scheme(enum.Enum):
    EULER_GUARDED = "euler_guarded"
    MATRIX_LIFT = "matrix_lift"


@dataclass(frozen=True)
class SdeConfig:
    """Step size, horizon and scheme tag for one simulation run."""

    dt: float
    t: float
    scheme: Scheme = Scheme.EULER_GUARDED

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt={self.dt} must be > 0")
        if self.t < 0:
            raise ValueError(f"t={self.t} must be >= 0")
        if self.t > 0 and self.dt > self.t * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds horizon t={self.t}")

    def step_sizes(self) -> list:
        if self.t == 0:
            return []
        n_full = int(np.floor(self.t / self.dt + 1e-9))
        rem = self.t - n_full * self.dt
        hs = [self.dt] * n_full
        if rem > 1e-12 * max(1.0, self.t):
            hs.append(rem)
        return hs


@dataclass(frozen=True)
class PickrellParams:
    """Pickrell diffusion parameters: any real s, alpha > -1, dimension n."""

    s: float
    alpha: float
    n: int

    def __post_init__(self):
        if not self.alpha > -1:
            raise ValueError(f"alpha={self.alpha} must be > -1")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------


def _pairwise_sum(x: np.ndarray, numer: np.ndarray, cap_dt: float | None = None) -> np.ndarray:
    """sum_{j != i} numer_ij / (x_i - x_j), rows assumed pairwise distinct.

    With ``cap_dt`` set, each pair's term is clamped so that one Euler step
    of size cap_dt displaces the pair by at most half its current distance.
    Uncapped explicit Euler overshoots once gap^2 < 2 dt (x_i + x_j) and
    ejects particles; the continuum dynamics visit that region with
    probability vanishing in dt, so the clamp only repairs discretization
    artifacts (it is a guard, not a model change).
    """
    m, n = x.shape
    if n == 1:
        return np.zeros((m, 1))
    diff = x[:, :, None] - x[:, None, :]
    eye = np.eye(n, dtype=bool)
    diff[:, eye] = 1.0
    ratio = numer / diff
    if cap_dt is not None:
        cap = np.abs(diff) / (2.0 * cap_dt)
        np.clip(ratio, -cap, cap, out=ratio)
    ratio[:, eye] = 0.0
    return ratio.sum(axis=2)


def _laguerre_drift_rows(alpha: float, x: np.ndarray, cap_dt: float | None = None) -> np.ndarray:
    m, n = x.shape
    numer = x[:, :, None] + x[:, None, :]
    return -x + alpha + n + _pairwise_sum(x, numer, cap_dt)


def _pickrell_drift_rows(s: float, alpha: float, x: np.ndarray, cap_dt: float | None = None) -> np.ndarray:
    # the algebraically equivalent form -s x + N + alpha + sum (2 x_i x_j + x_i + x_j)/(x_i - x_j)
    m, n = x.shape
    numer = 2.0 * x[:, :, None] * x[:, None, :] + x[:, :, None] + x[:, None, :]
    return -s * x + n + alpha + _pairwise_sum(x, numer, cap_dt)


def _require_distinct(x) -> np.ndarray:
    arr = as_coords(x)
    if np.unique(arr).size != arr.size:
        raise ValueError(f"coordinates must be pairwise distinct, got {arr}")
    return arr


def laguerre_drift(alpha: float, n: int, x) -> np.ndarray:
    """Drift -x_i + alpha + N + sum_{j!=i} (x_i+x_j)/(x_i-x_j)."""
    arr = _require_distinct(x)
    if arr.size != n:
        raise ValueError(f"x has dimension {arr.size}, expected {n}")
    return _laguerre_drift_rows(alpha, arr[None, :])[0]


def pickrell_drift(params: PickrellParams, x) -> np.ndarray:
    """Drift -s x_i + N + alpha + sum_{j!=i} (2 x_i x_j + x_i + x_j)/(x_i-x_j)."""
    arr = _require_distinct(x)
    if arr.size != params.n:
        raise ValueError(f"x has dimension {arr.size}, expected {params.n}")
    return _pickrell_drift_rows(params.s, params.alpha, arr[None, :])[0]


def pickrell_drift_interaction_form(params: PickrellParams, x) -> np.ndarray:
    """Equivalent drift (2-2N-s) x_i + alpha + 1 + sum_{j!=i} 2 x_i(1+x_i)/(x_i-x_j)."""
    arr = _require_distinct(x)
    n = params.n
    if arr.size != n:
        raise ValueError(f"x has dimension {arr.size}, expected {n}")
    xi = arr[None, :]
    numer = (2.0 * xi * (1.0 + xi))[:, :, None] * np.ones((1, 1, n))
    inter = _pairwise_sum(xi, numer)[0]
    return (2.0 - 2.0 * n - params.s) * arr + params.alpha + 1.0 + inter


# ---------------------------------------------------------------------------
# guarded Euler engine for particle systems
# ---------------------------------------------------------------------------


def _sanitize_rows(x: np.ndarray) -> tuple:
    """Reflect, sort and un-tie rows in place; returns (rows, guarded mask)."""
    neg = x < 0
    guarded = neg.any(axis=1)
    np.abs(x, out=x)
    x.sort(axis=1)
    for k in range(1, x.shape[1]):
        tie = x[:, k] <= x[:, k - 1]
        if tie.any():
            guarded |= tie
            x[tie, k] = x[tie, k - 1] + _TIE_EPS * (1.0 + np.abs(x[tie, k - 1]))
    return x, guarded


def _euler_particle_chunk(drift_rows, vol_rows, x0, noise, hs, snap_steps):
    x = x0.copy()
    x, _ = _sanitize_rows(x)
    guard_events = 0
    snaps = {}
    for i, h in enumerate(hs):
        d = drift_rows(x, h)
        v = vol_rows(x)
        x = x + d * h + v * np.sqrt(h) * noise[:, i, :]
        if np.isnan(x).any():
            raise RuntimeError(f"NaN state at step {i + 1}; reduce dt")
        x, guarded = _sanitize_rows(x)
        guard_events += int(guarded.sum())
        if (i + 1) in snap_steps:
            snaps[snap_steps[i + 1]] = x.copy()
    return x, snaps, guard_events


def _snapshot_steps(snapshots_at, hs, dt, t) -> dict:
    """Map step index -> requested time; times must sit on the step grid."""
    if not snapshots_at:
        return {}
    out = {}
    for ts in snapshots_at:
        if ts == t and hs:
            out[len(hs)] = ts
            continue
        k = int(round(ts / dt))
        if abs(k * dt - ts) > 1e-9 * max(1.0, t) or k < 1 or k > len(hs):
            raise ValueError(f"snapshot time {ts} is not on the dt grid within [0, {t}]")
        out[k] = ts
    return out


def _require_paths(n_paths: int) -> None:
    if n_paths < 1:
        raise ValueError(f"n_paths={n_paths} must be >= 1")


def _broadcast_x0(x0, n: int, n_paths: int) -> np.ndarray:
    _require_paths(n_paths)
    arr = x0.as_array() if isinstance(x0, OrderedPoint) else np.asarray(x0, dtype=float)
    if arr.ndim == 1:
        if arr.size != n:
            raise ValueError(f"x0 has dimension {arr.size}, expected {n}")
        return np.tile(arr, (n_paths, 1))
    if arr.shape != (n_paths, n):
        raise ValueError(f"x0 has shape {arr.shape}, expected ({n_paths}, {n})")
    return arr.copy()


def _run_particle_paths(drift_rows, vol_rows, x0, n, cfg, n_paths, master_seed, snapshots_at):
    if cfg.scheme is not Scheme.EULER_GUARDED:
        raise ValueError("particle simulation requires the EULER_GUARDED scheme")
    x0_rows = _broadcast_x0(x0, n, n_paths)
    if np.any(x0_rows < 0):
        raise ValueError("x0 must be non-negative")
    hs = cfg.step_sizes()
    snap_steps = _snapshot_steps(snapshots_at, hs, cfg.dt, cfg.t)
    n_steps = len(hs)
    if n_steps == 0:
        return x0_rows.copy(), {}, {"guard_fraction": 0.0, "n_steps": 0, "n_paths": n_paths}
    chunk = max(1, min(n_paths, int(_CHUNK_FLOAT_BUDGET / max(1, n_steps * n))))
    terminal = np.empty_like(x0_rows)
    snaps = {ts: np.empty_like(x0_rows) for ts in (snapshots_at or [])}
    guard_events = 0
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        noise = np.stack(
            [path_generator(master_seed, i).standard_normal((n_steps, n)) for i in range(start, stop)]
        )
        term, chunk_snaps, events = _euler_particle_chunk(
            drift_rows, vol_rows, x0_rows[start:stop], noise, hs, snap_steps
        )
        terminal[start:stop] = term
        for ts, arr in chunk_snaps.items():
            snaps[ts][start:stop] = arr
        guard_events += events
    info = {
        "guard_fraction": guard_events / float(n_paths * n_steps),
        "n_steps": n_steps,
        "n_paths": n_paths,
    }
    return terminal, snaps, info


def _laguerre_vol(x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * np.clip(x, 0.0, None))


def _pickrell_vol(x: np.ndarray) -> np.ndarray:
    xc = np.clip(x, 0.0, None)
    return np.sqrt(2.0 * xc * (1.0 + xc))


def simulate_laguerre_paths(alpha, n, x0, cfg: SdeConfig, n_paths: int, master_seed: int,
                            snapshots_at=None):
    """Terminal states of n_paths guarded-Euler Laguerre paths.

    Returns (terminal (n_paths, n) ascending rows, snapshots dict, info dict).
    """
    return _run_particle_paths(
        lambda x, h: _laguerre_drift_rows(alpha, x, h), _laguerre_vol, x0, n, cfg, n_paths,
        master_seed, snapshots_at
    )


def simulate_pickrell_paths(params: PickrellParams, x0, cfg: SdeConfig, n_paths: int,
                            master_seed: int, snapshots_at=None):
    """Terminal states of n_paths guarded-Euler Pickrell paths."""
    return _run_particle_paths(
        lambda x, h: _pickrell_drift_rows(params.s, params.alpha, x, h),
        _pickrell_vol, x0, params.n, cfg, n_paths, master_seed, snapshots_at,
    )


# ---------------------------------------------------------------------------
# matrix lifts
# ---------------------------------------------------------------------------


def _complex_noise(gen, n_steps: int, m: int, n: int) -> np.ndarray:
    z = gen.standard_normal((n_steps, 2, m, n))
    return z[:, 0] + 1j * z[:, 1]


def _check_matrix_cfg(cfg: SdeConfig, n_paths: int):
    _require_paths(n_paths)
    if cfg.scheme is not Scheme.MATRIX_LIFT:
        raise ValueError("matrix simulation requires the MATRIX_LIFT scheme")


def simulate_laguerre_matrix_paths(alpha, n, x0, cfg: SdeConfig, n_paths: int,
                                   master_seed: int, init: str = "diag",
                                   snapshots_at=None):
    """Squared singular values of entrywise complex OU matrices at the horizon.

    Each path evolves an (n+alpha) x n matrix by dH = dB - H/2 dt where the
    complex Brownian entries have E|dB|^2 = dt.  ``init='diag'`` starts from
    [diag(sqrt(x0)); 0]; ``init='ginibre'`` starts from the stationary law,
    drawn from the path's own stream.  Returns (terminal, snapshots, info).
    """
    _check_matrix_cfg(cfg, n_paths)
    ai = int(alpha)
    if ai != alpha or ai < 0:
        raise ValueError(f"matrix lift needs integer alpha >= 0, got {alpha}")
    m = n + ai
    hs = cfg.step_sizes()
    n_steps = len(hs)
    snap_steps = _snapshot_steps(snapshots_at, hs, cfg.dt, cfg.t)
    x0a = as_coords(x0, expected_dim=n) if x0 is not None else None
    h0_diag = None
    if init == "diag":
        if x0a is None:
            raise ValueError("init='diag' needs a starting configuration x0")
        if np.any(x0a < 0):
            raise ValueError("x0 must be non-negative")
        h0_diag = np.zeros((m, n), dtype=complex)
        h0_diag[:n, :n] = np.diag(np.sqrt(x0a))
    elif init != "ginibre":
        raise ValueError(f"unknown init {init!r}")
    chunk = max(1, min(n_paths, int(_CHUNK_FLOAT_BUDGET / max(1, 2 * n_steps * m * n))))
    terminal = np.empty((n_paths, n))
    snaps = {ts: np.empty((n_paths, n)) for ts in (snapshots_at or [])}
    sqrt_hs = np.sqrt(np.asarray(hs) / 2.0) if n_steps else None

    def spectrum(hmat):
        s = np.linalg.svd(hmat, compute_uv=False)
        return np.maximum(s[:, ::-1], 0.0) ** 2

    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        c = stop - start
        hmat = np.empty((c, m, n), dtype=complex)
        noise = np.empty((c, n_steps, m, n), dtype=complex)
        for k, i in enumerate(range(start, stop)):
            gen = path_generator(master_seed, i)
            if init == "ginibre":
                g = gen.standard_normal((2, m, n))
                hmat[k] = (g[0] + 1j * g[1]) / np.sqrt(2.0)
            else:
                hmat[k] = h0_diag
            noise[k] = _complex_noise(gen, n_steps, m, n)
        for i, h in enumerate(hs):
            hmat = hmat * (1.0 - h / 2.0) + sqrt_hs[i] * noise[:, i]
            if (i + 1) in snap_steps:
                snaps[snap_steps[i + 1]][start:stop] = spectrum(hmat)
        terminal[start:stop] = spectrum(hmat)
    info = {"n_steps": n_steps, "n_paths": n_paths}
    return terminal, snaps, info


def _pickrell_matrix_chunk(s, alpha, n, x0a, noise, hs):
    c = noise.shape[0]
    w = np.tile(x0a, (c, 1))
    vecs = np.tile(np.eye(n, dtype=complex), (c, 1, 1))
    eye = np.eye(n)
    clip_events = 0
    for i, h in enumerate(hs):
        w = np.clip(w, 0.0, None)
        vh = vecs.conj().transpose(0, 2, 1)
        sq_a = (vecs * np.sqrt(w / 2.0)[:, None, :]) @ vh
        sq_b = (vecs * np.sqrt(1.0 + w)[:, None, :]) @ vh
        xc = (vecs * w[:, None, :]) @ vh
        dw = np.sqrt(h) * noise[:, i]
        mterm = sq_a @ dw @ sq_b
        x = xc + mterm + mterm.conj().transpose(0, 2, 1) + (-s * xc + (n + alpha) * eye) * h
        x = 0.5 * (x + x.conj().transpose(0, 2, 1))
        if np.isnan(x).any():
            raise RuntimeError(f"NaN state at step {i + 1}; reduce dt")
        w, vecs = np.linalg.eigh(x)
        clip_events += int((w < 0).any(axis=1).sum())
    return np.clip(w, 0.0, None), clip_events


def simulate_pickrell_matrix_paths(params: PickrellParams, x0, cfg: SdeConfig,
                                   n_paths: int, master_seed: int):
    """Ascending eigenvalues at the horizon of the Hermitian matrix evolution
    dX = sqrt(X/2) dW sqrt(I+X) + sqrt(I+X) dW* sqrt(X/2) + (-s X + (N+alpha) I) dt,
    with E|dW_jk|^2 = 2 dt and projection onto the non-negative cone."""
    _check_matrix_cfg(cfg, n_paths)
    n = params.n
    x0a = as_coords(x0, expected_dim=n)
    if np.any(x0a < 0):
        raise ValueError("x0 must be non-negative")
    hs = cfg.step_sizes()
    n_steps = len(hs)
    if n_steps == 0:
        return np.tile(np.sort(x0a), (n_paths, 1)), {"n_steps": 0, "n_paths": n_paths}
    chunk = max(1, min(n_paths, int(_CHUNK_FLOAT_BUDGET / max(1, 2 * n_steps * n * n))))
    terminal = np.empty((n_paths, n))
    clip_events = 0
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        noise = np.stack(
            [_complex_noise(path_generator(master_seed, i), n_steps, n, n) for i in range(start, stop)]
        )
        w, events = _pickrell_matrix_chunk(params.s, params.alpha, n, x0a, noise, hs)
        terminal[start:stop] = w
        clip_events += events
    info = {
        "n_steps": n_steps,
        "n_paths": n_paths,
        "clip_fraction": clip_events / float(n_paths * n_steps),
    }
    return terminal, info


# ---------------------------------------------------------------------------
# boundary flow
# ---------------------------------------------------------------------------


def boundary_flow(omega0: BoundaryPoint, t: float) -> BoundaryPoint:
    """Exact deterministic boundary dynamics:
    alpha_i(t) = alpha_i(0) exp(-t),  gamma(t) = 1 + (gamma(0) - 1) exp(-t)."""
    if t < 0:
        raise ValueError(f"t={t} must be >= 0")
    decay = np.exp(-t)
    alphas = tuple(a * decay for a in omega0.alphas)
    gamma = 1.0 + (omega0.gamma - 1.0) * decay
    return BoundaryPoint(alphas, gamma)

"""Time-stepping simulators for the interacting particle diffusions.

Two N-particle systems on the non-negative chamber are simulated with a
guarded Euler scheme: the Laguerre system (Ornstein-Uhlenbeck analogue of
non-colliding squared Bessel particles) and the Pickrell system, whose
square-root diffusion coefficient is sqrt(2x(1+x)).  Both admit matrix
lifts whose spectra realize the same laws and are simulated as independent
cross-checks (the Pickrell lift steps only its spectrum, a Markov chain by
itself, in closed form at N <= 2 and by eigvalsh above).  The boundary
flow of scaled configurations is deterministic and exposed in closed form.

The guards only repair discretization artifacts (the continuum dynamics
neither collide nor leave the chamber): negative coordinates are reflected
by absolute value, coordinates are re-sorted, exact ties are nudged apart
by 1e-12 (1+|x|), and per-pair repulsion kicks are clamped to half the pair
distance per step (see _pair_drift).  ``verify`` unties by _sanitize_rows too.

Every simulator runs its paths through _run_paths, the one place where
per-path streams and chunk sizes are decided: path i draws only from its
own stream, Generator(PCG64(rng.child_seed(master_seed, i))), so an
ensemble result is bit-reproducible for a fixed seed whatever the chunking.
A chunk's streams come from one rng.path_streams call, bit for bit the
streams rng.path_generator makes one path at a time.  The chunks run one
after another on the calling thread; independent checks run in parallel
one level up, in verify.run_checks.
All noise comes from one drawer, _step_major: a chunk draws the next block
of steps when it reaches it, at most _BLOCK_FLOAT_BUDGET floats, indexed
(steps, paths, *noise shape) so that each step reads one contiguous block;
the paths' draws are made into a small buffer and copied into place.  The
blocks land in one buffer, made once per run and reused by every chunk.
A chunk is at most _CHUNK_MAX_PATHS paths, and one step of its noise fits
the block budget.  Euler chunks are further capped at _PAIR_FLOAT_BUDGET /
N^2 paths.  Above _COLUMN_MAX_N particles the pair drift is built as (paths,
N, N) tensors in two buffers of the chunk's own, reused by every step, which
that cap keeps in cache; at or below it, column by column on (paths,)
arrays, with the same operations per pair and the same sum order, so both
routes give bit-identical drifts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chamber import BoundaryPoint, _check_start, as_coords
from .kernels import _require_alpha, _require_dim
from .matrixmodel import _check_alpha_int, radial_part_many, sample_ginibre
# path_generator stays bound here for perfbench/spans.py, which wraps it by this path
from .rng import path_generator, path_streams  # noqa: F401

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
# at N = 2, chunks of 2^14 paths and more ran slower than 2^12-2^13 (2-core x86 host)
_CHUNK_MAX_PATHS = 2**13
_PAIR_FLOAT_BUDGET = 2**16
# numpy sums fewer than 8 terms sequentially from +0 and switches to pairwise
# summation from 8 on: the column route reproduces only the former
_COLUMN_MAX_N = 7
_FILL_FLOAT_BUDGET = 2**16  # the buffer that noise is drawn into before it is put in place
_BLOCK_FLOAT_BUDGET = 2**20  # noise a chunk holds at once: steps drawn per block


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
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt={self.dt} must be finite and > 0")
        if not (np.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"t={self.t} must be finite and >= 0")
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
    """Pickrell parameters of the diffusion and of the ensemble it leaves
    invariant: any finite s, alpha > -1, dimension n.  Sampling the ensemble
    additionally requires s > -1 (finite total mass)."""

    s: float
    alpha: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError(f"s={self.s} must be finite")
        _require_alpha(self.alpha)
        _require_dim(self.n)


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------


def _pair_columns(x: np.ndarray, numer_of, cap_dt: float | None) -> np.ndarray:
    """_pair_drift for n <= _COLUMN_MAX_N, one (m,) column per ordered pair.

    Each term takes the tensor route's operations in its order; x_j - x_i
    is exactly -(x_i - x_j), so a pair shares its difference and clamp.  Row
    i adds its terms in j order onto +0, as numpy's short-row sum does; the
    zero diagonal term is skipped, since adding +0 to a sum started at +0
    changes no bit.
    """
    m, n = x.shape
    out = np.zeros((m, n))
    for i in range(n):
        for j in range(i + 1, n):
            diff = np.subtract(x[:, i], x[:, j])
            if cap_dt is not None:
                cap = np.divide(np.abs(diff), 2.0 * cap_dt)
                neg_cap = np.negative(cap)
            for a, b, d in ((i, j, diff), (j, i, np.negative(diff))):
                numer = numer_of(x[:, a], x[:, b])
                ratio = np.divide(numer, d, out=numer)
                if cap_dt is not None:
                    np.minimum(ratio, cap, out=ratio)
                    np.maximum(ratio, neg_cap, out=ratio)
                out[:, a] += ratio
    return out


def _pair_drift(x: np.ndarray, numer_of, cap_dt: float | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """sum_{j != i} numer_of(x_i, x_j) / (x_i - x_j), rows assumed pairwise distinct.

    With ``cap_dt`` set, each pair's term is clamped so that one Euler step
    of size cap_dt displaces the pair by at most half its current distance.
    Uncapped explicit Euler overshoots once gap^2 < 2 dt (x_i + x_j) and
    ejects particles; the continuum dynamics visit that region with
    probability vanishing in dt, so the clamp only repairs discretization
    artifacts (it is a guard, not a model change).

    More than one row of at most _COLUMN_MAX_N columns takes the column
    route, _pair_columns.  Otherwise the terms are (m, n, n) tensors in
    ``work``, a (2, >= m, n, n) workspace (fresh when None): the numerators,
    then the ratios, in work[0] and the differences in work[1].  A single
    row, as the public drifts pass, takes the tensor route: there the cost
    is the number of numpy calls, not the arithmetic.
    """
    m, n = x.shape
    if n <= _COLUMN_MAX_N and m > 1:
        return _pair_columns(x, numer_of, cap_dt)
    work = np.empty((2, m, n, n)) if work is None else work[:, :m]
    ratio = numer_of(x[:, :, None], x[:, None, :], out=work[0])
    diff = np.subtract(x[:, :, None], x[:, None, :], out=work[1])
    diff.reshape(m, n * n)[:, :: n + 1] = 1.0
    np.divide(ratio, diff, out=ratio)
    if cap_dt is not None:
        cap = np.divide(np.abs(diff, out=diff), 2.0 * cap_dt, out=diff)
        np.minimum(ratio, cap, out=ratio)
        np.maximum(ratio, np.negative(cap, out=cap), out=ratio)
    ratio.reshape(m, n * n)[:, :: n + 1] = 0.0
    return ratio.sum(axis=2)


def _laguerre_numer(xi, xj, out=None):
    return np.add(xi, xj, out=out)


def _pickrell_numer(xi, xj, out=None):
    numer = np.multiply(2.0 * xi, xj, out=out)
    numer += xi
    numer += xj
    return numer


def _interaction_numer(xi, xj, out=None):
    return np.multiply(2.0 * xi, 1.0 + xi, out=out)


def _laguerre_drift_rows(alpha: float, x: np.ndarray, cap_dt: float | None = None,
                         work: np.ndarray | None = None) -> np.ndarray:
    return -x + alpha + x.shape[1] + _pair_drift(x, _laguerre_numer, cap_dt, work)


def _pickrell_drift_rows(s: float, alpha: float, x: np.ndarray, cap_dt: float | None = None,
                         work: np.ndarray | None = None) -> np.ndarray:
    # the algebraically equivalent form -s x + N + alpha + sum (2 x_i x_j + x_i + x_j)/(x_i - x_j)
    return -s * x + x.shape[1] + alpha + _pair_drift(x, _pickrell_numer, cap_dt, work)


def _require_distinct(x, n: int) -> np.ndarray:
    arr = as_coords(x, expected_dim=n)
    if np.unique(arr).size != arr.size:
        raise ValueError(f"coordinates must be pairwise distinct, got {arr}")
    return arr


def laguerre_drift(alpha: float, n: int, x) -> np.ndarray:
    """Drift -x_i + alpha + N + sum_{j!=i} (x_i+x_j)/(x_i-x_j)."""
    _require_alpha(alpha)
    return _laguerre_drift_rows(alpha, _require_distinct(x, n)[None, :])[0]


def pickrell_drift(params: PickrellParams, x) -> np.ndarray:
    """Drift -s x_i + N + alpha + sum_{j!=i} (2 x_i x_j + x_i + x_j)/(x_i-x_j)."""
    arr = _require_distinct(x, params.n)
    return _pickrell_drift_rows(params.s, params.alpha, arr[None, :])[0]


def pickrell_drift_interaction_form(params: PickrellParams, x) -> np.ndarray:
    """Equivalent drift (2-2N-s) x_i + alpha + 1 + sum_{j!=i} 2 x_i(1+x_i)/(x_i-x_j)."""
    n = params.n
    arr = _require_distinct(x, n)
    inter = _pair_drift(arr[None, :], _interaction_numer)[0]
    return (2.0 - 2.0 * n - params.s) * arr + params.alpha + 1.0 + inter


# ---------------------------------------------------------------------------
# chunked path runner and guarded Euler engine for particle systems
# ---------------------------------------------------------------------------


def _snapshot_steps(snapshots_at, hs, dt, t) -> dict:
    """Map step index -> every requested time on that step; times must sit
    on the step grid."""
    if not snapshots_at:
        return {}
    out = {}
    for ts in snapshots_at:
        if ts == t and hs:
            out.setdefault(len(hs), []).append(ts)
            continue
        k = int(round(ts / dt))
        if abs(k * dt - ts) > 1e-9 * max(1.0, t) or k < 1 or k > len(hs):
            raise ValueError(f"snapshot time {ts} is not on the dt grid within [0, {t}]")
        out.setdefault(k, []).append(ts)
    return out


def _run_paths(scheme: Scheme, cfg: SdeConfig, n_paths: int, master_seed: int, n: int,
               noise_shape: tuple, start, step, observe, *, snapshots_at=None,
               guard_key=None, max_chunk=None):
    """Run n_paths paths in chunks of at most max_chunk paths, one after
    another, as the module docstring sets out; returns (terminal, snapshots,
    info).  A path's noise is a ``noise_shape`` array per step.
    ``start(rows, gens)`` returns the initial state of the paths in the
    slice ``rows``, one generator per path in ``gens``; ``step(state,
    noise_i, h, i)`` returns the next state and its count of guarded paths;
    ``observe(state)`` returns (paths, n) ascending rows.
    ``info[guard_key]`` is the guarded fraction of path-steps.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths={n_paths} must be >= 1")
    if cfg.scheme is not scheme:
        raise ValueError(f"this simulation requires the {scheme.name} scheme")
    hs = cfg.step_sizes()
    snap_steps = _snapshot_steps(snapshots_at, hs, cfg.dt, cfg.t)
    n_steps = len(hs)
    noise_floats = int(np.prod(noise_shape))
    chunk = max(1, min(n_paths, _CHUNK_MAX_PATHS, _BLOCK_FLOAT_BUDGET // noise_floats,
                       n_paths if max_chunk is None else max_chunk))
    chunks = [slice(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    terminal = np.empty((n_paths, n))
    snaps = {ts: np.empty((n_paths, n)) for ts in (snapshots_at or [])}

    def block_steps(paths):
        return max(1, _BLOCK_FLOAT_BUDGET // (paths * noise_floats))

    # the noise buffer, holding any chunk's largest block
    slot = np.empty(noise_floats * max(
        min(n_steps, block_steps(rows.stop - rows.start)) * (rows.stop - rows.start)
        for rows in chunks))

    guarded = 0
    for rows in chunks:  # each to the horizon, drawing its noise block by block into slot
        gens = path_streams(master_seed, rows.start, rows.stop)
        block = block_steps(len(gens))
        state = start(rows, gens)
        for i, h in enumerate(hs):
            if i % block == 0:
                noise = _step_major(gens, min(block, n_steps - i), noise_shape, slot)
            state, events = step(state, noise[i % block], h, i)
            guarded += events
            if (i + 1) in snap_steps:
                rows_now = observe(state)
                for ts in snap_steps[i + 1]:
                    snaps[ts][rows] = rows_now
        terminal[rows] = observe(state)
    info = {"n_steps": n_steps, "n_paths": n_paths}
    if guard_key is not None:
        info[guard_key] = guarded / float(n_paths * n_steps) if n_steps else 0.0
    return terminal, snaps, info


def _sort_rows(x: np.ndarray) -> None:
    """Sort rows free of NaN and -0 in place.  Up to _COLUMN_MAX_N columns
    this is an odd-even transposition network of min/max compare-exchanges:
    equal values are then equal bits, so it leaves what a sort leaves."""
    n = x.shape[1]
    if n > _COLUMN_MAX_N:
        x.sort(axis=1)
        return
    for rnd in range(n):
        for k in range(rnd % 2, n - 1, 2):
            lo = np.minimum(x[:, k], x[:, k + 1])
            np.maximum(x[:, k], x[:, k + 1], out=x[:, k + 1])
            x[:, k] = lo


def _step_major(gens, k: int, shape: tuple, out=None) -> np.ndarray:
    """(k, len(gens), *shape) standard normals; path p's (k, *shape) draws
    come from the p-th of ``gens``, written over the start of the flat float
    array ``out`` when one is given.  They are drawn into a buffer of
    _FILL_FLOAT_BUDGET floats, or of one step where that is more, and each
    fill is put in place with one copy: as many whole paths as fit at a
    time, or, when one path's k steps do not, that path's steps a run at a
    time (a generator fills in two calls what it fills in one)."""
    c, f = len(gens), int(np.prod(shape))
    noise = np.empty((k, c, f)) if out is None else out[:k * c * f].reshape(k, c, f)
    per_fill = max(1, min(c, _FILL_FLOAT_BUDGET // (k * f)))
    steps = max(1, min(k, _FILL_FLOAT_BUDGET // f))  # k when a fill holds whole paths
    buf = np.empty((per_fill, steps, f))
    for lo in range(0, c, per_fill):
        fill_gens = gens[lo:lo + per_fill]
        for s in range(0, k, steps):
            fill = buf[:len(fill_gens), :k - s]
            for gen, path in zip(fill_gens, fill):
                gen.standard_normal(out=path)
            noise[s:s + fill.shape[1], lo:lo + len(fill)] = fill.swapaxes(0, 1)
    return noise.reshape(k, c, *shape)


def _complex_noise(z: np.ndarray) -> np.ndarray:
    """One step's (paths, m, n) complex lift noise from its (paths, 2, m, n) draws."""
    g = np.empty(z[:, 0].shape, dtype=complex)
    g.real, g.imag = z[:, 0], z[:, 1]
    return g


def _any_per_row(mask: np.ndarray) -> np.ndarray:
    """mask.any(axis=1); numpy reduces short rows slowly, so up to
    _COLUMN_MAX_N columns this ORs the columns instead."""
    if mask.shape[1] > _COLUMN_MAX_N:
        return mask.any(axis=1)
    out = mask[:, 0].copy()
    for k in range(1, mask.shape[1]):
        out |= mask[:, k]
    return out


def _sanitize_rows(x: np.ndarray) -> tuple:
    """Reflect, sort and un-tie NaN-free rows in place; returns (rows, guarded mask)."""
    guarded = _any_per_row(x < 0)
    np.abs(x, out=x)
    _sort_rows(x)
    n = x.shape[1]
    # short rows: the loop below checks column by column anyway, and faster
    if n > _COLUMN_MAX_N and not (x[:, 1:] <= x[:, :-1]).any():
        return x, guarded
    for k in range(1, n):
        tie = x[:, k] <= x[:, k - 1]
        if tie.any():
            guarded |= tie
            x[tie, k] = x[tie, k - 1] + _TIE_EPS * (1.0 + np.abs(x[tie, k - 1]))
    return x, guarded


def _run_euler(drift_rows, vol_rows, x0, n, cfg, n_paths, master_seed, snapshots_at):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((n,), (n_paths, n)):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},) or ({n_paths}, {n})")
    _check_start(x0, "x0")

    def start(rows, gens):
        # the state carries the chunk's own (2, paths, n, n) pair workspace, reused by every step
        x = np.array(np.broadcast_to(x0, (n_paths, n))[rows])
        work = np.empty((2, x.shape[0], n, n)) if n > _COLUMN_MAX_N else None
        return _sanitize_rows(x)[0], work

    def step(state, noise_i, h, i):
        x, work = state
        d = drift_rows(x, h, work)
        v = vol_rows(x)
        x = x + d * h + v * np.sqrt(h) * noise_i
        if np.isnan(x).any():
            raise RuntimeError(f"NaN state at step {i + 1}; reduce dt")
        x, guarded = _sanitize_rows(x)
        return (x, work), int(guarded.sum())

    return _run_paths(Scheme.EULER_GUARDED, cfg, n_paths, master_seed, n, (n,), start, step,
                      lambda state: state[0], snapshots_at=snapshots_at,
                      guard_key="guard_fraction", max_chunk=_PAIR_FLOAT_BUDGET // (n * n))


# the volatilities see only rows that _sanitize_rows has reflected to x >= 0
def _laguerre_vol(x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * x)


def _pickrell_vol(x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * x * (1.0 + x))


def simulate_laguerre_paths(alpha, n, x0, cfg: SdeConfig, n_paths: int, master_seed: int,
                            snapshots_at=None):
    """Terminal states of n_paths guarded-Euler Laguerre paths.

    Returns (terminal (n_paths, n) ascending rows, snapshots dict, info dict).
    """
    _require_alpha(alpha)
    _require_dim(n)
    return _run_euler(lambda x, h, work: _laguerre_drift_rows(alpha, x, h, work),
                      _laguerre_vol, x0, n, cfg, n_paths, master_seed, snapshots_at)


def simulate_pickrell_paths(params: PickrellParams, x0, cfg: SdeConfig, n_paths: int,
                            master_seed: int, snapshots_at=None):
    """Terminal states of n_paths guarded-Euler Pickrell paths."""
    return _run_euler(lambda x, h, work: _pickrell_drift_rows(params.s, params.alpha, x, h, work),
                      _pickrell_vol, x0, params.n, cfg, n_paths, master_seed, snapshots_at)


# ---------------------------------------------------------------------------
# matrix lifts
# ---------------------------------------------------------------------------


def simulate_laguerre_matrix_paths(alpha, n, x0, cfg: SdeConfig, n_paths: int,
                                   master_seed: int, init: str = "diag",
                                   snapshots_at=None):
    """Squared singular values of entrywise complex OU matrices at the horizon.

    Each path evolves an (n+alpha) x n matrix by dH = dB - H/2 dt where the
    complex Brownian entries have E|dB|^2 = dt.  ``init='diag'`` starts from
    [diag(sqrt(x0)); 0]; ``init='ginibre'`` starts from the stationary law,
    drawn from the path's own stream.  Returns (terminal, snapshots, info).
    """
    _require_dim(n)
    m = n + _check_alpha_int(alpha)
    if init == "diag":
        if x0 is None:
            raise ValueError("init='diag' needs a starting configuration x0")
        x0a = as_coords(x0, expected_dim=n)
        _check_start(x0a, "x0")
        h0_diag = np.zeros((m, n), dtype=complex)
        h0_diag[:n, :n] = np.diag(np.sqrt(x0a))
    elif init == "ginibre":
        if x0 is not None:
            raise ValueError("init='ginibre' draws its own start; x0 must be None")
    else:
        raise ValueError(f"unknown init {init!r}")

    def start(rows, gens):
        if init == "diag":
            return np.broadcast_to(h0_diag, (rows.stop - rows.start, m, n))
        # a stationary start is drawn first from the path's stream
        return np.array([sample_ginibre(m, n, gen) for gen in gens])

    return _run_paths(Scheme.MATRIX_LIFT, cfg, n_paths, master_seed, n, (2, m, n), start,
                      lambda hmat, z, h, i: (hmat * (1.0 - h / 2.0)
                                             + np.sqrt(h / 2.0) * _complex_noise(z), 0),
                      radial_part_many, snapshots_at=snapshots_at)


def _pickrell_lift_step(s, alpha, w, noise_i, h, i) -> tuple:
    """One step of the spectra w (paths, n) with G = noise_i: (next spectra, paths off the cone).

    Above n = 2 it builds X' and calls eigvalsh.  At n <= 2 it takes X''s
    entries a, d (the spectrum at n = 1) and b = X'_01 from w and G by the
    same operations; the spectrum is c -+ r, c = (a + d)/2 and
    r = hypot((a - d)/2, |b|).  Where c > 0 the smaller one is det / (c + r),
    free of c - r's cancellation near the cone, taken as (a/t) d - (|b|/t) |b|
    with t = |c| + r >= |a|, |d|, |b| so that no product overflows.
    """
    w = np.clip(w, 0.0, None)
    n = w.shape[1]
    root_a, root_b = np.sqrt(h) * np.sqrt(w / 2.0), np.sqrt(1.0 + w)
    shift = w + (-s * w + (n + alpha)) * h
    if n > 2:
        mterm = root_a[:, :, None] * noise_i * root_b[:, None, :]
        x = mterm + mterm.conj().transpose(0, 2, 1)
        diag = np.arange(n)
        x[:, diag, diag] += shift
        nan = np.isnan(x).any()
    else:
        x = 2.0 * (root_a * np.diagonal(noise_i.real, axis1=1, axis2=2) * root_b) + shift
        nan = np.isnan(x).any()
        if n == 2:
            b = (root_a[:, 0] * noise_i[:, 0, 1] * root_b[:, 1]
                 + (root_a[:, 1] * noise_i[:, 1, 0] * root_b[:, 0]).conj())
            nan = nan or np.isnan(b).any()
    if nan:
        raise RuntimeError(f"NaN state at step {i + 1}; reduce dt")
    if n > 2:
        w = np.linalg.eigvalsh(x)
    elif n == 2:
        a, d, b = x[:, 0], x[:, 1], np.abs(b)
        half = 0.5 * x  # no overflow in (a + d)/2
        c, r = half[:, 0] + half[:, 1], np.hypot(half[:, 0] - half[:, 1], b)
        t = np.abs(c) + r
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0: a zero matrix, c - r
            lo = np.where(c > 0, (a / t) * d - (b / t) * b, c - r)
        hi = c + r
        w = np.stack((np.minimum(lo, hi), hi), axis=1)
    else:
        w = x
    return w, int(_any_per_row(w < 0).sum())


def simulate_pickrell_matrix_paths(params: PickrellParams, x0, cfg: SdeConfig,
                                   n_paths: int, master_seed: int):
    """Ascending eigenvalues at the horizon of the Hermitian matrix evolution
    dX = sqrt(X/2) dW sqrt(I+X) + sqrt(I+X) dW* sqrt(X/2) + (-s X + (N+alpha) I) dt,
    with E|dW_jk|^2 = 2 dt and projection onto the non-negative cone.
    Returns (terminal, info); info["clip_fraction"] is the fraction of
    path-steps whose spectrum left the cone.

    Only the spectrum w is simulated: with X = V diag(w) V*, a step gives
    V* X' V = diag(w + h(-s w + N + alpha)) + M + M*, M = sqrt(h) D_a G D_b,
    D_a = sqrt(w/2), D_b = sqrt(1+w), and G = V* dW V has the law of dW
    whatever V is, so the spectra are a Markov chain and G is drawn afresh.
    """
    s, alpha, n = params.s, params.alpha, params.n
    x0a = as_coords(x0, expected_dim=n)
    _check_start(x0a, "x0")

    # every step returns ascending spectra; the sort orders a t = 0 start
    terminal, _, info = _run_paths(
        Scheme.MATRIX_LIFT, cfg, n_paths, master_seed, n, (2, n, n),
        lambda rows, gens: np.tile(x0a, (rows.stop - rows.start, 1)),
        lambda w, z, h, i: _pickrell_lift_step(s, alpha, w, _complex_noise(z), h, i),
        lambda w: np.sort(np.clip(w, 0.0, None), axis=1), guard_key="clip_fraction")
    return terminal, info


# ---------------------------------------------------------------------------
# boundary flow
# ---------------------------------------------------------------------------


def boundary_flow(omega0: BoundaryPoint, t: float) -> BoundaryPoint:
    """Exact deterministic boundary dynamics:
    alpha_i(t) = alpha_i(0) exp(-t),  gamma(t) = 1 + (gamma(0) - 1) exp(-t);
    t = inf gives the limit gamma = 1 with every mass 0."""
    if not t >= 0:  # NaN fails too
        raise ValueError(f"t={t} must be >= 0")
    decay = np.exp(-t)
    alphas = tuple(a * decay for a in omega0.alphas)
    gamma = 1.0 + (omega0.gamma - 1.0) * decay
    return BoundaryPoint(alphas, gamma)

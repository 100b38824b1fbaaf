"""Shared oracles for the test suite (independent of the code paths they check)."""

import math

import numpy as np

from intertwine.chamber import Partition


def lambda_plus_cdf_12(y):
    """Closed-form CDF of the (2 -> 1) link at x = (1, 2), alpha = 0.

    Density log(2 / max(1, y)) on [0, 2]; integrates to y log 2 below 1 and
    y log(2/y) + y - 1 above."""
    y = np.asarray(y, dtype=float)
    out = np.where(y <= 1.0, y * math.log(2.0),
                   y * np.log(2.0 / np.clip(y, 1e-300, None)) + y - 1.0)
    return np.clip(out, 0.0, 1.0)


def partitions_up_to(max_weight, max_len):
    """All partitions of weight <= max_weight with at most max_len parts."""
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for part in range(min(remaining, cap), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], max_weight, max_weight)
    return [Partition(p) for p in out]


def _strict(x, nonneg):
    xa = np.asarray(x, dtype=float)
    assert np.all(np.diff(xa) > 0) and (not nonneg or xa[0] > 0)
    return xa


def _vdm(v):
    out = 1.0
    for i in range(v.size):
        for j in range(i + 1, v.size):
            out *= v[j] - v[i]
    return out


def ref_density_L(x, y):
    """Scalar per-point reference for ``kernels.density_L_rows``, one point
    at a time with the same operation order."""
    xa = _strict(x, nonneg=False)
    ya = np.asarray(y, dtype=float)
    n = ya.size
    if np.any(np.diff(ya) < 0):
        return 0.0
    if not (np.all(xa[:-1] <= ya) and np.all(ya <= xa[1:])):
        return 0.0
    return math.factorial(n) * _vdm(ya) / _vdm(xa)


def ref_density_lambda_eq(alpha, x, y):
    """Scalar per-point reference for ``kernels.density_lambda_eq_rows``."""
    xa = _strict(x, nonneg=True)
    ya = np.asarray(y, dtype=float)
    n = xa.size
    if np.any(np.diff(ya) < 0) or ya[0] < 0:
        return 0.0
    if not (np.all(ya <= xa) and np.all(xa[:-1] <= ya[1:])):
        return 0.0
    if ya[0] == 0.0 and alpha < 0:
        return math.inf
    with np.errstate(divide="ignore"):
        ratio = float(np.prod(ya**alpha / xa ** (alpha + 1)))
    sf = 1.0
    for k in range(n):
        sf *= alpha + 1 + k
    return sf * ratio * _vdm(ya) / _vdm(xa)


def ref_density_lambda_plus(alpha, x, y):
    """Scalar per-point reference for ``kernels.density_lambda_plus_rows``
    (Python floats and the math module for the interval weights)."""
    xa = _strict(x, nonneg=True)
    ya = np.asarray(y, dtype=float)
    n = xa.size - 1
    if np.any(np.diff(ya) < 0) or ya[0] < 0:
        return 0.0
    weight = 1.0
    for k in range(n):
        lo_ind = xa[k - 1] if k >= 1 else 0.0
        if not (lo_ind <= ya[k] <= xa[k + 1]):
            return 0.0
        upper = xa[k + 1] if k == n - 1 else min(xa[k + 1], ya[k + 1])
        a, b, yk = float(max(xa[k], ya[k])), float(upper), float(ya[k])
        if a <= 0 or a >= b:
            return 0.0
        if abs(alpha) < 1e-10:
            weight *= math.log(b / a)
        else:
            weight *= (yk / a) ** alpha * (-math.expm1(-alpha * math.log(b / a))) / alpha
        if weight == 0.0:
            return 0.0
    sf = 1.0
    for k in range(n):
        sf *= alpha + 1 + k
    return math.factorial(n) * sf * _vdm(ya) / _vdm(xa) * weight


def ref_cell_mask(kind, x, rows):
    """The interlacing-cell masks of the three ``density_*_rows`` as each
    spelled its cell out before the cells had one definition: rows of
    ``rows`` in the cell of link ``kind`` at the source x."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(rows, dtype=float)
    ascending = np.all(np.diff(ya, axis=1) >= 0, axis=1)
    if kind == "L":
        return ascending & np.all(xa[:-1] <= ya, axis=1) & np.all(ya <= xa[1:], axis=1)
    if kind == "lambda_eq":
        return (ascending & (ya[:, 0] >= 0)
                & np.all(ya <= xa, axis=1) & np.all(xa[:-1] <= ya[:, 1:], axis=1))
    lo_ind = np.concatenate([[0.0], xa[:-2]])
    return ascending & (ya[:, 0] >= 0) & np.all((lo_ind <= ya) & (ya <= xa[1:]), axis=1)


def ref_rejection_fill(propose, accept_ratio, m, n, rng, retry_cap=10**7):
    """The row-wise rejection loop the link samplers shared before the
    single cell routine, with its propose/ratio callbacks."""
    out = np.empty((m, n))
    pending = np.ones(m, dtype=bool)
    rounds = 0
    while pending.any():
        idx = np.flatnonzero(pending)
        y = propose(idx, rng)
        ratio = accept_ratio(idx, y)
        acc = rng.uniform(size=idx.size) < ratio
        out[idx[acc]] = y[acc]
        pending[idx[acc]] = False
        rounds += 1
        if rounds >= retry_cap and pending.any():
            raise RuntimeError(f"rejection sampler exceeded {retry_cap} attempts for a row")
    return out


def _gap_products(hi, lo):
    m, n = hi.shape
    out = np.ones(m)
    for i in range(n):
        for j in range(i + 1, n):
            out *= hi[:, j] - lo[:, i]
    return out


def ref_sample_L_each(xs, rng, retry_cap=10**7):
    """The parameter-free link sampler with its own affine proposal."""
    xs = np.asarray(xs, dtype=float)
    m, np1 = xs.shape
    n = np1 - 1
    lo, hi = xs[:, :-1], xs[:, 1:]
    env = _gap_products(hi, lo)

    def propose(idx, rng):
        u = rng.uniform(size=(idx.size, n))
        return lo[idx] + u * (hi[idx] - lo[idx])

    def ratio(idx, y):
        return _gap_products(y, y) / env[idx]

    return ref_rejection_fill(propose, ratio, m, n, rng, retry_cap)


def ref_sample_lambda_eq_each(alpha, xs, rng, retry_cap=10**7):
    """The (N -> N) alpha-link sampler with its own power proposal."""
    xs = np.asarray(xs, dtype=float)
    m, n = xs.shape
    lo = np.concatenate([np.zeros((m, 1)), xs[:, :-1]], axis=1)
    ap1 = alpha + 1.0
    lo_p, hi_p = lo**ap1, xs**ap1
    env = _gap_products(xs, lo)

    def propose(idx, rng):
        u = rng.uniform(size=(idx.size, n))
        return (u * (hi_p[idx] - lo_p[idx]) + lo_p[idx]) ** (1.0 / ap1)

    def ratio(idx, y):
        return _gap_products(y, y) / env[idx]

    return ref_rejection_fill(propose, ratio, m, n, rng, retry_cap)


def ref_sample_lambda_plus_each(alpha, xs, rng, retry_cap=10**7):
    """The (N+1 -> N) alpha-link sampler as it was before its source was
    checked up front: the L stage, then up to 64 redraws of any intermediate
    row that is not strictly increasing with z_1 > 0, then the (N -> N)
    stage."""
    xs = np.asarray(xs, dtype=float)
    assert np.all(xs[:, 0] > 0)
    z = ref_sample_L_each(xs, rng, retry_cap)
    for _ in range(64):
        bad = (z[:, 0] <= 0) | np.any(np.diff(z, axis=1) <= 0, axis=1)
        if not bad.any():
            break
        z[bad] = ref_sample_L_each(xs[bad], rng, retry_cap)
    else:
        raise RuntimeError("could not draw an interior intermediate point")
    return ref_sample_lambda_eq_each(alpha, z, rng, retry_cap)


def ref_pairwise_sum(x, numer, cap_dt=None):
    """Mask-and-clip reference for ``diffusion._pair_drift`` given its
    (m, n, n) numerator tensor: the tensor route's operations in the same
    order, on fresh arrays, with boolean-mask writes on the diagonal and an
    array-bound ``np.clip``."""
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


def ref_pickrell_matrix_step(s, alpha, w, vecs, dw, h):
    """The Pickrell lift's full-matrix Euler step, before the lift carried
    only its spectrum: from X = vecs diag(clip(w)) vecs*, the square roots
    sqrt(X/2) and sqrt(I+X) are built from the eigenvectors and
    X' = X + sqrt(X/2) dW sqrt(I+X) + (.)* + (-s X + (N+alpha) I) h, with
    dW = sqrt(h) ``dw``.  Returns (eigenvalues, paths with a negative
    eigenvalue)."""
    n = w.shape[1]
    w = np.clip(w, 0.0, None)
    vh = vecs.conj().transpose(0, 2, 1)
    sq_a = (vecs * np.sqrt(w / 2.0)[:, None, :]) @ vh
    sq_b = (vecs * np.sqrt(1.0 + w)[:, None, :]) @ vh
    xc = (vecs * w[:, None, :]) @ vh
    mterm = sq_a @ (np.sqrt(h) * dw) @ sq_b
    x = xc + mterm + mterm.conj().transpose(0, 2, 1) + (-s * xc + (n + alpha) * np.eye(n)) * h
    x = 0.5 * (x + x.conj().transpose(0, 2, 1))
    w = np.linalg.eigh(x)[0]
    return w, int((w < 0).any(axis=1).sum())


def ref_lift_chunk(gens, n_steps, m, n, ginibre=False):
    """A matrix lift's chunk start as drawn before the draws went straight
    into the chunk array: per path, an optional Ginibre start first, then one
    (n_steps, 2, m, n) normal draw made complex through a temporary and copied
    into the step-major (n_steps, paths, m, n) noise.  Returns (starts, noise);
    starts is None without a Ginibre start."""
    gens = list(gens)
    starts = np.empty((len(gens), m, n), dtype=complex) if ginibre else None
    noise = np.empty((n_steps, len(gens), m, n), dtype=complex)
    for k, gen in enumerate(gens):
        if ginibre:
            starts[k] = (gen.standard_normal((m, n))
                         + 1j * gen.standard_normal((m, n))) / np.sqrt(2.0)
        z = gen.standard_normal((n_steps, 2, m, n))
        noise[:, k] = z[:, 0] + 1j * z[:, 1]
    return starts, noise


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns: unlike ``np.array_equal``,
    +0 and -0 differ (and a NaN equals itself)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def ref_sanitize_rows(x):
    """The Euler guard before the sort network: reflect, ``np.sort`` and
    un-tie rows in place; returns (rows, guarded mask)."""
    neg = x < 0
    guarded = neg.any(axis=1)
    np.abs(x, out=x)
    x.sort(axis=1)
    if not (x[:, 1:] <= x[:, :-1]).any():
        return x, guarded
    for k in range(1, x.shape[1]):
        tie = x[:, k] <= x[:, k - 1]
        if tie.any():
            guarded |= tie
            x[tie, k] = x[tie, k - 1] + 1e-12 * (1.0 + np.abs(x[tie, k - 1]))
    return x, guarded


# A log-space random-walk Metropolis chain, an independent route to the
# ensembles' laws for the exact samplers to be checked against: one normal
# block and one uniform block per step, and a target density that takes
# every log itself.

def ref_log_vdm_sq_density_rows(log_weight, rows):
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    out = np.full(m, -np.inf)
    ok = np.all(rows > 0, axis=1) & np.all(np.diff(rows, axis=1) > 0, axis=1)
    if not ok.any():
        return out
    r = rows[ok]
    logw = log_weight(r)
    logv = np.zeros(r.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            logv += 2.0 * np.log(r[:, j] - r[:, i])
    out[ok] = logv + logw
    return out


def ref_pickrell_log_density_rows(params, rows):
    def log_weight(r):
        expo = -(2.0 * r.shape[1] + params.alpha + params.s)
        return params.alpha * np.log(r).sum(axis=1) + expo * np.log1p(r).sum(axis=1)

    return ref_log_vdm_sq_density_rows(log_weight, rows)


def ref_laguerre_log_density_rows(alpha, rows):
    return ref_log_vdm_sq_density_rows(lambda r: alpha * np.log(r).sum(axis=1) - r.sum(axis=1),
                                       rows)


def ref_logspace_rw_chain(log_target_rows, n, n_samples, rng):
    step, burn_in, thin = 2.0, 10_000, 10
    n_chains = max(1, min(50, n_samples))
    kept_per_chain = -(-n_samples // n_chains)
    n_steps = burn_in + thin * kept_per_chain
    x = np.sort(rng.gamma(shape=2.0, scale=1.0, size=(n_chains, n)), axis=1)
    for k in range(1, n):
        tie = x[:, k] <= x[:, k - 1]
        x[tie, k] = x[tie, k - 1] * (1.0 + 1e-9) + 1e-12
    log_pi = log_target_rows(x) + np.log(x).sum(axis=1)
    kept = []
    accepted = 0
    proposed = 0
    for it in range(n_steps):
        prop = np.sort(x * np.exp(step * rng.standard_normal(size=x.shape)), axis=1)
        log_pi_prop = log_target_rows(prop) + np.log(prop).sum(axis=1)
        acc = np.log(rng.uniform(size=n_chains)) < log_pi_prop - log_pi
        x[acc] = prop[acc]
        log_pi[acc] = log_pi_prop[acc]
        accepted += int(acc.sum())
        proposed += n_chains
        if it >= burn_in and (it - burn_in) % thin == 0:
            kept.append(x.copy())
    out = np.concatenate(kept, axis=0)[:n_samples]
    info = {"method": "mcmc-logspace", "acceptance_rate": accepted / proposed,
            "burn_in": burn_in, "thin": thin, "step": step, "n_chains": n_chains}
    return out, info


def mean_distance(x, y):
    """Mean Euclidean distance over all pairs of rows of x and y, from the
    differences themselves: no sorting, no matrix product."""
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    y = np.asarray(y, dtype=float).reshape(len(y), -1)
    return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)).mean()


def energy_vstat(a, b):
    """Float64 energy V-statistic 2 E|a-b| - E|a-a'| - E|b-b'| by brute force."""
    return 2.0 * mean_distance(a, b) - mean_distance(a, a) - mean_distance(b, b)


def energy_draws(na, nb, n_perm, rng, max_points):
    """Replay the draws ``verify.energy_perm_test`` makes from ``rng``: the
    subsample indices of a and of b (None when not subsampled), then the
    group-a indices into the pooled sample of each permutation."""
    sub_a = rng.choice(na, size=max_points, replace=False) if na > max_points else None
    sub_b = rng.choice(nb, size=max_points, replace=False) if nb > max_points else None
    na, nb = min(na, max_points), min(nb, max_points)
    perms = [rng.permutation(na + nb)[:na] for _ in range(n_perm)]
    return sub_a, sub_b, perms

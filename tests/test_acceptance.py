"""Acceptance gate: every criterion at its stated tolerance, one line each.

Each test prints ``ACCEPTANCE <k> [PASS|FAIL] ...`` (visible with -rA / -s)
and asserts the criterion.  Seeds are pre-registered constants; reruns are
bit-identical.  Criteria 5-8 run their independent checks through
``verify.run_checks``, so their reports do not depend on the core count.
"""

import math
from functools import partial

import numpy as np
from scipy import stats

from helpers import lambda_plus_cdf_12, partitions_up_to
from intertwine.branching import JacobiParams, compare_scaling_limit, kernel_row, mv_jacobi_at_one
from intertwine.chamber import BoundaryPoint, Partition
from intertwine.kernels import (KernelParams, sample_lambda_eq_each,
                                sample_lambda_plus_each, sample_lambda_plus_many)
from intertwine.matrixmodel import (char_F_omega, sample_lambda_omega_many,
                                    sample_P_omega_corner,
                                    sample_lambda_plus_via_matrices_many)
from intertwine.rng import generator, named_seed
from intertwine.verify import (check_consistency, check_decomposition,
                               check_flow_convergence, check_h_constants,
                               check_h_transform_identities, check_intertwine_laguerre,
                               check_intertwine_pickrell, check_invariance_pickrell,
                               check_kernel_normalization, check_pickrell_drift_forms,
                               check_shifted_intertwine, check_vandermonde_eigen,
                               energy_perm_test, interiorize_rows, run_checks)

SEED = 20_260_808


def report(num, passed, desc):
    print(f"ACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {desc}")
    return passed


def test_criterion_01_kernel_normalization():
    failures = []
    for alpha in (0.0, 0.5, 2.0, -0.5):
        cases = [("L", (1.0, 2.0)), ("L", (0.5, 1.5, 3.0)),
                 ("lambda_eq", (2.0,)), ("lambda_eq", (1.0, 2.0)),
                 ("lambda_plus", (1.0, 2.0)), ("lambda_plus", (0.5, 1.5, 3.0))]
        for kind, x in cases:
            rep = check_kernel_normalization(kind, alpha, x, tol=1e-6)
            if not rep.passed:
                failures.append(rep.to_dict())
    ok = report(1, not failures,
                "kernel normalization = 1 within 1e-6 for N <= 2, alpha in {-0.5, 0, 0.5, 2}")
    assert ok, failures


def test_criterion_02_decomposition():
    failures = []
    for alpha in (0.0, 1.0):
        rep = check_decomposition(alpha, x=(1.0, 2.0), n_grid=20, tol=1e-6)
        if not rep.passed:
            failures.append(rep.to_dict())
    ok = report(2, not failures,
                "two-step decomposition of the (2->1) link within 1e-6 at 20 grid points")
    assert ok, failures


def test_criterion_03_sampler_vs_density():
    rng = generator(named_seed(SEED, "c3-ks"))
    y = sample_lambda_plus_many(KernelParams(0.0, 1), (1.0, 2.0), 100_000, rng).ravel()
    ks_p = stats.kstest(y, lambda_plus_cdf_12).pvalue
    details = [f"KS p={ks_p:.3f}"]
    ok = ks_p > 0.01
    for n_dim, alpha, x in ((1, 0, (1.0, 2.0)), (2, 1, (0.5, 1.5, 3.0))):
        rng_a = generator(named_seed(SEED, f"c3-mat-{n_dim}"))
        rng_b = generator(named_seed(SEED, f"c3-ker-{n_dim}"))
        a = sample_lambda_plus_via_matrices_many(alpha, x, 20_000, rng_a)
        b = sample_lambda_plus_many(KernelParams(alpha, n_dim), x, 20_000, rng_b)
        rep = energy_perm_test(a, b, 499, generator(named_seed(SEED, f"c3-perm-{n_dim}")))
        details.append(f"energy(N={n_dim},alpha={alpha}) p={rep.p_value:.3f}")
        ok = ok and rep.passed
    ok = report(3, ok, "sampler vs density: " + "; ".join(details))
    assert ok


def test_criterion_04_deterministic_identities():
    rng = generator(named_seed(SEED, "c4-points"))
    reports = []
    for s, a, n in [(1.0, 0.0, 2), (2.0, 0.5, 3), (-0.5, 1.0, 4)]:
        pts = [np.sort(rng.uniform(0.1, 5.0, size=n)) + np.arange(n) * 1e-2
               for _ in range(100)]
        reports.append(check_vandermonde_eigen(s, a, n, pts, threshold=1e-8))
    for s, a, n in [(1.0, 0.5, 2), (-0.5, 1.5, 3), (2.0, 0.0, 1)]:
        reports.append(check_h_transform_identities(s, a, n,
                                                    rng.uniform(0.1, 5.0, 100),
                                                    threshold=1e-8))
    reports.append(check_h_constants(named_seed(SEED, "c4-const"), n_draws=100,
                                     threshold=1e-12))
    reports.append(check_pickrell_drift_forms(named_seed(SEED, "c4-drift"),
                                              n_draws=100, threshold=1e-10))
    bad = [r.to_dict() for r in reports if not r.passed]
    worst = max(r.statistic for r in reports)
    ok = report(4, not bad,
                f"deterministic identities: max residual {worst:.2e} <= thresholds")
    assert ok, bad


def test_criterion_05_laguerre_intertwining():
    checks = [partial(check_intertwine_laguerre, alpha, n_dim, x, 0.5, 20_000, 1e-3,
                      named_seed(SEED, f"c5-{n_dim}"), n_perm=499)
              for n_dim, alpha, x in ((1, 0.0, (1.0, 2.0)), (2, 1.0, (0.5, 1.5, 3.0)))]
    checks.append(partial(check_intertwine_laguerre, 0.0, 1, (1.0, 2.0), 0.5, 20_000, 1e-3,
                          named_seed(SEED, "c5-control"), n_perm=1999, alpha_mismatch=2.0))
    *reports, control = run_checks(checks)
    ok = all(r.passed for r in reports) and control.p_value < 0.001
    detail = "; ".join(f"p={r.p_value:.3f}" for r in reports)
    ok = report(5, ok, f"Laguerre intertwining ({detail}); "
                       f"alpha-mismatch control p={control.p_value:.4f} < 0.001")
    assert ok, [r.to_dict() for r in reports] + [control.to_dict()]


def test_criterion_06_pickrell_and_shifted_intertwinings():
    configs = [(1, 1.0, 0.0), (2, 1.0, 0.5)]
    checks = []
    for n_dim, s, alpha in configs:
        x_up = (1.0, 2.0) if n_dim == 1 else (0.5, 1.5, 3.0)
        x_eq = (2.0,) if n_dim == 1 else (1.0, 2.5)
        checks.append(partial(check_intertwine_pickrell, s, alpha, n_dim, x_up, 0.5, 20_000,
                              1e-3, named_seed(SEED, f"c6-p-{n_dim}"), n_perm=499))
        checks.append(partial(check_shifted_intertwine, "L", s, alpha, n_dim, x_up, 0.5, 20_000,
                              1e-3, named_seed(SEED, f"c6-L-{n_dim}"), n_perm=499))
        checks.append(partial(check_shifted_intertwine, "LambdaEq", s, alpha, n_dim, x_eq, 0.5,
                              20_000, 1e-3, named_seed(SEED, f"c6-E-{n_dim}"), n_perm=499))
    checks.append(partial(check_intertwine_pickrell, 1.0, 0.0, 1, (1.0, 2.0), 0.5, 20_000, 1e-3,
                          named_seed(SEED, "c6-control"), n_perm=1999, s_mismatch=3.0))
    *reports, control = run_checks(checks)
    ok = all(r.passed for r in reports) and control.p_value < 0.001
    detail = "; ".join(f"{r.name.split('[')[0]} p={r.p_value:.3f}" for r in reports)
    ok = report(6, ok, f"Pickrell + shifted intertwinings ({detail}); "
                       f"s-mismatch control p={control.p_value:.4f}")
    assert ok, [r.to_dict() for r in reports] + [control.to_dict()]


def test_criterion_07_invariance_and_consistency():
    checks = []
    for n_dim in (1, 2):
        for alpha in (0.0, 1.0):
            checks.append(partial(check_invariance_pickrell, 1.0, alpha, n_dim, 0.5, 10_000,
                                  1e-3, named_seed(SEED, f"c7-inv-{n_dim}-{alpha}"),
                                  n_perm=499))
            for which in ("alpha-link", "free-link", "eq-link"):
                checks.append(partial(check_consistency, which, 1.0, alpha, n_dim, 10_000,
                                      named_seed(SEED, f"c7-{which}-{n_dim}-{alpha}"),
                                      n_perm=499))
    reports = run_checks(checks)
    bad = [r.to_dict() for r in reports if not r.passed]
    p_min = min(r.p_value for r in reports)
    ok = report(7, not bad,
                f"Pickrell invariance + ensemble consistency: {len(reports)} checks, "
                f"min p={p_min:.3f} > 0.01")
    assert ok, bad


def test_criterion_08_boundary_flow():
    rep3, rep1, r25, r50 = run_checks([
        partial(check_flow_convergence, 0.0, 50, BoundaryPoint((), 3.0), (0.25, 0.5, 1.0),
                500, 1e-3, named_seed(SEED, "c8-g3"), threshold=0.15),
        partial(check_flow_convergence, 0.0, 50, BoundaryPoint((), 1.0), (0.25, 0.5, 1.0),
                500, 1e-3, named_seed(SEED, "c8-g1"), threshold=0.15),
        # fluctuation variance must shrink with the 1/N noise coefficient
        partial(check_flow_convergence, 0.0, 25, BoundaryPoint((), 3.0), (0.5,), 400, 1e-3,
                named_seed(SEED, "c8-v25")),
        partial(check_flow_convergence, 0.0, 50, BoundaryPoint((), 3.0), (0.5,), 400, 1e-3,
                named_seed(SEED, "c8-v50")),
    ])
    ratio = (r25.meta["track"]["t=0.5"]["gamma_var"]
             / r50.meta["track"]["t=0.5"]["gamma_var"])
    ok = rep3.passed and rep1.passed and 2.5 <= ratio <= 6.5
    ok = report(8, ok, f"boundary flow tracked: dev {rep3.statistic:.3f}/"
                       f"{rep1.statistic:.3f} <= 0.15; variance ratio N25/N50 "
                       f"= {ratio:.2f} in [2.5, 6.5]")
    assert ok, (rep3.to_dict(), rep1.to_dict(), ratio)


def test_criterion_09_boundary_kernel_coherence():
    omega = BoundaryPoint((0.5,), 1.0)
    rng = generator(named_seed(SEED, "c9-up"))
    up = sample_lambda_omega_many(0, 2, omega, rng, 20_000)
    down = sample_lambda_plus_each(0.0, interiorize_rows(up),
                                   generator(named_seed(SEED, "c9-link")))
    direct = sample_lambda_omega_many(0, 1, omega,
                                      generator(named_seed(SEED, "c9-direct")), 20_000)
    rep_a = energy_perm_test(down, direct, 499, generator(named_seed(SEED, "c9-perm-a")))

    up1 = sample_lambda_omega_many(1, 1, omega, generator(named_seed(SEED, "c9-up1")), 20_000)
    down1 = sample_lambda_eq_each(0.0, interiorize_rows(up1),
                                  generator(named_seed(SEED, "c9-link1")))
    direct1 = sample_lambda_omega_many(0, 1, omega,
                                       generator(named_seed(SEED, "c9-direct1")), 20_000)
    rep_b = energy_perm_test(down1, direct1, 499, generator(named_seed(SEED, "c9-perm-b")))

    char_ok = True
    for k, om in enumerate((BoundaryPoint((), 0.7), BoundaryPoint((0.5,), 0.5),
                            BoundaryPoint((0.4, 0.2), 1.0))):
        x = sample_P_omega_corner(om, 1, 1, generator(named_seed(SEED, f"c9-char-{k}")),
                                  size=100_000)[:, 0, 0]
        for r in (0.1, 0.3, 0.5, 1.0, 2.0):
            vals = np.cos(r * x.real)
            se = vals.std() / math.sqrt(vals.size)
            char_ok = char_ok and abs(vals.mean() - char_F_omega(om, r)) < 3 * se
    ok = rep_a.passed and rep_b.passed and char_ok
    ok = report(9, ok, f"boundary kernel coherence p={rep_a.p_value:.3f}/"
                       f"{rep_b.p_value:.3f} > 0.01; corner characteristic function "
                       f"within 3 sigma at 5 frequencies x 3 omegas: {char_ok}")
    assert ok, (rep_a.to_dict(), rep_b.to_dict(), char_ok)


def test_criterion_10_discrete_kernel():
    params = JacobiParams(0.0, 0.0)
    worst_row = 0.0
    for n_dim in (1, 2):
        for lam in partitions_up_to(6, n_dim + 1):
            _, probs = kernel_row(lam, n_dim, params)
            worst_row = max(worst_row, abs(probs.sum() - 1.0))
    rows_ok = worst_row < 1e-10

    from test_branching import richardson_at_one
    worst_rich = 0.0
    for n in (1, 2, 3):
        for lam in partitions_up_to(4, n):
            closed = mv_jacobi_at_one(lam, n, params)
            est = richardson_at_one(lam, n, params)
            worst_rich = max(worst_rich, abs(est - closed) / max(1.0, abs(closed)))
    rich_ok = worst_rich < 1e-6

    fine = compare_scaling_limit(Partition((2, 1)), 500, params)
    coarse = compare_scaling_limit(Partition((2, 1)), 50, params)
    limit_ok = (fine["sup_discrepancy"] < 0.05
                and fine["sup_discrepancy"] < coarse["sup_discrepancy"]
                and abs(fine["row_mass"] - 1.0) < 1e-10)
    ok = rows_ok and rich_ok and limit_ok
    ok = report(10, ok, f"discrete kernel: row sums within {worst_row:.1e}; "
                        f"closed form vs determinant limit within {worst_rich:.1e}; "
                        f"scaling sup-CDF {fine['sup_discrepancy']:.4f} < 0.05 "
                        f"(coarse {coarse['sup_discrepancy']:.4f})")
    assert ok, (worst_row, worst_rich, fine, coarse)

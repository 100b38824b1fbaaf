"""The four benchmark workloads, built only from the package's public API.

Each workload is a list of parts.  A part takes the workload seed and
returns ``(report, expect)`` pairs.  ``"exact"`` marks an identity checked
by exact calculus, which must pass; ``"pass"`` one checked on Monte Carlo
samples, which must pass but fails by chance at a known rate; ``"floor"`` a
mismatch control, which must fail with the smallest p-value its permutation
test can give, 1/(n_perm + 1).

Calls go through module attributes (``verify.energy_perm_test``, not a
name imported into this file) so that the traced run sees them when it
patches those attributes.
"""

from __future__ import annotations

from intertwine import diffusion, ensembles, kernels, matrixmodel, verify
from intertwine.chamber import BoundaryPoint
from intertwine.rng import generator, named_seed

# the CLI defaults of `intertwine verify`; the suites use them when no size is given
N_SAMPLES = 4000
N_PERM = 300
DT = 1e-3


def _suite(name, expect):
    def part(seed):
        return [(rep, expect) for rep in verify.run_suite(name, seed)]
    part.__name__ = name
    return part


def _controls(seed):
    """The alpha- and s-mismatch controls of acceptance criteria 5 and 6."""
    lag = verify.check_intertwine_laguerre(0.0, 1, (1.0, 2.0), 0.5, N_SAMPLES, DT,
                                           named_seed(seed, "control-laguerre"), N_PERM,
                                           alpha_mismatch=2.0)
    pic = verify.check_intertwine_pickrell(1.0, 0.0, 1, (1.0, 2.0), 0.5, N_SAMPLES, DT,
                                           named_seed(seed, "control-pickrell"), N_PERM,
                                           s_mismatch=3.0)
    return [(lag, "floor"), (pic, "floor")]


def _energy(name, a, b, seed):
    return verify.energy_perm_test(a, b, N_PERM, generator(named_seed(seed, name + "-perm")),
                                   name=name)


def _pickrell_matrix_vs_particles(seed):
    """Matrix lift against the particle scheme at N = 2 (as in the diffusion tests)."""
    p = diffusion.PickrellParams(2.0, 1.0, 2)
    lift = diffusion.SdeConfig(DT, 0.5, diffusion.Scheme.MATRIX_LIFT)
    mat, _ = diffusion.simulate_pickrell_matrix_paths(p, (1.0, 2.0), lift, 4000,
                                                      named_seed(seed, "pickrell-matrix"))
    par, _, _ = diffusion.simulate_pickrell_paths(p, (1.0, 2.0), diffusion.SdeConfig(DT, 0.5),
                                                  4000, named_seed(seed, "pickrell-particles"))
    return [(_energy("pickrell-matrix-vs-particles[N=2]", mat, par, seed), "pass")]


def _laguerre_lift_stationary(seed):
    """Laguerre matrix lift from its stationary (Ginibre) start stays stationary."""
    lift = diffusion.SdeConfig(2e-3, 0.3, diffusion.Scheme.MATRIX_LIFT)
    mat, _, _ = diffusion.simulate_laguerre_matrix_paths(1, 2, None, lift, 5000,
                                                         named_seed(seed, "laguerre-lift"),
                                                         init="ginibre")
    ref = ensembles.sample_laguerre_many(1, 2, 5000, generator(named_seed(seed, "laguerre-ref")))
    return [(_energy("laguerre-lift-stationary[N=2]", mat, ref, seed), "pass")]


def _link_via_matrices(seed):
    """Matrix realization of the (N+1 -> N) link against its rejection sampler."""
    out = []
    for n, alpha, x in ((1, 0, (1.0, 2.0)), (2, 1, (0.5, 1.5, 3.0))):
        a = matrixmodel.sample_lambda_plus_via_matrices_many(
            alpha, x, 20_000, generator(named_seed(seed, f"via-matrices-{n}")))
        b = kernels.sample_lambda_plus_many(kernels.KernelParams(alpha, n), x, 20_000,
                                            generator(named_seed(seed, f"via-kernel-{n}")))
        out.append((_energy(f"link-via-matrices[N={n}]", a, b, seed), "pass"))
    return out


def _boundary_coherence(seed):
    """Corner of the omega measure pushed down the link equals the direct corner."""
    omega = BoundaryPoint((0.5,), 1.0)
    up = matrixmodel.sample_lambda_omega_many(0, 2, omega,
                                              generator(named_seed(seed, "omega-up")), 20_000)
    down = kernels.sample_lambda_plus_each(0.0, verify.interiorize_rows(up),
                                           generator(named_seed(seed, "omega-link")))
    direct = matrixmodel.sample_lambda_omega_many(0, 1, omega,
                                                  generator(named_seed(seed, "omega-direct")),
                                                  20_000)
    return [(_energy("boundary-coherence[omega=(0.5;1)]", down, direct, seed), "pass")]


WORKLOADS = {
    # exact calculus only: scalar densities under nested adaptive quadrature
    "calculus": [_suite("identities", "exact"), _suite("branching-limit", "exact")],
    # many short Euler paths at N <= 3, MCMC ensembles, the energy test
    "montecarlo": [_suite("intertwine", "pass"), _suite("invariance", "pass"),
                   _suite("consistency", "pass"), _controls],
    # few long Euler paths at N = 50: the O(N^2) pairwise drift
    "flow": [_suite("flow", "pass")],
    # the matrix code no verify suite reaches
    "lifts": [_pickrell_matrix_vs_particles, _laguerre_lift_stationary, _link_via_matrices,
              _boundary_coherence],
}


def deviates(report, expect: str) -> bool:
    """True when a report's verdict is not the one its check must reach."""
    if expect == "floor":
        floor = 1.0 / (report.meta["n_perm"] + 1.0)
        return report.passed or report.p_value != floor
    return not report.passed


def by_chance(expect: str) -> bool:
    """A Monte Carlo identity check fails by chance at a known rate; every
    other deviation (exact calculus, a control above its floor) is a defect."""
    return expect == "pass"

"""Outside-in span recorder for the traced run.

The package is not edited: the recorder replaces layer entry points as
they are bound in their caller modules (``intertwine.verify.density_lambda_plus``
is the name ``quad_cell``'s integrands look up) and restores them afterwards.
Each call records a span (layer, start, end, parent span, the check it
serves) in memory, plus counts read off its arguments and results.  The
counts are seed-deterministic; the times are not.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer name -> (module, attribute) pairs to wrap; the layer "check" marks the
# verify.check_* calls that spans are attributed to and is not itself a layer
PATCHES = {
    "kernels.density": [("intertwine.verify", "density_lambda_plus"),
                        ("intertwine.verify", "density_L"),
                        ("intertwine.verify", "density_lambda_eq"),
                        ("intertwine.branching", "density_lambda_plus")],
    "verify.quad": [("intertwine.verify", "quad_1d")],
    "diffusion.particles": [("intertwine.verify", "simulate_laguerre_paths"),
                            ("intertwine.verify", "simulate_pickrell_paths"),
                            ("intertwine.diffusion", "simulate_pickrell_paths")],
    "rng.path_generator": [("intertwine.diffusion", "path_generator")],
    "ensembles.pickrell": [("intertwine.verify", "sample_pickrell")],
    "verify.energy": [("intertwine.verify", "energy_perm_test")],
    "diffusion.matrix_lift": [("intertwine.verify", "simulate_laguerre_matrix_paths"),
                              ("intertwine.diffusion", "simulate_laguerre_matrix_paths"),
                              ("intertwine.diffusion", "simulate_pickrell_matrix_paths")],
    "matrixmodel.sample": [("intertwine.matrixmodel", "sample_lambda_plus_via_matrices_many"),
                           ("intertwine.matrixmodel", "sample_lambda_omega_many"),
                           # the Ginibre radial construction of the Laguerre ensemble
                           ("intertwine.ensembles", "sample_laguerre_many")],
    "kernels.sample": [("intertwine.verify", name) for name in
                       ("sample_L_each", "sample_L_many", "sample_lambda_eq_each",
                        "sample_lambda_eq_many", "sample_lambda_plus_each",
                        "sample_lambda_plus_many")]
                      + [("intertwine.kernels", "sample_lambda_plus_each"),
                         ("intertwine.kernels", "sample_lambda_plus_many")],
    "branching.rows": [("intertwine.branching", "kernel_row"),
                       ("intertwine.branching", "compare_scaling_limit")],
}

COUNTS = ("kernels.density.calls", "verify.quad.calls", "diffusion.particles.path_steps",
          "diffusion.particles.particle_steps", "diffusion.particles.guard_events",
          "rng.path_generator.calls", "ensembles.pickrell.draws", "ensembles.mcmc.proposals",
          "ensembles.mcmc.accepted", "ensembles.mcmc.draws", "verify.energy.calls",
          "verify.energy.gemm_gflop", "verify.energy.used", "verify.energy.offered",
          "diffusion.matrix_lift.path_steps", "diffusion.matrix_lift.clip_events",
          "diffusion.matrix_lift.clip_steps", "matrixmodel.sample.matrices",
          "kernels.sample.rows", "branching.rows.targets")

# the counts that repeat exactly for a seed; a later change may cite them as counts
EXACT_COUNTS = ("kernels.density.calls", "diffusion.particles.path_steps",
                "diffusion.matrix_lift.path_steps", "rng.path_generator.calls",
                "ensembles.mcmc.proposals", "verify.energy.gemm_gflop",
                "branching.rows.targets")


def _account_particles(c, out):
    term, _, info = out
    steps = info["n_paths"] * info["n_steps"]
    c["diffusion.particles.path_steps"] += steps
    c["diffusion.particles.particle_steps"] += steps * term.shape[1]
    c["diffusion.particles.guard_events"] += round(info["guard_fraction"] * steps)


def _account_pickrell(c, out):
    draws, info = out
    c["ensembles.pickrell.draws"] += draws.shape[0]
    if info["method"] == "mcmc-logspace":
        # the chain's length follows from the settings it reports
        n_chains = info["n_chains"]
        n_steps = info["burn_in"] + info["thin"] * -(-draws.shape[0] // n_chains)
        proposals = n_chains * n_steps
        c["ensembles.mcmc.proposals"] += proposals
        c["ensembles.mcmc.accepted"] += round(info["acceptance_rate"] * proposals)
        c["ensembles.mcmc.draws"] += draws.shape[0]


def _account_energy(c, out):
    m = out.meta
    used = m["n_a_used"] + m["n_b_used"]
    c["verify.energy.calls"] += 1
    # all n_perm + 1 label rows times the pooled distance matrix, one GEMM
    c["verify.energy.gemm_gflop"] += 2.0 * (m["n_perm"] + 1) * used * used / 1e9
    c["verify.energy.used"] += used
    c["verify.energy.offered"] += m["n_a"] + m["n_b"]


def _account_lift(c, out):
    info = out[-1]
    steps = info["n_paths"] * info["n_steps"]
    c["diffusion.matrix_lift.path_steps"] += steps
    if "clip_fraction" in info:
        c["diffusion.matrix_lift.clip_events"] += round(info["clip_fraction"] * steps)
        c["diffusion.matrix_lift.clip_steps"] += steps


def _count(key):
    def account(c, out):
        c[key] += 1
    return account


def _rows(key):
    def account(c, out):
        c[key] += out.shape[0]
    return account


def _targets(c, out):
    if isinstance(out, tuple):  # kernel_row; compare_scaling_limit returns a dict
        c["branching.rows.targets"] += len(out[0])


ACCOUNT = {
    "kernels.density": _count("kernels.density.calls"),
    "verify.quad": _count("verify.quad.calls"),
    "diffusion.particles": _account_particles,
    "rng.path_generator": _count("rng.path_generator.calls"),
    "ensembles.pickrell": _account_pickrell,
    "verify.energy": _account_energy,
    "diffusion.matrix_lift": _account_lift,
    "matrixmodel.sample": _rows("matrixmodel.sample.matrices"),
    "kernels.sample": _rows("kernels.sample.rows"),
    "branching.rows": _targets,
}


class Recorder:
    """Spans and counts of one traced run; install() patches, remove() restores."""

    def __init__(self):
        self.layers = ["part", "check", *PATCHES]
        self.spans = []          # [layer id, start, end, parent, check, outer, top]
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self._stack = []         # open span indices
        self._check = -1         # span index of the innermost open part or check
        self._depth = defaultdict(int)
        self._layer_depth = 0    # open layer spans, parts and checks excluded
        self._saved = []

    def span(self, layer: str, fn):
        lid = self.layers.index(layer)
        is_layer = lid >= 2
        account = ACCOUNT.get(layer)
        pickrell = layer == "ensembles.pickrell"

        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            outer = self._depth[layer] == 0
            rec = [lid, 0.0, 0.0, parent, self._check, outer,
                   is_layer and self._layer_depth == 0]
            self.spans.append(rec)
            self._stack.append(idx)
            self._depth[layer] += 1
            self._layer_depth += is_layer
            saved_check = self._check
            if not is_layer:
                self._check = idx
            want_info = kwargs.get("return_info", False)
            if pickrell:
                kwargs["return_info"] = True
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                self._depth[layer] -= 1
                self._layer_depth -= is_layer
                self._check = saved_check
            # work is counted once, at the outermost span of its layer; every
            # quadrature call counts, and rows are counted where kernel_row returns them
            if account is not None and (outer or layer in ("verify.quad", "branching.rows")):
                account(self.counts, out)
            if pickrell and not want_info:
                return out[0]  # the draws do not depend on return_info
            return out

        return traced

    def install(self):
        verify = importlib.import_module("intertwine.verify")
        targets = [(layer, mod, attr) for layer, pairs in PATCHES.items() for mod, attr in pairs]
        targets += [("check", "intertwine.verify", name) for name in dir(verify)
                    if name.startswith("check_")]
        for layer, mod_name, attr in targets:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.span(layer, fn))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def array(self) -> np.ndarray:
        dtype = [("layer", "i1"), ("start", "f8"), ("end", "f8"), ("parent", "i4"),
                 ("check", "i4"), ("outer", "?"), ("top", "?")]
        return np.array([tuple(s) for s in self.spans], dtype=dtype)

    def metrics(self, wall_s: float) -> dict:
        """Busy time (outermost spans), self time (duration less the time
        child spans cover) and counts per layer, and the share of ``wall_s``
        that top-level layer spans cover."""
        sp = self.array()
        dur = sp["end"] - sp["start"]
        child = np.zeros(len(sp))
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = dict(self.counts)
        for lid, layer in enumerate(self.layers[2:], start=2):
            mine = sp["layer"] == lid
            out[f"{layer}.busy_s"] = float(dur[mine & sp["outer"]].sum())
            out[f"{layer}.self_s"] = float(self_s[mine].sum())
        out["diffusion.particles.ns_per_particle_step"] = _ratio(
            out["diffusion.particles.busy_s"] * 1e9, out["diffusion.particles.particle_steps"])
        out["diffusion.particles.guard_fraction"] = _ratio(
            out["diffusion.particles.guard_events"], out["diffusion.particles.path_steps"])
        out["ensembles.mcmc.acceptance"] = _ratio(out["ensembles.mcmc.accepted"],
                                                  out["ensembles.mcmc.proposals"])
        out["ensembles.mcmc.yield"] = _ratio(out["ensembles.mcmc.draws"],
                                             out["ensembles.mcmc.proposals"])
        out["verify.energy.used_ratio"] = _ratio(out["verify.energy.used"],
                                                 out["verify.energy.offered"])
        out["diffusion.matrix_lift.clip_fraction"] = _ratio(
            out["diffusion.matrix_lift.clip_events"], out["diffusion.matrix_lift.clip_steps"])
        out["trace.coverage"] = _ratio(float(dur[sp["top"]].sum()), wall_s)
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0

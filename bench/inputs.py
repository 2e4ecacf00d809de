"""Seeded input generator for the benchmark workloads.

Everything comes from one numpy Generator seeded by (workload, seed), so
the same seed gives byte-identical files. Curves are drawn from the
reference model in reference.py, never from fvcbfit.synth. Each workload
writes `input.csv` in the package's input schema and `spec.json` with
the settings the worker fits with; the generating parameters and the
rows that carry injected artefacts stay with the caller for checking.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference

WORKLOADS = ("aci_batch", "groups_light_temp", "cli_dense")

# Fixed at the package's starting values; the workloads fit none of them.
FIXED = dict(kc25=reference.KC25, ko25=reference.KO25,
             gamma25=reference.GAMMA25, alpha_g=0.0)

# Centre of the per-curve truth draws: A/Ci curves pass from Rubisco to
# RuBP-regeneration limitation near Ci 540 and to TPU limitation near 1200.
BASE = dict(vcmax25=100.0, jmax25=200.0, tpu25=15.0, rd25=1.2)
SHARED_BASE = dict(dha_vcmax=65.33, dha_jmax=43.9, dha_tpu=53.1,
                   topt_vcmax=311.0, topt_jmax=311.0, topt_tpu=306.0,
                   alpha=0.5, theta=0.7)

# Model and fit settings each workload runs with.
SPEC = {
    "aci_batch": dict(light_type=0, temp_type=0, noise_sd=0.5,
                      n_curves=11, n_points=180, max_iter=1000),
    "groups_light_temp": dict(light_type=2, temp_type=2, noise_sd=0.5,
                              n_groups=3, n_points=60, n_light_points=40,
                              temps=(20.0, 28.0, 35.0), max_iter=400),
    "cli_dense": dict(light_type=0, temp_type=0, noise_sd=0.3,
                      n_curves=200, n_points=500, max_iter=20),
}
WORKLOAD_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def _jitter(rng, base, half_width):
    return {k: float(v * rng.uniform(1.0 - half_width, 1.0 + half_width))
            for k, v in base.items()}


def _leaf(rng, half_width):
    # Leaves differ mostly in overall capacity, which scales Vcmax, Jmax
    # and TPU together (as measured Vcmax/Jmax correlations show); a small
    # independent part keeps every curve's three limitation stages.
    scale = rng.uniform(1.0 - half_width, 1.0 + half_width)
    params = _jitter(rng, BASE, 0.04)
    for name in ("vcmax25", "jmax25", "tpu25"):
        params[name] *= scale
    params["rd25"] = float(BASE["rd25"] * rng.uniform(0.7, 1.3))
    return params


def _curve(rng, cid, group, ci, qin, tleaf, params, spec, kind):
    a, _ = reference.assimilation(ci, qin, tleaf, params, spec["light_type"],
                                  spec["temp_type"])
    a = a + rng.normal(0.0, spec["noise_sd"], size=a.shape)
    return dict(id=cid, group=group, kind=kind, truth=params,
                ci=ci.tolist(), a=a.tolist(), qin=qin.tolist(),
                tleaf=tleaf.tolist())


def _aci_batch(rng, spec):
    shared = dict(SHARED_BASE, **FIXED)
    ci = np.linspace(50.0, 1800.0, spec["n_points"])
    curves = []
    for cid in range(spec["n_curves"]):
        params = dict(shared, **_leaf(rng, 0.15))
        curves.append(_curve(rng, cid, 0, ci, np.full_like(ci, 2000.0),
                             np.full_like(ci, 25.0), params, spec, "co2"))
    return curves


def _groups_light_temp(rng, spec):
    # One problem per group: A/Ci curves at three leaf temperatures and
    # one A-Q curve share the group's temperature and light responses.
    ci = np.linspace(80.0, 1800.0, spec["n_points"])
    q = np.linspace(20.0, 2000.0, spec["n_light_points"])
    curves = []
    for g in range(spec["n_groups"]):
        shared = dict(_jitter(rng, SHARED_BASE, 0.05), **FIXED)
        shared["theta"] = float(rng.uniform(0.6, 0.85))
        for k, tleaf in enumerate(spec["temps"]):
            params = dict(shared, **_leaf(rng, 0.15))
            curves.append(_curve(rng, 10 * g + k, g, ci,
                                 np.full_like(ci, 2000.0),
                                 np.full_like(ci, tleaf), params, spec, "co2"))
        params = dict(shared, **_leaf(rng, 0.15))
        curves.append(_curve(rng, 10 * g + 9, g, np.full_like(q, 400.0), q,
                             np.full_like(q, 25.0), params, spec, "light"))
    return curves


def _cli_dense(rng, spec):
    # Dense non-steady-state ramps: Ci rises with jitter, the chamber has
    # not settled for the first few points (A reads high and falls), and
    # half of the curves end on a spike. Both artefacts are steep enough
    # that the documented cleanup rules remove them on every seed.
    shared = dict(SHARED_BASE, **FIXED)
    n = spec["n_points"]
    curves = []
    for cid in range(spec["n_curves"]):
        params = dict(shared, **_leaf(rng, 0.2))
        ci = np.linspace(30.0, 1800.0, n) + rng.uniform(-1.0, 1.0, n)
        c = _curve(rng, cid, 0, ci, np.full(n, 2000.0), np.full(n, 25.0),
                   params, spec, "co2")
        n_high = int(rng.integers(0, 4))
        for i in range(n_high):
            c["a"][i] += 2.5 * (n_high - i) + 2.0
        c["start_rows"] = list(range(n_high))
        c["spike_rows"] = []
        if rng.uniform() < 0.5:
            c["a"][-1] += float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 6.0))
            c["spike_rows"] = [n - 1]
        curves.append(c)
    return curves


_BUILDERS = {"aci_batch": _aci_batch, "groups_light_temp": _groups_light_temp,
             "cli_dense": _cli_dense}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write input.csv and spec.json for one workload; returns the truth."""
    spec = SPEC[workload]
    rng = np.random.default_rng([WORKLOAD_TAG[workload], seed])
    curves = _BUILDERS[workload](rng, spec)
    lines = ["CurveID,FittingGroup,Ci,A,Qin,Tleaf"]
    for c in curves:
        for ci, a, q, t in zip(c["ci"], c["a"], c["qin"], c["tleaf"]):
            lines.append(f"{c['id']},{c['group']},{ci!r},{a!r},{q!r},{t!r}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "input.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "spec.json"), "w") as fh:
        json.dump(spec, fh)
    return dict(workload=workload, seed=seed, spec=spec, curves=curves)

"""fvcbfit benchmark: generate inputs, run one workload, check, report.

    python3 bench/run.py --workload aci_batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, untraced and traced

With a workload named, the last line of standard output is one JSON
object: correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer ones. Without one, every
workload runs untraced and then traced, and each metric is printed on
its own line with its unit. Any failed check makes the exit code 1. An
operation that raises is counted in `failed` and does not by itself
change the exit code. A checkout without the package source gives exit
code 2 and no result.

Inputs come from the seed alone and are written under bench/_runs/,
which is removed when the run ends, apart from the spans of the last
traced run of each workload (bench/_runs/<workload>-spans.json).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np

import inputs
import reference
import spans
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS_DIR = os.path.join(BENCH_DIR, "_runs")
WORKER = os.path.join(BENCH_DIR, "worker.py")

# Set-up is measured in this many fresh interpreters.
SETUP_PROBES = 9
# Longest a worker may run past its measuring time before it is stopped.
WORKER_GRACE_S = 90

# Predictions must match the reference to rounding.
PRED_RTOL = 1e-9
# Recovered parameters may differ from the truth by rel * truth plus
# k * noise_sd, and the mean fit RMSE may reach a multiple of noise_sd.
# The fixed budgets stop well short of convergence: after 1,000
# iterations on aci_batch, Rd25 can still be 6 umol/m2/s out, and on
# groups_light_temp a curve's Vcmax25 and Jmax25 also trade off against
# the group's temperature response. On cli_dense, 20 iterations move each
# parameter by about 20 * lr from its start. The bounds are 1.5 to 2 times
# the worst seen over seeds 0-15, so they catch a fitter that diverges or
# does not move; the rmse_* metrics show how far a fit got.
PARAM_BOUNDS = {
    "aci_batch": {"vcmax25": (0.5, 8.0), "jmax25": (0.4, 8.0),
                  "rd25": (4.0, 12.0)},
    "groups_light_temp": {"vcmax25": (0.6, 6.0), "jmax25": (0.5, 6.0),
                          "rd25": (4.0, 12.0)},
    "cli_dense": {"vcmax25": (0.5, 0.0), "jmax25": (0.5, 0.0),
                  "rd25": (2.0, 5.0)},
}
FIT_RMSE_LIMIT = {"aci_batch": 3.0, "groups_light_temp": 6.0,
                  "cli_dense": 20.0}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "engine.grad_us": "us", "engine.grad_calls": "count",
    "engine.graph_nodes": "count", "loss.evaluate_us": "us",
    "loss.evaluate_calls": "count", "optimizer.step_us": "us",
    "optimizer.fit_self_s": "s", "loss.workspace_s": "s",
    "loss.workspace_calls": "count", "model.predict_curve_s": "s",
    "model.predict_curve_calls": "count", "optimizer.iterations": "count",
    "optimizer.restarts": "count", "optimizer.improve_ratio": "ratio",
    "optimizer.iters_to_1pct": "count", "data_io.load_csv_s": "s",
    "data_io.rows_parsed": "count", "preprocess.preprocess_dataset_s": "s",
    "preprocess.points_kept": "count", "data_io.write_results_s": "s",
    "data_io.bytes_written": "B", "cli.self_s": "s",
    "fit_rmse": "umol/m2/s", "rmse_vcmax25": "umol/m2/s",
    "rmse_jmax25": "umol/m2/s", "rmse_rd25": "umol/m2/s",
    "host.slowdown": "ratio", "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- running the worker ----------------------------------------------------

def _python(args, timeout):
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run([sys.executable, WORKER, "--root", ROOT] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, env=env, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return proc.stdout


def _setup_probes(workload, run_dir):
    # Raw times: imports and file reads do not follow the calibration
    # loop, and rescaling them made them no steadier.
    times = []
    for _ in range(SETUP_PROBES):
        out = _python(["--workload", workload, "--dir", run_dir,
                       "--setup-only"], timeout=15)
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return times


def _rescaled_walls(rounds, traced):
    return [speed.rescaled(r["wall_s"], *r["calibration_s"]) for r in rounds
            if r["traced"] == traced and r["error"] is None]


# -- checks ----------------------------------------------------------------

def _match_points(points, truth):
    """Pair each reported point with its input row.

    points: [curve id, Ci, predicted A, state], each curve's points in
    record order. They must be the curve's input rows or, after
    preprocessing, a subsequence of them. Returns {curve id: [(input row
    index, predicted A, state)]}.
    """
    reported = {}
    for cid, ci, a_hat, state in points:
        reported.setdefault(cid, []).append((ci, a_hat, state))
    matched = {}
    for c in truth["curves"]:
        rows, j = [], 0
        for ci, a_hat, state in reported.get(c["id"], []):
            while j < len(c["ci"]) and c["ci"][j] != ci:
                j += 1
            _require(j < len(c["ci"]), f"curve {c['id']}: reported Ci "
                                       f"{ci!r} is not an input point")
            rows.append((j, a_hat, state))
            j += 1
        matched[c["id"]] = rows
    return matched


def _check_predictions(matched, params_of, truth):
    """Reported A and limiting state must agree with the reference model."""
    spec = truth["spec"]
    for c in truth["curves"]:
        pts = matched[c["id"]]
        idx = [i for i, _, _ in pts]
        ci = np.array(c["ci"])[idx]
        qin = np.array(c["qin"])[idx]
        tleaf = np.array(c["tleaf"])[idx]
        p = params_of[c["id"]]
        args = (ci, qin, tleaf, p, spec["light_type"], spec["temp_type"])
        a_ref, s_ref = reference.assimilation(*args)
        a_hat = np.array([a for _, a, _ in pts])
        err = np.abs(a_hat - a_ref) / np.maximum(1.0, np.abs(a_ref))
        _require(np.all(err <= PRED_RTOL),
                 f"curve {c['id']}: predicted A differs from the reference "
                 f"model by up to {err.max():.3g} (relative)")
        wc, wj, wp, _, _ = reference.rates(*args)
        w = np.sort(np.stack([wc, wj, wp]), axis=0)
        clear = (w[1] - w[0]) > PRED_RTOL * np.maximum(1.0, np.abs(w[0]))
        states = np.array([s for _, _, s in pts])
        _require(np.all(states[clear] == s_ref[clear]),
                 f"curve {c['id']}: reported limiting state differs from "
                 f"the reference model")


def _check_parameters(workload, truth, params_of):
    rel_k = PARAM_BOUNDS[workload]
    noise = truth["spec"]["noise_sd"]
    errors = {name: [] for name in rel_k}
    for c in truth["curves"]:
        got = params_of[c["id"]]
        for name, (rel, k) in rel_k.items():
            want = c["truth"][name]
            err = got[name] - want
            _require(math.isfinite(got[name])
                     and abs(err) <= rel * abs(want) + k * noise,
                     f"curve {c['id']}: {name} {got[name]:.4g} is outside "
                     f"the bound around the truth {want:.4g}")
            errors[name].append(err)
    return {f"rmse_{name}": math.sqrt(statistics.fmean(e * e for e in errs))
            for name, errs in errors.items()}


def _fit_rmse(workload, truth, matched):
    per_curve = []
    for c in truth["curves"]:
        sq = [(a_hat - c["a"][i]) ** 2 for i, a_hat, _ in matched[c["id"]]]
        per_curve.append(math.sqrt(statistics.fmean(sq)))
    value = statistics.fmean(per_curve)
    limit = FIT_RMSE_LIMIT[workload] * truth["spec"]["noise_sd"]
    _require(value <= limit, f"mean fit RMSE {value:.4g} exceeds {limit:.4g}")
    return value


def _read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_outputs(run_dir, truth):
    """Parameters and points from the CLI's CSV output, plus the check
    that the point rows are exactly the preprocessing survivors."""
    groups = {int(r["fitting_group"]): r
              for r in _read_table(os.path.join(run_dir, "out_groups.csv"))}
    params_of = {}
    for r in _read_table(os.path.join(run_dir, "out.csv")):
        g = groups[int(r["fitting_group"])]
        p = {name: float(g[name]) for name in reference.SHARED_FIELDS}
        p.update({name: float(r[name]) for name in reference.CURVE_FIELDS})
        params_of[int(r["curve_id"])] = p
    points, measured = [], {}
    for r in _read_table(os.path.join(run_dir, "out_points.csv")):
        key = (int(r["curve_id"]), float(r["ci"]))
        points.append([key[0], key[1], float(r["a_predicted"]), r["state"]])
        measured[key] = float(r["a_measured"])
    reported = {}
    for cid, ci in measured:
        reported.setdefault(cid, set()).add(ci)
    for c in truth["curves"]:
        keep, a_kept = reference.preprocess_survivors(c["ci"], c["a"])
        want = {c["ci"][i] for i in keep}
        got = reported.get(c["id"], set())
        _require(got == want, f"curve {c['id']}: {len(got)} point rows, "
                              f"{len(want)} preprocessing survivors, "
                              f"{len(got ^ want)} differ")
        for i, a in zip(keep, a_kept):
            m = measured[(c["id"], c["ci"][i])]
            _require(abs(m - a) <= PRED_RTOL * max(1.0, abs(a)),
                     f"curve {c['id']}: cleaned A {m!r} differs from the "
                     f"reference {a!r}")
        for i in c["spike_rows"] + c["start_rows"]:
            _require(c["ci"][i] not in got,
                     f"curve {c['id']}: injected artefact row {i} survived")
    return params_of, points


def check(workload, truth, run_dir, worker):
    """Every check on a run's outputs; returns the quality figures."""
    failures = reference.self_check()
    _require(not failures, "; ".join(failures))
    ok = [r for r in worker["rounds"] if r["error"] is None]
    _require(ok, "no operation succeeded")
    _require(len({r["digest"] for r in ok}) == 1,
             "rounds on the same input gave different outputs")
    if workload == "cli_dense":
        params_of, points = _cli_outputs(run_dir, truth)
    else:
        params_of = {c["id"]: c for c in worker["output"]["curves"]}
        points = worker["output"]["points"]
    _require(set(params_of) == {c["id"] for c in truth["curves"]},
             "the output does not list every input curve exactly")
    matched = _match_points(points, truth)
    if workload != "cli_dense":
        for c in truth["curves"]:
            _require(len(matched[c["id"]]) == len(c["ci"]),
                     f"curve {c['id']}: {len(matched[c['id']])} predictions "
                     f"for {len(c['ci'])} input points")
    _check_predictions(matched, params_of, truth)
    quality = _check_parameters(workload, truth, params_of)
    quality["fit_rmse"] = _fit_rmse(workload, truth, matched)
    return quality


# -- metrics ---------------------------------------------------------------

def layer_metrics(spans_doc, rounds):
    """Per-layer figures from the spans of the traced rounds.

    Times and counts are per traced round unless the name says per call
    (_us) or they are averages over fits or calls (graph_nodes,
    improve_ratio, iters_to_1pct, rows_parsed, points_kept, bytes_written).
    A layer whose callable was not found is left out.
    """
    sp = spans_doc["spans"]
    self_s = spans.self_times(sp)
    n_rounds = sum(1 for s in sp if s[0] == "round")
    by_name = {}
    for i, s in enumerate(sp):
        by_name.setdefault(s[0], []).append(i)

    def dur(i):
        return sp[i][2] - sp[i][1]

    def in_rounds(name):
        # spans of a name that lie inside traced rounds
        out = []
        for i in by_name.get(name, []):
            j = sp[i][3]
            while j >= 0 and sp[j][0] != "round":
                j = sp[j][3]
            if j >= 0:
                out.append(i)
        return out

    def info(ids, key):
        return [sp[i][4][key] for i in ids
                if sp[i][4] is not None and key in sp[i][4]]

    m = {}
    grads = in_rounds("engine.grad")
    evals = in_rounds("loss.evaluate")
    fits = in_rounds("optimizer.fit")
    adam = in_rounds("optimizer.adam_step")
    project = in_rounds("optimizer.project")
    if grads:
        m["engine.grad_us"] = 1e6 * sum(map(dur, grads)) / len(grads)
    m["engine.grad_calls"] = len(grads) / n_rounds
    nodes = info(evals, "nodes")
    if nodes:
        m["engine.graph_nodes"] = statistics.fmean(nodes)
    if evals:
        m["loss.evaluate_us"] = 1e6 * sum(map(dur, evals)) / len(evals)
    m["loss.evaluate_calls"] = len(evals) / n_rounds
    if adam:
        m["optimizer.step_us"] = (1e6 * (sum(map(dur, adam))
                                         + sum(map(dur, project))) / len(adam))
    m["optimizer.fit_self_s"] = sum(self_s[i] for i in fits) / n_rounds
    for name, key in (("loss.workspace", "loss.workspace"),
                      ("model.predict_curve", "model.predict_curve")):
        ids = in_rounds(name)
        m[key + "_s"] = sum(map(dur, ids)) / n_rounds
        m[key + "_calls"] = len(ids) / n_rounds
    hist = [sp[i][4] for i in fits if sp[i][4] is not None]
    if hist:
        iters = sum(h["iterations"] for h in hist)
        graph_evals = sum(1 for i in evals if sp[i][4] and sp[i][4]["graph"])
        m["optimizer.iterations"] = iters / n_rounds
        m["optimizer.restarts"] = (graph_evals - len(grads)) / n_rounds
        m["optimizer.improve_ratio"] = (sum(h["improved"] for h in hist)
                                        / iters)
        m["optimizer.iters_to_1pct"] = statistics.fmean(
            h["iters_to_1pct"] for h in hist)
    loads = by_name.get("data_io.load_csv", [])
    if loads:
        m["data_io.load_csv_s"] = sum(map(dur, loads)) / len(loads)
        m["data_io.rows_parsed"] = statistics.fmean(info(loads, "points"))
    for name, count_key, count_name in (
            ("preprocess.preprocess_dataset", "points",
             "preprocess.points_kept"),
            ("data_io.write_results", "bytes", "data_io.bytes_written")):
        ids = in_rounds(name)
        m[name + "_s"] = sum(map(dur, ids)) / n_rounds
        counts = info(ids, count_key)
        m[count_name] = statistics.fmean(counts) if counts else 0
    m["cli.self_s"] = sum(self_s[i] for i in in_rounds("cli.main")) / n_rounds

    missing = spans_doc["missing"]
    layer_of = {"load_csv": "data_io.load_csv", "fit": "optimizer.",
                "_evaluate": "loss.evaluate", "grad": "engine.grad",
                "adam_step": "optimizer.step", "_project": "optimizer.step",
                "Workspace": "loss.workspace",
                "predict_curve": "model.predict_curve",
                "preprocess_dataset": "preprocess.",
                "write_results": "data_io.write_results",
                "main": "cli.self"}
    for attr_path in missing:
        prefix = layer_of.get(attr_path.rsplit(".", 1)[1])
        if prefix:
            for name in [k for k in m if k.startswith(prefix)]:
                del m[name]
    # span times at reference speed, like wall_s
    slowdown = statistics.median(statistics.fmean(r["calibration_s"])
                                 / speed.REFERENCE_S
                                 for r in rounds if r["traced"])
    for name in m:
        if PER_LAYER[name] in ("s", "us"):
            m[name] /= slowdown
    m["host.slowdown"] = slowdown
    m["trace.overhead_s"] = (statistics.median(_rescaled_walls(rounds, True))
                             - statistics.median(_rescaled_walls(rounds,
                                                                 False)))
    return m, missing


def run_workload(workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics, notes)."""
    run_dir = os.path.join(RUNS_DIR, f"{workload}-{seed}-{trace}-{os.getpid()}")
    notes = []
    try:
        truth = inputs.generate(workload, seed, run_dir)
        probes = [] if trace else _setup_probes(workload, run_dir)
        _python(["--workload", workload, "--dir", run_dir, "--seconds",
                 str(seconds), "--trace", str(trace)],
                timeout=seconds + WORKER_GRACE_S)
        with open(os.path.join(run_dir, "worker.json")) as fh:
            worker = json.load(fh)
        rounds = worker["rounds"]
        failed = sum(1 for r in rounds if r["error"] is not None)
        notes += sorted({r["error"] for r in rounds if r["error"]})
        try:
            quality = check(workload, truth, run_dir, worker)
            correct = True
        except CheckFailed as exc:
            notes.append(f"check failed: {exc}")
            quality, correct = {}, False
        if trace:
            spans_path = os.path.join(run_dir, "spans.json")
            with open(spans_path) as fh:
                metrics, missing = layer_metrics(json.load(fh), rounds)
            notes += [f"not traced, absent from the API: {m}" for m in missing]
            metrics.update(quality)
            os.replace(spans_path,
                       os.path.join(RUNS_DIR, f"{workload}-spans.json"))
            units = PER_LAYER
        else:
            walls = _rescaled_walls(rounds, False)
            metrics = {
                "setup_s": statistics.median(probes),
                "wall_s": statistics.median(walls) if walls else float("nan"),
                "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
            }
            units = END_TO_END
        metrics = {k: {"value": metrics[k], "unit": u}
                   for k, u in units.items() if k in metrics}
        return correct, len(rounds), failed, metrics, notes
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=inputs.WORKLOADS + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fvcbfit", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'fvcbfit')}",
              file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    if args.workload != "all":
        correct, attempted, failed, metrics, notes = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
        for note in notes:
            print(note, file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    status = 0
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            correct, attempted, failed, metrics, notes = run_workload(
                workload, args.seed, args.seconds, trace)
            print(f"{workload} trace={trace}: correct={correct} "
                  f"attempted={attempted} failed={failed}")
            for note in notes:
                print(f"  {note}")
            for name, m in metrics.items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
            if not correct:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh interpreter: set up, then time rounds.

    python3 bench/worker.py --root R --workload W --dir D --seconds S --trace T
    python3 bench/worker.py --root R --workload W --dir D --setup-only

Set-up is the import of fvcbfit plus, except for cli_dense whose CLI
reads the file itself, `load_csv` of the input. numpy is imported just
before the set-up clock starts: its import alone swings between 0.05 s
and 0.16 s with the state of the host's file cache, which says nothing
about fvcbfit. Nothing else may import numpy before that point.

A round is one call of the timed operation on the same input, between
two timings of the calibration loop in speed.py. With --trace 1,
untraced and traced rounds alternate, so the traced run also measures
what tracing costs. The end-to-end path calls only load_csv,
fit, fit_groups, FitConfig and cli.main; everything else the package
offers is reached through the tracer, which tolerates its absence.
Results go to worker.json (and spans.json) in the run directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _import_package(root, cli):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fvcbfit
    if cli:
        import fvcbfit.cli
    where = os.path.realpath(fvcbfit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"fvcbfit imported from {where}, not from {src}")
    return fvcbfit


def _serialize(results, curve_fields, shared_fields):
    # The reported parameters and per-point predictions of a fit, in a
    # form the checker reads without fvcbfit.
    curves, points = [], []
    for res in results:
        p = res.params
        for i, cid in enumerate(p.curve_ids):
            e, g = int(p.entry_of[i]), int(p.group_of[i])
            row = {"id": int(cid), "group": int(p.group_ids[g])}
            for name in curve_fields:
                row[name] = float(getattr(p, name)[e])
            for name in shared_fields:
                value = p.alpha_g if name == "alpha_g" else getattr(p, name)
                row[name] = float(value[g])
            curves.append(row)
        points += [[int(q.curve_id), float(q.ci), float(q.a_predicted),
                    str(q.state)] for q in res.predictions]
    return {"curves": curves, "points": points}


def _peak_rss_kb():
    # VmHWM belongs to this process's address space, which exec made new;
    # ru_maxrss would also count the parent's size at fork time.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    args = _args()
    input_csv = os.path.join(args.dir, "input.csv")
    import numpy  # noqa: F401  (a dependency's import, kept out of set-up)
    t0 = time.perf_counter()
    fvcbfit = _import_package(args.root, cli=args.workload == "cli_dense")
    dataset = None
    if args.workload != "cli_dense":
        dataset = fvcbfit.load_csv(input_csv)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import reference
    import spans
    import speed

    with open(os.path.join(args.dir, "spec.json")) as fh:
        spec = json.load(fh)
    tracer = spans.Tracer()
    if args.trace:
        # the set-up load, traced on its own, gives load_csv on workloads
        # whose rounds do not parse
        tracer.install()
        if dataset is not None:
            with tracer.span("setup"):
                fvcbfit.load_csv(input_csv)
        tracer.restore()

    config = fvcbfit.FitConfig(light_type=spec["light_type"],
                               temp_type=spec["temp_type"],
                               max_iter=spec["max_iter"])
    out_csv = os.path.join(args.dir, "out.csv")
    out_files = [out_csv, os.path.join(args.dir, "out_groups.csv"),
                 os.path.join(args.dir, "out_points.csv")]
    argv = ["fit", input_csv, "-o", out_csv, "--preprocess", "--points",
            "-q", "--max-iter", str(spec["max_iter"])]

    def operation():
        if args.workload == "aci_batch":
            return [fvcbfit.fit(dataset, config)]
        if args.workload == "groups_light_temp":
            return fvcbfit.fit_groups(dataset, config, jobs=1)
        return fvcbfit.cli.main(argv)

    rounds = []
    output = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        error = None
        before = speed.calibrate()
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("round"):
                    out = operation()
            else:
                out = operation()
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        after = speed.calibrate()
        if traced:
            tracer.restore()
        digest = None
        if error is None and args.workload == "cli_dense":
            if out != 0:
                error = f"cli.main returned {out}"
            else:
                digest = _file_digest(out_files)
        elif error is None:
            output = _serialize(out, reference.CURVE_FIELDS,
                                reference.SHARED_FIELDS)
            digest = hashlib.sha256(
                json.dumps(output).encode()).hexdigest()
        rounds.append({"traced": traced, "wall_s": wall,
                       "calibration_s": [before, after], "error": error,
                       "digest": digest})
        kinds = {r["traced"] for r in rounds}
        if time.perf_counter() >= deadline and len(kinds) == 1 + args.trace:
            break

    result = {"setup_s": setup_s, "rounds": rounds,
              "peak_rss_kb": _peak_rss_kb(),
              "output": output}
    with open(os.path.join(args.dir, "worker.json"), "w") as fh:
        json.dump(result, fh)
    if args.trace:
        tracer.dump(os.path.join(args.dir, "spans.json"))


if __name__ == "__main__":
    main()

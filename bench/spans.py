"""Span recording around the package's layer callables.

A Tracer replaces a module attribute by a wrapper that records one span
(name, start, end, parent) per call, for the duration of a traced round.
Each callable is wrapped under the name its caller looks up at call
time, so no code inside the package changes. A callable that a later
version renames or removes is skipped and listed in `missing`; the
metrics of its layer are then absent, and nothing else is affected.

Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time

# Span names a span's parent counts as covered time but that are not
# layers: the tracer's own bookkeeping after a wrapped call returns.
HOOK = "_hook"


def count_nodes(root) -> int:
    """Graph nodes reachable from a tape root by walking `parents`."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "parents", ()))
    return len(seen)


def history_summary(result) -> dict:
    """Loop statistics of one fit from its loss history.

    The last entry of loss_history is the end-point evaluation, so the
    loop's own iterations are the entries before it.
    """
    hist = [float(x) for x in result.loss_history[:-1]]
    best = float("inf")
    improved = 0
    for loss in hist:
        if loss < best:
            best = loss
            improved += 1
    final = float(result.final_loss)
    target = final + 0.01 * abs(final)
    first = next((i + 1 for i, loss in enumerate(hist) if loss <= target),
                 len(hist))
    return {"iterations": len(hist), "improved": improved,
            "iters_to_1pct": first}


def _output_bytes(args, kwargs) -> int:
    # write_results(result, path, ...): CSV output adds "_groups" and
    # "_points" siblings before the extension
    path = str(kwargs.get("path", args[1] if len(args) > 1 else ""))
    stem, ext = os.path.splitext(path)
    return sum(os.path.getsize(p)
               for p in (path, stem + "_groups" + ext, stem + "_points" + ext)
               if os.path.isfile(p))


class Tracer:
    """Wraps layer callables and keeps the spans of traced rounds."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, info]
        self.missing = []
        self._stack = []
        self._patched = []
        self._count_nodes = False

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name):
        """A span around code of the benchmark's own."""
        span = self._open(name)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module_name, attr, name, before=None, after=None):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            span = tracer._open(name)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                hook = tracer._open(HOOK)
                hook[1] = time.perf_counter()
                try:
                    span[4] = after(args, kwargs, out)
                except Exception:  # a changed return type loses the info only
                    span[4] = None
                hook[2] = time.perf_counter()
                tracer._stack.pop()
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def install(self):
        """Wrap every layer callable; the caller pairs this with restore()."""
        def fit_started():
            self._count_nodes = True

        def evaluated(args, kwargs, out):
            fitted = kwargs.get("fitted", args[3] if len(args) > 3 else ())
            info = {"graph": bool(fitted)}
            if fitted and self._count_nodes:
                self._count_nodes = False
                info["nodes"] = count_nodes(out[0])
            return info

        def fitted(args, kwargs, out):
            return history_summary(out)

        def rows(args, kwargs, out):
            return {"points": int(out.n_points)}

        def written(args, kwargs, out):
            return {"bytes": _output_bytes(args, kwargs)}

        w = self._wrap
        w("fvcbfit", "load_csv", "data_io.load_csv", after=rows)
        w("fvcbfit.cli", "load_csv", "data_io.load_csv", after=rows)
        w("fvcbfit", "fit", "optimizer.fit", fit_started, fitted)
        w("fvcbfit.optimizer", "fit", "optimizer.fit", fit_started, fitted)
        w("fvcbfit.cli", "fit", "optimizer.fit", fit_started, fitted)
        w("fvcbfit", "fit_groups", "optimizer.fit_groups")
        w("fvcbfit.cli", "fit_groups", "optimizer.fit_groups")
        w("fvcbfit.optimizer", "Workspace", "loss.workspace")
        w("fvcbfit.optimizer", "_evaluate", "loss.evaluate", after=evaluated)
        w("fvcbfit.engine", "grad", "engine.grad")
        w("fvcbfit.optimizer", "adam_step", "optimizer.adam_step")
        w("fvcbfit.optimizer", "_project", "optimizer.project")
        w("fvcbfit.optimizer", "predict_curve", "model.predict_curve")
        w("fvcbfit.cli", "preprocess_dataset", "preprocess.preprocess_dataset",
          after=rows)
        w("fvcbfit.cli", "write_results", "data_io.write_results",
          after=written)
        w("fvcbfit.cli", "main", "cli.main")

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": sorted(set(self.missing)),
                       "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover.

    Children of one parent run one after another on a single thread, so
    their union is the sum of their durations clipped to the parent.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p = spans[parent]
            covered[parent] += max(0.0, min(end, p[2]) - max(start, p[1]))
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]

"""First-order fitting loop for the assimilation model.

Plain Adam over the flattened fitted-parameter vector, with the few hard
projections the model needs to stay evaluable; everything else is shaped
by the penalty terms in the loss rather than by bounds.

The loop keeps the best parameters seen, not the last ones. When the
best-seen loss stops improving, Adam restarts from the best point with a
smaller step: the optimum can sit on a kink of a penalty term (the TPU
transition, typically), which a fixed step circles instead of settling.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .data_io import Dataset
from .errors import DivergenceError, FvcbError, NonPositiveC
from .loss import LossBreakdown, Workspace, _evaluate, _gradient, \
    _group_sum, _Spans
# predict_curve is not called here, but stays a name of this module: the
# benchmark's tracer (bench/spans.py) wraps fvcbfit.optimizer.predict_curve
from .loss import predict_curve  # noqa: F401
from .metrics import CurveMetrics
from .params import MAIN_FOUR, FitConfig, ParameterState, fitted_fields

MIN_POINTS_PER_CURVE = 5

# TPU-limitation flag: A_j must exceed A_p at the highest Ci by this
# margin before the curve is reported as reaching the TPU stage.
TPU_STAGE_MARGIN = 0.5

# Stall rule: after STALL_PATIENCE iterations without a new best-seen
# loss, Adam restarts from the best point with its step cut by STALL_DECAY.
STALL_PATIENCE = 1000
STALL_DECAY = 0.1


@dataclass
class AdamState:
    """Moment estimates and step-size settings for one run.

    The run may hold several independent problems: group maps each
    coordinate to its problem, and t and lr hold one value per problem.
    """

    m: np.ndarray
    v: np.ndarray
    t: np.ndarray
    lr: np.ndarray
    group: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, n: int, lr: float = 0.08, group=None) -> "AdamState":
        """Fresh state; without group every coordinate is one problem."""
        if group is None:
            group = np.zeros(n, dtype=np.intp)
        k = int(group.max()) + 1
        return cls(m=np.zeros(n), v=np.zeros(n), t=np.zeros(k, dtype=np.intp),
                   lr=np.full(k, float(lr)), group=group)

    def restart(self, problems: np.ndarray, decay: float) -> None:
        """Fresh moments for the flagged problems, their step times decay."""
        coords = problems[self.group]
        self.m[coords] = 0.0
        self.v[coords] = 0.0
        self.t[problems] = 0
        self.lr[problems] *= decay


def adam_step(state: AdamState, values: np.ndarray, grad: np.ndarray,
              live: np.ndarray | None = None) -> np.ndarray:
    """One bias-corrected update; mutates `state`, returns new values.

    Only the problems flagged in `live` (default: all) take the step;
    the coordinates of the others keep their values, and their moments
    are not to be read again until a restart.
    """
    if live is None:
        state.t += 1
    else:
        state.t[live] += 1
    # bias corrections in Python floats, once per distinct step count:
    # numpy's power of an array can differ from Python's in the last bit
    ts = sorted(set(state.t.tolist()))
    c1 = [1.0 - state.beta1 ** t if t else 1.0 for t in ts]
    c2 = [1.0 - state.beta2 ** t if t else 1.0 for t in ts]
    gi = state.group
    if len(ts) == 1:
        (c1,), (c2,) = c1, c2
    else:
        at = np.searchsorted(ts, state.t)[gi]
        c1, c2 = np.array(c1)[at], np.array(c2)[at]
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = state.m / c1
    vhat = state.v / c2
    new = values - state.lr[gi] * mhat / (np.sqrt(vhat) + state.eps)
    return new if live is None else np.where(live[gi], new, values)


@dataclass(frozen=True)
class PointPrediction:
    curve_id: int
    ci: float
    a_measured: float
    a_predicted: float
    state: str


@dataclass
class FitResult:
    """Everything a fit produces.

    curve_metrics, tpu_stage and tpu_gap are keyed by curve id. points
    maps each PointPrediction field to an array over all points (curves
    in canonical order, each in record order); predictions is that table
    as PointPredictions. All of these come from the final evaluation of
    the returned, best-seen parameters, whose loss is final_loss;
    loss_history[0] is the initial loss. On several fitting groups the
    losses and breakdown are sums over the groups, iterations_run is the
    most any group ran, and groups holds each group's FitResult, as fit()
    returns it for that group alone, in group order (empty for one).
    """

    params: ParameterState
    config: FitConfig
    curve_metrics: dict
    points: dict
    loss_history: np.ndarray
    tpu_stage: dict
    tpu_gap: dict
    iterations_run: int
    initial_loss: float
    final_loss: float
    breakdown: LossBreakdown
    groups: tuple = ()

    @functools.cached_property
    def predictions(self) -> tuple:
        cols = (self.points[f.name].tolist()
                for f in dataclasses.fields(PointPrediction))
        return tuple(PointPrediction(*row) for row in zip(*cols))


def init_parameters(dataset: Dataset, config: FitConfig | None = None,
                    constants=None, **overrides) -> ParameterState:
    """Default starting parameters shaped to a dataset's curves/groups."""
    config = config or FitConfig()
    ids = [c.curve_id for c in dataset.curves]
    groups = {c.curve_id: c.fitting_group for c in dataset.curves}
    return ParameterState.defaults(curve_ids=ids, group_of_curve=groups,
                                   onefit=config.onefit, constants=constants,
                                   **overrides)


class _Packing:
    """Maps the fitted fields of a ParameterState to one flat vector.

    group holds the fitting group of each coordinate; entry_group maps a
    main-four column to its group.
    """

    def __init__(self, params: ParameterState, fields: tuple,
                 entry_group: np.ndarray):
        self.fields = fields
        self.slices = {}
        groups = []
        off = 0
        for name in fields:
            k = getattr(params, name).shape[0]
            self.slices[name] = slice(off, off + k)
            groups.append(entry_group if name in MAIN_FOUR
                          else np.arange(k, dtype=np.intp))
            off += k
        self.size = off
        self.group = np.concatenate(groups)

    def pack(self, params: ParameterState) -> np.ndarray:
        return np.concatenate([getattr(params, name) for name in self.fields])

    def unpack(self, flat: np.ndarray, params: ParameterState) -> None:
        for name in self.fields:
            getattr(params, name)[:] = flat[self.slices[name]]


def _bounds(packing: _Packing, params: ParameterState,
            config: FitConfig) -> tuple:
    """Lower and upper bounds of each coordinate of the flat vector (-inf
    and +inf where a field has none): hard guards that keep the model
    evaluable, applied after every step. Soft preferences are the
    penalties' job.
    """
    cn = params.constants
    # above 1 the non-rectangular hyperbola's discriminant can go negative
    limits = dict(alpha=(1e-6, np.inf), theta=(1e-6, 1.0), gm=(1e-3, np.inf),
                  kc25=(1e-6, np.inf), ko25=(1e-6, np.inf),
                  gamma25=(1e-6, np.inf))
    if config.positive_rd:
        limits["rd25"] = (0.0, np.inf)
    if config.temp_type == 2:
        # peaked form needs dhd > dha > 0
        limits.update(dha_vcmax=(1e-6, cn.dhd_vcmax - 1.0),
                      dha_jmax=(1e-6, cn.dhd_jmax - 1.0),
                      dha_tpu=(1e-6, cn.dhd_tpu - 1.0),
                      topt_vcmax=(200.0, 400.0), topt_jmax=(200.0, 400.0),
                      topt_tpu=(200.0, 400.0))
    lo = np.full(packing.size, -np.inf)
    hi = np.full(packing.size, np.inf)
    for name, sl in packing.slices.items():
        lo[sl], hi[sl] = limits.get(name, (-np.inf, np.inf))
    return lo, hi


def _project(flat: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Clip flat into [lo, hi] in place, with np.clip's bits: a NaN
    stays, and a bound wins a tie (0.0 against -0.0)."""
    np.maximum(flat, lo, out=flat)
    np.minimum(flat, hi, out=flat)


def fit(dataset: Dataset, config: FitConfig | None = None,
        params0: ParameterState | None = None, callback=None) -> FitResult:
    """Fit the model to every curve of a dataset.

    Each fitting group is an independent problem with its own loss (its
    MSE over its own point count plus its own penalties). All groups run
    in one loop, one evaluation and one backward pass per iteration, and
    each ends with the bits it has when fitted alone: best-seen
    parameters, the stall rule, Adam's step count and step size, and
    early stop are kept per group. A group that stops early is frozen,
    and the loop ends when every group has stopped or at max_iter. A
    light-only group beside CO2 groups carries TPU fields that get no
    gradient and keep their start values, unless params0 starts them
    outside the projection bounds or, under a temperature response, with
    a negative dha_tpu.

    config.lr is the starting step. After STALL_PATIENCE iterations
    without a new best-seen loss, a group returns to its best point with
    a fresh Adam state and its step times STALL_DECAY, taking no step in
    that iteration; restarts use up no extra iterations.

    The endpoint is evaluated after the loop and competes for best. A
    group whose C goes non-positive there (under fit_gm) keeps its best
    point and gets no endpoint entry in its history, nor does the sum.

    callback(iteration, loss), if given, is called once per iteration
    (counting from 1) with the loss summed over the groups.

    Raises DivergenceError, carrying the best parameters so far, when a
    group's loss or gradient turns NaN/Inf or its C goes non-positive
    inside the loop.
    """
    config = config or FitConfig()
    for c in dataset.curves:
        if c.n_points < MIN_POINTS_PER_CURVE:
            raise FvcbError(f"curve {c.curve_id} has {c.n_points} points; "
                            f"at least {MIN_POINTS_PER_CURVE} are needed")
    params = params0.copy() if params0 is not None \
        else init_parameters(dataset, config)
    ws = Workspace(dataset, params)
    fields = fitted_fields(config, ws.light_only)
    packing = _Packing(params, fields, ws.entry_group)
    lo, hi = _bounds(packing, params, config)
    flat = packing.pack(params)
    k = ws.n_groups
    state = AdamState.zeros(packing.size, lr=config.lr, group=packing.group)

    # the per-group bookkeeping is arrays over the groups, so one
    # iteration costs the same number of numpy calls for any group count
    history = []                 # the loss summed over groups
    table = np.empty((min(config.max_iter, 1024), k))  # each group's loss
    best_loss = np.full(k, np.inf)
    best_flat = flat.copy()
    mark = np.zeros(k, dtype=np.intp)  # iteration of the last best or restart
    streak = np.zeros(k, dtype=np.intp)
    running = np.ones(k, dtype=bool)  # groups not stopped early
    rows = np.zeros(k, dtype=np.intp)  # table rows of a stopped group

    def diverged(msg, it):
        good = None
        if np.all(np.isfinite(best_loss)):
            packing.unpack(best_flat, params)
            good = params.copy()
        return DivergenceError(msg, last_good=good, iteration=it)

    for it in range(config.max_iter):
        try:
            total, _, leaves, _ = _evaluate(ws, params, config, fields,
                                            report=False)
        except NonPositiveC:
            if it == 0:
                raise
            raise diverged("g_m substitution left no positive C", it) from None
        losses = engine.value(total)
        # the same bits as the breakdown's total
        loss = sum(losses.tolist())
        if it == table.shape[0]:
            table = np.concatenate((table, np.empty_like(table)))
        table[it] = losses
        better = running & (losses < best_loss)
        bad = k
        if not math.isfinite(loss):
            # a non-finite term, or a sum that overflowed
            nonfinite = np.flatnonzero(running & ~np.isfinite(losses))
            if nonfinite.shape[0]:
                # groups are taken in order, and the first bad one stops
                # the fit before the ones after it keep a new best
                bad = int(nonfinite[0])
                better[bad:] = False
        # np.count_nonzero is the cheap test of a mask on few groups
        if np.count_nonzero(better):
            np.copyto(best_loss, losses, where=better)
            np.copyto(best_flat, flat, where=better[packing.group])
            mark[better] = it
        if bad < k:
            raise diverged(f"loss became {losses[bad]}", it)
        if config.early_stop and it > 0:
            prev = table[it - 1]
            rel = np.abs(losses - prev) / np.maximum(np.abs(prev), 1e-12)
            streak = np.where(rel < config.early_stop_rtol, streak + 1, 0)
            stopped = running & (streak >= config.early_stop_patience)
            if np.count_nonzero(stopped):
                rows[stopped] = it + 1
                running = running & ~stopped
        stall = running & (mark <= it - STALL_PATIENCE)
        restart = np.count_nonzero(stall) > 0
        if restart:
            mark[stall] = it
        live = running & ~stall
        n_live = np.count_nonzero(live)
        history.append(loss)
        if callback is not None:
            callback(it + 1, loss)
        if config.early_stop and not np.count_nonzero(running):
            break
        if n_live:
            g = _gradient(ws, total, leaves)
            if n_live < k:
                g = np.where(live[packing.group], g, 0.0)
            if not np.isfinite(g).all():
                raise diverged("gradient became non-finite", it)
            flat = adam_step(state, flat, g, live if n_live < k else None)
            _project(flat, lo, hi)
        if restart:
            np.copyto(flat, best_flat, where=stall[packing.group])
            state.restart(stall, STALL_DECAY)
        packing.unpack(flat, params)

    # a group that stopped early took no step in its last iteration
    rows[running] = len(history)
    steps = np.where(running, rows, rows - 1)
    hist = [table[:n, gi].tolist() for gi, n in enumerate(rows.tolist())]

    # evaluate the endpoint too; it competes for best. A group whose C
    # goes non-positive there weighs no endpoint: it returns to its best
    # point, and the others are evaluated again without it
    total = leaves = None  # the last graph is not needed past here
    ends = np.ones(k, dtype=bool)
    try:
        _, breakdown, _, aux = _evaluate(ws, params, config)
        history.append(breakdown.total)
    except NonPositiveC as e:
        ends[e.groups] = False
        if ends.any():
            np.copyto(flat, best_flat, where=~ends[packing.group])
            packing.unpack(flat, params)
            _, _, _, aux = _evaluate(ws, params, config)
    better = np.zeros(k, dtype=bool)
    if ends.any():
        losses = aux["terms"][-1]
        for h, loss, end in zip(hist, losses.tolist(), ends.tolist()):
            if end:
                h.append(loss)
        better = ends & np.isfinite(losses) & (losses < best_loss)
        np.copyto(best_loss, losses, where=better)
        np.copyto(best_flat, flat, where=better[packing.group])

    # when every group's best point is the endpoint, the endpoint's
    # evaluation is the best point's
    if not better.all():
        packing.unpack(best_flat, params)
        _, breakdown, _, aux = _evaluate(ws, params, config)

    ids = params.curve_ids
    points, metrics = _report(ws, aux)
    metrics = dict(zip(ids, metrics))
    ok = aux["tpu_valid"]
    gap = np.where(ok, aux["tpu_gap"], np.nan)
    tpu_gap = dict(zip(ids, gap.tolist()))
    tpu_stage = dict(zip(ids, (ok & (gap < -TPU_STAGE_MARGIN)).tolist()))
    res = FitResult(params=params, config=config, curve_metrics=metrics,
                    points=points, loss_history=np.asarray(history),
                    tpu_stage=tpu_stage, tpu_gap=tpu_gap,
                    iterations_run=int(steps.max()),
                    initial_loss=float(history[0]),
                    final_loss=float(sum(best_loss.tolist())),
                    breakdown=breakdown)
    if k > 1:
        res.groups = tuple(
            _group_result(res, ws, gi, hist[gi], int(steps[gi]),
                          float(best_loss[gi]),
                          LossBreakdown(*(float(t[gi])
                                          for t in aux["terms"])))
            for gi in range(k))
    return res


def _report(ws: Workspace, aux: dict) -> tuple:
    """The points table and each curve's CurveMetrics, from the aux of the
    final evaluation. Each curve's points and sums run in record order,
    its sums by `_group_sum`: the bits of metrics.rmse and r_squared on
    the curve, with R^2 nan where A is constant."""
    n = ws.seg_lengths
    at = np.empty(ws.n_points, dtype=np.intp)  # canonical index per record
    at[ws.orig_index] = np.arange(ws.n_points)
    a, pred = ws.a[at], aux["pred"][at]
    spans = _Spans(np.append(ws.seg_starts, ws.n_points))
    ss_res = _group_sum((a - pred) ** 2, spans)
    ss_tot = _group_sum((a - np.repeat(_group_sum(a, spans) / n, n)) ** 2,
                        spans)
    points = {
        "curve_id": np.repeat(np.asarray(ws.curve_ids, dtype=np.int64), n),
        "ci": ws.ci[at], "a_measured": a, "a_predicted": pred,
        "state": aux["state"][at],
    }
    r2 = 1.0 - ss_res / np.where(ss_tot == 0.0, np.nan, ss_tot)
    return points, [CurveMetrics(*m) for m in zip(
        np.sqrt(ss_res / n).tolist(), r2.tolist(), n.tolist())]


def _group_result(res: FitResult, ws: Workspace, gi: int, hist: list,
                  steps: int, best_loss: float,
                  breakdown: LossBreakdown) -> FitResult:
    """The part of a stacked fit's result that belongs to group gi."""
    pa, pb = ws.pt_spans.bounds[gi]
    params = res.params.select_group(gi)
    ids = params.curve_ids
    return FitResult(
        params=params, config=res.config,
        curve_metrics={cid: res.curve_metrics[cid] for cid in ids},
        points={name: col[pa:pb] for name, col in res.points.items()},
        loss_history=np.asarray(hist),
        tpu_stage={cid: res.tpu_stage[cid] for cid in ids},
        tpu_gap={cid: res.tpu_gap[cid] for cid in ids},
        iterations_run=steps, initial_loss=float(hist[0]),
        final_loss=float(best_loss), breakdown=breakdown)


def split_by_group(dataset: Dataset) -> list:
    """[(group_id, sub-dataset)] in ascending group order."""
    out = []
    for gid, ids in dataset.groups.items():
        members = set(ids)
        curves = tuple(c for c in dataset.curves if c.curve_id in members)
        out.append((gid, Dataset(curves=curves, groups={gid: list(ids)})))
    return out


def fit_groups(dataset: Dataset, config: FitConfig | None = None,
               jobs: int = 1, callback=None) -> list:
    """Fit each fitting group independently; returns one result per group.

    Groups are separate estimation problems (parameters are never shared
    across them). One fit() call runs them all in one shared loop and its
    result is split per group; each part equals fit() of that group
    alone, bit for bit, unless some group diverges, which stops them all.
    callback sees the loss summed over the groups. jobs is accepted for
    compatibility and has no effect.
    """
    res = fit(dataset, config or FitConfig(), callback=callback)
    return list(res.groups) or [res]

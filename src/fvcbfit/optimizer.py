"""First-order fitting loop for the assimilation model.

Plain Adam over the flattened fitted-parameter vector, with the few
hard projections the model needs to stay evaluable (activation energy
below deactivation, non-negative Rd when requested, positivity floors
on scale-like parameters). Everything else is shaped by the penalty
terms in the loss rather than by bounds.

The loop keeps the best parameters seen, not the last ones. When the
best-seen loss stops improving, Adam restarts from the best point with a
smaller step: the optimum can sit on a kink of a penalty term (the TPU
transition, typically), and a fixed step circles such a kink instead of
settling into it.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import engine
from .data_io import Dataset
from .errors import DivergenceError, FvcbError, NonPositiveC, ZeroVariance
from .loss import LossBreakdown, Workspace, _evaluate
from .metrics import CurveMetrics, r_squared, rmse
from .model import predict_curve
from .params import MAIN_FOUR, FitConfig, ParameterState, fitted_fields

__all__ = ["AdamState", "PointPrediction", "FitResult", "init_parameters",
           "adam_step", "fit", "split_by_group", "fit_groups"]

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
        live = np.ones(state.t.shape[0], dtype=bool)
    state.t[live] += 1
    # bias corrections per problem in Python floats: numpy's power of an
    # array can differ from Python's in the last bit
    c1 = np.array([1.0 - state.beta1 ** t if t else 1.0
                   for t in state.t.tolist()])
    c2 = np.array([1.0 - state.beta2 ** t if t else 1.0
                   for t in state.t.tolist()])
    gi = state.group
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = state.m / c1[gi]
    vhat = state.v / c2[gi]
    new = values - state.lr[gi] * mhat / (np.sqrt(vhat) + state.eps)
    return np.where(live[gi], new, values)


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
    maps each PointPrediction field to an array over all points, curves
    in canonical order and points within a curve in their original
    record order; predictions is the same table as PointPredictions,
    built on first use. loss_history[0] is the loss at the initial
    parameters; final_loss belongs to the returned (best seen)
    parameters.

    On a dataset of several fitting groups, loss_history, initial_loss,
    final_loss and breakdown are sums over the groups, iterations_run is
    the most any group ran, and groups holds one FitResult per group, in
    ascending group order, each as fit() returns it for that group
    alone. groups is empty for a single group.
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
        flat = np.empty(self.size)
        for name in self.fields:
            flat[self.slices[name]] = getattr(params, name)
        return flat

    def unpack(self, flat: np.ndarray, params: ParameterState) -> None:
        for name in self.fields:
            getattr(params, name)[:] = flat[self.slices[name]]


def _project(flat: np.ndarray, packing: _Packing, params: ParameterState,
             config: FitConfig) -> None:
    # Hard feasibility guards, applied after every step. Soft preferences
    # are the penalties' job; these only keep the model evaluable.
    def clip(name, lo=None, hi=None):
        if name in packing.slices:
            sl = packing.slices[name]
            np.clip(flat[sl], lo, hi, out=flat[sl])

    if config.positive_rd:
        clip("rd25", lo=0.0)
    if config.temp_type == 2:
        cn = params.constants
        # peaked form needs dhd > dha > 0
        clip("dha_vcmax", lo=1e-6, hi=cn.dhd_vcmax - 1.0)
        clip("dha_jmax", lo=1e-6, hi=cn.dhd_jmax - 1.0)
        clip("dha_tpu", lo=1e-6, hi=cn.dhd_tpu - 1.0)
        for name in ("topt_vcmax", "topt_jmax", "topt_tpu"):
            clip(name, lo=200.0, hi=400.0)
    clip("alpha", lo=1e-6)
    # above 1 the non-rectangular hyperbola's discriminant can go negative
    clip("theta", lo=1e-6, hi=1.0)
    clip("gm", lo=1e-3)
    for name in ("kc25", "ko25", "gamma25"):
        clip(name, lo=1e-6)


def fit(dataset: Dataset, config: FitConfig | None = None,
        params0: ParameterState | None = None, callback=None) -> FitResult:
    """Fit the model to every curve of a dataset.

    Each fitting group is an independent problem: groups share no
    parameter, and each group's loss is its own MSE, divided by its own
    point count, plus its own penalties. All groups run in one shared
    loop, one evaluation and one backward pass per iteration, and each
    group ends with the bits it would have when fitted alone. Best-seen
    parameters, the stall rule, Adam's step count and step size, and
    early stop are kept per group; a group that stops early is frozen,
    and the loop ends when every group has stopped or at max_iter. A
    light-only group beside CO2 groups carries the TPU fields it does
    not fit alone; they get no gradient and keep their start values,
    unless params0 starts them outside the projection bounds or, under a
    temperature response, with a negative dha_tpu.

    config.lr is the starting step. After STALL_PATIENCE iterations in
    which a group's best-seen loss has not improved, the group returns
    to its best-seen parameters and starts a fresh Adam state whose step
    is the current one times STALL_DECAY; that iteration takes no step
    for the group, and the next one steps from the best point. Restarts
    use up no extra iterations: without early stop the loop always runs
    max_iter.

    After the loop the endpoint is evaluated and competes for best. A
    group whose C goes non-positive there (under fit_gm) keeps its best
    point and its history gets no endpoint entry, as when it is fitted
    alone; the summed history then gets none either.

    callback, if given, is invoked as callback(iteration, loss) once per
    iteration (iteration counts from 1), with the loss summed over the
    groups.

    Raises DivergenceError when a group's loss or gradient turns
    NaN/Inf, or its C goes non-positive inside the loop; the whole fit
    stops, and the best parameters reached so far travel on the
    exception.
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
    flat = packing.pack(params)
    k = ws.n_groups
    state = AdamState.zeros(packing.size, lr=config.lr, group=packing.group)
    coords = [np.flatnonzero(packing.group == gi) for gi in range(k)]

    history = []                 # the loss summed over groups
    hist = [[] for _ in range(k)]
    best_loss = [np.inf] * k
    best_flat = flat.copy()
    since_best = [0] * k
    streak = [0] * k
    steps = [0] * k
    running = list(range(k))     # groups not stopped early

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
        losses = engine.value(total).tolist()
        live, restart, stopped = [], [], []
        for gi in running:
            loss = losses[gi]
            if not np.isfinite(loss):
                raise diverged(f"loss became {loss}", it)
            h = hist[gi]
            h.append(loss)
            if loss < best_loss[gi]:
                best_loss[gi] = loss
                best_flat[coords[gi]] = flat[coords[gi]]
                since_best[gi] = 0
            else:
                since_best[gi] += 1
            if config.early_stop and it > 0:
                prev = h[-2]
                rel = abs(loss - prev) / max(abs(prev), 1e-12)
                streak[gi] = streak[gi] + 1 if rel < config.early_stop_rtol \
                    else 0
                if streak[gi] >= config.early_stop_patience:
                    steps[gi] = it
                    stopped.append(gi)
                    continue
            steps[gi] = it + 1
            if since_best[gi] >= STALL_PATIENCE:
                since_best[gi] = 0
                restart.append(gi)
            else:
                live.append(gi)
        # the same bits as the breakdown's total
        history.append(sum(losses))
        if callback is not None:
            callback(it + 1, history[-1])
        if stopped:
            running = [gi for gi in running if gi not in stopped]
            if not running:
                break
        if live:
            g = np.concatenate(engine.grad(total, [leaves[name]
                                                   for name in fields]))
            mask = np.zeros(k, dtype=bool)
            mask[live] = True
            g = np.where(mask[packing.group], g, 0.0)
            if not np.all(np.isfinite(g)):
                raise diverged("gradient became non-finite", it)
            flat = adam_step(state, flat, g, mask)
            _project(flat, packing, params, config)
        if restart:
            for gi in restart:
                flat[coords[gi]] = best_flat[coords[gi]]
            mask = np.zeros(k, dtype=bool)
            mask[restart] = True
            state.restart(mask, STALL_DECAY)
        packing.unpack(flat, params)

    # evaluate the endpoint too; it competes for best. A group whose C
    # goes non-positive there weighs no endpoint: it returns to its best
    # point, and the others are evaluated again without it
    total = leaves = None  # the last graph is not needed past here
    ends = range(k)
    best_at_end = 0
    try:
        _, breakdown, _, aux = _evaluate(ws, params, config)
        history.append(breakdown.total)
    except NonPositiveC as e:
        ends = [gi for gi in ends if gi not in e.groups]
        if ends:
            for gi in e.groups:
                flat[coords[gi]] = best_flat[coords[gi]]
            packing.unpack(flat, params)
            _, _, _, aux = _evaluate(ws, params, config)
    if ends:
        losses = aux["terms"][-1].tolist()
        for gi in ends:
            loss = losses[gi]
            hist[gi].append(loss)
            if np.isfinite(loss) and loss < best_loss[gi]:
                best_loss[gi] = loss
                best_flat[coords[gi]] = flat[coords[gi]]
                best_at_end += 1

    # when every group's best point is the endpoint, the endpoint's
    # evaluation is the best point's
    if best_at_end < k:
        packing.unpack(best_flat, params)
        _, breakdown, _, aux = _evaluate(ws, params, config)

    by_id = {c.curve_id: c for c in dataset.curves}
    curves = [by_id[cid] for cid in params.curve_ids]
    metrics = {}
    a_pred, state = [], []
    tpu_stage = {}
    tpu_gap = {}
    for i, (cid, curve) in enumerate(zip(params.curve_ids, curves)):
        a_hat, states = predict_curve(curve, params, config,
                                      entry=int(params.entry_of[i]),
                                      group=int(params.group_of[i]))
        try:
            r2 = r_squared(curve.a, a_hat)
        except ZeroVariance:
            r2 = float("nan")
        metrics[cid] = CurveMetrics(rmse=rmse(curve.a, a_hat), r2=r2,
                                    n_points=curve.n_points)
        a_pred.append(a_hat)
        state.append(states)
        gap = float(aux["tpu_gap"][i])
        ok = bool(aux["tpu_valid"][i])
        tpu_gap[cid] = gap if ok else float("nan")
        tpu_stage[cid] = ok and gap < -TPU_STAGE_MARGIN

    points = {
        "curve_id": np.repeat(np.asarray(params.curve_ids, dtype=np.int64),
                              [c.n_points for c in curves]),
        "ci": np.concatenate([c.ci for c in curves]),
        "a_measured": np.concatenate([c.a for c in curves]),
        "a_predicted": np.concatenate(a_pred),
        "state": np.concatenate(state),
    }
    res = FitResult(params=params, config=config, curve_metrics=metrics,
                    points=points, loss_history=np.asarray(history),
                    tpu_stage=tpu_stage, tpu_gap=tpu_gap,
                    iterations_run=max(steps),
                    initial_loss=float(history[0]),
                    final_loss=float(sum(best_loss)), breakdown=breakdown)
    if k > 1:
        res.groups = tuple(
            _group_result(res, ws, gi, hist[gi], steps[gi], best_loss[gi],
                          LossBreakdown(*(float(t[gi])
                                          for t in aux["terms"])))
            for gi in range(k))
    return res


def _group_result(res: FitResult, ws: Workspace, gi: int, hist: list,
                  steps: int, best_loss: float,
                  breakdown: LossBreakdown) -> FitResult:
    """The part of a stacked fit's result that belongs to group gi."""
    pa, pb = ws.pt_spans[gi]
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

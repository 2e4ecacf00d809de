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
from .params import FitConfig, ParameterState, fitted_fields

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
    """Moment estimates and step-size settings for one run."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.08
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, n: int, lr: float = 0.08) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), lr=lr)


def adam_step(state: AdamState, values: np.ndarray,
              grad: np.ndarray) -> np.ndarray:
    """One bias-corrected update; mutates `state`, returns new values."""
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    mhat = state.m / (1.0 - state.beta1 ** state.t)
    vhat = state.v / (1.0 - state.beta2 ** state.t)
    return values - state.lr * mhat / (np.sqrt(vhat) + state.eps)


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
    """Maps the fitted fields of a ParameterState to one flat vector."""

    def __init__(self, params: ParameterState, fields: tuple):
        self.fields = fields
        self.slices = {}
        off = 0
        for name in fields:
            k = getattr(params, name).shape[0]
            self.slices[name] = slice(off, off + k)
            off += k
        self.size = off

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
    """Fit the model to every curve of a dataset jointly.

    config.lr is the starting step. After STALL_PATIENCE iterations in
    which the best-seen loss has not improved, the loop returns to the
    best-seen parameters and starts a fresh Adam state whose step is the
    current one times STALL_DECAY; that iteration takes no step, and the
    next one steps from the best point. Restarts use up no extra
    iterations: without early stop the loop always runs max_iter.

    callback, if given, is invoked as callback(iteration, loss) once per
    iteration (iteration counts from 1).

    Raises DivergenceError when the loss or gradient turns NaN/Inf; the
    best parameters reached so far travel on the exception.
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
    packing = _Packing(params, fields)
    flat = packing.pack(params)
    state = AdamState.zeros(packing.size, lr=config.lr)

    history = []
    best_loss = np.inf
    best_flat = flat.copy()
    since_best = 0
    streak = 0
    steps = 0

    def diverged(msg, it):
        good = None
        if np.isfinite(best_loss):
            packing.unpack(best_flat, params)
            good = params.copy()
        return DivergenceError(msg, last_good=good, iteration=it)

    for it in range(config.max_iter):
        try:
            total, breakdown, leaves, _ = _evaluate(ws, params, config, fields)
        except NonPositiveC:
            if it == 0:
                raise
            raise diverged("g_m substitution left no positive C", it) from None
        loss = breakdown.total
        if not np.isfinite(loss):
            raise diverged(f"loss became {loss}", it)
        history.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_flat = flat.copy()
            since_best = 0
        else:
            since_best += 1
        if callback is not None:
            callback(it + 1, loss)
        if config.early_stop and it > 0:
            prev = history[-2]
            rel = abs(loss - prev) / max(abs(prev), 1e-12)
            streak = streak + 1 if rel < config.early_stop_rtol else 0
            if streak >= config.early_stop_patience:
                steps = it
                break
        if since_best >= STALL_PATIENCE:
            flat = best_flat.copy()
            packing.unpack(flat, params)
            state = AdamState.zeros(packing.size, lr=state.lr * STALL_DECAY)
            since_best = 0
            steps = it + 1
            continue
        grads = engine.grad(total, [leaves[name] for name in fields])
        g = np.concatenate(grads)
        if not np.all(np.isfinite(g)):
            raise diverged("gradient became non-finite", it)
        flat = adam_step(state, flat, g)
        _project(flat, packing, params, config)
        packing.unpack(flat, params)
        steps = it + 1

    # evaluate the endpoint too; it competes for best
    try:
        _, endb, _, _ = _evaluate(ws, params, config)
        history.append(endb.total)
        if np.isfinite(endb.total) and endb.total < best_loss:
            best_loss = endb.total
            best_flat = flat.copy()
    except NonPositiveC:
        pass

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
    return FitResult(params=params, config=config, curve_metrics=metrics,
                     points=points,
                     loss_history=np.asarray(history),
                     tpu_stage=tpu_stage, tpu_gap=tpu_gap,
                     iterations_run=steps, initial_loss=float(history[0]),
                     final_loss=float(best_loss), breakdown=breakdown)


def split_by_group(dataset: Dataset) -> list:
    """[(group_id, sub-dataset)] in ascending group order."""
    out = []
    for gid, ids in dataset.groups.items():
        members = set(ids)
        curves = tuple(c for c in dataset.curves if c.curve_id in members)
        out.append((gid, Dataset(curves=curves, groups={gid: list(ids)})))
    return out


def _fit_one(args):
    dataset, config = args
    return fit(dataset, config)


def fit_groups(dataset: Dataset, config: FitConfig | None = None,
               jobs: int = 1, callback=None) -> list:
    """Fit each fitting group independently; returns one result per group.

    Groups are separate estimation problems (parameters are never shared
    across them), so they can run in parallel. callback only applies to
    sequential runs.
    """
    config = config or FitConfig()
    parts = split_by_group(dataset)
    if jobs > 1 and len(parts) > 1:
        import concurrent.futures  # only parallel runs pay for the import
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_fit_one, [(d, config) for _, d in parts]))
    return [fit(d, config, callback=callback) for _, d in parts]

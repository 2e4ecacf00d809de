"""Adam loop, initialization shaping, projections, and fit invariants."""

import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import fvcbfit.optimizer as optimizer
from fvcbfit.data_io import Dataset
from fvcbfit.engine import Var
from fvcbfit.errors import DivergenceError, FvcbError, ZeroVariance
from fvcbfit.loss import (LossBreakdown, Workspace, _evaluate, _gradient,
                          predict_curve, total_loss)
from fvcbfit.metrics import CurveMetrics, r_squared, rmse
from fvcbfit.model import peaked_arrhenius
from fvcbfit.optimizer import (
    STALL_PATIENCE, AdamState, adam_step, fit, fit_groups, init_parameters,
    split_by_group,
)
from fvcbfit.params import (
    MAIN_FOUR, SHARED_FIELDS, FitConfig, ParameterState, fitted_fields,
)
from fvcbfit.synth import generate_dataset


# --- the update rule --------------------------------------------------

def test_first_step_has_unit_scale():
    # after bias correction the first step is lr * g / (|g| + eps),
    # essentially lr regardless of gradient magnitude
    for g in (1.0, 5.0, 3e4):
        state = AdamState.zeros(1)
        new = adam_step(state, np.zeros(1), np.array([g]))
        assert new[0] == pytest.approx(-0.08, rel=1e-6)
        assert new[0] > -0.08  # eps keeps it strictly short of lr
    state = AdamState.zeros(1)
    new = adam_step(state, np.zeros(1), np.array([-2.0]))
    assert new[0] == pytest.approx(0.08, rel=1e-6)
    # for gradients near eps the denominator bites visibly
    state = AdamState.zeros(1)
    new = adam_step(state, np.zeros(1), np.array([1e-6]))
    assert new[0] == pytest.approx(-0.08 / 1.01, rel=1e-9)


def test_constant_gradient_moves_monotonically():
    state = AdamState.zeros(1)
    x = np.zeros(1)
    xs = [0.0]
    for _ in range(10):
        x = adam_step(state, x, np.array([4.0]))
        xs.append(float(x[0]))
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert all(abs(b - a) <= 0.08 for a, b in zip(xs, xs[1:]))


def test_zero_gradient_is_a_fixed_point():
    state = AdamState.zeros(3)
    x0 = np.array([1.0, -2.0, 0.5])
    x = x0.copy()
    for _ in range(5):
        x = adam_step(state, x, np.zeros(3))
    np.testing.assert_array_equal(x, x0)
    assert state.t == 5


def test_state_accumulates_moments():
    state = AdamState.zeros(1)
    adam_step(state, np.zeros(1), np.array([2.0]))
    assert state.m[0] == pytest.approx(0.2)
    assert state.v[0] == pytest.approx(0.004)
    assert state.t == 1


# --- initialization ---------------------------------------------------

def two_group_dataset(noise_sd=0.5, seed=40, n0=2, n1=1):
    truth = ParameterState.single()
    d0, _ = generate_dataset(truth, n_curves=n0, noise_sd=noise_sd, seed=seed)
    d1, _ = generate_dataset(truth, n_curves=n1, noise_sd=noise_sd,
                             seed=seed + 10)
    extra = tuple(replace(c, curve_id=n0 + i, fitting_group=1)
                  for i, c in enumerate(d1.curves))
    return Dataset(curves=d0.curves + extra,
                   groups={0: list(range(n0)),
                           1: list(range(n0, n0 + n1))})


def test_init_shapes_per_curve_and_onefit():
    ds = two_group_dataset()
    p = init_parameters(ds)
    assert p.curve_ids == (0, 1, 2)
    assert p.vcmax25.shape == (3,)
    assert p.alpha.shape == (2,)
    np.testing.assert_array_equal(p.vcmax25, [100.0, 100.0, 100.0])
    np.testing.assert_array_equal(p.group_of, [0, 0, 1])
    p1 = init_parameters(ds, FitConfig(onefit=True))
    assert p1.onefit and p1.vcmax25.shape == (2,)
    np.testing.assert_array_equal(p1.entry_of, [0, 0, 1])
    p2 = init_parameters(ds, vcmax25=80.0)
    np.testing.assert_array_equal(p2.vcmax25, [80.0, 80.0, 80.0])


# --- the fitting loop -------------------------------------------------

@pytest.fixture(scope="module")
def quick_fit():
    ds, _ = generate_dataset(ParameterState.single(), noise_sd=0.5, seed=41)
    return ds, fit(ds, FitConfig(max_iter=150))


def test_fit_improves_and_returns_best_seen(quick_fit):
    ds, res = quick_fit
    assert res.final_loss <= res.initial_loss
    assert res.initial_loss == res.loss_history[0]
    assert res.final_loss == res.loss_history.min()
    assert res.iterations_run == 150
    assert len(res.loss_history) == 151  # endpoint evaluated too


def test_fit_result_diagnostics(quick_fit):
    ds, res = quick_fit
    assert set(res.curve_metrics) == {0}
    assert res.curve_metrics[0].n_points == 150
    assert len(res.predictions) == 150
    p = res.predictions[0]
    assert p.curve_id == 0 and p.state in ("c", "j", "p")
    assert set(res.tpu_gap) == {0} and set(res.tpu_stage) == {0}
    assert res.breakdown.total == res.final_loss


def test_fit_is_deterministic():
    ds, _ = generate_dataset(ParameterState.single(), noise_sd=0.5, seed=42)
    r1 = fit(ds, FitConfig(max_iter=60))
    r2 = fit(ds, FitConfig(max_iter=60))
    np.testing.assert_array_equal(r1.params.vcmax25, r2.params.vcmax25)
    np.testing.assert_array_equal(r1.params.rd25, r2.params.rd25)
    np.testing.assert_array_equal(r1.loss_history, r2.loss_history)


def test_fit_invariant_to_input_ordering():
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2,
                             noise_sd=0.5, seed=43)
    rng = np.random.default_rng(1)
    scrambled = tuple(c.take(rng.permutation(c.n_points))
                      for c in ds.curves[::-1])
    ds2 = Dataset(curves=scrambled, groups=ds.groups)
    r1 = fit(ds, FitConfig(max_iter=60))
    r2 = fit(ds2, FitConfig(max_iter=60))
    assert r1.params.curve_ids == r2.params.curve_ids
    np.testing.assert_array_equal(r1.params.vcmax25, r2.params.vcmax25)
    np.testing.assert_array_equal(r1.params.jmax25, r2.params.jmax25)
    assert r1.final_loss == r2.final_loss


def test_onefit_shares_the_main_four():
    ds, _ = generate_dataset(ParameterState.single(), n_curves=3,
                             noise_sd=0.5, seed=44)
    res = fit(ds, FitConfig(onefit=True, max_iter=60))
    assert res.params.onefit
    assert res.params.vcmax25.shape == (1,)
    np.testing.assert_array_equal(res.params.entry_of, [0, 0, 0])
    assert set(res.curve_metrics) == {0, 1, 2}


def test_light_only_fit_leaves_tpu_untouched():
    cfg = FitConfig(light_type=2, max_iter=60)
    ds, _ = generate_dataset(ParameterState.single(), config=cfg,
                             q_grid=np.linspace(50.0, 2000.0, 12),
                             noise_sd=0.3, seed=45)
    res = fit(ds, cfg)
    assert res.params.tpu25[0] == 25.0
    assert res.params.alpha_g_raw[0] == -12.0
    assert res.params.alpha[0] != 0.5  # light parameters did move


def test_short_curve_rejected():
    ds, _ = generate_dataset(ParameterState.single(),
                             ci_grid=np.linspace(100.0, 900.0, 4))
    with pytest.raises(FvcbError, match="4 points"):
        fit(ds)


def test_positive_rd_projection():
    # measurements shifted up by 0.5 move the optimum to rd = -0.5
    truth = ParameterState.single(rd25=0.0)
    ds, _ = generate_dataset(truth, seed=46)
    shifted = tuple(replace(c, a=c.a + 0.5) for c in ds.curves)
    ds = Dataset(curves=shifted, groups=ds.groups)
    free = fit(ds, FitConfig(positive_rd=False, max_iter=2000))
    assert free.params.rd25[0] < -0.25
    kept = fit(ds, FitConfig(positive_rd=True, max_iter=2000))
    assert kept.params.rd25[0] == 0.0


def test_projection_clamps_within_one_step():
    ds, _ = generate_dataset(ParameterState.single(), seed=47)
    p0 = init_parameters(ds, rd25=-1.0)
    res = fit(ds, FitConfig(max_iter=1), params0=p0)
    # one Adam step moves rd to -0.92, the projection floor to 0, and
    # the projected endpoint beats the penalized start
    assert res.params.rd25[0] == 0.0


def clip_field_by_field(flat, packing, params, config):
    # the projection as a clip per field: the semantics the bound
    # vectors must keep
    def clip(name, lo=None, hi=None):
        if name in packing.slices:
            sl = packing.slices[name]
            np.clip(flat[sl], lo, hi, out=flat[sl])

    if config.positive_rd:
        clip("rd25", lo=0.0)
    if config.temp_type == 2:
        cn = params.constants
        clip("dha_vcmax", lo=1e-6, hi=cn.dhd_vcmax - 1.0)
        clip("dha_jmax", lo=1e-6, hi=cn.dhd_jmax - 1.0)
        clip("dha_tpu", lo=1e-6, hi=cn.dhd_tpu - 1.0)
        for name in ("topt_vcmax", "topt_jmax", "topt_tpu"):
            clip(name, lo=200.0, hi=400.0)
    clip("alpha", lo=1e-6)
    clip("theta", lo=1e-6, hi=1.0)
    clip("gm", lo=1e-3)
    for name in ("kc25", "ko25", "gamma25"):
        clip(name, lo=1e-6)


@pytest.mark.parametrize("temp_type,light_type", list(product((0, 1, 2),
                                                              repeat=2)))
def test_projection_bounds_clip_like_each_fields_clip(temp_type, light_type):
    ds = two_group_dataset(n0=3, n1=2)
    rng = np.random.default_rng(10 * temp_type + light_type)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-6, 1e-3,
                         1.0, 200.0, 400.0, -1.0])
    for fit_gm, fit_kinetics, positive_rd in product((False, True),
                                                     repeat=3):
        cfg = FitConfig(temp_type=temp_type, light_type=light_type,
                        fit_gm=fit_gm, fit_kinetics=fit_kinetics,
                        positive_rd=positive_rd)
        params = init_parameters(ds, cfg)
        packing = optimizer._Packing(params, fitted_fields(cfg, False),
                                     Workspace(ds, params).entry_group)
        lo, hi = optimizer._bounds(packing, params, cfg)
        for _ in range(30):
            x = rng.standard_normal(packing.size) * 10.0 ** rng.uniform(
                -7, 6, packing.size)
            pick = rng.random(packing.size) < 0.3
            x[pick] = rng.choice(specials, size=int(pick.sum()))
            want = x.copy()
            clip_field_by_field(want, packing, params, cfg)
            optimizer._project(x, lo, hi)
            assert x.tobytes() == want.tobytes()


def test_divergence_reported():
    cfg = FitConfig(temp_type=1)
    ds, _ = generate_dataset(ParameterState.single(), seed=48)
    p0 = init_parameters(ds, cfg, dha_vcmax=1e8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            fit(ds, cfg, params0=p0)


def test_early_stop_cuts_iterations():
    ds, _ = generate_dataset(ParameterState.single(), noise_sd=0.5, seed=49)
    cfg = FitConfig(max_iter=2000, early_stop=True, early_stop_rtol=1e-3,
                    early_stop_patience=10)
    res = fit(ds, cfg)
    assert res.iterations_run < 2000


def test_stall_restart_settles_on_tpu_kink():
    # On this noiseless curve the optimum puts A_p = A_j at the highest
    # Ci, on the kink of the TPU-transition penalty. A fixed step orbits
    # the kink with Rd biased 2.3% high; shrinking the step after a
    # stall settles into it.
    truth = ParameterState.single()
    ds, truths = generate_dataset(truth, n_curves=10, noise_sd=0.0,
                                  jitter=True, seed=1)
    curve = ds.curves[9]
    solo = Dataset(curves=(curve,),
                   groups={curve.fitting_group: [curve.curve_id]})
    res = fit(solo, FitConfig(max_iter=6000))
    assert res.iterations_run == 6000
    want = float(truths[9].rd25[0])
    assert float(res.params.rd25[0]) == pytest.approx(want, rel=0.01)


def test_theta_stays_at_most_one_on_joint_light_temperature_fit():
    # A/Ci curves at 20, 28 and 35 C plus one A-Q curve, one group. With
    # theta bounded only from below this fit ended at theta = 1.168, where
    # 13 of the 40 light points had a negative discriminant that
    # electron_transport silently clamped to zero.
    cfg = FitConfig(light_type=2, temp_type=2, max_iter=3000)
    truth = ParameterState.single()
    grids = [dict(tleaf_c=t) for t in (20.0, 28.0, 35.0)]
    grids.append(dict(q_grid=np.linspace(0.0, 2000.0, 40)))
    curves = []
    for seed, grid in enumerate(grids):
        ds, _ = generate_dataset(truth, config=cfg, noise_sd=0.5, seed=seed,
                                 jitter=True, **grid)
        curves.append(replace(ds.curves[0], curve_id=seed))
    res = fit(Dataset(curves=tuple(curves), groups={0: [0, 1, 2, 3]}), cfg)
    p, cn = res.params, res.params.constants
    theta = float(p.theta[0])
    assert 0.0 < theta <= 1.0
    light = curves[3]
    e = p.entry_of[p.curve_ids.index(3)]
    jmax = peaked_arrhenius(p.jmax25[e], p.dha_jmax[0], cn.dhd_jmax,
                            p.topt_jmax[0], light.tleaf_c + 273.15, cn.r_gas)
    aq = p.alpha[0] * light.qin
    disc = (aq + jmax) ** 2 - 4.0 * theta * aq * jmax
    assert np.all(disc > 0.0)


@pytest.mark.parametrize("lr,evaluations", [(0.08, 31), (5.0, 32)])
def test_best_point_is_evaluated_again_only_when_not_the_endpoint(
        monkeypatch, lr, evaluations):
    # lr 0.08: every group's best point is the endpoint, whose evaluation
    # is reused; lr 5.0 overshoots, and the best point is evaluated again
    real = optimizer._evaluate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_evaluate", counting)
    ds = two_group_dataset()
    cfg = FitConfig(max_iter=30, lr=lr)
    res = fit(ds, cfg)
    assert len(calls) == evaluations
    assert (res.final_loss == res.loss_history[-1]) == (evaluations == 31)
    # the result reports exactly what an evaluation of its best point gives
    ws = Workspace(ds, res.params)
    _, breakdown, _, aux = real(ws, res.params, cfg)
    assert res.breakdown == breakdown
    for gi, part in enumerate(res.groups):
        assert part.breakdown == LossBreakdown(*(float(t[gi])
                                                 for t in aux["terms"]))
    for i, cid in enumerate(res.params.curve_ids):
        ok = bool(aux["tpu_valid"][i])
        gap = float(aux["tpu_gap"][i]) if ok else float("nan")
        np.testing.assert_array_equal(res.tpu_gap[cid], gap)
        assert res.tpu_stage[cid] == (ok and gap < -optimizer.TPU_STAGE_MARGIN)


def test_fit_calls_its_layers_under_their_module_names(monkeypatch):
    # fit() looks each layer up on its module at call time, so a stand-in
    # set there (as a tracer sets one) sees every call: one taped
    # evaluation per iteration, whose first return value is the root
    # engine.grad differentiates, then the endpoint's plain evaluation,
    # which the report is built from without calling predict_curve
    real_eval, real_grad = optimizer._evaluate, optimizer.engine.grad
    evals, roots = [], []
    counts = dict.fromkeys(("adam_step", "_project", "Workspace",
                            "predict_curve"), 0)

    def stand_in(*args, **kwargs):
        out = real_eval(*args, **kwargs)
        evals.append((args, out[0]))
        return out

    def counting_grad(root, leaves):
        roots.append(root)
        return real_grad(root, leaves)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimizer, "_evaluate", stand_in)
    monkeypatch.setattr(optimizer.engine, "grad", counting_grad)
    for name in counts:
        monkeypatch.setattr(optimizer, name,
                            counting(name, getattr(optimizer, name)))
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2,
                             noise_sd=0.5, seed=50)
    res = fit(ds, FitConfig(max_iter=25))
    taped = [root for args, root in evals if len(args) > 3 and args[3]]
    assert len(evals) == 26 and len(taped) == 25
    assert all(isinstance(root, Var) for root in taped)
    assert len(roots) == 25
    assert all(r is t for r, t in zip(roots, taped))
    assert counts == {"adam_step": 25, "_project": 25, "Workspace": 1,
                      "predict_curve": 0}
    assert res.final_loss == res.loss_history[-1]


def test_callback_sees_every_iteration():
    ds, _ = generate_dataset(ParameterState.single(), noise_sd=0.5, seed=50)
    seen = []
    res = fit(ds, FitConfig(max_iter=25),
              callback=lambda it, loss: seen.append((it, loss)))
    assert [it for it, _ in seen] == list(range(1, 26))
    np.testing.assert_array_equal([l for _, l in seen], res.loss_history[:25])


def test_fit_groups_matches_independent_fits():
    ds = two_group_dataset()
    results = fit_groups(ds, FitConfig(max_iter=40))
    assert [r.params.curve_ids for r in results] == [(0, 1), (2,)]
    parts = dict(split_by_group(ds))
    solo = fit(parts[1], FitConfig(max_iter=40))
    np.testing.assert_array_equal(results[1].params.vcmax25,
                                  solo.params.vcmax25)
    assert results[1].final_loss == solo.final_loss


# --- fitting groups as one stacked problem ------------------------------

def merge_groups(*parts):
    """One dataset from (dataset, group id) parts; curve ids renumbered
    in order of appearance."""
    curves, groups = [], {}
    for ds, gid in parts:
        for c in ds.curves:
            cid = len(curves)
            curves.append(replace(c, curve_id=cid, fitting_group=gid))
            groups.setdefault(gid, []).append(cid)
    return Dataset(curves=tuple(curves), groups=dict(sorted(groups.items())))


def assert_same_fit(a, b):
    pa, pb = a.params, b.params
    assert (pa.curve_ids, pa.group_ids, pa.onefit) == \
        (pb.curve_ids, pb.group_ids, pb.onefit)
    for name in ("entry_of", "group_of") + MAIN_FOUR + SHARED_FIELDS:
        np.testing.assert_array_equal(getattr(pa, name), getattr(pb, name),
                                      err_msg=name)
    np.testing.assert_array_equal(a.loss_history, b.loss_history)
    assert a.initial_loss == b.initial_loss
    assert a.final_loss == b.final_loss
    assert a.iterations_run == b.iterations_run
    assert a.breakdown == b.breakdown
    assert a.points.keys() == b.points.keys()
    for name in a.points:
        np.testing.assert_array_equal(a.points[name], b.points[name],
                                      err_msg=name)
    assert a.curve_metrics == b.curve_metrics
    assert a.tpu_stage == b.tpu_stage


def stacked_and_alone(ds, cfg):
    """fit() of the whole dataset, and of each of its groups alone."""
    res = fit(ds, cfg)
    assert len(res.groups) == len(ds.groups)
    alone = [fit(sub, cfg) for _, sub in split_by_group(ds)]
    for part, solo in zip(res.groups, alone):
        assert_same_fit(part, solo)
    return res, alone


def first_stall(history):
    """The first iteration that ends a run of STALL_PATIENCE iterations
    without a new best, which restarts Adam; None if there is none."""
    best, since = np.inf, 0
    for it, loss in enumerate(history[:-1]):
        since = 0 if loss < best else since + 1
        best = min(best, loss)
        if since >= STALL_PATIENCE:
            return it
    return None


TRUTH = ParameterState.single()


def aci(n=1, seed=0, **kw):
    return generate_dataset(TRUTH, n_curves=n, noise_sd=0.5, seed=seed,
                            jitter=True, **kw)[0]


def light_temp_group(cfg, temps, seed):
    """A/Ci curves at the given temperatures plus one A-Q curve."""
    grids = [dict(tleaf_c=t) for t in temps]
    grids.append(dict(q_grid=np.linspace(20.0, 2000.0, 30)))
    curves = [replace(generate_dataset(TRUTH, config=cfg, noise_sd=0.5,
                                       seed=seed + i, jitter=True,
                                       **g)[0].curves[0], curve_id=i)
              for i, g in enumerate(grids)]
    return Dataset(curves=tuple(curves), groups={0: list(range(len(grids)))})


def test_fit_groups_makes_one_traceable_fit_call(monkeypatch):
    # fit_groups looks fit up on its module at call time, once, with the
    # whole dataset; the result carries a float history and final loss,
    # and each iteration builds one graph with `fitted` passed as the
    # fourth positional argument of _evaluate
    calls, evals, grads = [], [], []
    real_fit, real_eval = optimizer.fit, optimizer._evaluate
    real_grad = optimizer.engine.grad

    def counting_fit(*args, **kwargs):
        out = real_fit(*args, **kwargs)
        calls.append((args, out))
        return out

    def recording_eval(*args, **kwargs):
        out = real_eval(*args, **kwargs)
        evals.append((args, kwargs, out))
        return out

    def counting_grad(*args, **kwargs):
        grads.append(args)
        return real_grad(*args, **kwargs)

    monkeypatch.setattr(optimizer, "fit", counting_fit)
    monkeypatch.setattr(optimizer, "_evaluate", recording_eval)
    monkeypatch.setattr(optimizer.engine, "grad", counting_grad)
    ds = two_group_dataset()
    results = fit_groups(ds, FitConfig(max_iter=20))
    assert len(results) == 2
    assert len(calls) == 1
    (args, out), = calls
    assert args[0] is ds
    assert isinstance(out.loss_history, np.ndarray)
    assert out.loss_history.ndim == 1 and out.loss_history.dtype.kind == "f"
    assert type(out.final_loss) is float
    graphs = [out for args, kwargs, out in evals
              if len(args) > 3 and args[3]]
    assert not any("fitted" in kwargs for _, kwargs, _ in evals)
    assert len(graphs) == 20 and len(grads) == 20
    assert all(isinstance(g[0], Var) for g in graphs)


def test_stacked_groups_of_one_and_four_curves():
    ds = merge_groups((aci(4, seed=200), 3), (aci(1, seed=210), 7))
    stacked_and_alone(ds, FitConfig(max_iter=200))


def test_stacked_light_temperature_groups():
    cfg = FitConfig(light_type=2, temp_type=2, max_iter=150)
    ds = merge_groups((light_temp_group(cfg, (20.0, 30.0), 300), 0),
                      (light_temp_group(cfg, (25.0,), 310), 1))
    stacked_and_alone(ds, cfg)


def test_stacked_nine_curve_group_beside_one_curve_group():
    # light and temperature type 2: Rd25, the three dHa, alpha and theta
    # are all penalized, Rd25 with nine entries in the large group, so
    # the sums run numpy's pairwise branch; Rd25 and theta start
    # negative, where the penalty is active
    cfg = FitConfig(light_type=2, temp_type=2, max_iter=120)
    big = light_temp_group(cfg, (18.0, 21.0, 24.0, 27.0, 30.0, 33.0, 36.0,
                                 25.0), 900)
    ds = merge_groups((big, 0), (aci(1, seed=950, config=cfg), 1))
    assert [len(ids) for ids in ds.groups.values()] == [9, 1]
    p0 = init_parameters(ds, cfg, rd25=-0.4, theta=-0.2)
    res = fit(ds, cfg, params0=p0)
    for gi, (_, sub) in enumerate(split_by_group(ds)):
        assert_same_fit(res.groups[gi],
                        fit(sub, cfg, params0=p0.select_group(gi)))
    start = _evaluate(Workspace(ds, p0), p0, cfg)[3]["terms"][6]
    assert np.all(start > 0.0)  # the non-negativity term of each group


def test_stacked_light_only_group_beside_co2_group():
    # alone, the light-only group fits neither TPU25, alpha_g nor the TPU
    # temperature response; beside a CO2 group they get no gradient
    cfg = FitConfig(light_type=2, temp_type=1, max_iter=150)
    light = generate_dataset(TRUTH, n_curves=2, config=cfg, noise_sd=0.3,
                             q_grid=np.linspace(20.0, 2000.0, 25),
                             seed=320)[0]
    ds = merge_groups((aci(2, seed=330, config=cfg), 0), (light, 1))
    res, (co2, solo) = stacked_and_alone(ds, cfg)
    assert solo.params.tpu25[0] == res.groups[1].params.tpu25[0] == 25.0
    assert solo.params.alpha[0] != 0.5


def test_stacked_onefit_groups():
    ds = merge_groups((aci(3, seed=400), 0), (aci(2, seed=410), 1))
    stacked_and_alone(ds, FitConfig(onefit=True, max_iter=200))


def test_stacked_correlation_penalty_group_beside_small_group():
    ds = merge_groups((aci(7, seed=500), 0), (aci(2, seed=510), 1))
    cfg = FitConfig(r_penalty=True, max_iter=150)
    res, _ = stacked_and_alone(ds, cfg)
    assert res.groups[1].breakdown.p_corr == 0.0


def test_stacked_early_stop_freezes_each_group_on_its_own():
    ds = merge_groups((aci(1, seed=49), 0), (aci(2, seed=60), 1))
    cfg = FitConfig(max_iter=2000, early_stop=True, early_stop_rtol=1e-3,
                    early_stop_patience=10)
    res, alone = stacked_and_alone(ds, cfg)
    stops = [r.iterations_run for r in alone]
    assert stops[0] != stops[1] and max(stops) < 2000
    assert res.iterations_run == max(stops)
    assert len(res.loss_history) == max(stops) + 2


def test_stacked_stall_restarts_each_group_on_its_own():
    # a noiseless jittered curve beside a noisy one: both stall, at
    # different iterations, and restart on their own
    hard = generate_dataset(TRUTH, n_curves=10, noise_sd=0.0, jitter=True,
                            seed=1)[0].curves[3]
    ds = merge_groups((aci(1, seed=41), 0),
                      (Dataset(curves=(hard,), groups={0: [3]}), 1))
    res, alone = stacked_and_alone(ds, FitConfig(max_iter=3000))
    stalls = [first_stall(r.loss_history) for r in alone]
    assert None not in stalls and stalls[0] != stalls[1]


def test_stacked_endpoint_failure_drops_only_that_groups_endpoint():
    # one Adam step of 3 takes group 0's g_m from 3 to its floor, where
    # C = Ci - A/g_m goes negative at the endpoint; group 1 still weighs
    # its endpoint, as it does alone
    ds = merge_groups((aci(1, seed=800), 0), (aci(1, seed=810), 1))
    cfg = FitConfig(fit_gm=True, max_iter=1, lr=3.0)
    p0 = init_parameters(ds, cfg)
    p0.gm[:] = [3.0, 2.0]
    res = fit(ds, cfg, params0=p0)
    for gi, part in enumerate(res.groups):
        assert_same_fit(part, fit(split_by_group(ds)[gi][1], cfg,
                                  params0=p0.select_group(gi)))
    assert [len(r.loss_history) for r in res.groups] == [1, 2]
    assert res.groups[1].params.gm[0] != 2.0


def test_multi_group_loss_is_the_sum_of_each_groups_loss():
    ds = merge_groups((aci(2, seed=600), 0), (aci(1, seed=610), 1),
                      (aci(3, seed=620), 2))
    over = dict(vcmax25=70.0, jmax25=110.0, tpu25=9.0, rd25=-0.4)
    whole = total_loss(ds, init_parameters(ds, **over))
    parts = [total_loss(sub, init_parameters(sub, **over))
             for _, sub in split_by_group(ds)]
    for name in whole.__dataclass_fields__:
        assert getattr(whole, name) == sum(getattr(b, name) for b in parts)
    assert whole.p_nonneg > 0.0


def test_adding_a_group_leaves_the_others_unchanged():
    # each group's MSE is divided by its own point count, so a group's
    # fit does not depend on the groups beside it
    g0, g1 = (aci(2, seed=700), 0), (aci(1, seed=710), 1)
    cfg = FitConfig(max_iter=120)
    two = fit(merge_groups(g0, g1), cfg)
    three = fit(merge_groups(g0, g1, (aci(3, seed=720), 2)), cfg)
    assert_same_fit(two.groups[0], three.groups[0])
    assert_same_fit(two.groups[1], three.groups[1])
    assert three.final_loss == sum(r.final_loss for r in three.groups)
    assert three.breakdown.total == three.final_loss


def test_iteration_makes_the_same_calls_for_any_group_count():
    # the same twelve curves in 2 and in 12 groups, at the same
    # parameters: one taped evaluation, its gradient, the Adam step and
    # the projection make the same number of Python and C calls
    cfg = FitConfig(light_type=2, temp_type=2)
    curves = aci(12, seed=1000, config=cfg).curves
    temps = np.linspace(18.0, 36.0, 12)
    curves = [replace(c, tleaf_c=np.full(c.n_points, t))
              for c, t in zip(curves, temps)]

    def calls(n_groups):
        ds = merge_groups(*((Dataset(curves=(c,), groups={0: [c.curve_id]}),
                             i * n_groups // 12) for i, c in enumerate(curves)))
        params = init_parameters(ds, cfg)
        ws = Workspace(ds, params)
        fields = fitted_fields(cfg, ws.light_only)
        packing = optimizer._Packing(params, fields, ws.entry_group)
        lo, hi = optimizer._bounds(packing, params, cfg)
        state = AdamState.zeros(packing.size, group=packing.group)
        flat = packing.pack(params)
        events = []

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                events.append(event)

        _evaluate(ws, params, cfg, fields, report=False)  # build operands
        sys.setprofile(profile)
        try:
            total, _, leaves, _ = _evaluate(ws, params, cfg, fields,
                                            report=False)
            g = _gradient(ws, total, leaves)
            flat = adam_step(state, flat, g)
            optimizer._project(flat, lo, hi)
        finally:
            sys.setprofile(None)
        assert ws.n_groups == n_groups
        return len(events)

    assert calls(2) == calls(12)


# --- the report -----------------------------------------------------------

def report_case(name):
    """(dataset, config, params0) of a report check: each HOISTED_CONFIGS
    config on the two-group temperature data, a light-only group beside
    a CO2 group, a fit_gm fit whose endpoint goes non-positive, and a
    curve of constant A, whose R^2 is nan."""
    from test_loss import HOISTED_CONFIGS, two_group_temperature_dataset
    if name in HOISTED_CONFIGS:
        cfg = replace(HOISTED_CONFIGS[name], max_iter=40)
        ds = two_group_temperature_dataset(light=cfg.light_type >= 1)
        return ds, cfg, init_parameters(ds, cfg, gm=30.0)
    if name == "light_beside_co2":
        cfg = FitConfig(light_type=2, temp_type=1, max_iter=40)
        light = generate_dataset(TRUTH, n_curves=2, config=cfg, noise_sd=0.3,
                                 q_grid=np.linspace(20.0, 2000.0, 25),
                                 seed=320)[0]
        ds = merge_groups((aci(2, seed=330, config=cfg), 0), (light, 1))
        return ds, cfg, None
    if name == "gm_endpoint":
        ds = merge_groups((aci(1, seed=800), 0), (aci(1, seed=810), 1))
        cfg = FitConfig(fit_gm=True, max_iter=1, lr=3.0)
        p0 = init_parameters(ds, cfg)
        p0.gm[:] = [3.0, 2.0]
        return ds, cfg, p0
    curve = aci(1, seed=3).curves[0]
    flat = replace(curve, a=np.full(curve.n_points, 5.0))
    ds = merge_groups((aci(1, seed=4), 0), (Dataset((flat,), {0: [0]}), 1))
    return ds, FitConfig(max_iter=40), None


REPORT_CASES = ["default", "fit_gm", "fit_kinetics", "temp_type_1",
                "temp_type_2", "light_type_1", "light_type_2", "onefit",
                "light_beside_co2", "gm_endpoint", "constant_a"]


@pytest.mark.parametrize("name", REPORT_CASES)
def test_report_has_the_bits_of_per_curve_predictions(name):
    # fit() builds its points, states, curve metrics and TPU flags from
    # its final evaluation; each curve's predict_curve, rmse and
    # r_squared, and the per-curve reading of that evaluation's aux, give
    # the same bits
    ds, cfg, p0 = report_case(name)
    # points out of Ci order, which the fit sorts and the report restores
    rng = np.random.default_rng(7)
    ds = replace(ds, curves=tuple(c.take(rng.permutation(c.n_points))
                                  for c in ds.curves))
    res = fit(ds, cfg, params0=p0)
    p = res.params
    aux = _evaluate(Workspace(ds, p), p, cfg)[3]
    pred, state, metrics, gaps, stages = [], [], {}, {}, {}
    for i, cid in enumerate(p.curve_ids):
        curve = ds.curve(cid)
        a_hat, states = predict_curve(curve, p, cfg, entry=int(p.entry_of[i]),
                                      group=int(p.group_of[i]))
        try:
            r2 = r_squared(curve.a, a_hat)
        except ZeroVariance:
            r2 = float("nan")
        metrics[cid] = CurveMetrics(rmse(curve.a, a_hat), r2, curve.n_points)
        pred.append(a_hat)
        state.append(states)
        ok = bool(aux["tpu_valid"][i])
        gaps[cid] = float(aux["tpu_gap"][i]) if ok else float("nan")
        stages[cid] = ok and gaps[cid] < -optimizer.TPU_STAGE_MARGIN
    curves = [ds.curve(cid) for cid in p.curve_ids]
    want = {"curve_id": np.repeat(np.array(p.curve_ids, dtype=np.int64),
                                  [c.n_points for c in curves]),
            "ci": np.concatenate([c.ci for c in curves]),
            "a_measured": np.concatenate([c.a for c in curves]),
            "a_predicted": np.concatenate(pred),
            "state": np.concatenate(state)}
    assert res.points.keys() == want.keys()
    for key, col in want.items():
        assert res.points[key].dtype == col.dtype, key
        assert res.points[key].tobytes() == col.tobytes(), key

    def bits(table):
        return {cid: np.array([getattr(m, f) for f in ("rmse", "r2")]
                              if isinstance(m, CurveMetrics) else m).tobytes()
                for cid, m in table.items()}

    assert bits(res.curve_metrics) == bits(metrics)
    assert [m.n_points for m in res.curve_metrics.values()] == \
        [c.n_points for c in curves]
    assert bits(res.tpu_gap) == bits(gaps)
    assert res.tpu_stage == stages
    if name == "gm_endpoint":
        assert [len(r.loss_history) for r in res.groups] == [1, 2]
    if name == "constant_a":
        assert np.isnan(res.curve_metrics[1].r2)

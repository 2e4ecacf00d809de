"""Adam loop, initialization shaping, projections, and fit invariants."""

from dataclasses import replace

import numpy as np
import pytest

from fvcbfit.data_io import Dataset
from fvcbfit.errors import DivergenceError, FvcbError
from fvcbfit.model import peaked_arrhenius
from fvcbfit.optimizer import (
    AdamState, adam_step, fit, fit_groups, init_parameters, split_by_group,
)
from fvcbfit.params import FitConfig, ParameterState
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

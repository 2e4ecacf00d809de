"""Synthetic curve generator: exactness, reproducibility, noise
calibration, and jitter draws."""

import numpy as np
import pytest

from fvcbfit.data_io import CurveKind
from fvcbfit.loss import predict_curve
from fvcbfit.params import FitConfig, ParameterState
from fvcbfit.synth import (
    SynthSpec, default_ci_grid, draw_jittered_params, generate_curve,
    generate_dataset,
)


def test_default_grid():
    g = default_ci_grid()
    assert g.shape == (150,)
    assert g[0] == 50.0 and g[-1] == 1800.0
    assert np.all(np.diff(g) > 0)


def test_noiseless_curve_equals_forward_model():
    truth = ParameterState.single()
    ds, truths = generate_dataset(truth)
    curve = ds.curves[0]
    assert curve.kind is CurveKind.CO2Response
    a_hat, _ = predict_curve(curve, truth, FitConfig())
    np.testing.assert_array_equal([r.a for r in curve.records], a_hat)
    np.testing.assert_array_equal(truths[0].vcmax25, truth.vcmax25)
    assert all(r.qin == 2000.0 and r.tleaf_c == 25.0 for r in curve.records)


def test_noiseless_light_curve_equals_forward_model():
    cfg = FitConfig(light_type=2)
    truth = ParameterState.single()
    q = np.linspace(100.0, 2000.0, 9)
    ds, _ = generate_dataset(truth, config=cfg, q_grid=q, ci_level=350.0)
    curve = ds.curves[0]
    assert curve.kind is CurveKind.LightResponse
    assert all(r.ci == 350.0 for r in curve.records)
    np.testing.assert_array_equal([r.qin for r in curve.records], q)
    a_hat, _ = predict_curve(curve, truth, cfg)
    np.testing.assert_array_equal([r.a for r in curve.records], a_hat)


def test_same_seed_reproduces_exactly():
    truth = ParameterState.single()
    d1, _ = generate_dataset(truth, n_curves=3, noise_sd=1.0, seed=17,
                             jitter=True)
    d2, _ = generate_dataset(truth, n_curves=3, noise_sd=1.0, seed=17,
                             jitter=True)
    for c1, c2 in zip(d1.curves, d2.curves):
        assert c1.records == c2.records
    d3, _ = generate_dataset(truth, n_curves=3, noise_sd=1.0, seed=18,
                             jitter=True)
    assert d3.curves[0].records != d1.curves[0].records


def test_dataset_curves_match_single_curve_generator():
    truth = ParameterState.single()
    ds, _ = generate_dataset(truth, n_curves=3, noise_sd=0.7, seed=5)
    spec = SynthSpec(true_params=truth, noise_sd=0.7, seed=7, curve_id=2)
    alone = generate_curve(spec)
    assert ds.curves[2].records == alone.records


def test_noise_calibration():
    truth = ParameterState.single()
    grid = np.linspace(50.0, 1800.0, 10000)
    clean, _ = generate_dataset(truth, ci_grid=grid)
    noisy, _ = generate_dataset(truth, ci_grid=grid, noise_sd=1.5, seed=23)
    resid = np.array([r.a for r in noisy.curves[0].records]) \
        - np.array([r.a for r in clean.curves[0].records])
    assert abs(resid.mean()) < 0.075
    assert resid.std() == pytest.approx(1.5, rel=0.05)
    assert np.mean(np.abs(resid) < 3.0) == pytest.approx(0.954, abs=0.02)


def test_jitter_draws():
    truth = ParameterState.single()
    spec = SynthSpec(true_params=truth, jitter=True, seed=3)
    drawn = draw_jittered_params(spec)
    again = draw_jittered_params(spec)
    for name in ("vcmax25", "jmax25", "tpu25", "rd25"):
        base = getattr(truth, name)[0]
        val = getattr(drawn, name)[0]
        assert 0.9 * base <= val <= 1.1 * base
        assert val != base
        assert getattr(again, name)[0] == val
        # shared parameters are not jittered
    assert drawn.alpha[0] == truth.alpha[0]
    assert drawn.gamma25[0] == truth.gamma25[0]


def test_jitter_off_returns_exact_truth():
    truth = ParameterState.single()
    _, truths = generate_dataset(truth, n_curves=2, seed=9)
    for t in truths:
        np.testing.assert_array_equal(t.vcmax25, truth.vcmax25)
        np.testing.assert_array_equal(t.rd25, truth.rd25)


def test_jittered_curve_is_exact_at_its_own_truth():
    truth = ParameterState.single()
    ds, truths = generate_dataset(truth, n_curves=2, jitter=True, seed=31)
    assert truths[0].vcmax25[0] != truths[1].vcmax25[0]
    for curve, t in zip(ds.curves, truths):
        a_hat, _ = predict_curve(curve, t, FitConfig())
        np.testing.assert_array_equal([r.a for r in curve.records], a_hat)


def test_fitting_group_propagates():
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2,
                             fitting_group=4)
    assert ds.groups == {4: [0, 1]}
    assert all(c.fitting_group == 4 for c in ds.curves)


def test_spec_validation():
    truth = ParameterState.single()
    with pytest.raises(ValueError):
        SynthSpec(true_params=truth, noise_sd=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(true_params=truth, scale_jitter=1.0)
    with pytest.raises(ValueError):
        SynthSpec(true_params=truth, ci_grid=np.array([1.0, 2.0]),
                  q_grid=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SynthSpec(true_params=truth, ci_grid=np.array([100.0, 100.0]))

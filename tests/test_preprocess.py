"""Cleanup pipeline: smoothing, end trimming, low-anomaly removal."""

import numpy as np
import pytest

from fvcbfit.data_io import CurveKind, Dataset, GasExchangeRecord, ResponseCurve
from fvcbfit.errors import SeriesTooShort, TooFewPointsAfterCleanup
from fvcbfit.preprocess import (
    PreprocessConfig, preprocess_curve, preprocess_dataset, sg_smooth_linear,
)


def build(ci, a, kind=CurveKind.CO2Response, cid=0):
    recs = tuple(GasExchangeRecord(curve_id=cid, fitting_group=0,
                                   ci=float(c), a=float(v),
                                   qin=2000.0, tleaf_c=25.0)
                 for c, v in zip(ci, a))
    return ResponseCurve.from_records(curve_id=cid, fitting_group=0,
                                      records=recs, kind=kind)


def saturating(ci, amax=20.0, k=50.0):
    ci = np.asarray(ci, dtype=np.float64)
    return amax * ci / (ci + k)


# degree-1 least squares over a symmetric window evaluates to the mean,
# so y = x*x gives window sums that are easy to check by hand
def test_smoothing_parabola_oracle():
    y = np.arange(8.0) ** 2
    out = sg_smooth_linear(y, 7)
    expected = [0.0, 5.0 / 3.0, 6.0, 13.0, 20.0, 27.0, 110.0 / 3.0, 49.0]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_smoothing_even_window_promoted():
    y = np.arange(8.0) ** 2
    np.testing.assert_array_equal(sg_smooth_linear(y, 6), sg_smooth_linear(y, 7))


def test_smoothing_constant_is_fixed_point():
    y = np.full(20, 7.25)
    np.testing.assert_array_equal(sg_smooth_linear(y, 9), y)


def test_smoothing_short_series_raises():
    with pytest.raises(SeriesTooShort):
        sg_smooth_linear(np.zeros(5), 7)


def test_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(window_len=2)
    with pytest.raises(ValueError):
        PreprocessConfig(jump_down=0.06)
    with pytest.raises(ValueError):
        PreprocessConfig(min_points_factor=0)


def test_light_curves_pass_through():
    q = np.linspace(0.0, 2000.0, 40)
    a = np.where(np.arange(40) % 2 == 0, 5.0, 25.0)  # wild, would never survive
    curve = build(np.full(40, 300.0), a, kind=CurveKind.LightResponse)
    assert preprocess_curve(curve) is curve


def test_short_curves_pass_through():
    # default threshold is 3 * 10 points
    ci = np.linspace(50.0, 550.0, 29)
    a = np.where(np.arange(29) % 2 == 0, 5.0, 25.0)
    curve = build(ci, a)
    assert preprocess_curve(curve) is curve
    assert preprocess_curve(build(ci[:10], a[:10])).n_points == 10


def test_clean_monotone_curve_untouched():
    # all Ci at or below the smoothing threshold, gentle steps: nothing
    # to smooth, trim, or drop, and record order must be preserved
    ci = np.linspace(50.0, 550.0, 40)
    a = saturating(ci)
    rng = np.random.default_rng(11)
    perm = rng.permutation(40)
    curve = build(ci[perm], a[perm])
    out = preprocess_curve(curve)
    assert out.records == curve.records


def test_end_spikes_trimmed():
    ci = np.linspace(50.0, 550.0, 40)
    a = saturating(ci)
    a[-1] += 2.0   # jump on the final step
    a[0] = a[1] + 2.0  # falling start
    out = preprocess_curve(build(ci, a))
    kept_ci = [r.ci for r in out.records]
    assert kept_ci == list(ci[1:-1])
    np.testing.assert_allclose([r.a for r in out.records], a[1:-1])


def test_low_ci_dip_removes_points_below_it():
    ci = np.linspace(50.0, 550.0, 40)
    a = saturating(ci)
    a[2] = 5.0  # chamber not yet equilibrated; global minimum of A
    out = preprocess_curve(build(ci, a))
    kept_ci = [r.ci for r in out.records]
    assert kept_ci == list(ci[2:])
    assert out.records[0].a == 5.0


def test_high_ci_noise_smoothed_in_place():
    ci_low = np.linspace(50.0, 560.0, 18)
    ci_high = np.linspace(650.0, 1750.0, 12)
    ci = np.concatenate([ci_low, ci_high])
    a = saturating(ci, amax=25.0)
    noise = np.where(np.arange(12) % 2 == 0, 0.005, -0.005)
    a[18:] += noise
    out = preprocess_curve(build(ci, a))
    assert out.n_points == 30
    got = np.array([r.a for r in out.records])
    np.testing.assert_array_equal(got[:18], a[:18])
    np.testing.assert_allclose(got[18:], sg_smooth_linear(a[18:], 10),
                               rtol=0, atol=1e-12)


def test_descending_series_collapses_and_raises():
    ci = np.linspace(50.0, 1500.0, 30)
    a = 100.0 - 5.0 * np.arange(30)
    with pytest.raises(TooFewPointsAfterCleanup, match="curve 0"):
        preprocess_curve(build(ci, a))


def test_dataset_mapping_keeps_groups():
    ci = np.linspace(50.0, 550.0, 40)
    a = saturating(ci)
    a2 = a.copy()
    a2[-1] += 2.0
    co2 = build(ci, a2, cid=1)
    light = build(np.full(40, 300.0), a, kind=CurveKind.LightResponse, cid=2)
    ds = Dataset(curves=(co2, light), groups={0: [1, 2]})
    out = preprocess_dataset(ds)
    assert out.groups == {0: [1, 2]}
    assert out.curves[0].n_points == 39
    assert out.curves[1] is light

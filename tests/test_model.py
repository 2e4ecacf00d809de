"""Forward-model checks: frozen high-precision oracles for each
sub-model, the limiting-state labels, and the temperature/light
response limits."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fvcbfit import FitConfig, ParameterState
from fvcbfit.constants import FvCBConstants
from fvcbfit.data_io import CurveKind, ResponseCurve
from fvcbfit.engine import Var, fuse, grad, value
from fvcbfit.errors import DomainError, NonPositiveC
from fvcbfit.loss import net_assimilation, predict_curve
from fvcbfit.model import (
    arrhenius, peaked_arrhenius, electron_transport, limitation_rates,
)


RNG = np.random.default_rng(11)


def check_adjoints(fn, args, live, rtol=1e-6, atol=1e-9):
    """VJP of sum(w * fn(*args)) against central differences, for each
    argument index in `live` (one leaf each, the rest held constant)."""
    w = RNG.uniform(0.5, 1.5, size=np.shape(value(fn(*args))))

    def objective(*a):
        out = fn(*a)
        return fuse((value(out) * w).sum(), (out,), lambda g: (g * w,))

    leaves = [Var(args[k]) for k in live]
    call = list(args)
    for k, leaf in zip(live, leaves):
        call[k] = leaf
    for k, ga in zip(live, grad(objective(*call), leaves)):
        x0 = np.asarray(args[k], dtype=np.float64)
        gn = np.zeros_like(x0)
        for i in np.ndindex(x0.shape):
            h = 1e-6 * max(1.0, abs(x0[i]))
            hi, lo = x0.copy(), x0.copy()
            hi[i] += h
            lo[i] -= h
            gn[i] = (float(value(objective(*args[:k], hi, *args[k + 1:])))
                     - float(value(objective(*args[:k], lo, *args[k + 1:])))
                     ) / (2.0 * h)
        np.testing.assert_allclose(ga, gn, rtol=rtol, atol=atol,
                                   err_msg=f"argument {k}")


# ---------------------------------------------------------------- arrhenius

def test_arrhenius_oracle_at_308k():
    # independently computed with 30-digit arithmetic
    got = arrhenius(100.0, 65.33, 308.0)
    np.testing.assert_allclose(got, 235.4014103541338, rtol=1e-13)


def test_arrhenius_reference_temperature_is_identity():
    for k25 in (1.5, 100.0, 404.9):
        np.testing.assert_allclose(arrhenius(k25, 65.33, 298.0), k25, rtol=1e-12)


def test_arrhenius_monotone_increasing_for_positive_dha():
    t = np.linspace(278.0, 320.0, 50)
    k = arrhenius(100.0, 65.33, t)
    assert np.all(np.diff(k) > 0.0)


def test_arrhenius_adjoint_matches_finite_differences():
    # below and above the 298 K reference, where the scale crosses 1
    tl = np.array([280.0, 290.0, 298.0, 305.0, 315.0])
    check_adjoints(arrhenius, (RNG.uniform(50.0, 150.0, size=5),
                               RNG.uniform(30.0, 80.0, size=5), tl), (0, 1))


# --------------------------------------------------------- peaked arrhenius

def test_peaked_arrhenius_adjoint_matches_finite_differences():
    # below and above the optimum, on both sides of the reference
    tl = np.array([285.0, 298.0, 305.0, 311.0, 318.0, 325.0])
    args = (RNG.uniform(50.0, 150.0, size=6), RNG.uniform(30.0, 80.0, size=6),
            200.0, np.full(6, 311.0), tl)
    check_adjoints(peaked_arrhenius, args, (0, 1, 3))

def test_peaked_arrhenius_oracle_values():
    np.testing.assert_allclose(
        peaked_arrhenius(100.0, 65.33, 200.0, 311.0, 298.0), 100.0, rtol=1e-12)
    np.testing.assert_allclose(
        peaked_arrhenius(100.0, 65.33, 200.0, 311.0, 308.0),
        194.82031852227267, rtol=1e-12)


def test_peaked_arrhenius_attains_maximum_at_topt():
    topt = 311.0
    grid = np.arange(290.0, 330.0, 0.01)
    vals = peaked_arrhenius(100.0, 65.33, 200.0, topt, grid)
    t_star = grid[np.argmax(vals)]
    assert abs(t_star - topt) <= 0.01
    peak = peaked_arrhenius(100.0, 65.33, 200.0, topt, topt)
    assert peaked_arrhenius(100.0, 65.33, 200.0, topt, topt - 5.0) < peak
    assert peaked_arrhenius(100.0, 65.33, 200.0, topt, topt + 5.0) < peak


def test_peaked_arrhenius_rejects_bad_energies():
    with pytest.raises(DomainError):
        peaked_arrhenius(100.0, 200.0, 200.0, 311.0, 298.0)  # dha == dhd
    with pytest.raises(DomainError):
        peaked_arrhenius(100.0, -1.0, 200.0, 311.0, 298.0)


# --------------------------------------------------------- electron transport

def test_electron_transport_type0_ignores_light():
    for q in (10.0, 2000.0):
        assert electron_transport(q, 200.0, light_type=0) == 200.0


def test_electron_transport_type1_oracle():
    got = electron_transport(2000.0, 200.0, alpha=0.5, light_type=1)
    np.testing.assert_allclose(got, 166.66666666666666, rtol=1e-13)


def test_electron_transport_type2_oracle():
    got = electron_transport(2000.0, 200.0, alpha=0.5, theta=0.7, light_type=2)
    np.testing.assert_allclose(got, 187.08346288236720, rtol=1e-12)


def test_electron_transport_type2_tends_to_type1_at_small_theta():
    for q in (10.0, 100.0, 1000.0, 2000.0):
        j1 = electron_transport(q, 200.0, alpha=0.5, light_type=1)
        j2 = electron_transport(q, 200.0, alpha=0.5, theta=1e-6, light_type=2)
        np.testing.assert_allclose(j2, j1, rtol=1e-3)


def test_electron_transport_type2_below_saturating_bounds():
    # the smaller quadratic root never exceeds min(alpha*Q, jmax)
    q = np.linspace(1.0, 3000.0, 60)
    j2 = electron_transport(q, 200.0, alpha=0.5, theta=0.7, light_type=2)
    assert np.all(j2 <= np.minimum(0.5 * q, 200.0) + 1e-9)
    assert np.all(np.diff(j2) > 0.0)


def test_electron_transport_type2_degenerate_discriminant():
    # theta=1, alpha*Q == jmax makes the discriminant exactly zero
    got = electron_transport(400.0, 200.0, alpha=0.5, theta=1.0, light_type=2)
    np.testing.assert_allclose(got, 200.0, rtol=1e-12)


def test_electron_transport_adjoints_match_finite_differences():
    q = np.linspace(20.0, 2000.0, 9)
    jmax = RNG.uniform(150.0, 250.0, size=9)
    alpha = RNG.uniform(0.3, 0.6, size=9)
    check_adjoints(lambda a, j: electron_transport(q, j, a, light_type=1),
                   (alpha, jmax), (0, 1))
    theta = RNG.uniform(0.3, 0.95, size=9)
    check_adjoints(lambda a, j, th: electron_transport(q, j, a, th, 2),
                   (alpha, jmax, theta), (0, 1, 2), rtol=1e-5)
    # theta > 1 drives some discriminants below 0, where the clamp
    # leaves J = (aQ + jmax) / (2 theta); both sides of the kink
    theta = np.full(9, 1.3)
    disc = (alpha * q + jmax) ** 2 - 4.0 * theta * alpha * q * jmax
    assert (disc < 0.0).any() and (disc > 0.0).any()
    check_adjoints(lambda a, j, th: electron_transport(q, j, a, th, 2),
                   (alpha, jmax, theta), (0, 1, 2), rtol=1e-5)


# ------------------------------------------------------------ limitation rates

def test_limitation_rates_adjoints_match_finite_differences():
    # every operand live, with points on both sides of the Wp pole
    n = 8
    c = np.array([40.0, 60.0, 90.0, 150.0, 400.0, 800.0, 1200.0, 1700.0])
    args = (c, RNG.uniform(80.0, 120.0, n), RNG.uniform(150.0, 250.0, n),
            RNG.uniform(8.0, 15.0, n), RNG.uniform(38.0, 48.0, n),
            RNG.uniform(380.0, 430.0, n), RNG.uniform(250.0, 300.0, n),
            210.0, RNG.uniform(0.2, 0.5, n))

    # a zero sentinel keeps the sum small enough for central differences
    def rates(c, v, j, t, g, kc, ko, o2, ag):
        return limitation_rates(c, v, j, t, g, kc, ko, o2, ag, big=0.0)[0]

    valid = limitation_rates(*args)[1]
    assert valid.any() and not valid.all()
    check_adjoints(rates, args, (0, 1, 2, 3, 4, 5, 6, 8), rtol=1e-5,
                   atol=1e-7)


KC, KO, GAMMA, O2 = 404.9, 278.4, 42.75, 210.0


def test_limitation_rate_oracles():
    (wc, wj, wp), valid = limitation_rates(
        np.array([400.0]), 100.0, 166.66666666666666, 25.0, GAMMA, KC, KO, O2)
    np.testing.assert_allclose(wc, 36.02564187173396, rtol=1e-12)
    np.testing.assert_allclose(wj, 34.32887058015791, rtol=1e-12)
    (wc, wj, wp), valid = limitation_rates(
        np.array([1500.0]), 100.0, 200.0, 25.0, GAMMA, KC, KO, O2)
    np.testing.assert_allclose(wp, 77.20020586721564, rtol=1e-12)
    assert valid.all()


def test_wp_invalid_below_pole_reports_sentinel():
    c = np.array([10.0, 42.75, 50.0])
    (wc, wj, wp), valid = limitation_rates(c, 100.0, 200.0, 25.0, GAMMA, KC, KO, O2)
    np.testing.assert_array_equal(valid, [False, False, True])
    assert np.isposinf(wp[0]) and np.isposinf(wp[1])
    big = 1e9
    (_, _, wp2), _ = limitation_rates(c, 100.0, 200.0, 25.0, GAMMA, KC, KO, O2,
                                    big=big)
    assert wp2[0] == big


def test_wp_pole_shifts_with_alpha_g():
    c = np.array([120.0])
    # (1 + 3*0.8) * 42.75 = 145.35 > 120, so the point becomes invalid
    _, valid0 = limitation_rates(c, 100.0, 200.0, 25.0, GAMMA, KC, KO, O2,
                                       alpha_g=0.0)
    _, valid8 = limitation_rates(c, 100.0, 200.0, 25.0, GAMMA, KC, KO, O2,
                                       alpha_g=0.8)
    assert valid0[0] and not valid8[0]


def test_rate_monotonicity_in_c():
    c = np.linspace(50.0, 1800.0, 200)
    (wc, wj, wp), valid = limitation_rates(c, 100.0, 200.0, 25.0, GAMMA, KC, KO, O2)
    assert np.all(np.diff(wc) > 0.0)
    assert np.all(np.diff(wj) > 0.0)
    assert np.all(np.diff(wp[valid]) <= 0.0)


# ------------------------------------------------------------ net assimilation

def test_net_assimilation_composition_oracle():
    params = ParameterState.single()
    cfg = FitConfig(light_type=1)
    a, state = net_assimilation((400.0, 2000.0, 25.0), params, cfg)
    np.testing.assert_allclose(a, 29.159972536903536, rtol=1e-12)
    assert state == "j"
    cfg0 = FitConfig()  # light type 0: J = jmax even at low Q
    a0, state0 = net_assimilation((400.0, 2000.0, 25.0), params, cfg0)
    np.testing.assert_allclose(a0, 30.675401396692396, rtol=1e-12)
    assert state0 == "c"


def test_tpu_limited_assimilation_is_flat():
    # with alpha_g ~ 0 the p-limited branch reduces to 3*TPU - Rd
    params = ParameterState.single(tpu25=10.0)
    cfg = FitConfig()
    for ci in (1200.0, 1500.0, 1800.0):
        a, state = net_assimilation((ci, 2000.0, 25.0), params, cfg)
        assert state == "p"
        np.testing.assert_allclose(a, 3.0 * 10.0 - 1.5, rtol=1e-4)


def test_temperature_scaling_of_rd_and_kinetics():
    params = ParameterState.single()
    cfg = FitConfig(temp_type=1)
    # at 30 C with plain Arrhenius: rd = 2.0617465, kc = 698.04119
    rd30 = arrhenius(1.5, 46.39, 303.15)
    np.testing.assert_allclose(rd30, 2.0617465110121359, rtol=1e-12)
    np.testing.assert_allclose(arrhenius(404.9, 79.43, 303.15),
                               698.0411934308911, rtol=1e-12)
    # the full prediction at saturating C uses the scaled TPU and rd;
    # cross-check through the flat p-limited identity
    params_low_tpu = ParameterState.single(tpu25=8.0)
    a, state = net_assimilation((1700.0, 2000.0, 30.0), params_low_tpu, cfg)
    assert state == "p"
    tpu30 = arrhenius(8.0, 53.1, 303.15)
    np.testing.assert_allclose(a, 3.0 * tpu30 - rd30, rtol=1e-3)


def test_temp_type2_peaked_main_parameters():
    # every response function is identity exactly at 298 K, which is
    # 24.85 C after the Celsius conversion (the reference uses 1/298,
    # a quarter-kelvin below nominal 25 C)
    t_ref_c = 298.0 - 273.15
    params = ParameterState.single()
    cfg2 = FitConfig(temp_type=2)
    a_ref, _ = net_assimilation((400.0, 2000.0, t_ref_c), params, cfg2)
    cfg0 = FitConfig()
    a_flat, _ = net_assimilation((400.0, 2000.0, t_ref_c), params, cfg0)
    np.testing.assert_allclose(a_ref, a_flat, rtol=1e-12)
    # at nominal 25 C the kinetics already shift a little
    a25_2, _ = net_assimilation((400.0, 2000.0, 25.0), params, cfg2)
    a25_0, _ = net_assimilation((400.0, 2000.0, 25.0), params, cfg0)
    assert abs(a25_2 - a25_0) > 1e-3


def test_predict_curve_matches_pointwise_calls():
    from fvcbfit.data_io import ResponseCurve, GasExchangeRecord, CurveKind
    params = ParameterState.single()
    cfg = FitConfig(light_type=2, temp_type=2)
    ci = np.linspace(60.0, 1700.0, 25)
    recs = tuple(GasExchangeRecord(curve_id=0, fitting_group=0, ci=c,
                                   a=0.0, qin=1500.0, tleaf_c=28.0)
                 for c in ci)
    curve = ResponseCurve.from_records(curve_id=0, fitting_group=0,
                                       records=recs,
                                       kind=CurveKind.CO2Response)
    a_hat, states = predict_curve(curve, params, cfg)
    for i in (0, 7, 24):
        a_i, s_i = net_assimilation((ci[i], 1500.0, 28.0), params, cfg)
        np.testing.assert_allclose(a_hat[i], a_i, rtol=1e-12)
        assert states[i] == s_i
    assert set(states) <= {"c", "j", "p"}


def test_gm_substitution_requires_positive_c():
    from fvcbfit.data_io import ResponseCurve, GasExchangeRecord, CurveKind
    params = ParameterState.single(gm=0.01)
    cfg = FitConfig(fit_gm=True)
    recs = (GasExchangeRecord(curve_id=0, fitting_group=0, ci=100.0,
                              a=5.0, qin=2000.0, tleaf_c=25.0),)
    curve = ResponseCurve.from_records(curve_id=0, fitting_group=0,
                                       records=recs,
                                       kind=CurveKind.CO2Response)
    with pytest.raises(NonPositiveC):
        predict_curve(curve, params, cfg)  # 100 - 5/0.01 = -400


def test_net_assimilation_rejects_fit_gm():
    # the g_m substitution C = Ci - A/g_m needs a measured A, which a
    # single point given as (ci, qin, tleaf_c) does not carry
    with pytest.raises(ValueError, match="measured A"):
        net_assimilation((400.0, 2000.0, 25.0), ParameterState.single(),
                         FitConfig(fit_gm=True))


# ------------------------------------------------- independent reference

def _load_reference():
    # bench/reference.py was written from the equations without importing
    # fvcbfit; it is loaded by path and only read
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("fvcb_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _load_reference()
PRED_RTOL = 1e-9  # the benchmark's tolerance on predicted A


@pytest.mark.parametrize("light_type,temp_type,fit_gm",
                         [(lt, tt, False) for lt in range(3)
                          for tt in range(3)]
                         + [(0, 0, True), (2, 2, True)])
def test_predict_curve_matches_the_independent_reference(light_type,
                                                         temp_type, fit_gm):
    params = ParameterState.defaults(curve_ids=(3, 5, 8),
                                     group_of_curve={3: 0, 5: 1, 8: 1},
                                     gm=1.5)
    params.vcmax25[:] = (70.0, 130.0, 95.0)
    params.jmax25[:] = (150.0, 240.0, 170.0)
    params.tpu25[:] = (20.0, 9.0, 11.0)
    params.rd25[:] = (1.0, 2.0, 1.3)
    params.dha_vcmax[:] = (60.0, 70.0)
    params.topt_jmax[:] = (309.0, 305.0)
    params.alpha[:] = (0.5, 0.3)
    params.theta[:] = (0.9, 0.7)
    params.alpha_g_raw[:] = (-12.0, -1.0)
    entry, group = 2, 1
    rng = np.random.default_rng(5)
    n = 80
    ci = rng.permutation(np.linspace(80.0, 1800.0, n))
    qin = rng.uniform(200.0, 2000.0, n)
    tleaf = rng.uniform(15.0, 38.0, n)
    a = rng.uniform(0.0, 30.0, n)
    curve = ResponseCurve(curve_id=8, fitting_group=1, ci=ci, a=a, qin=qin,
                          tleaf_c=tleaf, kind=CurveKind.CO2Response)
    cfg = FitConfig(light_type=light_type, temp_type=temp_type,
                    fit_gm=fit_gm)
    a_hat, states = predict_curve(curve, params, cfg, entry=entry,
                                  group=group)

    p = {name: float(getattr(params, name)[entry])
         for name in REFERENCE.CURVE_FIELDS}
    p.update({name: float((params.alpha_g if name == "alpha_g"
                           else getattr(params, name))[group])
              for name in REFERENCE.SHARED_FIELDS})
    c = ci - a / params.gm[group] if fit_gm else ci
    args = (c, qin, tleaf, p, light_type, temp_type)
    a_ref, s_ref = REFERENCE.assimilation(*args)
    err = np.abs(a_hat - a_ref) / np.maximum(1.0, np.abs(a_ref))
    assert err.max() <= PRED_RTOL
    # the state is compared where the two lowest rates differ clearly
    w = np.sort(np.stack(REFERENCE.rates(*args)[:3]), axis=0)
    clear = (w[1] - w[0]) > PRED_RTOL * np.maximum(1.0, np.abs(w[0]))
    assert clear.sum() >= n - 2
    np.testing.assert_array_equal(states[clear], s_ref[clear])
    assert len(set(s_ref)) >= 2

"""Objective function: reference penalty semantics and the batched
evaluator that must reproduce them."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fvcbfit.constants import FvCBConstants
from fvcbfit.data_io import CurveKind, Dataset, GasExchangeRecord, ResponseCurve
from fvcbfit.engine import Var, fuse, grad, sigmoid, value
from fvcbfit.errors import FvcbError, LengthMismatch, NonPositiveC
from fvcbfit.loss import (
    Workspace, _evaluate, _gradient, _group_sum, _objective, _Spans,
    find_jc_index,
    mse, penalty_cjp,
    penalty_intersections, penalty_nonneg, penalty_tpu_transition,
    penalty_vj_correlation, predict_curve, total_loss,
)
from fvcbfit.metrics import pearson_r
from fvcbfit.model import limitation_rates
from fvcbfit.optimizer import fit, split_by_group
from fvcbfit.params import FitConfig, ParameterState, fitted_fields
from fvcbfit.synth import generate_dataset


# --- reference penalty functions -------------------------------------

def test_mse_hand_value_and_mismatch():
    assert mse([0.0, 2.0], [1.0, 0.0]) == pytest.approx(2.5, rel=0, abs=0)
    with pytest.raises(LengthMismatch):
        mse([1.0], [1.0, 2.0])


def test_find_jc_index_first_tie_wins():
    ac = np.array([1.0, 5.0, 9.0, 9.0])
    aj = np.array([4.0, 5.0, 9.0, 9.0])
    assert find_jc_index(ac, aj) == 1
    assert find_jc_index([2.0, 2.0], [2.0, 2.0]) == 0


def test_ordering_penalty_values():
    assert penalty_cjp([30.0], [30.0], [28.0]) == 2.0
    assert penalty_cjp([29.0], [30.0], [29.5]) == 0.5
    assert penalty_cjp([29.0], [30.0], [31.0]) == 0.0


def test_ordering_penalty_evaluated_at_closest_point():
    ac = np.array([10.0, 20.0, 30.0])
    aj = np.array([30.0, 21.0, 10.0])
    ap = np.array([0.0, 19.0, 0.0])  # only index 1 should matter
    assert penalty_cjp(ac, aj, ap) == 2.0


def test_intersection_penalties():
    same = np.array([10.0, 20.0, 30.0])
    assert penalty_intersections(same, same.copy()) == (8.0, 8.0)
    ac = np.array([20.0, 7.0])
    aj = np.array([10.0, 10.0])  # d = +10, -3
    assert penalty_intersections(ac, aj) == (0.0, 5.0)
    assert penalty_intersections(ac, aj, beta=12.0) == (2.0, 9.0)


def test_transition_penalty_last_point_only():
    aj = np.array([50.0, 38.0])
    ap = np.array([10.0, 40.0])
    assert penalty_tpu_transition(aj, ap) == 2.0
    assert penalty_tpu_transition(ap, aj) == 0.0


def corr_series_r_half():
    # y = x + w with w orthogonal to centered x and |w|^2 = 3 |xc|^2,
    # which pins the correlation at exactly 0.5
    x = np.arange(1.0, 8.0)
    w = math.sqrt(21.0) * np.array([1.0, -1.0, 0.0, 0.0, 0.0, -1.0, 1.0])
    return x, x + w


def test_correlation_penalty():
    v = np.arange(1.0, 8.0)
    assert penalty_vj_correlation(v, 2.0 * v) == 0.0
    x, y = corr_series_r_half()
    assert pearson_r(x, y) == pytest.approx(0.5, abs=1e-12)
    assert penalty_vj_correlation(x, y) == pytest.approx(0.2, abs=1e-12)
    # groups below seven curves are exempt
    assert penalty_vj_correlation(x[:6], y[:6]) == 0.0
    with pytest.warns(UserWarning, match="correlation"):
        assert penalty_vj_correlation(np.full(7, 3.0), y) == 0.0


def test_nonneg_penalty():
    assert penalty_nonneg(-0.5) == 0.5
    assert penalty_nonneg(0.0) == 0.0
    assert penalty_nonneg(1.0) == 0.0


# --- batched evaluator ------------------------------------------------

def reference_series(dataset, params):
    """Per-point A_c/A_j/A_p for a single CO2 curve, plain numpy, with
    the default configuration (J = Jmax, no temperature response)."""
    curve = dataset.curves[0]
    ci = curve.ci
    a = curve.a
    ag = float(sigmoid(params.alpha_g_raw[0]))
    (wc, wj, wp), valid = limitation_rates(
        ci, params.vcmax25[0], params.jmax25[0], params.tpu25[0],
        params.gamma25[0], params.kc25[0], params.ko25[0],
        params.constants.o2, ag, big=1e9)
    assert valid.all()
    fac = 1.0 - params.gamma25[0] / ci
    rd = params.rd25[0]
    pred = np.minimum(np.minimum(wc, wj), wp) * fac - rd
    return a, pred, wc * fac - rd, wj * fac - rd, wp * fac - rd


def test_batched_loss_matches_reference_functions():
    truth = ParameterState.single()
    ds, _ = generate_dataset(truth, noise_sd=0.5, seed=7)
    # evaluation point away from the truth so every term is exercised
    params = ParameterState.single(vcmax25=90.0, tpu25=9.0, rd25=2.0)
    b = total_loss(ds, params)
    a, pred, ac, aj, ap = reference_series(ds, params)
    p_pos, p_neg = penalty_intersections(ac, aj)
    assert b.mse == pytest.approx(mse(a, pred), rel=1e-12)
    assert b.p_cjp == pytest.approx(penalty_cjp(ac, aj, ap), rel=1e-12)
    assert b.p_c_gt_j == pytest.approx(p_pos, rel=1e-12, abs=1e-12)
    assert b.p_c_lt_j == pytest.approx(p_neg, rel=1e-12, abs=1e-12)
    assert b.p_j_lt_p == pytest.approx(penalty_tpu_transition(aj, ap),
                                       rel=1e-12, abs=1e-12)
    assert b.p_corr == 0.0 and b.p_nonneg == 0.0


def test_breakdown_total_is_sum_of_terms():
    ds, _ = generate_dataset(ParameterState.single(), noise_sd=1.0, seed=3)
    for overrides in ({}, {"vcmax25": 90.0, "tpu25": 9.0}, {"vcmax25": 50.0}):
        b = total_loss(ds, ParameterState.single(**overrides))
        s = b.mse + b.p_cjp + b.p_c_gt_j + b.p_c_lt_j + b.p_j_lt_p \
            + b.p_corr + b.p_nonneg
        assert b.total == pytest.approx(s, rel=1e-14)
        assert b.total >= b.mse


def test_shifting_measurements_moves_only_the_mse():
    truth = ParameterState.single()
    ds, _ = generate_dataset(truth, seed=2)
    curve = ds.curves[0]
    shifted = replace(curve, a=curve.a + 1.0)
    ds_shift = replace(ds, curves=(shifted,))
    b0 = total_loss(ds, truth)
    b1 = total_loss(ds_shift, truth)
    assert b0.mse == 0.0
    assert b1.mse == pytest.approx(1.0, rel=0, abs=1e-15)
    for name in ("p_cjp", "p_c_gt_j", "p_c_lt_j", "p_j_lt_p", "p_corr",
                 "p_nonneg"):
        assert getattr(b1, name) == getattr(b0, name)


def test_disabling_penalties_reduces_to_mse():
    ds, _ = generate_dataset(ParameterState.single(), noise_sd=0.5, seed=9)
    params = ParameterState.single(vcmax25=80.0, rd25=-0.25)
    b = total_loss(ds, params, FitConfig(penalties=False))
    assert b.total == b.mse
    assert (b.p_cjp, b.p_c_gt_j, b.p_c_lt_j, b.p_j_lt_p, b.p_corr,
            b.p_nonneg) == (0.0,) * 6


def test_penalties_sum_per_curve_while_mse_stays_global():
    base, _ = generate_dataset(ParameterState.single(), seed=5)
    c0 = base.curves[0]
    doubled = Dataset(curves=(c0, replace(c0, curve_id=1)),
                      groups={0: [0, 1]})
    for overrides in ({}, {"vcmax25": 90.0, "tpu25": 9.0}, {"vcmax25": 50.0}):
        b1 = total_loss(base, ParameterState.single(**overrides))
        b2 = total_loss(doubled,
                        ParameterState.defaults(curve_ids=(0, 1), **overrides))
        assert b2.mse == pytest.approx(b1.mse, rel=1e-14)
        for name in ("p_cjp", "p_c_gt_j", "p_c_lt_j", "p_j_lt_p"):
            assert getattr(b2, name) == pytest.approx(
                2.0 * getattr(b1, name), rel=1e-12, abs=1e-12)


def test_light_curves_skip_tpu_penalties():
    cfg = FitConfig(light_type=2)
    ds, _ = generate_dataset(ParameterState.single(), config=cfg,
                             q_grid=np.linspace(50.0, 2000.0, 12))
    assert ds.curves[0].kind is CurveKind.LightResponse
    # tpu25=5 makes A_p the lowest series: on a CO2 curve both A_p
    # penalties would fire, so zeros here prove they are skipped
    b = total_loss(ds, ParameterState.single(vcmax25=200.0, tpu25=5.0), cfg)
    assert b.p_cjp == 0.0 and b.p_j_lt_p == 0.0
    # A_c sits above A_j at every light level, so the crossing margin
    # is missed in full on one side and satisfied on the other
    assert b.p_c_lt_j == 8.0
    assert b.p_c_gt_j == 0.0


def test_correlation_penalty_through_total_loss():
    ids = tuple(range(7))
    ds, _ = generate_dataset(ParameterState.single(), n_curves=7, seed=1)
    x, y = corr_series_r_half()
    params = ParameterState.defaults(curve_ids=ids)
    params.vcmax25 = 60.0 + x
    params.jmax25 = 120.0 + 2.0 * y
    # shifting and scaling leave r at exactly one half
    assert total_loss(ds, params).p_corr == 0.0  # default: penalty off
    b = total_loss(ds, params, FitConfig(r_penalty=True))
    assert b.p_corr == pytest.approx(0.2, abs=1e-12)
    onefit = ParameterState.defaults(curve_ids=ids, onefit=True)
    b_one = total_loss(ds, onefit, FitConfig(r_penalty=True, onefit=True))
    assert b_one.p_corr == 0.0


def test_nonneg_through_total_loss():
    ds, _ = generate_dataset(ParameterState.single(), seed=4)
    params = ParameterState.single(rd25=-0.5)
    assert total_loss(ds, params).p_nonneg == 0.5
    b = total_loss(ds, params, FitConfig(positive_rd=False))
    assert b.p_nonneg == 0.0


def test_mesophyll_substitution_guards_against_nonpositive_c():
    recs = tuple(GasExchangeRecord(curve_id=0, fitting_group=0, ci=100.0,
                                   a=5.0, qin=2000.0, tleaf_c=25.0)
                 for _ in range(3))
    ds = Dataset(curves=(ResponseCurve.from_records(
                             curve_id=0, fitting_group=0, records=recs,
                             kind=CurveKind.CO2Response),),
                 groups={0: [0]})
    with pytest.raises(NonPositiveC):
        total_loss(ds, ParameterState.single(gm=0.01), FitConfig(fit_gm=True))


def test_loss_invariant_to_input_ordering():
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2,
                             noise_sd=0.5, seed=8)
    rng = np.random.default_rng(0)
    scrambled = []
    for curve in ds.curves[::-1]:
        perm = rng.permutation(curve.n_points)
        scrambled.append(curve.take(perm))
    ds2 = Dataset(curves=tuple(scrambled), groups=ds.groups)
    params = ParameterState.defaults(curve_ids=(0, 1), vcmax25=85.0)
    assert total_loss(ds2, params) == total_loss(ds, params)


def test_dataset_parameter_id_mismatch_rejected():
    ds, _ = generate_dataset(ParameterState.single(), n_curves=2, seed=0)
    with pytest.raises(FvcbError, match="curve ids"):
        total_loss(ds, ParameterState.defaults(curve_ids=(0, 5)))


# --- group sums ----------------------------------------------------------

@pytest.mark.parametrize("lengths", [
    [5], [0], [1], [7], [8], [9], [9000], [0, 3], [3, 0], [0, 0, 0],
    [1, 1, 1], [7, 8, 9], [8192, 1, 8193], [0, 20000, 0, 9], [16, 0, 17],
    [30000, 2],
])
def test_group_sum_has_the_bits_of_each_spans_own_sum(lengths):
    # np.add.reduceat alone starts a span from its first element and
    # differs in the last bit; the padded form must not, also across the
    # pairwise summation's 8-element and 8,192-element edges
    rng = np.random.default_rng(len(lengths) * 1000 + sum(lengths))
    cuts = np.concatenate(([0], np.cumsum(lengths)))
    spans = _Spans(cuts)
    for _ in range(20):
        n = int(cuts[-1])
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        x[rng.random(n) < 0.05] = -0.0
        want = np.array([x[a:b].sum() for a, b in spans.bounds])
        assert _group_sum(x, spans).tobytes() == want.tobytes()


def test_group_sum_of_random_spans_matches_per_span_sums():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = int(rng.integers(1, 12))
        lengths = rng.choice([0, 1, 7, 8, 9, 100, 129, 8191, 8193],
                             size=k) + rng.integers(0, 3, size=k)
        cuts = np.concatenate(([0], np.cumsum(lengths)))
        x = rng.standard_normal(int(cuts[-1])) * 1e3
        spans = _Spans(cuts)
        want = np.array([x[a:b].sum() for a, b in spans.bounds])
        assert _group_sum(x, spans).tobytes() == want.tobytes()


# --- operands built once per workspace -----------------------------------

def evaluation_bytes(ws, params, cfg, fitted):
    """Bytes of the loss terms, the prediction and the gradient."""
    total, breakdown, leaves, aux = _evaluate(ws, params, cfg, fitted)
    out = [value(total).tobytes(), breakdown, aux["pred"].tobytes()]
    if fitted:
        out.append(_gradient(ws, total, leaves).tobytes())
    return out


def two_group_temperature_dataset(light):
    # group 0: three A/Ci curves at 18, 25 and 32 C; group 1: two, plus
    # an A-Q curve when light is set
    curves, groups = [], {}
    for gid, temps in ((0, (18.0, 25.0, 32.0)), (1, (21.0, 29.0))):
        parts = [generate_dataset(ParameterState.single(), noise_sd=0.5,
                                  seed=10 * gid + k, tleaf_c=t, jitter=True)[0]
                 for k, t in enumerate(temps)]
        if light:
            parts.append(generate_dataset(
                ParameterState.single(), config=FitConfig(light_type=2),
                q_grid=np.linspace(20.0, 2000.0, 15), noise_sd=0.5,
                seed=10 * gid + 9)[0])
        for part in parts:
            cid = len(curves)
            curves.append(replace(part.curves[0], curve_id=cid,
                                  fitting_group=gid))
            groups.setdefault(gid, []).append(cid)
    return Dataset(curves=tuple(curves), groups=groups)


HOISTED_CONFIGS = {
    "default": FitConfig(),
    "fit_gm": FitConfig(fit_gm=True),
    "fit_kinetics": FitConfig(fit_kinetics=True),
    "temp_type_1": FitConfig(temp_type=1),
    "temp_type_2": FitConfig(temp_type=2),
    "light_type_1": FitConfig(light_type=1),
    "light_type_2": FitConfig(light_type=2, temp_type=2),
    "onefit": FitConfig(onefit=True, temp_type=1),
}


@pytest.mark.parametrize("name", sorted(HOISTED_CONFIGS))
def test_workspace_operands_follow_the_fields_they_are_built_from(name):
    cfg = HOISTED_CONFIGS[name]
    ds = two_group_temperature_dataset(light=cfg.light_type >= 1)
    params = ParameterState.defaults(
        curve_ids=[c.curve_id for c in ds.curves],
        group_of_curve={c.curve_id: c.fitting_group for c in ds.curves},
        onefit=cfg.onefit, gm=30.0)
    ws = Workspace(ds, params)
    fitted = fitted_fields(cfg, ws.light_only)

    def same_as_fresh(p):
        got = [evaluation_bytes(ws, p, cfg, f) for f in (fitted, ())]
        assert got == [evaluation_bytes(Workspace(ds, p), p, cfg, f)
                       for f in (fitted, ())]
        # and right: the pointwise forward model agrees
        pred = _evaluate(ws, p, cfg)[3]["pred"]
        for i, (cid, start) in enumerate(zip(p.curve_ids, ws.seg_starts)):
            a_hat, _ = predict_curve(ds.curve(cid), p, cfg,
                                     entry=int(p.entry_of[i]),
                                     group=int(p.group_of[i]))
            span = slice(start, start + a_hat.shape[0])
            np.testing.assert_allclose(
                pred[span], a_hat[ws.orig_index[span] - start],
                rtol=1e-12, atol=1e-12)
        return got

    first = same_as_fresh(params)
    assert same_as_fresh(params) == first
    # fields the operands are built from, changed in place
    for field, factor in (("kc25", 1.1), ("ko25", 0.9), ("gamma25", 1.05)):
        getattr(params, field)[1] *= factor
        assert same_as_fresh(params) != first
    other = replace(params, constants=FvCBConstants(o2=190.0, dha_rd=40.0,
                                                    dha_kc=70.0))
    assert same_as_fresh(other) != same_as_fresh(params)


def dense_dataset(temps=(25.0,)):
    """40 A/Ci curves of 500 points, split evenly over the leaf
    temperatures; curve i is drawn with seed 3 + i."""
    per = 40 // len(temps)
    curves = []
    for k, t in enumerate(temps):
        ds, _ = generate_dataset(ParameterState.single(), n_curves=per,
                                 noise_sd=0.5, seed=3 + per * k, jitter=True,
                                 ci_grid=np.linspace(40.0, 1800.0, 500),
                                 tleaf_c=t)
        curves += [replace(c, curve_id=c.curve_id + per * k)
                   for c in ds.curves]
    return Dataset(tuple(curves), {0: [c.curve_id for c in curves]})


def peak_point_arrays(run, n_points):
    """Peak memory that run() allocates, in arrays of one float64 per
    point."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (8 * n_points)


FOUR_TEMPERATURES = (18.0, 25.0, 32.0, 38.0)


def iteration_peak(temps, cfg, report):
    """Peak point-arrays of one taped evaluation of dense_dataset(temps)
    and its gradient, once the workspace's operands are built."""
    ds = dense_dataset(temps)
    params = ParameterState.defaults(curve_ids=[c.curve_id
                                                for c in ds.curves])
    ws = Workspace(ds, params)
    fitted = fitted_fields(cfg, ws.light_only)

    def iteration():
        total, _, leaves, _ = _evaluate(ws, params, cfg, fitted, report)
        _gradient(ws, total, leaves)

    iteration()  # builds the workspace's operands
    assert ws.n_points == 20000
    return peak_point_arrays(iteration, ws.n_points)


# Peak memory of one taped evaluation and its gradient on 40 curves x
# 500 points at 25 C, in arrays of one float64 per point, with the report
# and without it as in a fit: 15.7 measured either way (16.2 and 15.7
# with a spread node per fitted field, 23.2 and 22.7 while a finished
# graph kept every interior value, 37.7 before the operands that depend
# only on the data were built once per workspace), plus a margin of two
# arrays for numpy's small allocations.
WORKING_SET_BOUND = {True: 17.75, False: 17.75}


def test_dense_iteration_working_set_stays_bounded():
    for report, bound in WORKING_SET_BOUND.items():
        assert iteration_peak((25.0,), FitConfig(), report) < bound


# The same at four temperatures on the heaviest paths, without the
# report: the peaked temperature response on the (3, n) stack measured
# 57.7 (57.8 with one call per field, 62.8 before), and with the
# non-rectangular light response as well 66.9 (67.1, 74.1).
HEAVY_WORKING_SET_BOUNDS = {
    "temp_type_2": (FitConfig(temp_type=2), 59.75),
    "light_type_2_temp_type_2": (FitConfig(light_type=2, temp_type=2), 68.9),
}


@pytest.mark.parametrize("name", sorted(HEAVY_WORKING_SET_BOUNDS))
def test_heavy_path_working_set_stays_bounded(name):
    cfg, bound = HEAVY_WORKING_SET_BOUNDS[name]
    assert iteration_peak(FOUR_TEMPERATURES, cfg, False) < bound


# Peak memory of a fit of a few iterations on the 40 x 500 input at 25 C,
# in point-arrays: the workspace and its operands, then each
# iteration's graph built while the previous one is still alive, so what
# a finished graph holds adds to one evaluation and its gradient. 31.7
# measured (38.7 while a finished graph kept every interior value), plus
# the two-array margin. The same under light_type=2, temp_type=2 at four
# temperatures: 127.2 with a spread node per fitted field, 119.1 with
# leaves at the points and the (3, n) stack.
FIT_WORKING_SET_BOUND = 33.75
HEAVY_FIT_WORKING_SET_BOUND = 129.2


def test_consecutive_graphs_of_a_fit_stay_bounded():
    for temps, cfg, bound in (
            ((25.0,), FitConfig(max_iter=4), FIT_WORKING_SET_BOUND),
            (FOUR_TEMPERATURES, FitConfig(light_type=2, temp_type=2,
                                          max_iter=4),
             HEAVY_FIT_WORKING_SET_BOUND)):
        ds = dense_dataset(temps)
        fit(ds, cfg)  # imports and first-use set-up
        assert peak_point_arrays(lambda: fit(ds, cfg), 20000) < bound


# Graph nodes of one taped evaluation, leaves and root included: 12 at the
# default configuration and 33 under light_type=2, temp_type=2 while each
# fitted field was spread to the points by a node of its own, 7 and 19
# while the column penalties read leaves of the columns.
GRAPH_NODES = {"default": (FitConfig(), 6),
               "light_type_2_temp_type_2": (FitConfig(light_type=2,
                                                      temp_type=2), 13)}


@pytest.mark.parametrize("name", sorted(GRAPH_NODES))
def test_one_taped_evaluation_is_a_small_graph(name):
    cfg, want = GRAPH_NODES[name]
    ds = two_group_temperature_dataset(light=True)
    params = ParameterState.defaults(
        curve_ids=[c.curve_id for c in ds.curves],
        group_of_curve={c.curve_id: c.fitting_group for c in ds.curves})
    ws = Workspace(ds, params)
    total = _evaluate(ws, params, cfg, fitted_fields(cfg, ws.light_only),
                      report=False)[0]
    seen, todo = set(), [total]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
    assert len(seen) == want


# --- the penalty gradient, added only where a term is active -------------

def gradient_bytes(ws, params, cfg):
    fitted = fitted_fields(cfg, ws.light_only)
    total, _, leaves, _ = _evaluate(ws, params, cfg, fitted)
    cuts = np.cumsum([getattr(params, f).shape[0] for f in fitted])[:-1]
    return value(total).tobytes(), [
        g.tobytes() for g in np.split(_gradient(ws, total, leaves), cuts)]


def test_inactive_penalties_leave_the_gradient_bytes_of_the_mse():
    ds, _ = generate_dataset(ParameterState.single(), n_curves=3,
                             noise_sd=0.5, seed=3)
    params = ParameterState.defaults(curve_ids=(0, 1, 2), tpu25=15.0)
    terms = _evaluate(Workspace(ds, params), params, FitConfig())[3]["terms"]
    assert all(not np.any(t) for t in terms[1:7])
    assert np.all(terms[0] > 0.0)
    on = gradient_bytes(Workspace(ds, params), params, FitConfig())
    off = gradient_bytes(Workspace(ds, params), params,
                         FitConfig(penalties=False))
    assert on == off


def objective_workspace():
    """Three A/Ci curves of five points at Ci = 100 ... 500; curves 0 and
    1 are fitting group 0, curve 2 is group 1."""
    rng = np.random.default_rng(3)
    groups = (0, 0, 1)
    curves = tuple(ResponseCurve.from_records(
        curve_id=cid, fitting_group=grp, kind=CurveKind.CO2Response,
        records=tuple(GasExchangeRecord(curve_id=cid, fitting_group=grp,
                                        ci=100.0 * (k + 1),
                                        a=float(rng.uniform(5.0, 30.0)),
                                        qin=2000.0, tleaf_c=25.0)
                      for k in range(5)))
        for cid, grp in enumerate(groups))
    ds = Dataset(curves=curves, groups={0: [0, 1], 1: [2]})
    return Workspace(ds, ParameterState.defaults(
        curve_ids=(0, 1, 2), group_of_curve=dict(enumerate(groups))))


# Wc, Wj and Wp of one curve whose A_c and A_j cross with both margins
# met, at a closest point (index 2) where A_p is far above both, and
# with A_p below A_j at the last point: no penalty term is active.
QUIET_CURVE = np.array([[10.0, 20.0, 30.0, 40.0, 50.0],
                        [30.0, 32.0, 33.0, 36.0, 38.0],
                        [100.0, 100.0, 100.0, 100.0, 30.0]])

# (one curve's rates, the penalty terms then active): A_p dips below the
# closest point; A_c rises above A_j by only 7 before the end; A_c stays
# above A_j by 6 in all, so both margins are missed but only one has a
# gradient; A_p ends above A_j; the closest point is the last one, where
# A_c > A_p > A_j
ACTIVE_CURVES = {
    "ordering": ([[10.0, 20.0, 30.0, 40.0, 50.0],
                  [30.0, 32.0, 33.0, 36.0, 38.0],
                  [100.0, 100.0, 25.0, 100.0, 30.0]], (1,)),
    "margin": ([[10.0, 20.0, 30.0, 40.0, 50.0],
                [30.0, 32.0, 33.5, 37.0, 46.0],
                [100.0, 100.0, 100.0, 100.0, 30.0]], (2,)),
    "margin_on_one_side": ([[31.0, 33.0, 34.0, 37.0, 40.0],
                            [30.0, 32.0, 33.0, 36.0, 38.0],
                            [100.0, 100.0, 100.0, 100.0, 30.0]], (2, 3)),
    "tpu": ([[10.0, 20.0, 30.0, 40.0, 50.0],
             [30.0, 32.0, 33.0, 36.0, 38.0],
             [100.0, 100.0, 100.0, 100.0, 45.0]], (4,)),
    "ordering_and_tpu_at_last_point": ([[10.0, 20.0, 30.0, 40.0, 54.0],
                                        [50.0, 55.0, 60.0, 62.0, 52.0],
                                        [100.0, 100.0, 100.0, 100.0, 53.0]],
                                       (1, 2, 4)),
}


@pytest.mark.parametrize("case", sorted(ACTIVE_CURVES))
def test_active_penalty_gradient_matches_finite_differences(case):
    # the active curve is the third, alone in group 1, whose loss is
    # weighted apart from group 0's so the gradient must follow the
    # group's own cotangent
    ws = objective_workspace()
    rng = np.random.default_rng(11)
    curve, active = ACTIVE_CURVES[case]
    rates0 = np.concatenate([QUIET_CURVE, QUIET_CURVE, np.array(curve)],
                            axis=1)
    fac0 = rng.uniform(0.9, 1.0, size=15)
    rd0 = rng.uniform(0.5, 1.5, size=15)
    valid = np.ones(15, dtype=bool)
    cfg = FitConfig()
    w = np.array([1.0, 2.5])

    def loss(rates, fac, rd):
        total, terms, _ = _objective(ws, cfg, rates, valid, fac, rd)
        return fuse((value(total) * w).sum(), (total,),
                    lambda g: (g * w,)), terms

    terms = loss(rates0, fac0, rd0)[1]
    assert not any(t[0] for t in terms[1:])
    assert tuple(i for i in range(1, 7) if terms[i][1] > 0.0) == active
    leaves = [Var(x) for x in (rates0, fac0, rd0)]
    got = grad(loss(*leaves)[0], leaves)
    args = [rates0, fac0, rd0]
    for k, (x0, g) in enumerate(zip(args, got)):
        fd = np.zeros_like(x0)
        for idx in np.ndindex(x0.shape):
            h = 1e-6 * max(1.0, abs(x0[idx]))
            hi, lo = x0.copy(), x0.copy()
            hi[idx] += h
            lo[idx] -= h
            f = [float(loss(*(args[:k] + [x] + args[k + 1:]))[0])
                 for x in (hi, lo)]
            fd[idx] = (f[0] - f[1]) / (2.0 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7,
                                   err_msg=f"argument {k}")


def test_groups_without_active_terms_keep_their_bytes_beside_active_ones():
    # group 0's TPU25 puts A_p above A_j at the last point and its Rd25
    # is negative; group 1 has no active term
    ds = two_group_temperature_dataset(light=False)
    cfg = FitConfig()
    params = ParameterState.defaults(
        curve_ids=[c.curve_id for c in ds.curves],
        group_of_curve={c.curve_id: c.fitting_group for c in ds.curves},
        tpu25=15.0)
    params.tpu25[:3] = 20.0
    params.rd25[0] = -0.2
    ws = Workspace(ds, params)
    penalties = np.array(_evaluate(ws, params, cfg)[3]["terms"][1:7])
    assert penalties[:, 0].any() and not penalties[:, 1].any()
    total, grads = gradient_bytes(ws, params, cfg)
    fitted = fitted_fields(cfg, ws.light_only)
    whole = [np.frombuffer(g) for g in grads]
    for gi, (gid, sub) in enumerate(split_by_group(ds)):
        part = params.select_group(gi)
        alone, alone_grads = gradient_bytes(Workspace(sub, part), part, cfg)
        assert np.frombuffer(total)[gi:gi + 1].tobytes() == alone
        ea, eb = ws.entry_spans.bounds[gi]
        for f, g, g_alone in zip(fitted, whole, alone_grads):
            cut = g[ea:eb] if g.shape == ws.entry_group.shape else g[gi:gi + 1]
            assert cut.tobytes() == g_alone, f

"""The penalty-augmented fitting objective.

Each fitting group is its own problem: groups share no parameter, and
each has its own objective

total = MSE over the group's retained points (divided by the group's n)
      + per CO2 curve:  the limitation-ordering penalty at the point
                        where A_c and A_j are closest, and the
                        TPU-transition penalty at the highest Ci
      + per curve:      two intersection penalties forcing A_c and A_j
                        to cross with a summed margin of at least beta
      + per group:      an optional Vcmax/Jmax correlation penalty
                        (groups of >= 7 curves)
      + per fitted scalar that must stay non-negative: max(0, -k).

Every term, and the total, is a vector with one entry per group, and
each group's entry has the bits it has in a workspace of that group
alone. `total_loss` and the LossBreakdown of a multi-group dataset
report each term summed over the groups, in group order.

The standalone penalty functions below operate on plain numpy series
and define the reference semantics; the batched evaluator `total_loss`
computes the same quantities vectorized across curves, and doubles as
the gradient graph builder when handed autodiff leaves. In that graph
the penalty block is one node and the prediction, its residual, the
MSE and the total are another; each has a hand-written VJP.

Per-point operands that depend only on the data and on fields the
evaluation does not differentiate are built on the first evaluation of
a Workspace and kept on it (`_fixed_operands`): 1/T and 1/298 - 1/T and
the Arrhenius factors of Rd, Kc, Ko and Gamma* (temp_type >= 1); unless
the kinetic fields are autodiff leaves, Kc, Ko and Gamma* at each point;
and unless g_m is fitted as well, the Wc and Wj denominators
C + Kc(1 + O/Ko) and 4(C + 2 Gamma*) and the factor 1 - Gamma*/C. They
are built again when an input changes: the kinetic fields' values, the
constants, temp_type >= 1, fit_gm, or whether the kinetic fields are
leaves. Each keeps the operation order of the per-evaluation code, so
values and gradients keep their bits.

A_p handling: where Wp is undefined (C below the (1+3*alpha_g)*Gamma*
pole) the point is treated as non-limiting, i.e. it cannot trigger the
ordering penalty and contributes nothing to the transition penalty.
On light-response curves the A_p series is held non-updating (values
participate in the forward minimum, gradients do not flow), and the two
A_p-based penalties are skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_io import CurveKind, Dataset
from .engine import Var, fuse, gather, sigmoid, value
from .errors import DegenerateSeries, FvcbError, LengthMismatch, NonPositiveC
from .metrics import pearson_r
from .model import _arrhenius, _arrhenius_factor, _kinetic_terms, \
    _peaked_arrhenius, _temperature_terms, electron_transport, \
    limitation_rates
from .params import FitConfig, ParameterState, fitted_fields

__all__ = [
    "LossBreakdown", "mse", "find_jc_index", "penalty_cjp",
    "penalty_intersections", "penalty_tpu_transition",
    "penalty_vj_correlation", "penalty_nonneg", "total_loss",
]

# Finite stand-in for "not limiting" inside gradient graphs; +inf would
# poison backward passes with inf*0 products.
_BIG = 1e9

MIN_CURVES_FOR_R = 7

KINETICS = ("kc25", "ko25", "gamma25")


@dataclass(frozen=True)
class LossBreakdown:
    mse: float
    p_cjp: float
    p_c_gt_j: float
    p_c_lt_j: float
    p_j_lt_p: float
    p_corr: float
    p_nonneg: float
    total: float


def mse(a_measured, a_predicted) -> float:
    """Mean squared error with n = total point count."""
    a = np.asarray(a_measured, dtype=np.float64)
    ah = np.asarray(a_predicted, dtype=np.float64)
    if a.shape != ah.shape or a.size == 0:
        raise LengthMismatch(f"{a.shape} vs {ah.shape}")
    return float(np.mean((a - ah) ** 2))


def find_jc_index(ac, aj) -> int:
    """Index where |A_j - A_c| is smallest; first index wins ties."""
    ac = np.asarray(ac, dtype=np.float64)
    aj = np.asarray(aj, dtype=np.float64)
    if ac.shape != aj.shape or ac.size == 0:
        raise LengthMismatch(f"{ac.shape} vs {aj.shape}")
    return int(np.argmin(np.abs(aj - ac)))


def penalty_cjp(ac, aj, ap) -> float:
    """Ordering penalty at the A_c/A_j closest point.

    Positive when A_p dips below the higher of A_c and A_j there, which
    would make the TPU branch cut in before the other two cross.
    """
    k = find_jc_index(ac, aj)
    ap = np.asarray(ap, dtype=np.float64)
    gap = max(float(aj[k]), float(ac[k])) - float(ap[k])
    return max(0.0, gap)


def penalty_intersections(ac, aj, beta: float = 8.0):
    """Margin penalties forcing the A_c and A_j series to cross.

    Returns (p_c_gt_j, p_c_lt_j): each is max(0, beta - S) where S sums
    the positive parts of A_c - A_j (respectively A_j - A_c).
    """
    ac = np.asarray(ac, dtype=np.float64)
    aj = np.asarray(aj, dtype=np.float64)
    d = ac - aj
    s_pos = float(np.sum(np.where(d > 0.0, d, 0.0)))
    s_neg = float(np.sum(np.where(d < 0.0, -d, 0.0)))
    return max(0.0, beta - s_pos), max(0.0, beta - s_neg)


def penalty_tpu_transition(aj, ap) -> float:
    """max(0, A_p - A_j) at the last (highest Ci) point of the curve."""
    aj = np.asarray(aj, dtype=np.float64)
    ap = np.asarray(ap, dtype=np.float64)
    if aj.shape != ap.shape or aj.size == 0:
        raise LengthMismatch(f"{aj.shape} vs {ap.shape}")
    return max(0.0, float(ap[-1]) - float(aj[-1]))


def penalty_vj_correlation(vcmax_group, jmax_group) -> float:
    """max(0, 0.7 - r) over a fitting group's per-curve Vcmax25/Jmax25.

    Returns 0 for groups below 7 curves. A zero-variance series makes
    the correlation undefined; the penalty is skipped with a warning.
    """
    x = np.asarray(vcmax_group, dtype=np.float64)
    y = np.asarray(jmax_group, dtype=np.float64)
    if x.size < MIN_CURVES_FOR_R:
        return 0.0
    try:
        r = pearson_r(x, y)
    except Exception:
        warnings.warn(str(DegenerateSeries("zero-variance parameter series; "
                                           "correlation penalty skipped")),
                      stacklevel=2)
        return 0.0
    return max(0.0, 0.7 - r)


def penalty_nonneg(k) -> float:
    """max(0, -k): positive only when the scalar has gone negative."""
    return max(0.0, -float(k))


class Workspace:
    """Flattened, canonically ordered view of a dataset for batch loss.

    Curves are ordered by (fitting group, curve id) and points within a
    curve by ascending Ci, independent of input order, so losses and
    gradients are invariant to permutations of the input. Each fitting
    group's curves, points and main-four entries are therefore
    contiguous, and the *_spans attributes hold each group's (start,
    end) over them. fixed holds the operands `_fixed_operands` built
    last, and fixed_key what they were built from.
    """

    __slots__ = ("ci", "a", "qin", "tk", "pt_entry", "pt_group",
                 "seg_starts", "seg_lengths", "last_flat", "is_light",
                 "light_pt", "any_light", "light_only", "curve_ids",
                 "curve_entry", "curve_group", "n_points", "n_curves",
                 "co2_curves", "corr_groups", "orig_index",
                 "n_groups", "group_n",
                 "pt_spans", "curve_spans", "co2_spans", "entry_spans",
                 "column_spans", "entry_group", "co2_group",
                 "fixed_key", "fixed")

    def __init__(self, dataset: Dataset, params: ParameterState):
        by_id = {c.curve_id: c for c in dataset.curves}
        if set(by_id) != set(params.curve_ids):
            raise FvcbError("parameter state and dataset disagree on curve ids")
        ci, a, qin, tl, orig = [], [], [], [], []
        starts, lengths, is_light = [], [], []
        pt_entry, pt_group = [], []
        pos = 0
        for i, cid in enumerate(params.curve_ids):
            curve = by_id[cid]
            n = curve.n_points
            order = np.lexsort((np.arange(n), curve.ci))
            ci.append(curve.ci[order])
            a.append(curve.a[order])
            qin.append(curve.qin[order])
            tl.append(curve.tleaf_c[order])
            orig.append(order)
            starts.append(pos)
            lengths.append(n)
            is_light.append(curve.kind is CurveKind.LightResponse)
            pt_entry.append(np.full(n, params.entry_of[i], dtype=np.intp))
            pt_group.append(np.full(n, params.group_of[i], dtype=np.intp))
            pos += n
        self.ci = np.concatenate(ci)
        self.a = np.concatenate(a)
        self.qin = np.concatenate(qin)
        self.tk = np.concatenate(tl) + 273.15
        self.pt_entry = np.concatenate(pt_entry)
        self.pt_group = np.concatenate(pt_group)
        self.seg_starts = np.asarray(starts, dtype=np.intp)
        self.seg_lengths = np.asarray(lengths, dtype=np.intp)
        self.last_flat = self.seg_starts + self.seg_lengths - 1
        self.is_light = np.asarray(is_light, dtype=bool)
        self.light_pt = np.repeat(self.is_light, self.seg_lengths)
        self.any_light = bool(self.is_light.any())
        self.light_only = bool(self.is_light.all())
        self.curve_ids = params.curve_ids
        self.curve_entry = params.entry_of
        self.curve_group = params.group_of
        self.n_points = int(self.ci.shape[0])
        self.n_curves = len(params.curve_ids)
        self.co2_curves = np.flatnonzero(~self.is_light)
        self.orig_index = orig
        self.entry_group = np.empty(params.n_entries, dtype=np.intp)
        self.entry_group[params.entry_of] = params.group_of
        self.co2_group = params.group_of[self.co2_curves]
        k = params.n_groups
        self.n_groups = k
        cuts = np.searchsorted(params.group_of, np.arange(k + 1))
        pt_cuts = np.append(self.seg_starts, self.n_points)[cuts]
        self.curve_spans = _spans(cuts)
        self.pt_spans = _spans(pt_cuts)
        self.co2_spans = _spans(np.searchsorted(self.co2_curves, cuts))
        self.entry_spans = _spans(np.searchsorted(self.entry_group,
                                                  np.arange(k + 1)))
        self.column_spans = _spans(np.arange(k + 1))
        self.group_n = np.diff(pt_cuts).astype(np.float64)
        # groups eligible for the correlation penalty
        self.corr_groups = []
        if not params.onefit:
            for gi in range(params.n_groups):
                entries = params.entry_of[params.group_of == gi]
                if entries.shape[0] >= MIN_CURVES_FOR_R:
                    self.corr_groups.append((gi, entries.copy()))
        self.fixed_key = self.fixed = None


def _spans(cuts) -> list:
    c = cuts.tolist()
    return list(zip(c[:-1], c[1:]))


def _group_sum(x, spans):
    """x summed over each group's span.

    Each span is summed on its own with .sum(), so a group's sum has the
    bits it has in a workspace of that group alone; np.add.reduceat
    would add in a different order.
    """
    return np.array([x[a:b].sum() for a, b in spans])


def _site_co2(ci, a, gm):
    """C = Ci - A/g_m, one node when g_m is a Var."""
    gv = value(gm)
    q = a / gv
    return fuse(ci - q, (gm,), lambda g: (g * q / gv,))


def _fixed_operands(ws: Workspace, params: ParameterState,
                    config: FitConfig, leaves) -> dict:
    """The per-point operands of `_evaluate` that depend only on the data
    and on fields that are not autodiff leaves, kept on the workspace
    until one of their inputs changes (see the module docstring).

    Entries that do not apply are None:
      inv_t, tf: 1/T and 1/298 - 1/T (temp_type >= 1);
      e_rd: the Arrhenius factor of Rd (temp_type >= 1);
      kin: Kc, Ko and Gamma* at each point, temperature-scaled (no
        kinetic leaf); Kc and Ko are None when terms is set;
      e_kin: the Arrhenius factors of Kc, Ko and Gamma* (temp_type >= 1
        with kinetic leaves);
      terms, fac: (C + Kc(1 + O/Ko), 4(C + 2 Gamma*)) and 1 - Gamma*/C
        (no kinetic leaf and no fit_gm).
    """
    kin = not any(name in leaves for name in KINETICS)
    warm = config.temp_type >= 1
    c_fixed = not config.fit_gm
    key = (warm, c_fixed, params.constants,
           tuple(getattr(params, name).tobytes() for name in KINETICS)
           if kin else None)
    if ws.fixed_key == key:
        return ws.fixed
    cn = params.constants
    fx = dict.fromkeys(("inv_t", "tf", "e_rd", "kin", "e_kin", "terms",
                        "fac"))
    if warm:
        fx["inv_t"], fx["tf"] = _temperature_terms(ws.tk)
        fx["e_rd"], *e_kin = (_arrhenius_factor(h, fx["tf"], cn.r_gas)
                              for h in (cn.dha_rd, cn.dha_kc, cn.dha_ko,
                                        cn.dha_gamma))
    if kin:
        kc, ko, gamma = (getattr(params, name)[ws.pt_group]
                         for name in KINETICS)
        if warm:
            kc, ko, gamma = (k * e for k, e in zip((kc, ko, gamma), e_kin))
        if c_fixed:
            fx["terms"] = _kinetic_terms(ws.ci, gamma, kc, ko, cn.o2)[2:]
            fx["fac"] = _gamma_factor(gamma, ws.ci)
            kc = ko = None
        fx["kin"] = (kc, ko, gamma)
    elif warm:
        fx["e_kin"] = e_kin
    ws.fixed_key, ws.fixed = key, fx
    return fx


def _scaled(k, e):
    """k times a constant factor e, one node when k is a Var."""
    return fuse(value(k) * e, (k,), lambda g: (g * e,))


def _gamma_factor(gamma, c):
    """The photorespiratory factor 1 - Gamma*/C."""
    gv, cv = value(gamma), value(c)
    q = gv / cv
    return fuse(1.0 - q, (gamma, c), lambda g: (-g / cv, g * q / cv))


def _gather_sigmoid(raw, idx):
    """sigmoid(raw)[idx]: the logistic taken per group, its VJP per point."""
    rv = value(raw)
    out = sigmoid(rv)[idx]
    return fuse(out, (raw,), lambda g: (
        np.bincount(idx, weights=g * out * (1.0 - out), minlength=rv.shape[0]),))


def _relu(x):
    return np.where(x > 0.0, x, 0.0)


def _segment_argmin(x, ws: Workspace) -> np.ndarray:
    """np.argmin of each curve's segment of x, as flat indices.

    The first index wins ties, and a NaN counts as the minimum.
    """
    low = np.repeat(np.minimum.reduceat(x, ws.seg_starts), ws.seg_lengths)
    hits = np.flatnonzero((x <= low) | np.isnan(x))
    # every segment holds a hit: its minimum, or a NaN
    return hits[np.searchsorted(hits, ws.seg_starts)]


def _penalties(ws: Workspace, config: FitConfig, rates, valid, fac, rd,
               vcmax25, jmax25, nonneg):
    """The penalty block as one node.

    Its value is [p_cjp, p_c_gt_j, p_c_lt_j, p_j_lt_p, p_corr,
    p_nonneg], each a vector over the groups. It reads the rates
    through A_x = W_x * fac - rd; nonneg lists the fitted scalars whose
    negative part is penalized: main-four fields (one column per entry)
    or shared ones (one per group).
    """
    wc, wj, wp = value(rates)
    fv, rv = value(fac), value(rd)
    aj = wj * fv - rv
    ac = wc * fv - rv
    d = ac - aj
    co2 = ws.co2_curves
    n = ws.n_points
    p_cjp = p_tpu = p_nn = np.zeros(ws.n_groups)
    p_corr = np.zeros(ws.n_groups)

    def a_p(idx):
        # A_p is read at a few points only
        return wp[idx] * fv[idx] - rv[idx]

    if co2.shape[0]:
        # ordering penalty at the closest A_c/A_j point of each curve
        jc = _segment_argmin(np.abs(d), ws)[co2]
        ajj, acj = aj[jc], ac[jc]
        take_j = ajj >= acj
        z_cjp = np.where(take_j, ajj, acj) - np.where(valid[jc], a_p(jc), _BIG)
        p_cjp = _group_sum(_relu(z_cjp), ws.co2_spans)

    nd = 0.0 - d
    pos_d, pos_nd = d > 0.0, nd > 0.0
    z_gt = config.beta - np.add.reduceat(np.where(pos_d, d, 0.0),
                                         ws.seg_starts)
    z_lt = config.beta - np.add.reduceat(np.where(pos_nd, nd, 0.0),
                                         ws.seg_starts)
    p_cgj = _group_sum(_relu(z_gt), ws.curve_spans)
    p_clj = _group_sum(_relu(z_lt), ws.curve_spans)

    tpu_on = config.tpu_penalty and co2.shape[0]
    if tpu_on:
        last = ws.last_flat[co2]
        ok = valid[last].astype(np.float64)
        z_tpu = a_p(last) - aj[last]
        p_tpu = _group_sum(_relu(z_tpu) * ok, ws.co2_spans)

    corr = []
    if vcmax25 is not None:
        xs, ys = value(vcmax25), value(jmax25)
        for gi, entries in ws.corr_groups:
            x, y = xs[entries], ys[entries]
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                continue  # undefined correlation; penalty skipped
            m = float(entries.shape[0])
            xc = x - x.sum() / m
            yc = y - y.sum() / m
            sxx, syy = (xc * xc).sum(), (yc * yc).sum()
            den = np.sqrt(sxx * syy)
            r = (xc * yc).sum() / den
            # one correlation group per fitting group
            p_corr[gi] = _relu(0.7 - r)
            corr.append((gi, entries, m, xc, yc, sxx, syy, den, r))

    # the columns of each nonneg term, their groups and the groups' spans
    cols = [(ws.entry_group, ws.entry_spans)
            if value(t).shape == ws.entry_group.shape
            else (np.arange(ws.n_groups), ws.column_spans) for t in nonneg]
    for term, (_, spans) in zip(nonneg, cols):
        p_nn = p_nn + _group_sum(_relu(0.0 - value(term)), spans)

    pens = np.array([p_cjp, p_cgj, p_clj, p_tpu, p_corr, p_nn])

    def vjp(g):
        # d <- (relu(d), relu(0 - d)) through the per-curve margin sums;
        # A_c's cotangent starts as d's
        cg = ws.curve_group
        g_ac = np.repeat(-(g[1][cg] * (z_gt > 0.0)), ws.seg_lengths)
        g_ac *= pos_d
        g_lt = np.repeat(-(g[2][cg] * (z_lt > 0.0)), ws.seg_lengths)
        g_lt *= pos_nd
        g_ac -= g_lt
        del g_lt
        # A_j <- (closest-point max, d, last point); A_c <- (max, d);
        # A_p <- (closest point, last point)
        g_aj = -g_ac
        g_ap = np.zeros(n)
        if co2.shape[0]:
            g_hi = g[0][ws.co2_group] * (z_cjp > 0.0)
            g_aj[jc] += g_hi * take_j
            g_ac[jc] += g_hi * ~take_j
            g_ap[jc] = -g_hi * valid[jc]
        if tpu_on:
            g_last = g[3][ws.co2_group] * ok * (z_tpu > 0.0)
            g_aj[last] += -g_last
            g_ap[last] += g_last
        g_rates = np.empty((3, n))
        for out, g_a in zip(g_rates, (g_ac, g_aj, g_ap)):
            np.multiply(g_a, fv, out=out)
        g_fac = [None] * 3
        if isinstance(fac, Var):
            g_fac = [g_ac * wc, g_ap * wp, g_aj * wj]
        for g_a in (g_ac, g_ap, g_aj):
            np.negative(g_a, out=g_a)  # A = W * fac - rd
        g_x = g_y = None
        if corr:
            g_x, g_y = np.zeros(xs.shape[0]), np.zeros(ys.shape[0])
        for gi, entries, m, xc, yc, sxx, syy, den, r in corr:
            g_r = -(g[4][gi] * (0.7 - r > 0.0))
            g_num = g_r / den
            g_prod = 0.5 * (-g_r * r / den) / den if den > 0.0 else 0.0
            for out, a, b, g_aa in ((g_x, xc, yc, g_prod * syy),
                                    (g_y, yc, xc, g_prod * sxx)):
                g_a = g_num * b + g_aa * a + g_aa * a
                out[entries] = g_a + (-g_a).sum() / m
        return ([g_ac, g_ap, g_aj, g_rates] + g_fac + [g_x, g_y]
                + [-(g[5][grp] * (0.0 - value(t) > 0.0))
                   for t, (grp, _) in zip(nonneg, cols)])

    # rd's three cotangents come first, so each is summed and let go
    # before the rates' is added
    return fuse(pens, [rd, rd, rd, rates, fac, fac, fac, vcmax25, jmax25]
                + list(nonneg), vjp)


def _objective(ws: Workspace, rates, fac, rd, pens):
    """The MSE of A = min(Wc, Wj, Wp) * fac - rd plus the penalties.

    One node; returns (total, mse, pred), total and mse with one entry
    per group. Each group's MSE is divided by its own point count. On
    light-response curves Wp takes part in the minimum but receives no
    gradient.
    """
    wc, wj, wp = value(rates)
    fv, rv = value(fac), value(rd)
    take_c = wc <= wj
    wcj = np.where(take_c, wc, wj)
    take_cj = wcj <= wp
    w = np.where(take_cj, wcj, wp)
    pred = w * fv - rv
    resid = pred - ws.a
    n = ws.group_n
    mse = _group_sum(resid * resid, ws.pt_spans) / n
    p = value(pens)
    total = mse + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]
    if not isinstance(fac, Var):
        w = None  # read by the VJP only for fac

    def vjp(g):
        g_pred = pred - ws.a
        g_pred *= (g / n)[ws.pt_group]
        g_pred += g_pred
        # g_w, then g_wcj, are built in the rows they end up scaling
        g_rates = np.empty((3, ws.n_points))
        g_wc, g_wj, g_wp = g_rates
        np.multiply(g_pred, fv, out=g_wp)
        np.multiply(g_wp, take_cj, out=g_wj)
        np.multiply(g_wj, take_c, out=g_wc)
        g_wj *= ~take_c
        g_wp *= ~take_cj
        if ws.any_light:
            g_wp *= ~ws.light_pt
        g_fac = g_pred * w if isinstance(fac, Var) else None
        np.negative(g_pred, out=g_pred)  # pred = w * fac - rd
        return g_rates, g_fac, g_pred, np.broadcast_to(g, (6,) + g.shape)

    return fuse(total, (rates, fac, rd, pens), vjp), mse, pred


def _evaluate(ws: Workspace, params: ParameterState, config: FitConfig,
              fitted: tuple = ()):
    """Loss of a workspace; the one evaluator for values and gradients.

    With `fitted` empty every operand is a plain ndarray and the result
    is a pure numpy computation. Each name in `fitted` becomes an
    autodiff leaf instead, and the returned total is a Var.

    Returns (total, LossBreakdown, leaves, aux) where aux carries
    per-curve diagnostics (the A_p - A_j gap at the last point, and its
    validity) computed from forward values, the prediction, and the
    breakdown's terms before they are summed over groups. total has one
    entry per group.
    """
    cn = params.constants
    r_gas = cn.r_gas
    leaves = {name: Var(getattr(params, name)) for name in fitted}

    def P(name):
        return leaves[name] if name in leaves else getattr(params, name)

    fx = _fixed_operands(ws, params, config, leaves)
    ve = gather(P("vcmax25"), ws.pt_entry)
    je = gather(P("jmax25"), ws.pt_entry)
    te = gather(P("tpu25"), ws.pt_entry)
    rd = gather(P("rd25"), ws.pt_entry)
    if fx["kin"] is None:
        kc, ko, gamma = (gather(P(name), ws.pt_group) for name in KINETICS)
    else:
        kc, ko, gamma = fx["kin"]
    ag = _gather_sigmoid(P("alpha_g_raw"), ws.pt_group)

    c = ws.ci
    if config.fit_gm:
        c = _site_co2(ws.ci, ws.a, gather(P("gm"), ws.pt_group))
        bad = value(c) <= 0.0
        if bad.any():
            raise NonPositiveC("C_i - A/g_m went non-positive",
                               groups=np.unique(ws.pt_group[bad]).tolist())

    if config.temp_type >= 1:
        # Rd and the kinetic constants follow plain Arrhenius with fixed
        # activation energies
        rd = _scaled(rd, fx["e_rd"])
        if fx["e_kin"] is not None:
            kc, ko, gamma = (_scaled(k, e)
                             for k, e in zip((kc, ko, gamma), fx["e_kin"]))
    tf = fx["tf"]
    if config.temp_type == 1:
        ve = _arrhenius(ve, gather(P("dha_vcmax"), ws.pt_group), tf, r_gas)
        je = _arrhenius(je, gather(P("dha_jmax"), ws.pt_group), tf, r_gas)
        te = _arrhenius(te, gather(P("dha_tpu"), ws.pt_group), tf, r_gas)
    elif config.temp_type == 2:
        inv_t = fx["inv_t"]
        ve = _peaked_arrhenius(ve, gather(P("dha_vcmax"), ws.pt_group),
                               cn.dhd_vcmax,
                               gather(P("topt_vcmax"), ws.pt_group),
                               inv_t, tf, r_gas)
        je = _peaked_arrhenius(je, gather(P("dha_jmax"), ws.pt_group),
                               cn.dhd_jmax,
                               gather(P("topt_jmax"), ws.pt_group),
                               inv_t, tf, r_gas)
        te = _peaked_arrhenius(te, gather(P("dha_tpu"), ws.pt_group),
                               cn.dhd_tpu,
                               gather(P("topt_tpu"), ws.pt_group),
                               inv_t, tf, r_gas)

    if config.light_type == 0:
        j = je
    else:
        j = electron_transport(ws.qin, je, gather(P("alpha"), ws.pt_group),
                               gather(P("theta"), ws.pt_group),
                               config.light_type)

    rates, valid = limitation_rates(c, ve, j, te, gamma, kc, ko, cn.o2, ag,
                                    big=_BIG, terms=fx["terms"])
    fac = _gamma_factor(gamma, c) if fx["fac"] is None else fx["fac"]

    pens = np.zeros((6, ws.n_groups))
    if config.penalties:
        # only parameters the configuration actually fits are penalized
        eligible = set(fitted) if fitted \
            else set(fitted_fields(config, ws.light_only))
        nonneg = []
        if config.positive_rd and "rd25" in eligible:
            nonneg.append(P("rd25"))
        for name in ("dha_vcmax", "dha_jmax", "dha_tpu", "alpha", "theta"):
            if name in eligible:
                nonneg.append(P(name))
        # created before the objective, so the backward walk reaches the
        # objective first: rd and fac then sum their cotangents in the
        # order pred, A_c, A_p, A_j
        corr = config.r_penalty and ws.corr_groups
        pens = _penalties(ws, config, rates, valid, fac, rd,
                          P("vcmax25") if corr else None,
                          P("jmax25") if corr else None, nonneg)
    total, mse_value, pred = _objective(ws, rates, fac, rd, pens)

    lf = ws.last_flat
    w_last = value(rates)[:, lf] * value(fac)[lf] - value(rd)[lf]
    p = value(pens)
    aux = {
        "tpu_gap": np.where(valid[lf], w_last[2] - w_last[1], np.nan),
        "tpu_valid": valid[lf] & ~ws.is_light,
        "pred": pred,
        "terms": (mse_value, *p, value(total)),
    }
    return total, _breakdown(aux["terms"]), leaves, aux


def _breakdown(terms) -> LossBreakdown:
    """LossBreakdown of (mse, six penalties, total), each term summed
    over the groups in group order."""
    return LossBreakdown(*(sum(t.tolist()) for t in terms))


def total_loss(dataset: Dataset, params: ParameterState,
               config: FitConfig | None = None) -> LossBreakdown:
    """Evaluate the full objective over a dataset.

    On several fitting groups each term is the sum, in group order, of
    the terms each group has on its own.
    """
    config = config or FitConfig()
    ws = Workspace(dataset, params)
    _, breakdown, _, _ = _evaluate(ws, params, config)
    return breakdown

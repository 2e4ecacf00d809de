"""The penalty-augmented fitting objective.

total = MSE over all retained points (one global n)
      + per CO2 curve:  the limitation-ordering penalty at the point
                        where A_c and A_j are closest, and the
                        TPU-transition penalty at the highest Ci
      + per curve:      two intersection penalties forcing A_c and A_j
                        to cross with a summed margin of at least beta
      + per group:      an optional Vcmax/Jmax correlation penalty
                        (groups of >= 7 curves)
      + per fitted scalar that must stay non-negative: max(0, -k).

The standalone penalty functions below operate on plain numpy series
and define the reference semantics; the batched evaluator `total_loss`
computes the same quantities vectorized across curves, and doubles as
the gradient graph builder when handed autodiff leaves. In that graph
the penalty block is one node and the prediction, its residual, the
MSE and the total are another; each has a hand-written VJP.

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
from .model import arrhenius, electron_transport, limitation_rates, \
    peaked_arrhenius
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
    gradients are invariant to permutations of the input.
    """

    __slots__ = ("ci", "a", "qin", "tk", "pt_entry", "pt_group",
                 "seg_starts", "seg_lengths", "last_flat", "is_light",
                 "light_pt", "any_light", "light_only", "curve_ids",
                 "curve_entry", "curve_group", "n_points", "n_curves",
                 "co2_curves", "corr_groups", "orig_index", "pos")

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
        self.pos = np.arange(self.n_points)
        self.n_curves = len(params.curve_ids)
        self.co2_curves = np.flatnonzero(~self.is_light)
        self.orig_index = orig
        # groups eligible for the correlation penalty
        self.corr_groups = []
        if not params.onefit:
            for gi in range(params.n_groups):
                entries = params.entry_of[params.group_of == gi]
                if entries.shape[0] >= MIN_CURVES_FOR_R:
                    self.corr_groups.append((gi, entries.copy()))


def _site_co2(ci, a, gm):
    """C = Ci - A/g_m, one node when g_m is a Var."""
    gv = value(gm)
    q = a / gv
    return fuse(ci - q, (gm,), lambda g: (g * q / gv,))


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
    hit = (x <= low) | np.isnan(x)
    return np.minimum.reduceat(np.where(hit, ws.pos, ws.n_points),
                               ws.seg_starts)


def _penalties(ws: Workspace, config: FitConfig, rates, valid, fac, rd,
               vcmax25, jmax25, nonneg):
    """The penalty block as one node.

    Its value is [p_cjp, p_c_gt_j, p_c_lt_j, p_j_lt_p, p_corr,
    p_nonneg]. It reads the rates through A_x = W_x * fac - rd; nonneg
    lists the fitted scalars whose negative part is penalized.
    """
    wc, wj, wp = value(rates)
    fv, rv = value(fac), value(rd)
    aj = wj * fv - rv
    ac = wc * fv - rv
    d = ac - aj
    co2 = ws.co2_curves
    n = ws.n_points
    p_cjp = p_tpu = p_corr = p_nn = 0.0

    def a_p(idx):
        # A_p is read at a few points only
        return wp[idx] * fv[idx] - rv[idx]

    if co2.shape[0]:
        # ordering penalty at the closest A_c/A_j point of each curve
        jc = _segment_argmin(np.abs(d), ws)[co2]
        ajj, acj = aj[jc], ac[jc]
        take_j = ajj >= acj
        z_cjp = np.where(take_j, ajj, acj) - np.where(valid[jc], a_p(jc), _BIG)
        p_cjp = _relu(z_cjp).sum()

    nd = 0.0 - d
    pos_d, pos_nd = d > 0.0, nd > 0.0
    z_gt = config.beta - np.add.reduceat(np.where(pos_d, d, 0.0),
                                         ws.seg_starts)
    z_lt = config.beta - np.add.reduceat(np.where(pos_nd, nd, 0.0),
                                         ws.seg_starts)
    p_cgj = _relu(z_gt).sum()
    p_clj = _relu(z_lt).sum()

    tpu_on = config.tpu_penalty and co2.shape[0]
    if tpu_on:
        last = ws.last_flat[co2]
        ok = valid[last].astype(np.float64)
        z_tpu = a_p(last) - aj[last]
        p_tpu = (_relu(z_tpu) * ok).sum()

    corr = []
    if vcmax25 is not None:
        xs, ys = value(vcmax25), value(jmax25)
        for _, entries in ws.corr_groups:
            x, y = xs[entries], ys[entries]
            if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
                continue  # undefined correlation; penalty skipped
            m = float(entries.shape[0])
            xc = x - x.sum() / m
            yc = y - y.sum() / m
            sxx, syy = (xc * xc).sum(), (yc * yc).sum()
            den = np.sqrt(sxx * syy)
            r = (xc * yc).sum() / den
            p_corr = p_corr + _relu(0.7 - r)
            corr.append((entries, m, xc, yc, sxx, syy, den, r))

    for term in nonneg:
        p_nn = p_nn + _relu(0.0 - value(term)).sum()

    pens = np.array([p_cjp, p_cgj, p_clj, p_tpu, p_corr, p_nn])

    def vjp(g):
        # d <- (relu(d), relu(0 - d)) through the per-curve margin sums
        g_d = (np.repeat(-(g[1] * (z_gt > 0.0)), ws.seg_lengths) * pos_d
               - np.repeat(-(g[2] * (z_lt > 0.0)), ws.seg_lengths) * pos_nd)
        # A_j <- (closest-point max, d, last point); A_c <- (max, d);
        # A_p <- (closest point, last point)
        g_aj = -g_d
        g_ac = g_d.copy()
        g_ap = np.zeros(n)
        if co2.shape[0]:
            g_hi = g[0] * (z_cjp > 0.0)
            g_aj[jc] += g_hi * take_j
            g_ac[jc] += g_hi * ~take_j
            g_ap[jc] = -g_hi * valid[jc]
        if tpu_on:
            g_last = g[3] * ok * (z_tpu > 0.0)
            g_aj[last] += -g_last
            g_ap[last] += g_last
        g_rates = np.empty((3, n))
        g_rates[0], g_rates[1], g_rates[2] = g_ac * fv, g_aj * fv, g_ap * fv
        g_fac = [None] * 3
        if isinstance(fac, Var):
            g_fac = [g_ac * wc, g_ap * wp, g_aj * wj]
        g_x = g_y = None
        if corr:
            g_x, g_y = np.zeros(xs.shape[0]), np.zeros(ys.shape[0])
        for entries, m, xc, yc, sxx, syy, den, r in corr:
            g_r = -(g[4] * (0.7 - r > 0.0))
            g_num = g_r / den
            g_prod = 0.5 * (-g_r * r / den) / den if den > 0.0 else 0.0
            for out, a, b, g_aa in ((g_x, xc, yc, g_prod * syy),
                                    (g_y, yc, xc, g_prod * sxx)):
                g_a = g_num * b + g_aa * a + g_aa * a
                out[entries] = g_a + (-g_a).sum() / m
        return ([g_rates, -g_ac, -g_ap, -g_aj] + g_fac + [g_x, g_y]
                + [-(g[5] * (0.0 - value(t) > 0.0)) for t in nonneg])

    return fuse(pens, [rates, rd, rd, rd, fac, fac, fac, vcmax25, jmax25]
                + list(nonneg), vjp)


def _objective(ws: Workspace, rates, fac, rd, pens):
    """The MSE of A = min(Wc, Wj, Wp) * fac - rd plus the penalties.

    One node; returns (total, mse, pred). On light-response curves Wp
    takes part in the minimum but receives no gradient.
    """
    wc, wj, wp = value(rates)
    fv, rv = value(fac), value(rd)
    take_c = wc <= wj
    wcj = np.where(take_c, wc, wj)
    take_cj = wcj <= wp
    w = np.where(take_cj, wcj, wp)
    pred = w * fv - rv
    resid = pred - ws.a
    n = float(ws.n_points)
    mse = (resid * resid).sum() / n
    p = value(pens)
    total = mse + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]

    def vjp(g):
        t = g / n * resid
        g_pred = t + t
        g_w = g_pred * fv
        g_wcj = g_w * take_cj
        g_rates = np.empty((3, ws.n_points))
        g_rates[0] = g_wcj * take_c
        g_rates[1] = g_wcj * ~take_c
        g_rates[2] = g_w * ~take_cj
        if ws.any_light:
            g_rates[2] *= ~ws.light_pt
        g_fac = g_pred * w if isinstance(fac, Var) else None
        return g_rates, g_fac, -g_pred, np.broadcast_to(g, (6,))

    return fuse(total, (rates, fac, rd, pens), vjp), mse, pred


def _evaluate(ws: Workspace, params: ParameterState, config: FitConfig,
              fitted: tuple = ()):
    """Loss of a workspace; the one evaluator for values and gradients.

    With `fitted` empty every operand is a plain ndarray and the result
    is a pure numpy computation. Each name in `fitted` becomes an
    autodiff leaf instead, and the returned total is a Var.

    Returns (total, LossBreakdown, leaves, aux) where aux carries
    per-curve diagnostics (the A_p - A_j gap at the last point, and its
    validity) computed from forward values.
    """
    cn = params.constants
    r_gas = cn.r_gas
    leaves = {name: Var(getattr(params, name)) for name in fitted}

    def P(name):
        return leaves[name] if name in leaves else getattr(params, name)

    ve = gather(P("vcmax25"), ws.pt_entry)
    je = gather(P("jmax25"), ws.pt_entry)
    te = gather(P("tpu25"), ws.pt_entry)
    rd = gather(P("rd25"), ws.pt_entry)
    kc = gather(P("kc25"), ws.pt_group)
    ko = gather(P("ko25"), ws.pt_group)
    gamma = gather(P("gamma25"), ws.pt_group)
    ag = _gather_sigmoid(P("alpha_g_raw"), ws.pt_group)

    c = ws.ci
    if config.fit_gm:
        c = _site_co2(ws.ci, ws.a, gather(P("gm"), ws.pt_group))
        if np.any(value(c) <= 0.0):
            raise NonPositiveC("C_i - A/g_m went non-positive")

    if config.temp_type >= 1:
        # Rd and the kinetic constants follow plain Arrhenius with fixed
        # activation energies
        rd = arrhenius(rd, cn.dha_rd, ws.tk, r_gas)
        kc = arrhenius(kc, cn.dha_kc, ws.tk, r_gas)
        ko = arrhenius(ko, cn.dha_ko, ws.tk, r_gas)
        gamma = arrhenius(gamma, cn.dha_gamma, ws.tk, r_gas)
    if config.temp_type == 1:
        ve = arrhenius(ve, gather(P("dha_vcmax"), ws.pt_group), ws.tk, r_gas)
        je = arrhenius(je, gather(P("dha_jmax"), ws.pt_group), ws.tk, r_gas)
        te = arrhenius(te, gather(P("dha_tpu"), ws.pt_group), ws.tk, r_gas)
    elif config.temp_type == 2:
        ve = peaked_arrhenius(ve, gather(P("dha_vcmax"), ws.pt_group),
                              cn.dhd_vcmax, gather(P("topt_vcmax"), ws.pt_group),
                              ws.tk, r_gas)
        je = peaked_arrhenius(je, gather(P("dha_jmax"), ws.pt_group),
                              cn.dhd_jmax, gather(P("topt_jmax"), ws.pt_group),
                              ws.tk, r_gas)
        te = peaked_arrhenius(te, gather(P("dha_tpu"), ws.pt_group),
                              cn.dhd_tpu, gather(P("topt_tpu"), ws.pt_group),
                              ws.tk, r_gas)

    if config.light_type == 0:
        j = je
    else:
        j = electron_transport(ws.qin, je, gather(P("alpha"), ws.pt_group),
                               gather(P("theta"), ws.pt_group),
                               config.light_type)

    rates, valid = limitation_rates(c, ve, j, te, gamma, kc, ko, cn.o2, ag,
                                    big=_BIG)
    fac = _gamma_factor(gamma, c)

    pens = np.zeros(6)
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
    }
    breakdown = LossBreakdown(
        mse=float(mse_value), p_cjp=float(p[0]), p_c_gt_j=float(p[1]),
        p_c_lt_j=float(p[2]), p_j_lt_p=float(p[3]), p_corr=float(p[4]),
        p_nonneg=float(p[5]), total=float(value(total)))
    return total, breakdown, leaves, aux


def total_loss(dataset: Dataset, params: ParameterState,
               config: FitConfig | None = None) -> LossBreakdown:
    """Evaluate the full objective over a dataset."""
    config = config or FitConfig()
    ws = Workspace(dataset, params)
    _, breakdown, _, _ = _evaluate(ws, params, config)
    return breakdown

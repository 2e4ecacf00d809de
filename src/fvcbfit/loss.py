"""The penalty-augmented fitting objective.

Each fitting group is its own problem with its own objective, and the
groups share no parameter:

total = MSE over the group's retained points (divided by the group's n)
      + per CO2 curve:  the limitation-ordering penalty at the point
                        where A_c and A_j are closest, and the
                        TPU-transition penalty at the highest Ci
      + per curve:      two intersection penalties forcing A_c and A_j
                        to cross with a summed margin of at least beta
      + per group:      an optional Vcmax/Jmax correlation penalty
                        (groups of >= 7 curves)
      + per fitted scalar that must stay non-negative: max(0, -k).

Every term is a vector over the groups, each entry with the bits it has
in a workspace of that group alone: a group's sum over its span is the
span's own .sum(), 0.0 plus its pairwise sum (`_group_sum`).
`total_loss` and the LossBreakdown report each term summed over the
groups in group order.

The standalone penalty functions define the reference semantics on plain
series; `_evaluate`, the one composition of the model's primitives,
computes them vectorized across curves and builds the gradient graph.
Its leaves hold the fitted fields' values at the points, Vcmax25, Jmax25
and TPU25 as one (3, n) stack through the temperature response, the
light response and the rates, and `_gradient` sums each leaf row's
cotangent over each column's points. The prediction, the MSE, the four
penalties that read the points and the total are one node
(`_objective`), the one consumer of the rates, rd and the factor
1 - Gamma*/C. Its VJP adds the penalties' part only at the points of
active terms (every point of a curve whose margin term is active, the
closest A_c/A_j point of one whose ordering term is, the last point of
one whose TPU term is), in the order of the sums of a separate penalty
node: rd and fac take the MSE's part, then A_c's, A_p's and A_j's, and
A_j's part sums the margin, ordering and TPU terms in that order. A
dense VJP would add only zeros at the other points, and every per-point
cotangent ends in a leaf whose sum over a column starts from +0.0, so
the gradients are those of the dense VJP bit for bit. The correlation
and non-negativity terms read the parameter columns only: they stay off
the tape (`_column_penalties`), and `_gradient` adds their closed-form
gradient to the points' sums.

Per-point operands that depend only on the data and on fields that are
not fitted are built once per Workspace (`_fixed_operands`).
`predict_curve` and `net_assimilation` run `_evaluate` on a one-curve
workspace with the penalties off.

A_p handling: where Wp is undefined (C below the (1+3*alpha_g)*Gamma*
pole) the point cannot trigger the ordering penalty and adds nothing to
the transition penalty. On light-response curves A_p takes part in the
forward minimum but gets no gradient, and the two A_p penalties are
skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import CELSIUS_OFFSET
from .data_io import COLUMNS, CurveKind, Dataset, ResponseCurve
from . import engine
from .engine import Var, fuse, release, sigmoid, value
from .errors import DegenerateSeries, FvcbError, LengthMismatch, NonPositiveC
from .metrics import pearson_r
from .model import _arrhenius, _arrhenius_factor, _kinetic_terms, \
    _light_response, _peaked_arrhenius, _rates, _temperature_terms
from .params import (MAIN_FOUR, SHARED_FIELDS, FitConfig, ParameterState,
                     fitted_fields)

# Finite stand-in for "not limiting" inside gradient graphs; +inf would
# poison backward passes with inf*0 products.
_BIG = 1e9

MIN_CURVES_FOR_R = 7

KINETICS = ("kc25", "ko25", "gamma25")

FIELDS = MAIN_FOUR + SHARED_FIELDS
# the (3, n) stacks, in row order
RATES = ("vcmax25", "jmax25", "tpu25")
DHA = ("dha_vcmax", "dha_jmax", "dha_tpu")
TOPT = ("topt_vcmax", "topt_jmax", "topt_tpu")


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
    curve by ascending Ci, so losses and gradients do not depend on input
    order, and each group's curves, points and main-four entries are
    contiguous; the *_spans attributes (`_Spans`) hold each group's
    (start, end) over them. orig_index is each point's position in the
    curves' own columns, concatenated in canonical order. fixed holds
    what `_fixed_operands` built last, and fixed_key what from.
    field_at[f, i] is where curve i's value of FIELDS[f] sits in the
    concatenation of the fields' columns.
    """

    __slots__ = ("ci", "a", "qin", "tk", "pt_entry", "pt_group",
                 "seg_starts", "seg_lengths", "last_flat", "is_light",
                 "light_pt", "any_light", "light_only", "curve_ids",
                 "curve_group", "n_points", "co2_curves", "corr_groups",
                 "orig_index", "n_groups", "group_n", "pt_spans",
                 "curve_spans", "co2_spans", "entry_spans", "entry_group",
                 "co2_group", "field_at", "fixed_key", "fixed")

    def __init__(self, dataset: Dataset, params: ParameterState):
        by_id = {c.curve_id: c for c in dataset.curves}
        if set(by_id) != set(params.curve_ids):
            raise FvcbError("parameter state and dataset disagree on curve ids")
        curves = [by_id[cid] for cid in params.curve_ids]
        lengths = [c.n_points for c in curves]
        self.seg_lengths = np.asarray(lengths, dtype=np.intp)
        self.seg_starts = np.cumsum(self.seg_lengths) - self.seg_lengths
        self.orig_index = np.concatenate([
            np.lexsort((np.arange(n), c.ci)) for c, n in zip(curves, lengths)
        ]) + np.repeat(self.seg_starts, self.seg_lengths)
        self.ci, self.a, self.qin, tl = (
            np.concatenate([getattr(c, name) for c in curves])[self.orig_index]
            for name in COLUMNS)
        self.tk = tl + CELSIUS_OFFSET
        self.pt_entry = np.repeat(params.entry_of, self.seg_lengths)
        self.pt_group = np.repeat(params.group_of, self.seg_lengths)
        is_light = [c.kind is CurveKind.LightResponse for c in curves]
        self.last_flat = self.seg_starts + self.seg_lengths - 1
        self.is_light = np.asarray(is_light, dtype=bool)
        self.light_pt = np.repeat(self.is_light, self.seg_lengths)
        self.any_light = bool(self.is_light.any())
        self.light_only = bool(self.is_light.all())
        self.curve_ids = params.curve_ids
        self.curve_group = params.group_of
        self.n_points = int(self.ci.shape[0])
        self.co2_curves = np.flatnonzero(~self.is_light)
        self.entry_group = np.empty(params.n_entries, dtype=np.intp)
        self.entry_group[params.entry_of] = params.group_of
        self.co2_group = params.group_of[self.co2_curves]
        k = params.n_groups
        self.n_groups = k
        cuts = np.searchsorted(params.group_of, np.arange(k + 1))
        pt_cuts = np.append(self.seg_starts, self.n_points)[cuts]
        self.curve_spans = _Spans(cuts)
        self.pt_spans = _Spans(pt_cuts)
        self.co2_spans = _Spans(np.searchsorted(self.co2_curves, cuts))
        self.entry_spans = _Spans(np.searchsorted(self.entry_group,
                                                  np.arange(k + 1)))
        self.group_n = np.diff(pt_cuts).astype(np.float64)
        e, main = params.n_entries, len(MAIN_FOUR)
        self.field_at = np.concatenate((
            np.arange(main)[:, None] * e + params.entry_of, main * e
            + np.arange(len(SHARED_FIELDS))[:, None] * k + params.group_of))
        # groups eligible for the correlation penalty
        self.corr_groups = []
        if not params.onefit:
            for gi in range(params.n_groups):
                entries = params.entry_of[params.group_of == gi]
                if entries.shape[0] >= MIN_CURVES_FOR_R:
                    self.corr_groups.append((gi, entries.copy()))
        self.fixed_key = self.fixed = None


class _Spans:
    """Consecutive spans that cover an array, one per group, by their
    cuts (0, ..., n), and for `_group_sum` where each element goes in its
    zero-padded buffer (dest; None for one span), where each padded span
    starts, and the buffer's size."""

    __slots__ = ("cuts", "bounds", "dest", "starts", "size")

    def __init__(self, cuts):
        self.cuts = np.asarray(cuts, dtype=np.intp)
        c = self.cuts.tolist()
        self.bounds = list(zip(c[:-1], c[1:]))
        k = len(self.bounds)
        self.size = c[-1] + k
        self.starts = self.cuts[:-1] + np.arange(k)
        self.dest = None if k == 1 else np.arange(c[-1]) + np.repeat(
            np.arange(1, k + 1), np.diff(self.cuts))


def _group_sum(x, spans: _Spans):
    """x summed over each span, one entry per span, with the bits of the
    span's own .sum(): 0.0 plus its pairwise sum. np.add.reduceat starts
    a span from its first element, so it sums a buffer that holds a 0.0
    before each span. One span is summed directly.
    """
    if spans.dest is None:
        return x.sum(keepdims=True)
    buf = np.zeros(spans.size)
    buf[spans.dest] = x
    return np.add.reduceat(buf, spans.starts)


def _site_co2(ci, a, gm):
    """C = Ci - A/g_m, one node when g_m is a Var."""
    gv = value(gm)
    q = a / gv
    return fuse(ci - q, (gm,), lambda g: (g * q / gv,))


def _fixed_operands(ws: Workspace, params: ParameterState,
                    config: FitConfig, fitted) -> dict:
    """The per-point operands of `_evaluate` that depend only on the data
    and on fields that are not fitted, kept on the workspace until an
    input changes (the kinetic fields' values, the constants, temp_type
    >= 1, fit_gm, or whether the kinetic fields are fitted), each in the
    operation order of the per-evaluation code. Entries are None where
    they do not apply:
      inv_t, tf, e_rd: 1/T, 1/298 - 1/T and Rd's Arrhenius factor
        (temp_type >= 1);
      kin: Kc, Ko and Gamma* at each point, temperature-scaled (no
        kinetic field fitted); Kc and Ko are None when terms is set;
      e_kin: the Arrhenius factors of Kc, Ko and Gamma* (temp_type >= 1,
        kinetic fields fitted);
      terms, fac: (C + Kc(1 + O/Ko), 4(C + 2 Gamma*)) and 1 - Gamma*/C
        (no kinetic field and no g_m fitted).
    """
    kin = not any(name in fitted for name in KINETICS)
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
    out = 1.0 - q
    if not isinstance(c, Var):
        q = None  # read by the VJP only for C
    return fuse(out, (gamma, c), lambda g: (
        -g / cv, None if q is None else g * q / cv))


def _spread_sigmoid(raw, ws: Workspace, at_points):
    """sigmoid of each group's raw value, taken per group and repeated
    over its points. at_points is the leaf at the points that takes the
    VJP, or a constant; nothing reads its values, so it holds none."""
    out = np.repeat(sigmoid(raw)[ws.curve_group], ws.seg_lengths)
    return fuse(out, (at_points,), lambda g: (g * out * (1.0 - out),))


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


def _penalties(ws: Workspace, config: FitConfig, wc, wj, wp, fac, rv,
               valid):
    """The four penalty terms that read the points, on forward values,
    and their VJP.

    Returns (pens, add): pens is [p_cjp, p_c_gt_j, p_c_lt_j, p_j_lt_p],
    each a vector over the groups, read from the rates through
    A_x = W_x * fac - rd. add(g, g_rates, g_fac, g_rd) adds the
    penalties' part of cotangent g to the rates, fac (None when
    constant) and rd cotangents at the points of active terms only.
    """
    fv = value(fac)
    aj = wj * fv - rv
    ac = wc * fv - rv
    d = ac - aj
    co2 = ws.co2_curves
    p_cjp = p_tpu = np.zeros(ws.n_groups)
    # closest points, last points and their terms, where there are any
    jc = last = co2
    z_cjp = z_tpu = np.zeros(0)
    take_j = ok = np.zeros(0, dtype=bool)

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
    s_pos = np.add.reduceat(np.where(pos_d, d, 0.0), ws.seg_starts)
    s_neg = np.add.reduceat(np.where(pos_nd, nd, 0.0), ws.seg_starts)
    z_gt, z_lt = config.beta - s_pos, config.beta - s_neg
    p_cgj = _group_sum(_relu(z_gt), ws.curve_spans)
    p_clj = _group_sum(_relu(z_lt), ws.curve_spans)

    if config.tpu_penalty and co2.shape[0]:
        last = ws.last_flat[co2]
        ok = valid[last]
        z_tpu = a_p(last) - aj[last]
        p_tpu = _group_sum(_relu(z_tpu) * ok, ws.co2_spans)

    pens = np.array([p_cjp, p_cgj, p_clj, p_tpu])
    if not isinstance(fac, Var):
        wc = wj = wp = None  # read by add only for fac

    def add(g, g_rates, g_fac, g_rd):
        # a term's sum is 0 exactly when none of its summands is positive;
        # a margin term reads the points where its sign of A_c - A_j
        # holds, and with none it stays at beta and has no gradient
        none = co2[:0]
        on_cjp = np.flatnonzero(z_cjp > 0.0) if pens[0].any() else none
        on_m = np.flatnonzero((z_gt > 0.0) & (s_pos > 0.0)
                              | (z_lt > 0.0) & (s_neg > 0.0)) \
            if pens[1:3].any() else none
        on_tpu = np.flatnonzero((z_tpu > 0.0) & ok) if pens[3].any() \
            else none
        # the points they read: every point of a curve whose margin term
        # is active, the closest point of one whose ordering term is, the
        # last point of one whose TPU term is
        j_pts, l_pts = jc[on_cjp], last[on_tpu]
        m_pts = none
        if on_m.shape[0]:
            lens = ws.seg_lengths[on_m]
            m_curve = np.repeat(on_m, lens)
            m_pts = np.arange(m_curve.shape[0]) + np.repeat(
                ws.seg_starts[on_m] - (np.cumsum(lens) - lens), lens)
        parts = [p for p in (m_pts, j_pts, l_pts) if p.shape[0]]
        if parts:
            pts = parts[0]
            if len(parts) > 1:
                # sorted and distinct; np.unique would import numpy.ma
                pts = np.sort(np.concatenate(parts))
                pts = pts[np.diff(pts, prepend=-1) != 0]
            # A_c, A_j and A_p there, each summed in the order margin,
            # closest point, last point
            g_ac = np.zeros(pts.shape[0])
            if on_m.shape[0]:
                cg = ws.curve_group
                g_gt, g_lt = -(g[cg] * (z_gt > 0.0)), -(g[cg] * (z_lt > 0.0))
                g_ac[np.searchsorted(pts, m_pts)] = (
                    g_gt[m_curve] * pos_d[m_pts]
                    - g_lt[m_curve] * pos_nd[m_pts])
            g_aj = -g_ac
            g_ap = np.zeros(pts.shape[0])
            if on_cjp.shape[0]:
                at = np.searchsorted(pts, j_pts)
                g_hi, tj = g[ws.co2_group[on_cjp]], take_j[on_cjp]
                g_aj[at] += g_hi * tj
                g_ac[at] += g_hi * ~tj
                g_ap[at] = -g_hi * valid[j_pts]
            if on_tpu.shape[0]:
                at = np.searchsorted(pts, l_pts)
                g_last = g[ws.co2_group[on_tpu]]
                g_aj[at] += -g_last
                g_ap[at] += g_last
            # rd and fac take A_c's part, then A_p's, then A_j's
            g_rates[:, pts] += np.stack((g_ac, g_aj, g_ap)) * fv[pts]
            if g_fac is not None:
                g_fac[pts] = (g_fac[pts] + g_ac * wc[pts] + g_ap * wp[pts]
                              + g_aj * wj[pts])
            g_rd[pts] = g_rd[pts] - g_ac - g_ap - g_aj  # A = W * fac - rd

    return pens, add


def _column_penalties(ws: Workspace, params: ParameterState,
                      config: FitConfig, fitted) -> tuple:
    """The two penalty terms that read the parameter columns only, and
    their gradient, off the tape.

    Returns (p, grads): p is [p_corr, p_nonneg], each a vector over the
    groups: max(0, 0.7 - r) of the per-curve Vcmax25/Jmax25 of each
    group eligible for it (under r_penalty), and max(0, -k) summed over
    the columns of rd25 (under positive_rd), the DHA fields, alpha and
    theta, where the configuration fits them. grads maps each field they
    read to the gradient of their sum over the groups, per column: the
    VJP of the groups' summed total, whose cotangent is 1.0.
    """
    p, grads = np.zeros((2, ws.n_groups)), {}
    if config.r_penalty and ws.corr_groups:
        xs, ys = params.vcmax25, params.jmax25
        g_xy = np.zeros((2, xs.shape[0]))
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
            p[0, gi] = _relu(0.7 - r)
            g_r = -1.0 * (0.7 - r > 0.0)
            g_num = g_r / den
            g_prod = 0.5 * (-g_r * r / den) / den if den > 0.0 else 0.0
            for out, a, b, g_aa in ((g_xy[0], xc, yc, g_prod * syy),
                                    (g_xy[1], yc, xc, g_prod * sxx)):
                g_a = g_num * b + g_aa * a + g_aa * a
                out[entries] = g_a + (-g_a).sum() / m
        grads.update(zip(RATES[:2], g_xy))
    # only parameters the configuration actually fits are penalized
    eligible = set(fitted) if fitted \
        else set(fitted_fields(config, ws.light_only))
    rows = []
    if config.positive_rd and "rd25" in eligible:
        nn = 0.0 - params.rd25
        rows.append(_group_sum(_relu(nn), ws.entry_spans))
        grads["rd25"] = -1.0 * (nn > 0.0)
    shared = [name for name in DHA + ("alpha", "theta") if name in eligible]
    if shared:
        # a shared field's column is its group's row: 0.0 + x is x for
        # x >= +0
        nn = 0.0 - np.array([getattr(params, name) for name in shared])
        rows.extend(_relu(nn))
        grads.update(zip(shared, -1.0 * (nn > 0.0)))
    if rows:
        p[1] = np.add.accumulate(rows)[-1]  # the rows in field order
    return p, grads


def _objective(ws: Workspace, config: FitConfig, rates, valid, fac, rd,
               cols=None, state=False):
    """The MSE of A = min(Wc, Wj, Wp) * fac - rd plus the penalties.

    One node over rates, fac and rd, their one consumer; returns (total,
    terms, pred), total and each term (the MSE, each group's over its
    own point count, the four penalties of `_penalties`, zero without
    config.penalties, and the two of cols, [p_corr, p_nonneg] from
    `_column_penalties`, zero without cols) with one entry per group. On
    light-response curves Wp takes part in the minimum but gets no
    gradient. With state a fourth value follows: the limiting rate at
    each point, "c", "j" or "p", ties to "c", "j".
    """
    wc, wj, wp = value(rates)
    fv, rv = value(fac), value(rd)
    # the penalties first, so that their temporaries are gone before the
    # MSE's are made
    p, add = np.zeros((6, ws.n_groups)), None
    if config.penalties:
        p[:4], add = _penalties(ws, config, wc, wj, wp, fac, rv, valid)
    if cols is not None:
        p[4:] = cols
    take_c = wc <= wj
    wcj = np.where(take_c, wc, wj)
    take_cj = wcj <= wp
    w = np.where(take_cj, wcj, wp)
    pred = w * fv - rv
    resid = pred - ws.a
    n = ws.group_n
    mse = _group_sum(resid * resid, ws.pt_spans) / n
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
        if add is not None:
            add(g, g_rates, g_fac, g_pred)
        return g_rates, g_fac, g_pred

    st = (np.where(take_cj, np.where(take_c, "c", "j"), "p"),) if state else ()
    return fuse(total, (rates, fac, rd), vjp), (mse, *p), pred, *st


def _evaluate(ws: Workspace, params: ParameterState, config: FitConfig,
              fitted: tuple = (), report: bool = True):
    """Loss of a workspace; the one evaluator for values and gradients.

    The fields in `fitted` are read through autodiff leaves, and the
    total is then a Var: one leaf at the points per field, or per stack
    of three (RATES, DHA, TOPT), that holds a fitted field. The column
    penalties and their gradient come from `_column_penalties`, off the
    tape. Once the evaluation is complete, the graph's interior values
    (`engine.release`) and the leaves' values are let go.

    Returns (total, LossBreakdown, leaves, aux); total has one entry per
    group, and leaves, (fitted, [(leaf, its fields)], {field: column
    penalties' gradient}), is what `_gradient` reads. aux holds, in
    canonical order, the last point's A_p - A_j gap per curve and its
    validity, the prediction and limiting state at each point, and the
    terms before they are summed over groups; a fit's report comes from
    it. With report off the breakdown and aux are None.
    """
    cn = params.constants
    points = []
    values = np.concatenate([getattr(params, name) for name in FIELDS])

    def spread(*names):
        # curve values of consecutive FIELDS, repeated over the points: a
        # (rows, n) stack, or (n,) for one field; a leaf if one is fitted
        f = FIELDS.index(names[0])
        at = ws.field_at[f:f + len(names)] if len(names) > 1 \
            else ws.field_at[f]
        return leaf(np.repeat(values[at], ws.seg_lengths, axis=-1), names)

    def leaf(x, names):
        # x, as a leaf at the points if it holds a fitted field
        if any(n in fitted for n in names):
            x = Var(x)
            points.append((x, names))
        return x

    fx = _fixed_operands(ws, params, config, fitted)
    s = spread(*RATES)
    rd = spread("rd25")
    if fx["kin"] is None:
        kc, ko, gamma = (spread(name) for name in KINETICS)
    else:
        kc, ko, gamma = fx["kin"]
    # alpha_g_raw's leaf only ends the sigmoid's VJP: a shape, no values
    ag = _spread_sigmoid(params.alpha_g_raw, ws, leaf(
        np.broadcast_to(0.0, ws.n_points), ("alpha_g_raw",)))

    c = ws.ci
    if config.fit_gm:
        c = _site_co2(ws.ci, ws.a, spread("gm"))
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
    if config.temp_type == 1:
        s = _arrhenius(s, spread(*DHA), fx["tf"], cn.r_gas)
    elif config.temp_type == 2:
        dhd = np.array([[cn.dhd_vcmax], [cn.dhd_jmax], [cn.dhd_tpu]])
        s = _peaked_arrhenius(s, spread(*DHA), dhd, spread(*TOPT),
                              fx["inv_t"], fx["tf"], cn.r_gas)
    if config.light_type >= 1:
        s = _light_response(ws.qin, s, spread("alpha"), spread("theta")
                            if config.light_type == 2 else None,
                            config.light_type)

    rates, valid, vjp = _rates(c, value(s), gamma, kc, ko, cn.o2, ag, _BIG,
                               fx["terms"])
    rates = fuse(rates, (c, s, gamma, kc, ko, ag), vjp)
    fac = _gamma_factor(gamma, c) if fx["fac"] is None else fx["fac"]

    cols, direct = _column_penalties(ws, params, config, fitted) \
        if config.penalties else (None, {})
    total, terms, pred, *state = _objective(ws, config, rates, valid, fac,
                                            rd, cols, state=report)
    if report:
        lf = ws.last_flat
        w_last = value(rates)[:, lf] * value(fac)[lf] - value(rd)[lf]
        aux = {
            "tpu_gap": np.where(valid[lf], w_last[2] - w_last[1], np.nan),
            "tpu_valid": valid[lf] & ~ws.is_light,
            "pred": pred, "state": state[0],
            "terms": (*terms, value(total)),
        }
    if isinstance(total, Var):
        release(total)
        for x, _ in points:
            x.v = None
    leaves = (fitted, points, direct)
    if not report:
        return total, None, leaves, None
    return total, _breakdown(aux["terms"]), leaves, aux


def _gradient(ws: Workspace, total: Var, leaves) -> np.ndarray:
    """The gradient of an `_evaluate` total, summed over its groups: the
    fitted fields in order, one coordinate per main-four entry or group.
    A coordinate is its field's per-point cotangent summed over its
    points in order, plus the column penalties' gradient. These two terms
    are all it sums, so the order of their sum keeps its bits; a field
    the configuration does not read gets zeros."""
    fitted, points, direct = leaves
    cots = engine.grad(total, [x for x, _ in points])
    rows = {}
    for (_, names), g in zip(points, cots):
        rows.update(zip(names, g if len(names) > 1 else [g]))
    out = []
    for name in fitted:
        main = name in MAIN_FOUR
        size = ws.entry_group.shape[0] if main else ws.n_groups
        col = np.bincount(ws.pt_entry if main else ws.pt_group,
                          weights=rows[name], minlength=size) \
            if name in rows else np.zeros(size)
        if name in direct:
            col += direct[name]
        out.append(col)
    return np.concatenate(out)


def _breakdown(terms) -> LossBreakdown:
    """LossBreakdown of (mse, six penalties, total), each term summed
    over the groups in group order."""
    return LossBreakdown(*(sum(t.tolist()) for t in terms))


def total_loss(dataset: Dataset, params: ParameterState,
               config: FitConfig | None = None) -> LossBreakdown:
    """The full objective over a dataset; on several fitting groups each
    term is the sum, in group order, of each group's own."""
    config = config or FitConfig()
    ws = Workspace(dataset, params)
    _, breakdown, _, _ = _evaluate(ws, params, config)
    return breakdown


def predict_curve(curve, params, config, entry: int = 0, group: int = 0):
    """A and the limiting state ("c", "j" or "p"; ties go to "c", then "j")
    at each point of one curve, in its own order: `_evaluate` on the curve
    alone with the penalties off, at main-four column `entry` and shared
    column `group` of params. Under fit_gm, C = Ci - A/g_m of measured A.
    """
    cols = {name: getattr(params, name)[[entry if name in MAIN_FOUR
                                         else group]]
            for name in MAIN_FOUR + SHARED_FIELDS}
    zero = np.zeros(1, dtype=np.intp)
    one = replace(params, curve_ids=(curve.curve_id,), group_ids=(0,),
                  entry_of=zero, group_of=zero, onefit=False, **cols)
    ws = Workspace(Dataset((curve,), {}), one)
    aux = _evaluate(ws, one, replace(config, penalties=False))[3]
    back = np.argsort(ws.orig_index)
    return aux["pred"][back], aux["state"][back]


def net_assimilation(point, params, config, entry: int = 0, group: int = 0):
    """predict_curve's A (a float) and state at one point: a (ci, qin,
    tleaf_c) triple, a GasExchangeRecord or any object with .ci, .qin and
    .tleaf_c. The g_m substitution needs measured A, so fit_gm raises
    ValueError."""
    if config.fit_gm:
        raise ValueError("g_m substitution needs measured A")
    ci, qin, tleaf_c = (point.ci, point.qin, point.tleaf_c) \
        if hasattr(point, "ci") else point
    curve = ResponseCurve(0, 0, [ci], [0.0], [qin], [tleaf_c],
                          CurveKind.CO2Response)
    a_hat, states = predict_curve(curve, params, config, entry, group)
    return float(a_hat[0]), states[0]

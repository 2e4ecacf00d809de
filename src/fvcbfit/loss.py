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

A group's sum over its span of points, curves or columns is the span's
own .sum(), 0.0 plus the pairwise sum of the span. All groups are summed
in one np.add.reduceat over a buffer that holds a 0.0 before each span
(`_group_sum`): reduceat starts each span from its first element, so the
leading zero gives it the same start. The non-negativity term sums every
penalized field in one such call and adds the per-field rows in field
order, starting from the first row, which equals 0 + row since every
row is >= +0.

The standalone penalty functions below operate on plain numpy series
and define the reference semantics; the batched evaluator `total_loss`
computes the same quantities vectorized across curves, and doubles as
the gradient graph builder when handed autodiff leaves. In that graph
the prediction, the MSE, the six penalty terms and the total are one
node (`_objective`), the one consumer of the stacked rates, of rd and of
the factor 1 - Gamma*/C. Its hand-written VJP builds the MSE's
cotangents of those three in arrays it allocates, then adds the
penalties' part only at the points of active terms: every point of a
curve whose margin term is active (a margin missed with no point of the
sign it sums, as on a light curve where A_c stays above A_j, has no
gradient), the closest A_c/A_j point of a curve whose ordering term is,
the last point of a curve whose TPU term is, and nothing when no term
is active, which is most iterations of a fit. At
each point it touches it keeps the order of the sums of a separate
penalty node: rd and fac take the MSE's part, then A_c's, A_p's and
A_j's, and A_j's part sums the margin, ordering and TPU terms in that
order. A dense VJP would add only zeros at the other points, and every
path from rates, rd and fac to a leaf ends in a spread whose scatter-add
starts from +0.0, so the gradients are those of the dense VJP bit for
bit.

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

from .data_io import COLUMNS, CurveKind, Dataset
from .engine import Var, fuse, sigmoid, value
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
    contiguous, and the *_spans attributes (`_Spans`) hold each group's
    (start, end) over them. orig_index holds each point's position in the
    curves' own columns, concatenated in canonical curve order. fixed
    holds the operands `_fixed_operands` built last, and fixed_key what
    they were built from; nonneg and nonneg_key likewise for
    `_nonneg_layout`.
    """

    __slots__ = ("ci", "a", "qin", "tk", "pt_entry", "pt_group",
                 "seg_starts", "seg_lengths", "last_flat", "is_light",
                 "light_pt", "any_light", "light_only", "curve_ids",
                 "curve_entry", "curve_group", "n_points", "n_curves",
                 "co2_curves", "corr_groups", "orig_index",
                 "n_groups", "group_n",
                 "pt_spans", "curve_spans", "co2_spans", "entry_spans",
                 "column_spans", "entry_group", "co2_group",
                 "fixed_key", "fixed", "nonneg_key", "nonneg")

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
        self.tk = tl + 273.15
        self.pt_entry = np.repeat(params.entry_of, self.seg_lengths)
        self.pt_group = np.repeat(params.group_of, self.seg_lengths)
        is_light = [c.kind is CurveKind.LightResponse for c in curves]
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
        self.column_spans = _Spans(np.arange(k + 1))
        self.group_n = np.diff(pt_cuts).astype(np.float64)
        # groups eligible for the correlation penalty
        self.corr_groups = []
        if not params.onefit:
            for gi in range(params.n_groups):
                entries = params.entry_of[params.group_of == gi]
                if entries.shape[0] >= MIN_CURVES_FOR_R:
                    self.corr_groups.append((gi, entries.copy()))
        self.fixed_key = self.fixed = None
        self.nonneg_key = self.nonneg = None


class _Spans:
    """Consecutive spans that cover an array, one per group, given by
    their cuts (0, ..., n), and what `_group_sum` needs to sum them in
    one call: where each element goes in a buffer that holds a 0.0
    before each span (dest; None for one span), where each padded span
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
    """x summed over each span, one entry per span.

    Each entry has the bits of that span's own .sum(), so a group's sum
    is the one it has in a workspace of that group alone. .sum() adds the
    pairwise sum of the span to a starting 0.0, while np.add.reduceat
    starts a span from its first element: so the spans are copied into a
    buffer that holds a 0.0 before each one, and reduceat sums the padded
    spans, 0.0 + pairwise(span) each. One span is summed directly.
    """
    if spans.dest is None:
        return x.sum(keepdims=True)
    buf = np.zeros(spans.size)
    buf[spans.dest] = x
    return np.add.reduceat(buf, spans.starts)


def _nonneg_layout(ws: Workspace, nonneg) -> tuple:
    """How the penalty sums the concatenated nonneg fields: the spans of
    each (field, group) pair, the group of each column and each field's
    slice. A main-four field has one column per entry, a shared field one
    per group; kept on the workspace for the last field lengths seen."""
    key = [t.shape[0] for t in nonneg]
    if ws.nonneg_key != key:
        cuts, groups, slices, off = [], [], [], 0
        for n in key:
            spans, grp = (ws.entry_spans, ws.entry_group) \
                if n == ws.entry_group.shape[0] \
                else (ws.column_spans, np.arange(ws.n_groups))
            cuts.append(off + spans.cuts[:-1])
            groups.append(grp)
            slices.append(slice(off, off + n))
            off += n
        cuts.append([off])
        ws.nonneg_key = key
        ws.nonneg = (_Spans(np.concatenate(cuts)), np.concatenate(groups),
                     slices)
    return ws.nonneg


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


def _spread(x, ws: Workspace, per_entry: bool = False):
    """x[ws.pt_entry] (per_entry) or x[ws.pt_group], as each curve's value
    repeated over its points; the VJP scatter-adds per point."""
    xv = value(x)
    idx, pts = (ws.curve_entry, ws.pt_entry) if per_entry \
        else (ws.curve_group, ws.pt_group)
    return fuse(np.repeat(xv[idx], ws.seg_lengths), (x,), lambda g: (
        np.bincount(pts, weights=g, minlength=xv.shape[0]),))


def _spread_sigmoid(raw, ws: Workspace):
    """sigmoid(raw) spread over the points: the logistic taken per group,
    its VJP per point."""
    rv = value(raw)
    out = np.repeat(sigmoid(rv)[ws.curve_group], ws.seg_lengths)
    return fuse(out, (raw,), lambda g: (np.bincount(
        ws.pt_group, weights=g * out * (1.0 - out), minlength=rv.shape[0]),))


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


def _penalties(ws: Workspace, config: FitConfig, wc, wj, wp, fv, rv, valid,
               xs, ys, nonneg):
    """The six penalty terms on forward values, and their VJP.

    Returns (pens, add). pens is [p_cjp, p_c_gt_j, p_c_lt_j, p_j_lt_p,
    p_corr, p_nonneg], each a vector over the groups. The terms read the
    rates through A_x = W_x * fac - rd. xs and ys are the Vcmax25 and
    Jmax25 columns, None without the correlation term; nonneg holds the
    fitted scalars whose negative part is penalized: main-four fields
    (one column per entry) or shared ones (one per group).

    add(g, g_rates, g_fac, g_rd) adds the penalties' part of the
    objective's cotangent g to the rates, fac and rd cotangents (g_fac
    None when fac is constant), at the points of active terms only, and
    returns the cotangents of xs, ys and each nonneg field.
    """
    aj = wj * fv - rv
    ac = wc * fv - rv
    d = ac - aj
    co2 = ws.co2_curves
    p_cjp = p_tpu = p_nn = np.zeros(ws.n_groups)
    p_corr = np.zeros(ws.n_groups)
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

    corr = []
    if xs is not None:
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

    if nonneg:
        # every field at once: one (field, group) sum per pair, the rows
        # added in field order; 0 + row_0 is row_0 exactly, as each row
        # is >= +0
        nn_spans, nn_group, nn_slices = _nonneg_layout(ws, nonneg)
        nn = 0.0 - np.concatenate(nonneg)
        nn_on = nn > 0.0
        rows = _group_sum(np.where(nn_on, nn, 0.0), nn_spans)
        p_nn = np.add.accumulate(rows.reshape(len(nonneg), -1))[-1]

    pens = np.array([p_cjp, p_cgj, p_clj, p_tpu, p_corr, p_nn])

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
        g_x = g_y = None
        if corr:
            g_x, g_y = np.zeros(xs.shape[0]), np.zeros(ys.shape[0])
        for gi, entries, m, xc, yc, sxx, syy, den, r in corr:
            g_r = -(g[gi] * (0.7 - r > 0.0))
            g_num = g_r / den
            g_prod = 0.5 * (-g_r * r / den) / den if den > 0.0 else 0.0
            for out, a, b, g_aa in ((g_x, xc, yc, g_prod * syy),
                                    (g_y, yc, xc, g_prod * sxx)):
                g_a = g_num * b + g_aa * a + g_aa * a
                out[entries] = g_a + (-g_a).sum() / m
        if not nonneg:
            return [g_x, g_y]
        g_nn = -(g[nn_group] * nn_on)
        return [g_x, g_y] + [g_nn[sl] for sl in nn_slices]

    return pens, add


def _objective(ws: Workspace, config: FitConfig, rates, valid, fac, rd,
               vcmax25=None, jmax25=None, nonneg=(), state=False):
    """The MSE of A = min(Wc, Wj, Wp) * fac - rd plus the penalties.

    One node, the one consumer of rates, fac and rd; returns (total,
    terms, pred), where total and each of terms, the MSE and the six
    penalties, have one entry per group. Each group's MSE is divided by
    its own point count. The penalties are those of `_penalties`, all
    zero when config.penalties is off; vcmax25 and jmax25 are given for
    the correlation term only. On light-response curves Wp takes part in
    the minimum but receives no gradient. With state, a fourth value
    follows: the limiting rate at each point, "c", "j" or "p", ties going
    to "c", then "j".
    """
    wc, wj, wp = value(rates)
    fv, rv = value(fac), value(rd)
    # the penalties first, so that their temporaries are gone before the
    # MSE's are made
    p, add = np.zeros((6, ws.n_groups)), None
    if config.penalties:
        p, add = _penalties(ws, config, wc, wj, wp, fv, rv, valid,
                            None if vcmax25 is None else value(vcmax25),
                            None if jmax25 is None else value(jmax25),
                            [value(t) for t in nonneg])
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
        if add is None:
            return g_rates, g_fac, g_pred
        return [g_rates, g_fac, g_pred] + add(g, g_rates, g_fac, g_pred)

    st = (np.where(take_cj, np.where(take_c, "c", "j"), "p"),) if state else ()
    return (fuse(total, [rates, fac, rd, vcmax25, jmax25] + list(nonneg),
                 vjp), (mse, *p), pred, *st)


def _evaluate(ws: Workspace, params: ParameterState, config: FitConfig,
              fitted: tuple = (), report: bool = True):
    """Loss of a workspace; the one evaluator for values and gradients.

    With `fitted` empty every operand is a plain ndarray and the result
    is a pure numpy computation. Each name in `fitted` becomes an
    autodiff leaf instead, and the returned total is a Var.

    Returns (total, LossBreakdown, leaves, aux) where aux carries
    per-curve diagnostics (the A_p - A_j gap at the last point, and its
    validity) computed from forward values, the prediction and the
    limiting state at each point, in canonical order, and the
    breakdown's terms before they are summed over groups. total has one
    entry per group. A fit's report (its points, states, curve metrics
    and TPU flags) is built from the aux of its final evaluation. With
    report off the breakdown and aux, which only reporting reads, are
    not built and come back as None.
    """
    cn = params.constants
    r_gas = cn.r_gas
    leaves = {name: Var(getattr(params, name)) for name in fitted}

    def P(name):
        return leaves[name] if name in leaves else getattr(params, name)

    fx = _fixed_operands(ws, params, config, leaves)
    ve, je, te, rd = (_spread(P(name), ws, per_entry=True)
                      for name in ("vcmax25", "jmax25", "tpu25", "rd25"))
    if fx["kin"] is None:
        kc, ko, gamma = (_spread(P(name), ws) for name in KINETICS)
    else:
        kc, ko, gamma = fx["kin"]
    ag = _spread_sigmoid(P("alpha_g_raw"), ws)

    c = ws.ci
    if config.fit_gm:
        c = _site_co2(ws.ci, ws.a, _spread(P("gm"), ws))
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
        ve = _arrhenius(ve, _spread(P("dha_vcmax"), ws), tf, r_gas)
        je = _arrhenius(je, _spread(P("dha_jmax"), ws), tf, r_gas)
        te = _arrhenius(te, _spread(P("dha_tpu"), ws), tf, r_gas)
    elif config.temp_type == 2:
        inv_t = fx["inv_t"]
        ve = _peaked_arrhenius(ve, _spread(P("dha_vcmax"), ws), cn.dhd_vcmax,
                               _spread(P("topt_vcmax"), ws), inv_t, tf, r_gas)
        je = _peaked_arrhenius(je, _spread(P("dha_jmax"), ws), cn.dhd_jmax,
                               _spread(P("topt_jmax"), ws), inv_t, tf, r_gas)
        te = _peaked_arrhenius(te, _spread(P("dha_tpu"), ws), cn.dhd_tpu,
                               _spread(P("topt_tpu"), ws), inv_t, tf, r_gas)

    if config.light_type == 0:
        j = je
    else:
        j = electron_transport(ws.qin, je, _spread(P("alpha"), ws),
                               _spread(P("theta"), ws), config.light_type)

    rates, valid = limitation_rates(c, ve, j, te, gamma, kc, ko, cn.o2, ag,
                                    big=_BIG, terms=fx["terms"])
    fac = _gamma_factor(gamma, c) if fx["fac"] is None else fx["fac"]

    nonneg, corr = [], False
    if config.penalties:
        # only parameters the configuration actually fits are penalized
        eligible = set(fitted) if fitted \
            else set(fitted_fields(config, ws.light_only))
        if config.positive_rd and "rd25" in eligible:
            nonneg.append(P("rd25"))
        for name in ("dha_vcmax", "dha_jmax", "dha_tpu", "alpha", "theta"):
            if name in eligible:
                nonneg.append(P(name))
        corr = config.r_penalty and ws.corr_groups
    total, terms, pred, *state = _objective(
        ws, config, rates, valid, fac, rd, P("vcmax25") if corr else None,
        P("jmax25") if corr else None, nonneg, state=report)
    if not report:
        return total, None, leaves, None

    lf = ws.last_flat
    w_last = value(rates)[:, lf] * value(fac)[lf] - value(rd)[lf]
    aux = {
        "tpu_gap": np.where(valid[lf], w_last[2] - w_last[1], np.nan),
        "tpu_valid": valid[lf] & ~ws.is_light,
        "pred": pred,
        "state": state[0],
        "terms": (*terms, value(total)),
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

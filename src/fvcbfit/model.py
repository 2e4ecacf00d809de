"""Farquhar-von Caemmerer-Berry (FvCB) model of C3 photosynthesis.

Net assimilation is the minimum of three limitation rates, scaled by
photorespiratory loss and offset by day respiration:

    A = min(Wc, Wj, Wp) * (1 - Gamma*/C) - Rd

with Wc the Rubisco-limited rate, Wj the RuBP-regeneration-limited rate
driven by electron transport J, and Wp the triose-phosphate-utilization
(TPU) limited rate. See Farquhar et al. (1980), von Caemmerer (2000)
and Sharkey et al. (2007) for the biochemistry; Medlyn et al. (2002)
for the temperature response forms; Busch et al. (2018) for the
glycolate-export term alpha_g in Wp.

This module holds the primitives only. `loss._evaluate` composes them
into A, for fitting and for forward prediction alike. Every function
here is pure and accepts plain numpy arrays or autodiff Vars for the
parameter arguments. Each computes its value once on ndarrays; when an
operand is a Var it returns a single graph node whose vector-Jacobian
product is written out by hand, in the operation order of the formula it
differentiates. `loss._evaluate` carries Vcmax, Jmax and TPU as one
(3, n) stack through one call each of the temperature response, the
light response (`_light_response`, J in Jmax's row) and the rates
(`_rates`), whose VJPs work in the cotangent they are handed, as
no other node reads it; the public functions are thin wrappers over the
same implementations.

References
----------
Farquhar GD, von Caemmerer S, Berry JA (1980) A biochemical model of
photosynthetic CO2 assimilation in leaves of C3 species. Planta 149:78-90.
Medlyn BE et al. (2002) Temperature response of parameters of a
biochemically based model of photosynthesis. PCE 25:1167-1179.
Sharkey TD, Bernacchi CJ, Farquhar GD, Singsaas EL (2007) Fitting
photosynthetic carbon dioxide response curves for C3 leaves. PCE 30:1035-1040.
Busch FA, Sage RF, Farquhar GD (2018) Plants increase CO2 uptake by
assimilating nitrogen via the photorespiratory pathway. Nat Plants 4:46-54.
"""

from __future__ import annotations

import numpy as np

from .constants import R_GAS, T_REF
from .engine import Var, fuse, value
from .errors import DomainError


def arrhenius(k25, dha, tleaf, r_gas: float = R_GAS):
    """Arrhenius temperature scaling from the 25 C reference.

    Parameters
    ----------
    k25 : value of the parameter at the reference temperature.
    dha : activation energy (kJ mol-1).
    tleaf : leaf temperature (K).

    Returns k25 * exp[(dha/R) * (1/298 - 1/tleaf)]; monotone increasing
    in tleaf for positive dha.
    """
    return _arrhenius(k25, dha, _temperature_terms(tleaf)[1], r_gas)


def _temperature_terms(tleaf):
    """(1/tleaf, 1/298 - 1/tleaf), the per-point terms of both responses."""
    inv_t = 1.0 / tleaf
    return inv_t, 1.0 / T_REF - inv_t


def _arrhenius_factor(dha, tf, r_gas):
    """exp[(dha/R) * tf], the Arrhenius factor at tf = 1/298 - 1/tleaf."""
    return np.exp((value(dha) / r_gas) * tf)


def _arrhenius(k25, dha, tf, r_gas):
    # arrhenius with the temperature term tf = 1/298 - 1/tleaf given
    k = value(k25)
    e = _arrhenius_factor(dha, tf, r_gas)

    def vjp(g):
        gh = None
        if isinstance(dha, Var):
            gh = (g * k) * e * tf / r_gas
        return g * e, gh

    return fuse(k * e, (k25, dha), vjp)


def peaked_arrhenius(k25, dha, dhd, topt, tleaf, r_gas: float = R_GAS):
    """Peaked Arrhenius response with deactivation above an optimum.

    The plain Arrhenius rise is damped by f(298)/f(tleaf), with
    f(T) = 1 + exp[(dhd/R)(1/Topt - 1/T) - ln(dhd/dha - 1)], so the
    response attains its maximum exactly at tleaf = topt and returns
    k25 at the 25 C reference. dhd is a constant.

    Raises DomainError unless dhd > dha > 0 (the log argument must be
    positive).
    """
    return _peaked_arrhenius(k25, dha, dhd, topt, *_temperature_terms(tleaf),
                             r_gas)


def _peaked_arrhenius(k25, dha, dhd, topt, inv_t, tf, r_gas):
    # peaked_arrhenius with _temperature_terms(tleaf) given
    k, h, to = value(k25), value(dha), value(topt)
    if np.any(h <= 0.0) or np.any(dhd <= h):
        raise DomainError("peaked response requires dhd > dha > 0")
    e = _arrhenius_factor(h, tf, r_gas)
    w = dhd / h
    u = w - 1.0
    lg = np.log(u)
    inv = 1.0 / to
    cd = dhd / r_gas
    e_ref = np.exp(cd * (inv - 1.0 / T_REF) - lg)
    e_t = np.exp(cd * (inv - inv_t) - lg)
    at_t = 1.0 + e_t
    out = k * e * (1.0 + e_ref) / at_t

    def vjp(g):
        # k * e and f(298) = 1 + e_ref are rebuilt rather than kept, and
        # the work is done in place, in g too, so that at most four
        # arrays of the stack's size are made at once
        gz = g / at_t
        g_k = gz * (1.0 + e_ref)
        gh = gt = None
        if isinstance(dha, Var):
            gh = g_k * k
            gh *= e
            gh *= tf
            gh /= r_gas
        g_k *= e
        gz *= k * e
        np.negative(g, out=g)
        g *= out
        g /= at_t
        # f(298), then f(tleaf): each reaches dha through ln(dhd/dha - 1)
        # and topt through 1/topt
        for gz, ef in ((gz, e_ref), (g, e_t)):
            gz *= ef
            if gh is not None:
                q = gz / u
                q *= w
                q /= h
                gh += q
            if isinstance(topt, Var):
                gz *= cd
                np.negative(gz, out=gz)
                gz *= inv
                gz /= to
                gt = gz if gt is None else np.add(gt, gz, out=gt)
        return g_k, gh, gt

    return fuse(out, (k25, dha, topt), vjp)


def electron_transport(qin, jmax, alpha=None, theta=None, light_type: int = 0):
    """Electron transport rate J for the chosen light-response form.

    light_type 0: J = jmax regardless of qin (saturating light assumed).
    light_type 1: rectangular hyperbola, J = aQ*jmax/(aQ + jmax).
    light_type 2: smaller root of theta*J^2 - (aQ + jmax)*J + aQ*jmax = 0,
                  which tends to type 1 as theta -> 0 and to
                  min(aQ, jmax) as theta -> 1.
    where aQ = alpha * qin.
    """
    if light_type == 0:
        return jmax
    out, vjp = _electron(qin, value(jmax), alpha, theta, light_type)
    return fuse(out, (alpha, jmax, theta), vjp)


def _light_response(qin, s, alpha, theta, light_type: int):
    """The stack s of Vcmax, Jmax and TPU with J in Jmax's row, one node."""
    sv = value(s)
    j, back = _electron(qin, sv[1], alpha, theta, light_type)
    out = sv.copy()
    out[1] = j

    def vjp(g):
        g_alpha, g[1], g_theta = back(g[1])
        return g, g_alpha, g_theta

    return fuse(out, (s, alpha, theta), vjp)


def _electron(qin, jm, alpha, theta, light_type):
    """J at Jmax values jm, and its VJP onto (alpha, jmax, theta)."""
    if light_type not in (1, 2):
        raise ValueError(f"unknown light_type {light_type!r}")
    aq = value(alpha) * qin
    s = aq + jm
    if light_type == 1:
        out = aq * jm / s

        def vjp(g):
            g_p = g / s
            g_s = -g * out / s
            g_aq = g_p * jm + g_s
            return g_aq * qin, g_p * aq + g_s, None

        return out, vjp

    th = value(theta)
    t4 = 4.0 * th
    aqj = aq * jm
    disc = s * s - t4 * aqj
    pos = disc > 0.0
    # roundoff can push the discriminant a hair negative at theta=1
    sq = np.sqrt(np.where(pos, disc, 0.0))
    den = 2.0 * th
    out = (s - sq) / den

    def vjp(g):
        g_num = g / den
        live = sq > 0.0
        g_disc = np.where(live, 0.5 * -g_num / np.where(live, sq, 1.0),
                          0.0) * pos
        d_ss = g_disc * s
        g_s = g_num + d_ss + d_ss
        g_tq = -g_disc
        g_aqj = g_tq * t4
        g_aq = g_s + g_aqj * jm
        g_th = g_tq * aqj * 4.0 + (-g * out / den) * 2.0
        return g_aq * qin, g_s + g_aqj * aq, g_th

    return out, vjp


def _kinetic_terms(c, gamma_star, kc, ko, o2):
    """(x, y, kk, dd): x = O/Ko, y = 1 + x, and the Wc and Wj
    denominators kk = C + Kc*y and dd = 4(C + 2 Gamma*)."""
    x = o2 / ko
    y = 1.0 + x
    return x, y, c + kc * y, 4.0 * (c + 2.0 * gamma_star)


def limitation_rates(c, vcmax, j, tpu, gamma_star, kc, ko, o2,
                     alpha_g=0.0, big: float = np.inf, terms=None):
    """The three carboxylation-limitation rates at one temperature.

    Parameters are the temperature-scaled values at the evaluation
    point; c is the CO2 mole fraction at the carboxylation site. terms,
    if given, is (kk, dd) of `_kinetic_terms`, built beforehand from
    constant c, gamma_star, kc and ko; kc and ko are then not read.

    Wp has a pole at C = (1 + 3*alpha_g) * Gamma*; below it TPU cannot
    be limiting and Wp is `big` (default +inf), which never wins the
    minimum; a gradient graph passes a large finite sentinel instead, to
    keep backward passes NaN-free.

    Returns (rates, wp_valid): Wc, Wj and Wp stacked on a new first axis
    (one Var when an operand is a Var), and the mask of defined Wp.
    """
    s = np.stack(np.broadcast_arrays(*map(value, (vcmax, j, tpu))))
    rates, valid, vjp = _rates(c, s, gamma_star, kc, ko, o2, alpha_g, big,
                               terms)

    def split(g):
        g_c, g_s, *rest = vjp(g)
        return (g_c, *g_s, *rest)

    return fuse(rates, (c, vcmax, j, tpu, gamma_star, kc, ko, alpha_g),
                split), valid


def _rates(c, sv, gamma_star, kc, ko, o2, alpha_g, big, terms):
    """The rates and Wp's validity at the stack values sv, and their VJP
    onto (c, the stack, gamma_star, kc, ko, alpha_g), in place in g."""
    cv, gv, agv = map(value, (c, gamma_star, alpha_g))
    vv, jv, tv = sv
    c_var, g_var = isinstance(c, Var), isinstance(gamma_star, Var)
    kin_var = isinstance(kc, Var) or isinstance(ko, Var)
    if terms is None:
        kcv, kov = value(kc), value(ko)
        x, y, kk, dd = _kinetic_terms(cv, gv, kcv, kov, o2)
    else:
        kk, dd = terms
    if terms is not None or not kin_var:
        x = y = kcv = kov = None  # read by the VJP only for Kc and Ko
    thresh = (1.0 + 3.0 * agv) * gv
    valid = cv > thresh
    denom = np.where(valid, cv - thresh, 1.0)
    rates = np.empty((3,) + np.broadcast_shapes(
        *map(np.shape, (cv, vv, jv, tv, gv, agv, kk, dd))))
    wc, wj, wp = rates[0, ...], rates[1, ...], rates[2, ...]
    np.multiply(vv, cv, out=wc)
    wc /= kk
    np.multiply(jv, cv, out=wj)
    wj /= dd
    np.multiply(3.0 * tv, cv, out=wp)
    wp /= denom
    q = wp.copy() if c_var or g_var or isinstance(alpha_g, Var) else None
    np.copyto(wp, big, where=~valid)
    # read by the VJP only for the operands named; wc and wj are views
    # that would keep the whole rates array alive
    if not c_var:
        vv = jv = tv = None  # C
    if not (c_var or kin_var):
        wc = None  # C, Kc and Ko
    if not (c_var or g_var):
        wj = None  # C and Gamma*
    if not g_var:
        agv = None  # Gamma*

    def vjp(g):
        # 3*TPU and 1 + 3*alpha_g are recomputed where they are read
        # rather than kept alive from the forward pass
        g_wc, g_wj, g_wp = g
        g_kk = g_dd = g_c = g_gamma = g_kc = g_ko = g_ag = None
        if c_var or kin_var:
            g_kk = -g_wc * wc / kk
        if kin_var:
            g_kc = g_kk * y
            g_ko = -(g_kk * kcv) * x / kov
        if c_var or g_var:
            g_dd = -g_wj * wj / dd * 4.0
        # in place, each row of g becomes the cotangent of its rate's
        # numerator: Vcmax*C, J*C and 3*TPU*C
        g_wc /= kk
        g_wj /= dd
        g_wp *= valid
        if c_var or g_var or isinstance(alpha_g, Var):
            # thresh's cotangent through denom = C - thresh; C's is its
            # negative
            g_thresh = g_wp * q / denom
            g_ag = g_thresh * gv * 3.0
        g_wp /= denom
        if c_var:
            g_c = (g_wc * vv + g_kk + g_wp * (3.0 * tv) - g_thresh
                   + g_wj * jv + g_dd)
        if g_var:
            g_gamma = g_thresh * (1.0 + 3.0 * agv) + g_dd * 2.0
        # and then of Vcmax, J and TPU
        g_wc *= cv
        g_wj *= cv
        g_wp *= cv
        g_wp *= 3.0
        return g_c, g, g_gamma, g_kc, g_ko, g_ag

    return rates, valid, vjp

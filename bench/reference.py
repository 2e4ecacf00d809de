"""Reference FvCB forward model and preprocessing rules for the benchmark.

Written from the documented equations and constants alone, without
importing fvcbfit, so that checking the package against it is not a
check of the package against itself.

    A = min(Wc, Wj, Wp) * (1 - Gamma*/C) - Rd
    Wc = Vcmax C / (C + Kc (1 + O/Ko))
    Wj = J C / (4 (C + 2 Gamma*))
    Wp = 3 TPU C / (C - (1 + 3 alpha_g) Gamma*)   for C above the pole

Temperatures are Kelvin inside the model, with the reference at
T_REF = 298 K (not 298.15) and R = 0.008314 kJ mol-1 K-1.
"""

from __future__ import annotations

import math

import numpy as np

R_GAS = 0.008314
T_REF = 298.0
CELSIUS_OFFSET = 273.15
O2 = 210.0
DHA_RD = 46.39
DHA_KC = 79.43
DHA_KO = 36.38
DHA_GAMMA = 37.83
DHD = {"vcmax": 200.0, "jmax": 200.0, "tpu": 201.8}

# Starting values of the package's parameters that the benchmark never
# fits, so the reported values must still equal these.
KC25 = 404.9
KO25 = 278.4
GAMMA25 = 42.75

# Parameter fields the reference needs for one curve.
CURVE_FIELDS = ("vcmax25", "jmax25", "tpu25", "rd25")
SHARED_FIELDS = ("dha_vcmax", "dha_jmax", "dha_tpu", "topt_vcmax",
                 "topt_jmax", "topt_tpu", "alpha", "theta", "alpha_g",
                 "kc25", "ko25", "gamma25")


def arrhenius(k25, dha, tk):
    return k25 * np.exp(dha / R_GAS * (1.0 / T_REF - 1.0 / tk))


def _deactivation(dha, dhd, topt, tk):
    return 1.0 + np.exp(dhd / R_GAS * (1.0 / topt - 1.0 / tk)
                        - np.log(dhd / dha - 1.0))


def peaked_arrhenius(k25, dha, dhd, topt, tk):
    """Arrhenius rise damped above Topt; equals k25 at T_REF."""
    return (arrhenius(k25, dha, tk) * _deactivation(dha, dhd, topt, T_REF)
            / _deactivation(dha, dhd, topt, tk))


def electron_transport(qin, jmax, alpha, theta, light_type):
    """J for light type 0 (J = Jmax), 1 (rectangular) or 2 (non-rectangular).

    Type 2 is the smaller root of theta J^2 - (aQ + Jmax) J + aQ Jmax = 0.
    Past theta = 1 the discriminant can go negative; it is clamped at 0,
    the package's documented convention, so the two agree there too.
    """
    if light_type == 0:
        return jmax + 0.0 * qin
    aq = alpha * qin
    if light_type == 1:
        return aq * jmax / (aq + jmax)
    s = aq + jmax
    disc = np.maximum(s * s - 4.0 * theta * aq * jmax, 0.0)
    return (s - np.sqrt(disc)) / (2.0 * theta)


def rates(ci, qin, tleaf_c, p, light_type, temp_type):
    """(Wc, Wj, Wp, Gamma*, Rd) at each point for one parameter set.

    p maps every name in CURVE_FIELDS and SHARED_FIELDS to a float.
    Wp is +inf below its pole, where TPU cannot limit.
    """
    tk = np.asarray(tleaf_c, dtype=np.float64) + CELSIUS_OFFSET
    c = np.asarray(ci, dtype=np.float64)
    main = {}
    for name in ("vcmax", "jmax", "tpu"):
        k25, dha = p[name + "25"], p["dha_" + name]
        if temp_type == 0:
            main[name] = k25 + 0.0 * tk
        elif temp_type == 1:
            main[name] = arrhenius(k25, dha, tk)
        else:
            main[name] = peaked_arrhenius(k25, dha, DHD[name],
                                          p["topt_" + name], tk)
    rd, kc, ko, gamma = p["rd25"], p["kc25"], p["ko25"], p["gamma25"]
    if temp_type >= 1:
        rd = arrhenius(rd, DHA_RD, tk)
        kc = arrhenius(kc, DHA_KC, tk)
        ko = arrhenius(ko, DHA_KO, tk)
        gamma = arrhenius(gamma, DHA_GAMMA, tk)
    rd = rd + 0.0 * tk
    gamma = gamma + 0.0 * tk
    j = electron_transport(np.asarray(qin, dtype=np.float64), main["jmax"],
                           p["alpha"], p["theta"], light_type)
    wc = main["vcmax"] * c / (c + kc * (1.0 + O2 / ko))
    wj = j * c / (4.0 * (c + 2.0 * gamma))
    pole = (1.0 + 3.0 * p["alpha_g"]) * gamma
    above = c > pole
    wp = np.full_like(c, np.inf)
    wp[above] = 3.0 * main["tpu"][above] * c[above] / (c[above] - pole[above])
    return wc, wj, wp, gamma, rd


def assimilation(ci, qin, tleaf_c, p, light_type, temp_type):
    """(A, limiting state) per point; ties go to "c", then "j"."""
    c = np.asarray(ci, dtype=np.float64)
    wc, wj, wp, gamma, rd = rates(c, qin, tleaf_c, p, light_type, temp_type)
    a = np.minimum(np.minimum(wc, wj), wp) * (1.0 - gamma / c) - rd
    state = np.where(wc <= np.minimum(wj, wp), "c",
                     np.where(wj <= wp, "j", "p"))
    return a, state


def self_check() -> list:
    """Properties the method must have; returns the ones that fail."""
    failures = []
    dha, dhd = 65.33, 200.0
    k25 = 87.3
    if not math.isclose(float(arrhenius(k25, dha, T_REF)), k25, rel_tol=1e-12):
        failures.append("Arrhenius response differs from k25 at 298 K")
    for topt in (301.7, 311.0, 318.2):
        at_ref = float(peaked_arrhenius(k25, dha, dhd, topt, T_REF))
        if not math.isclose(at_ref, k25, rel_tol=1e-12):
            failures.append(f"peaked response differs from k25 at 298 K "
                            f"(Topt {topt})")
        grid = np.arange(topt - 20.0, topt + 20.0, 0.001)
        peak = grid[int(np.argmax(peaked_arrhenius(k25, dha, dhd, topt,
                                                   grid)))]
        if abs(peak - topt) > 0.002:
            failures.append(f"peaked response peaks at {peak:.3f} K, "
                            f"not at Topt {topt}")
    q = np.array([10.0, 100.0, 1000.0, 2000.0])
    j1 = electron_transport(q, 200.0, 0.5, None, 1)
    j2 = electron_transport(q, 200.0, 0.5, 1e-7, 2)
    if np.max(np.abs(j2 / j1 - 1.0)) > 1e-5:
        failures.append("light type 2 does not tend to type 1 as theta -> 0")

    p = dict(vcmax25=100.0, jmax25=180.0, tpu25=12.0, rd25=1.2,
             dha_vcmax=65.33, dha_jmax=43.9, dha_tpu=53.1, topt_vcmax=311.0,
             topt_jmax=311.0, topt_tpu=306.0, alpha=0.5, theta=0.7,
             alpha_g=0.1, kc25=KC25, ko25=KO25, gamma25=GAMMA25)
    for light_type, temp_type, tleaf in ((0, 0, 25.0), (2, 2, 31.0)):
        ci = np.linspace(60.0, 1800.0, 200001)
        qin = np.full_like(ci, 1500.0)
        tl = np.full_like(ci, tleaf)
        wc, wj, _, _, _ = rates(ci, qin, tl, p, light_type, temp_type)
        k = int(np.flatnonzero(np.diff(np.sign(wc - wj)) != 0)[0])
        a, state = assimilation(ci[k - 1:k + 3], qin[:4], tl[:4], p,
                                light_type, temp_type)
        step = ci[1] - ci[0]
        slope = np.max(np.abs(np.diff(a))) / step
        if len(set(state)) != 2 or slope > 1.0:
            failures.append(f"A is not continuous across the Wc/Wj "
                            f"crossover (light {light_type}, "
                            f"temperature {temp_type})")
    return failures


# -- preprocessing rules, as documented in the package -------------------

WINDOW_LEN = 10
SMOOTH_CI_THRESHOLD = 600.0
JUMP_UP = 0.06
JUMP_DOWN = -0.06
MIN_POINTS_FACTOR = 3
MAX_END_FRACTION = 0.2


def _moving_average(a, window_len):
    # centred mean over a window that shrinks symmetrically at the ends
    w = window_len + 1 if window_len % 2 == 0 else window_len
    half = w // 2
    n = len(a)
    out = np.empty(n)
    for i in range(n):
        h = min(half, i, n - 1 - i)
        out[i] = sum(a[i - h:i + h + 1]) / (2 * h + 1)
    return out


def preprocess_survivors(ci, a):
    """Indices (in record order) and A values that survive cleanup.

    Follows the four documented rules for a CO2-response curve: smooth A
    where Ci > 600 with an 11-point centred mean, trim the ends while the
    last step jumps by more than 0.06 either way or the first point sits
    more than 0.06 above the second (at most 20% of the points per end),
    then drop points with Ci below that of the minimum-A point and points
    with A below that of the minimum-Ci survivor. Curves shorter than 30
    points pass through.
    """
    n = len(ci)
    if n < MIN_POINTS_FACTOR * WINDOW_LEN:
        return list(range(n)), list(a)
    order = sorted(range(n), key=lambda i: (ci[i], i))
    cs = [ci[i] for i in order]
    av = [a[i] for i in order]
    high = [k for k in range(n) if cs[k] > SMOOTH_CI_THRESHOLD]
    if len(high) >= WINDOW_LEN:
        smoothed = _moving_average(np.array([av[k] for k in high]),
                                   WINDOW_LEN)
        for k, v in zip(high, smoothed):
            av[k] = float(v)
    cap = int(MAX_END_FRACTION * n)
    lo, hi, cut_lo, cut_hi = 0, n - 1, 0, 0
    changed = True
    while changed and hi > lo:
        changed = False
        if cut_hi < cap and hi > lo:
            d = av[hi] - av[hi - 1]
            if d > JUMP_UP or d < JUMP_DOWN:
                hi, cut_hi, changed = hi - 1, cut_hi + 1, True
        if cut_lo < cap and hi > lo:
            if av[lo + 1] - av[lo] < JUMP_DOWN:
                lo, cut_lo, changed = lo + 1, cut_lo + 1, True
    kept = list(range(lo, hi + 1))
    k_min_a = min(kept, key=lambda k: (av[k], k))
    kept = [k for k in kept if cs[k] >= cs[k_min_a]]
    k_min_ci = min(kept, key=lambda k: (cs[k], k))
    kept = [k for k in kept if av[k] >= av[k_min_ci]]
    survivors = sorted(order[k] for k in kept)
    value = {order[k]: av[k] for k in range(n)}
    return survivors, [value[i] for i in survivors]

"""Automated cleanup of A/Ci curves before fitting.

Dense non-steady-state ramps carry instrument noise in the saturated
high-Ci region, spikes at the two ends of the ramp, and occasional
low-Ci points where the chamber had not yet equilibrated. The pipeline
is, in order:

  1. skip everything when the curve is short (fewer than
     min_points_factor * window_len points) or is a light response;
  2. Savitzky-Golay degree-1 smoothing of A restricted to points with
     Ci above smooth_ci_threshold;
  3. iterative end trimming: drop the last point while the final step
     in A jumps by more than jump_up or drops below jump_down, and drop
     the first point while it sits more than |jump_down| above its
     successor (a clean curve rises steeply from the low-Ci end, so
     only a falling start is anomalous there); each end loses at most
     20% of the points;
  4. drop points with Ci below the Ci of the minimum-A point, then
     points with A below the A of the minimum-Ci survivor.

Rules 2-4 scan in Ci-ascending order; survivors are re-emitted in the
original record order, with the smoothed A values where rule 2 applied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data_io import CurveKind, Dataset, ResponseCurve
from .errors import SeriesTooShort, TooFewPointsAfterCleanup

MIN_SURVIVORS = 5
MAX_END_FRACTION = 0.2


@dataclass(frozen=True)
class PreprocessConfig:
    window_len: int = 10
    smooth_ci_threshold: float = 600.0
    jump_up: float = 0.06
    jump_down: float = -0.06
    min_points_factor: int = 3

    def __post_init__(self):
        if self.window_len < 3:
            raise ValueError("window_len must be >= 3")
        if not (self.jump_up > 0.0 > self.jump_down):
            raise ValueError("need jump_up > 0 > jump_down")
        if self.min_points_factor < 1:
            raise ValueError("min_points_factor must be >= 1")


def sg_smooth_linear(a_values, window_len: int) -> np.ndarray:
    """Degree-1 Savitzky-Golay smoothing with shrunken symmetric edges.

    A first-order least-squares fit over a symmetric window evaluates
    at the center to the window mean, so this is a centered moving
    average whose half-width shrinks near the edges (the end points are
    returned unchanged). Even window lengths are promoted to the next
    odd integer.
    """
    a = np.asarray(a_values, dtype=np.float64)
    n = a.shape[0]
    if n < window_len:
        raise SeriesTooShort(f"series of {n} points, window {window_len}")
    w = window_len + 1 if window_len % 2 == 0 else window_len
    half = w // 2
    idx = np.arange(n)
    hh = np.minimum(half, np.minimum(idx, n - 1 - idx))
    cs = np.concatenate(([0.0], np.cumsum(a)))
    return (cs[idx + hh + 1] - cs[idx - hh]) / (2 * hh + 1)


def _trim_ends(a: np.ndarray, cfg: PreprocessConfig) -> tuple[int, int]:
    # Returns (lo, hi) inclusive bounds of the kept slice.
    n = a.shape[0]
    cap = int(MAX_END_FRACTION * n)
    lo, hi = 0, n - 1
    cut_lo = cut_hi = 0
    changed = True
    while changed and hi - lo >= 1:
        changed = False
        if cut_hi < cap and hi - lo >= 1:
            d = a[hi] - a[hi - 1]
            if d > cfg.jump_up or d < cfg.jump_down:
                hi -= 1
                cut_hi += 1
                changed = True
        if cut_lo < cap and hi - lo >= 1:
            if a[lo + 1] - a[lo] < cfg.jump_down:
                lo += 1
                cut_lo += 1
                changed = True
    return lo, hi


def _drop_low_anomalies(ci: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Boolean keep-mask for rule 4, arrays in Ci-ascending order.
    keep = np.ones(a.shape[0], dtype=bool)
    i_min = int(np.argmin(a))
    keep &= ci >= ci[i_min]
    # minimum-Ci point among survivors of the first sub-rule
    surv = np.flatnonzero(keep)
    j = surv[int(np.argmin(ci[surv]))]
    keep &= a >= a[j]
    return keep


def preprocess_curve(curve: ResponseCurve, cfg: PreprocessConfig | None = None
                     ) -> ResponseCurve:
    """Apply the cleanup pipeline to one curve.

    Light-response curves and curves shorter than
    min_points_factor * window_len pass through untouched.
    Raises TooFewPointsAfterCleanup when fewer than 5 points survive.
    """
    cfg = cfg or PreprocessConfig()
    if curve.kind is CurveKind.LightResponse:
        return curve
    n = curve.n_points
    if n < cfg.min_points_factor * cfg.window_len:
        return curve

    ci, a = curve.ci, curve.a
    order = np.lexsort((np.arange(n), ci))  # Ci ascending, stable
    ci_s = ci[order]
    a_s = a[order].copy()

    high = ci_s > cfg.smooth_ci_threshold
    if int(high.sum()) >= cfg.window_len:
        a_s[high] = sg_smooth_linear(a_s[high], cfg.window_len)

    lo, hi = _trim_ends(a_s, cfg)
    keep_slice = _drop_low_anomalies(ci_s[lo:hi + 1], a_s[lo:hi + 1])
    kept_sorted = np.flatnonzero(keep_slice) + lo
    if kept_sorted.shape[0] < MIN_SURVIVORS:
        raise TooFewPointsAfterCleanup(
            f"curve {curve.curve_id}: {kept_sorted.shape[0]} points survive")

    kept_orig = np.sort(order[kept_sorted])
    smoothed = np.empty(n)
    smoothed[order] = a_s
    return replace(curve.take(kept_orig), a=smoothed[kept_orig])


def preprocess_dataset(dataset: Dataset, cfg: PreprocessConfig | None = None
                       ) -> Dataset:
    """preprocess_curve over every curve, keeping the grouping."""
    cfg = cfg or PreprocessConfig()
    return replace(dataset,
                   curves=tuple(preprocess_curve(c, cfg) for c in dataset.curves))

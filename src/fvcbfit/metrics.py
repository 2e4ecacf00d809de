"""Goodness-of-fit statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, ZeroVariance


@dataclass(frozen=True)
class CurveMetrics:
    rmse: float
    r2: float
    n_points: int


def _pair(a, a_hat):
    a = np.asarray(a, dtype=np.float64)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a.shape != a_hat.shape:
        raise LengthMismatch(f"{a.shape} vs {a_hat.shape}")
    if a.size == 0:
        raise LengthMismatch("empty series")
    return a, a_hat


def rmse(a, a_hat) -> float:
    """Root mean squared error, per point (not root-sum-squared)."""
    a, a_hat = _pair(a, a_hat)
    return float(np.sqrt(np.mean((a - a_hat) ** 2)))


def r_squared(a, a_hat) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot.

    Can go negative for a predictor worse than the mean. Raises
    ZeroVariance when the measured series is constant.
    """
    a, a_hat = _pair(a, a_hat)
    if a.size < 2:
        raise ZeroVariance("need at least 2 points")
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ZeroVariance("measured series is constant")
    ss_res = float(np.sum((a - a_hat) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson_r(x, y) -> float:
    """Pearson correlation coefficient."""
    x, y = _pair(x, y)
    if x.size < 2:
        raise ZeroVariance("need at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("zero variance series")
    return float(np.sum(xc * yc) / (sx * sy))

"""Gradient of the fitting objective with respect to fitted parameters:
`loss_gradient` evaluates the objective once and returns its value and a
labeled gradient with one entry per fitted scalar. Parameters the
configuration does not fit (theta under light_type 0, say) never appear.
"""

from __future__ import annotations

import numpy as np

from .data_io import Dataset
from .errors import NonFinite
from .loss import Workspace, _evaluate, _gradient
from .params import FitConfig, MAIN_FOUR, ParameterState, fitted_fields


class GradientVector:
    """Flat gradient with stable ordering and human-readable labels.

    Entries follow fitted-field order, and within a field, column order
    (curves in canonical order for the main four, groups otherwise).
    """

    __slots__ = ("names", "values")

    def __init__(self, names: tuple, values: np.ndarray):
        self.names = tuple(names)
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.names) != self.values.shape[0]:
            raise ValueError("names and values length mismatch")

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[self.names.index(name)])
        except ValueError:
            raise KeyError(name) from None

    def __iter__(self):
        return iter(self.names)

    def as_dict(self) -> dict:
        return {n: float(v) for n, v in zip(self.names, self.values)}

    def __repr__(self):
        return f"GradientVector({self.as_dict()!r})"


def _labels(params: ParameterState, field: str) -> list:
    if field in MAIN_FOUR:
        k = params.n_entries
        return [f"{field}[{params.entry_label(i)}]" for i in range(k)]
    return [f"{field}[{params.group_label(i)}]"
            for i in range(params.n_groups)]


def loss_gradient(dataset: Dataset, params: ParameterState,
                  config: FitConfig | None = None):
    """Objective value and its gradient at the given parameter state.

    Returns (loss, GradientVector). Raises NonFinite if the loss or any
    gradient entry is NaN/Inf, naming the first offending parameter.
    """
    config = config or FitConfig()
    ws = Workspace(dataset, params)
    fitted = fitted_fields(config, ws.light_only)
    total, breakdown, leaves, _ = _evaluate(ws, params, config, fitted)
    if not np.isfinite(breakdown.total):
        raise NonFinite(f"loss is {breakdown.total}")
    flat = _gradient(ws, total, leaves)
    names = [name for field in fitted for name in _labels(params, field)]
    if not np.all(np.isfinite(flat)):
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise NonFinite(f"gradient of {names[bad]} is {flat[bad]}")
    return breakdown.total, GradientVector(tuple(names), flat)

"""Fit configuration and the parameter state container.

ParameterState separates the "main four" (Vcmax25, Jmax25, TPU25, Rd25,
one column per curve, or per group under onefit) from the shared block
(temperature response, light response, alpha_g, g_m, kinetics), which
always has one column per fitting group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constants import FvCBConstants, PARAM_DEFAULTS
from .engine import sigmoid

MAIN_FOUR = ("vcmax25", "jmax25", "tpu25", "rd25")

SHARED_FIELDS = (
    "dha_vcmax", "dha_jmax", "dha_tpu",
    "topt_vcmax", "topt_jmax", "topt_tpu",
    "alpha", "theta", "alpha_g_raw",
    "gm", "kc25", "ko25", "gamma25",
)


@dataclass(frozen=True)
class FitConfig:
    """Sub-model selection, constraint toggles and optimizer settings.

    light_type: 0 J=Jmax, 1 rectangular hyperbola, 2 non-rectangular.
    temp_type: 0 none, 1 Arrhenius, 2 peaked Arrhenius.
    positive_rd: keep Rd25 non-negative (penalty plus projection).
    penalties: master switch; off reduces the loss to plain MSE.
    tpu_penalty: the A_p/A_j transition term at the highest Ci.
    r_penalty: Vcmax/Jmax correlation term for groups of >= 7 curves.
    lr: Adam's starting step; fit() shrinks it when the loss stalls.
    """

    light_type: int = 0
    temp_type: int = 0
    onefit: bool = False
    fit_gm: bool = False
    fit_kinetics: bool = False
    positive_rd: bool = True
    penalties: bool = True
    tpu_penalty: bool = True
    r_penalty: bool = False
    beta: float = 8.0
    lr: float = 0.08
    max_iter: int = 20000
    early_stop: bool = False
    early_stop_rtol: float = 1e-7
    early_stop_patience: int = 500

    def __post_init__(self):
        if self.light_type not in (0, 1, 2):
            raise ValueError("light_type must be 0, 1 or 2")
        if self.temp_type not in (0, 1, 2):
            raise ValueError("temp_type must be 0, 1 or 2")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


def _full(n: int, name: str) -> np.ndarray:
    return np.full(n, PARAM_DEFAULTS[name], dtype=np.float64)


@dataclass
class ParameterState:
    """All model parameters for a dataset, plus the fixed constants.

    curve_ids are kept in canonical order (sorted by fitting group,
    then curve id); entry_of and group_of map a curve's position in
    curve_ids to its main-four column and its shared-block column.
    """

    curve_ids: tuple
    group_ids: tuple
    entry_of: np.ndarray
    group_of: np.ndarray
    onefit: bool
    vcmax25: np.ndarray
    jmax25: np.ndarray
    tpu25: np.ndarray
    rd25: np.ndarray
    dha_vcmax: np.ndarray
    dha_jmax: np.ndarray
    dha_tpu: np.ndarray
    topt_vcmax: np.ndarray
    topt_jmax: np.ndarray
    topt_tpu: np.ndarray
    alpha: np.ndarray
    theta: np.ndarray
    alpha_g_raw: np.ndarray
    gm: np.ndarray
    kc25: np.ndarray
    ko25: np.ndarray
    gamma25: np.ndarray
    constants: FvCBConstants = field(default_factory=FvCBConstants)

    @property
    def n_curves(self) -> int:
        return len(self.curve_ids)

    @property
    def n_entries(self) -> int:
        return self.vcmax25.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self.group_ids)

    @property
    def alpha_g(self) -> np.ndarray:
        """alpha_g in (0,1), the logistic image of the raw parameter."""
        return sigmoid(self.alpha_g_raw)

    @classmethod
    def defaults(cls, curve_ids=(0,), group_of_curve=None, onefit: bool = False,
                 constants: FvCBConstants | None = None, **overrides):
        """State with every parameter at its default value.

        group_of_curve maps curve id -> fitting group id (default: all
        in group 0). Scalar overrides broadcast over the whole field,
        e.g. ``ParameterState.defaults(tpu25=14.5)``.
        """
        if group_of_curve is None:
            group_of_curve = {cid: 0 for cid in curve_ids}
        order = sorted(curve_ids, key=lambda c: (group_of_curve[c], c))
        gids = tuple(sorted(set(group_of_curve.values())))
        gpos = {g: i for i, g in enumerate(gids)}
        group_of = np.array([gpos[group_of_curve[c]] for c in order],
                            dtype=np.intp)
        if onefit:
            entry_of = group_of.copy()
            n_entries = len(gids)
        else:
            entry_of = np.arange(len(order), dtype=np.intp)
            n_entries = len(order)
        ng = len(gids)
        fields = {name: _full(n_entries, name) for name in MAIN_FOUR}
        fields.update({name: _full(ng, name) for name in SHARED_FIELDS})
        for name, val in overrides.items():
            if name not in fields:
                raise TypeError(f"unknown parameter {name!r}")
            fields[name] = np.full_like(fields[name], float(val))
        return cls(curve_ids=tuple(order), group_ids=gids,
                   entry_of=entry_of, group_of=group_of, onefit=onefit,
                   constants=constants or FvCBConstants(), **fields)

    @classmethod
    def single(cls, constants: FvCBConstants | None = None, **overrides):
        """One-curve, one-group state; convenient for point evaluation."""
        return cls.defaults(curve_ids=(0,), constants=constants, **overrides)

    def copy(self) -> "ParameterState":
        arrays = {name: getattr(self, name).copy()
                  for name in MAIN_FOUR + SHARED_FIELDS}
        return replace(self, entry_of=self.entry_of.copy(),
                       group_of=self.group_of.copy(), **arrays)

    def select_group(self, gi: int) -> "ParameterState":
        """Fitting group gi (an index into group_ids) as a state of its
        own, shaped as for a dataset of that group alone."""
        curves = np.flatnonzero(self.group_of == gi)
        a, b = int(curves[0]), int(curves[-1]) + 1
        entries = self.entry_of[a:b]
        ea, eb = int(entries[0]), int(entries[-1]) + 1
        n = b - a
        arrays = {name: getattr(self, name)[ea:eb].copy()
                  for name in MAIN_FOUR}
        arrays.update({name: getattr(self, name)[gi:gi + 1].copy()
                       for name in SHARED_FIELDS})
        return replace(self, curve_ids=self.curve_ids[a:b],
                       group_ids=(self.group_ids[gi],),
                       entry_of=np.zeros(n, dtype=np.intp) if self.onefit
                       else np.arange(n, dtype=np.intp),
                       group_of=np.zeros(n, dtype=np.intp), **arrays)

    def entry_label(self, idx: int) -> str:
        """Human-readable id of a main-four column."""
        if self.onefit:
            return f"group {self.group_ids[idx]}"
        return f"curve {self.curve_ids[idx]}"

    def group_label(self, idx: int) -> str:
        return f"group {self.group_ids[idx]}"


def fitted_fields(config: FitConfig, light_only: bool) -> tuple[str, ...]:
    """Names of the parameter fields optimized under a configuration, in
    field order. TPU and everything that only feeds Wp drop out when the
    dataset holds only light-response curves, where Wp gets no gradient.
    """
    names = ["vcmax25", "jmax25"]
    if not light_only:
        names.append("tpu25")
    names.append("rd25")
    if config.temp_type >= 1:
        names += ["dha_vcmax", "dha_jmax"]
        if not light_only:
            names.append("dha_tpu")
    if config.temp_type == 2:
        names += ["topt_vcmax", "topt_jmax"]
        if not light_only:
            names.append("topt_tpu")
    if config.light_type >= 1:
        names.append("alpha")
    if config.light_type == 2:
        names.append("theta")
    if not light_only:
        names.append("alpha_g_raw")
    if config.fit_gm:
        names.append("gm")
    if config.fit_kinetics:
        names += ["kc25", "ko25", "gamma25"]
    return tuple(names)

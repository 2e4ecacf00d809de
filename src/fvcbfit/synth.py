"""Synthetic gas-exchange curves from known parameters.

The recovery oracle: generate curves with a known truth, refit, and
compare. All randomness comes from one seeded PCG64 generator per
curve, with a fixed draw order (four jitter factors if enabled, then
one Gaussian noise value per grid point) so results are reproducible
across platforms and the jittered truth can be re-derived from a
SynthSpec alone via draw_jittered_params.

A curve's noiseless A is `loss.predict_curve` on its grid, which runs
the fit's own evaluator: a noiseless curve holds exactly the A that a
fit's report gives at the generating parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data_io import CurveKind, Dataset, ResponseCurve
from .loss import predict_curve
from .params import FitConfig, MAIN_FOUR, ParameterState


def default_ci_grid() -> np.ndarray:
    """150 evenly spaced Ci points from 50 to 1800 µmol/mol."""
    return np.linspace(50.0, 1800.0, 150)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic curve.

    Exactly one of ci_grid / q_grid may be set; neither means the
    default Ci grid. A q_grid produces a light-response curve measured
    at the fixed ci_level; a ci_grid produces a CO2-response curve at
    the fixed qin_level.

    jitter=True scales each of the four main true parameters by an
    independent Uniform[1 - scale_jitter, 1 + scale_jitter] factor
    before generating, simulating plant-to-plant variation.
    """

    true_params: ParameterState
    config: FitConfig = field(default_factory=FitConfig)
    ci_grid: np.ndarray | None = None
    q_grid: np.ndarray | None = None
    ci_level: float = 400.0
    qin_level: float = 2000.0
    tleaf_c: float = 25.0
    noise_sd: float = 0.0
    seed: int = 0
    jitter: bool = False
    scale_jitter: float = 0.10
    curve_id: int = 0
    fitting_group: int = 0

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if not 0.0 <= self.scale_jitter < 1.0:
            raise ValueError("scale_jitter must be in [0, 1)")
        if self.ci_grid is not None and self.q_grid is not None:
            raise ValueError("give ci_grid or q_grid, not both")
        for grid in (self.ci_grid, self.q_grid):
            if grid is not None and np.any(np.diff(grid) <= 0):
                raise ValueError("grids must be strictly increasing")


def _rng(spec: SynthSpec) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(spec.seed))


def _jittered(spec: SynthSpec, rng: np.random.Generator) -> ParameterState:
    params = spec.true_params.copy()
    if spec.jitter and spec.scale_jitter > 0.0:
        s = spec.scale_jitter
        for name in MAIN_FOUR:
            arr = getattr(params, name)
            arr *= rng.uniform(1.0 - s, 1.0 + s, size=arr.shape)
    return params


def draw_jittered_params(spec: SynthSpec) -> ParameterState:
    """The exact parameters generate_curve(spec) evaluates the model at."""
    return _jittered(spec, _rng(spec))


def generate_curve(spec: SynthSpec, entry: int = 0,
                   group: int = 0) -> ResponseCurve:
    """One synthetic response curve.

    A_k = model(grid_k; jittered params) + Gaussian(0, noise_sd²), one
    independent draw per point. Equal specs give identical curves.
    """
    rng = _rng(spec)
    params = _jittered(spec, rng)
    if spec.q_grid is not None:
        qin = np.asarray(spec.q_grid, dtype=np.float64)
        ci = np.full_like(qin, spec.ci_level)
        kind = CurveKind.LightResponse
    else:
        grid = spec.ci_grid if spec.ci_grid is not None else default_ci_grid()
        ci = np.asarray(grid, dtype=np.float64)
        qin = np.full_like(ci, spec.qin_level)
        kind = CurveKind.CO2Response
    curve = ResponseCurve(curve_id=spec.curve_id,
                          fitting_group=spec.fitting_group, ci=ci,
                          a=np.zeros_like(ci), qin=qin,
                          tleaf_c=np.full_like(ci, spec.tleaf_c), kind=kind)
    # the forward model on Ci; the g_m substitution needs measured A and
    # has no place in generation
    config = replace(spec.config, fit_gm=False)
    a_hat, _ = predict_curve(curve, params, config, entry=entry, group=group)
    return replace(curve, a=a_hat + rng.normal(0.0, spec.noise_sd,
                                               size=a_hat.shape))


def generate_dataset(true_params: ParameterState, n_curves: int = 1,
                     config: FitConfig | None = None,
                     ci_grid: np.ndarray | None = None,
                     q_grid: np.ndarray | None = None,
                     noise_sd: float = 0.0, seed: int = 0,
                     jitter: bool = False, scale_jitter: float = 0.10,
                     tleaf_c: float = 25.0, qin_level: float = 2000.0,
                     ci_level: float = 400.0, fitting_group: int = 0):
    """A dataset of n_curves independent synthetic curves, plus truths.

    Curve i gets id i, seed seed+i, and its own jitter draw. Returns
    (Dataset, truths) where truths[i] is the ParameterState the i-th
    curve was generated from.
    """
    config = config or FitConfig()
    curves = []
    truths = []
    for i in range(n_curves):
        spec = SynthSpec(true_params=true_params, config=config,
                         ci_grid=ci_grid, q_grid=q_grid, ci_level=ci_level,
                         qin_level=qin_level, tleaf_c=tleaf_c,
                         noise_sd=noise_sd, seed=seed + i, jitter=jitter,
                         scale_jitter=scale_jitter, curve_id=i,
                         fitting_group=fitting_group)
        truths.append(draw_jittered_params(spec))
        curves.append(generate_curve(spec))
    groups = {fitting_group: [c.curve_id for c in curves]}
    return Dataset(curves=tuple(curves), groups=groups), truths

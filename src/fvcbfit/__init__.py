"""Gas-exchange curve fitting for the biochemical assimilation model.

Typical use:

    from fvcbfit import FitConfig, fit, load_csv

    dataset = load_csv("curves.csv")
    result = fit(dataset, FitConfig(temp_type=2))
    print(result.params.vcmax25, result.curve_metrics)
"""

from .constants import FvCBConstants, PARAM_DEFAULTS
from .data_io import (CurveKind, Dataset, GasExchangeRecord, ResponseCurve,
                      classify_curve, load_csv, write_dataset, write_results)
from .errors import (DegenerateSeries, DivergenceError, DomainError,
                     EmptyCurve, FvcbError, IoError, LengthMismatch,
                     MissingColumn, NonFinite, NonPositiveC, ParseError,
                     SeriesTooShort, TooFewPointsAfterCleanup, ZeroVariance)
from .gradient import GradientVector, loss_gradient
from .loss import (LossBreakdown, find_jc_index, mse, net_assimilation,
                   penalty_cjp, penalty_intersections, penalty_nonneg,
                   penalty_tpu_transition, penalty_vj_correlation,
                   predict_curve, total_loss)
from .metrics import CurveMetrics, pearson_r, r_squared, rmse
from .model import (arrhenius, electron_transport, limitation_rates,
                    peaked_arrhenius)
from .optimizer import (AdamState, FitResult, PointPrediction, adam_step,
                        fit, fit_groups, init_parameters, split_by_group)
from .params import FitConfig, ParameterState, fitted_fields
from .preprocess import (PreprocessConfig, preprocess_curve,
                         preprocess_dataset, sg_smooth_linear)
from .synth import (SynthSpec, default_ci_grid, draw_jittered_params,
                    generate_curve, generate_dataset)

__version__ = "0.1.0"

# what the README documents; every name imported above stays an attribute
__all__ = [
    "Dataset", "FitConfig", "FitResult", "GasExchangeRecord",
    "ParameterState", "ParseError", "PointPrediction", "ResponseCurve",
    "fit", "fit_groups", "generate_dataset", "load_csv", "net_assimilation",
    "predict_curve", "r_squared", "rmse",
]

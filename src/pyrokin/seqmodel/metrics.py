"""Error metrics for mass-loss predictions, in original target units."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from ..errors import InputError, NumericalError
from ..kinetics import r_squared
from .features import WindowDataset
from .lstm import LstmModel


@dataclass(frozen=True)
class EvalMetrics:
    """MAE/MSE/RMSE in mass-percent units plus the determination coefficient."""

    mae: float
    mse: float
    rmse: float
    r_squared: float


def metrics_from_arrays(actual, predicted) -> EvalMetrics:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.size == 0 or actual.shape != predicted.shape:
        raise InputError("actual and predicted must be equal-length, non-empty")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        err = predicted - actual
        mse = float((err**2).mean())
        ss_res = float((err**2).sum())
        ss_tot = float(((actual - actual.mean()) ** 2).sum())
        metrics = EvalMetrics(mae=float(np.abs(err).mean()), mse=mse, rmse=math.sqrt(mse),
                              r_squared=float(r_squared(ss_res, ss_tot)))
    if not all(map(math.isfinite, astuple(metrics))):
        raise NumericalError(f"the prediction errors overflow a float: {metrics}")
    return metrics


def evaluate(model: LstmModel, test_samples: WindowDataset) -> EvalMetrics:
    """Score a model on raw (unscaled) windows.

    Windows are scaled with the model's stored scaler, predictions are
    mapped back to mass percent, and all metrics are computed in those
    unscaled units.
    """
    return metrics_from_arrays(test_samples.targets, model.predict(test_samples))

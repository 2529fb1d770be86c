"""Sequence modelling of TGA mass-loss curves: features, LSTM, tuning, metrics."""

from .features import (
    MODEL1,
    MODEL2,
    MinMaxScaler,
    WindowDataset,
    build_features,
    lignocellulosic_remaining,
    split_dataset,
    window_sequences,
)
from .lstm import LstmModel, load_model, save_model
from .metrics import EvalMetrics, evaluate, metrics_from_arrays
from .search import SearchSpace, random_search
from .training import TrainConfig, train

__all__ = [
    "MODEL1",
    "MODEL2",
    "MinMaxScaler",
    "WindowDataset",
    "build_features",
    "lignocellulosic_remaining",
    "split_dataset",
    "window_sequences",
    "LstmModel",
    "load_model",
    "save_model",
    "EvalMetrics",
    "evaluate",
    "metrics_from_arrays",
    "SearchSpace",
    "random_search",
    "TrainConfig",
    "train",
]

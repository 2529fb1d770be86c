"""Training configuration, from-scratch optimizers and the BPTT training loop."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..errors import ConfigError, InputError, TrainingError
from ..tga_io import json_text, read_json
from .features import DEFAULT_LOOK_BACK, MinMaxScaler, WindowDataset
from .lstm import ACTIVATIONS, LstmModel, backward_batch, forward_batch, infer, init_params

# Conventional moment/decay constants for the from-scratch optimizers.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8

# the type each TrainConfig field's annotation names; a bool is none of them
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    The defaults are ``pyrokin train``'s: a flag, or a field of a
    ``--config`` file, left out takes its field's. The tuning search space
    constrains these to its catalogue of values; direct construction accepts
    anything structurally valid so that small diagnostic models (e.g. for
    gradient checking) remain expressible.
    """

    learning_rate: float = 0.005
    batch_size: int = 32
    epochs: int = 30
    dropout: float = 0.0
    hidden_units: int = 32
    lstm_layers: int = 1
    activation: str = "tanh"
    optimizer: str = "adam"
    look_back: int = DEFAULT_LOOK_BACK
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[field.type]):
                raise ConfigError(f"{field.name} must be of type {field.type}, got {value!r}")
        lr = self.learning_rate
        # compared, not passed to math.isfinite: an int past the float range
        # (JSON 1e400 written as digits) would raise OverflowError there
        if not 0.0 < lr <= sys.float_info.max:
            raise ConfigError(f"learning_rate must be a finite positive number, got {lr!r}")
        if self.batch_size < 1 or self.epochs < 1 or self.hidden_units < 1:
            raise ConfigError("batch_size, epochs, and hidden_units must be >= 1")
        if self.lstm_layers < 1:
            raise ConfigError(f"lstm_layers must be >= 1, got {self.lstm_layers}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation {self.activation!r} not one of {sorted(ACTIVATIONS)}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer {self.optimizer!r} not one of {tuple(OPTIMIZERS)}")
        if self.look_back < 1 or self.early_stop_patience < 0:
            raise ConfigError("look_back must be >= 1 and patience >= 0")
        if self.seed < 0:  # numpy's generators take non-negative seeds
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:  # tune's best_config.json
        return json_text(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """A config from a mapping of some of its fields; any other key raises ConfigError."""
        names = {f.name for f in fields(cls)}
        if unknown := [str(key) for key in doc if key not in names]:
            raise ConfigError(f"unknown training fields: {', '.join(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        """``from_dict`` of a JSON object, as ``to_json`` writes; other text raises ConfigError."""
        return cls.from_dict(read_json(text, "config", error=ConfigError))


# The optimizers update the whole flat parameter vector in place with the
# elementwise expressions of a per-tensor update, in the same order, so the
# bits are those of the per-tensor update. Each allocates its flat state and
# at most one scratch vector up front; the gradient, spent once read, is the second.
class _Sgd:
    def __init__(self, lr, size):
        self.lr = lr

    def step(self, params, grads):
        g = grads.flat
        g *= self.lr
        params.flat -= g


class _RmsProp:
    def __init__(self, lr, size):
        self.lr = lr
        self.v, self.scratch = np.zeros(size), np.empty(size)

    def step(self, params, grads):
        g = grads.flat
        v, s = self.v, self.scratch
        # v = rho * v + (1 - rho) * g**2
        v *= RMSPROP_RHO
        np.multiply(g, g, out=s)
        s *= 1.0 - RMSPROP_RHO
        v += s
        # params -= lr * g / (sqrt(v) + eps)
        np.sqrt(v, out=s)
        s += RMSPROP_EPS
        g *= self.lr
        g /= s
        params.flat -= g


class _Adam:
    def __init__(self, lr, size):
        self.lr = lr
        self.m, self.v, self.scratch = np.zeros(size), np.zeros(size), np.empty(size)
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        g = grads.flat
        m, v, s = self.m, self.v, self.scratch
        # m = beta1 * m + (1 - beta1) * g
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        # v = beta2 * v + (1 - beta2) * g**2
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        # params -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, bias1, out=g)
        g *= self.lr
        g /= s
        params.flat -= g


# Each optimizer by its TrainConfig name, in the tuning catalogue's order.
OPTIMIZERS = {"adam": _Adam, "sgd": _Sgd, "rmsprop": _RmsProp}


# Validation squared errors are summed in groups of this many windows, the
# order history.csv's losses have always been accumulated in.
LOSS_GROUP = 512


def _dataset_loss(params, rows, starts, y) -> float:
    sq_err = (infer(params, rows, starts) - y) ** 2
    total = 0.0
    for start in range(0, len(starts), LOSS_GROUP):
        total += float(sq_err[start : start + LOSS_GROUP].sum())
    return total / len(starts)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


def train(train_samples: WindowDataset, val_samples: WindowDataset, config: TrainConfig):
    """Fit the network on raw (unscaled) windows of ``config.look_back`` rows.

    The feature scaler is fit on the training split only, then applied to
    the feature rows, once when both splits share them (as the splits of
    one dataset do). Each mini-batch is gathered from the scaled rows by its
    windows' row indices, so no window stack of a whole split is built.
    Each step's forward cache is dropped before the next step's forward pass
    and before the validation pass: at the peak, training holds the rows,
    one batch and one step's cache. The parameters, their gradients and the
    optimizer state are each one flat vector, and every step writes the same
    gradient vector.

    Mini-batch gradients are averaged within each batch and applied as one
    optimizer update; epoch-level shuffling, weight initialization, and
    dropout all derive from ``config.seed``, so a fixed (data, config) pair
    reproduces the history bitwise.

    Returns ``(model, history)`` where the model carries the weights of the
    epoch with the lowest validation loss.
    """
    if not train_samples or not val_samples:
        raise InputError("train and validation sets must be non-empty")

    scaler = MinMaxScaler.fit(train_samples)
    rows = scaler.scale_window(train_samples.rows)
    val_rows = (rows if val_samples.rows is train_samples.rows
                else scaler.scale_window(val_samples.rows))
    y_train = scaler.scale_target(train_samples.targets)
    y_val = scaler.scale_target(val_samples.targets)
    starts, offsets = train_samples.starts, np.arange(config.look_back)

    rng = np.random.default_rng(config.seed)
    params = init_params(train_samples.rows.shape[1], config, rng)
    optimizer = OPTIMIZERS[config.optimizer](config.learning_rate, len(params.flat))
    grads = params.zeros_like()  # every step's gradients, then the optimizer's scratch

    history: list[EpochRecord] = []
    best_val = math.inf
    best_params = params.copy()
    bad_epochs = 0
    n = len(train_samples)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sq_err_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb = rows.take(starts[idx, None] + offsets, axis=0)
            cache = None  # freed before this step allocates its own
            pred, cache = forward_batch(params, Xb, config, rng=rng, want_cache=True)
            err = pred - y_train[idx]
            sq_err_total += float((err**2).sum())
            backward_batch(params, cache, 2.0 * err / len(idx), grads)
            optimizer.step(params, grads)
        cache = None  # freed before inference allocates its blocks
        train_loss = sq_err_total / n
        val_loss = _dataset_loss(params, val_rows, val_samples.starts, y_val)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        history.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params.flat[...] = params.flat
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.early_stop_patience:
                break

    model = LstmModel(params=best_params, scaler=scaler, feature_mode=train_samples.feature_mode)
    return model, history

"""Random hyperparameter search over the tuning catalogue."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ..errors import ConfigError
from .lstm import ACTIVATIONS
from .training import OPTIMIZERS, TrainConfig, train

# Each catalogue a trial draws one value from, in draw order, and the
# TrainConfig field the value sets.
_PICKED = {"batch_sizes": "batch_size", "epochs_choices": "epochs",
           "dropout_choices": "dropout", "hidden_choices": "hidden_units",
           "layer_choices": "lstm_layers", "activations": "activation",
           "optimizers": "optimizer"}


@dataclass(frozen=True)
class SearchSpace:
    """Value catalogue sampled by the random search.

    Defaults cover the standard tuning grid: learning rate log-uniform in
    [1e-4, 1e-2], batch size 32/64, epochs 10..50 by 10, dropout 0.1..0.5 by
    0.1, hidden units 64..256 by 32, one to three stacked layers, and the
    three activations and optimizers.
    """

    learning_rate_bounds: tuple[float, float] = (0.0001, 0.01)
    batch_sizes: tuple[int, ...] = (32, 64)
    epochs_choices: tuple[int, ...] = (10, 20, 30, 40, 50)
    dropout_choices: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    hidden_choices: tuple[int, ...] = (64, 96, 128, 160, 192, 224, 256)
    layer_choices: tuple[int, ...] = (1, 2, 3)
    activations: tuple[str, ...] = tuple(ACTIVATIONS)
    optimizers: tuple[str, ...] = tuple(OPTIMIZERS)
    early_stop_patience: int = TrainConfig.early_stop_patience

    def __post_init__(self):
        empty = [f.name for f in fields(self) if getattr(self, f.name) == ()]
        if empty:
            raise ConfigError(f"empty search choices: {', '.join(empty)}")
        # every value must make a valid TrainConfig, so none fails a later trial
        for name, field in {"learning_rate_bounds": "learning_rate", **_PICKED}.items():
            for value in getattr(self, name):
                TrainConfig(**{field: value})
        TrainConfig(early_stop_patience=self.early_stop_patience)
        bounds = self.learning_rate_bounds
        if len(bounds) != 2 or not bounds[0] <= bounds[1]:
            raise ConfigError(f"learning_rate_bounds must be two numbers lo <= hi, got {bounds}")

    def sample(self, rng: np.random.Generator, seed: int) -> TrainConfig:
        lo, hi = self.learning_rate_bounds
        values = {"learning_rate": float(np.exp(rng.uniform(np.log(lo), np.log(hi))))}
        for name, field in _PICKED.items():
            choices = getattr(self, name)
            values[field] = choices[int(rng.integers(len(choices)))]
        return TrainConfig(**values, early_stop_patience=self.early_stop_patience, seed=seed)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    config: TrainConfig
    val_loss: float


def random_search(space: SearchSpace, trials: int, master_seed: int,
                  train_samples, val_samples):
    """Train one model per randomly drawn config; rank by validation loss.

    Trial i derives all of its randomness from (master_seed, i), so repeated
    searches with the same master seed reproduce the leaderboard exactly.
    Every trial takes the training windows' look-back. Ties in validation
    loss break by trial index.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    results = []
    for i in range(trials):
        rng = np.random.default_rng([master_seed, i])
        config = replace(space.sample(rng, seed=int(rng.integers(2**31))),
                         look_back=train_samples.look_back)
        _, history = train(train_samples, val_samples, config)
        val_loss = min(rec.val_loss for rec in history)
        results.append(TrialResult(trial=i, config=config, val_loss=val_loss))
    leaderboard = sorted(results, key=lambda r: (r.val_loss, r.trial))
    return leaderboard[0].config, leaderboard

"""The training loop that ``train`` replaced, kept as the reference for the
histories and weights it produced: it gathers the whole training split's
``(n, look_back, F)`` window stack before the first step, scales the feature
rows once per split, and gives every step a fresh forward cache."""

import math

import numpy as np

from pyrokin.seqmodel.features import MinMaxScaler
from pyrokin.seqmodel.lstm import LstmModel, backward_batch, forward_batch, init_params
from pyrokin.seqmodel.training import EpochRecord, _dataset_loss, _make_optimizer


def reference_scaler(samples) -> MinMaxScaler:
    """``MinMaxScaler.fit``: the ranges of the rows some window covers."""
    rows = samples.rows[np.unique(samples.row_index())]
    targets = samples.targets
    return MinMaxScaler(feature_min=rows.min(axis=0), feature_max=rows.max(axis=0),
                        target_min=float(targets.min()), target_max=float(targets.max()))


def reference_train(train_samples, val_samples, config):
    feature_count = train_samples.rows.shape[1]
    scaler = reference_scaler(train_samples)
    X_train, y_train = train_samples.windows(scaler), scaler.scale_target(train_samples.targets)
    val_rows = scaler.scale_window(val_samples.rows)
    y_val = scaler.scale_target(val_samples.targets)

    rng = np.random.default_rng(config.seed)
    params = init_params(feature_count, config, rng)
    optimizer = _make_optimizer(config)

    history = []
    best_val = math.inf
    best_params = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    n = len(X_train)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sq_err_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb, yb = X_train[idx], y_train[idx]
            pred, cache = forward_batch(
                params, Xb, config, training=True, rng=rng, want_cache=True
            )
            err = pred - yb
            sq_err_total += float((err**2).sum())
            grads = backward_batch(params, cache, 2.0 * err / len(idx))
            optimizer.step(params, grads)
        train_loss = sq_err_total / n
        val_loss = _dataset_loss(params, val_rows, val_samples.starts, y_val, config)
        history.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.early_stop_patience:
                break

    model = LstmModel(params=best_params, config=config, scaler=scaler,
                      feature_mode=train_samples.feature_mode, feature_count=feature_count)
    return model, history

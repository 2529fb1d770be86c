"""The training loop that ``train`` replaced, kept as the reference for the
histories and weights it produced: it gathers the whole training split's
``(n, look_back, F)`` window stack before the first step, scales the feature
rows once per split, gives every step a fresh forward cache,
backpropagates with ``reference_backward_batch``, the BPTT that
``backward_batch`` replaced, and steps with ``ReferenceOptimizer``, which
shares no code with the package's flat-vector optimizers."""

import math

import numpy as np

from pyrokin.seqmodel.features import MinMaxScaler
from pyrokin.seqmodel.lstm import (
    ACTIVATIONS,
    LstmModel,
    _gate_blocks,
    forward_batch,
    init_params,
)
from pyrokin.seqmodel.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    RMSPROP_EPS,
    RMSPROP_RHO,
    EpochRecord,
    _dataset_loss,
)


class ReferenceOptimizer:
    """SGD, RMSprop and Adam written from their update rules, one tensor at
    a time over the ``param_shapes`` views, with state per tensor. Each
    expression is evaluated left to right in the package's order, so an
    update made in another order changes the bits."""

    def __init__(self, config):
        self.kind, self.lr = config.optimizer, config.learning_rate
        self.m, self.v = {}, {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        for key, p in params.items():
            g = grads[key]
            if self.kind == "sgd":
                p -= g * self.lr
            elif self.kind == "rmsprop":
                v = self.v.get(key, 0.0) * RMSPROP_RHO + g * g * (1.0 - RMSPROP_RHO)
                p -= g * self.lr / (np.sqrt(v) + RMSPROP_EPS)
                self.v[key] = v
            else:
                m = self.m.get(key, 0.0) * ADAM_BETA1 + g * (1.0 - ADAM_BETA1)
                v = self.v.get(key, 0.0) * ADAM_BETA2 + g * g * (1.0 - ADAM_BETA2)
                bias1, bias2 = 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t
                p -= m / bias1 * self.lr / (np.sqrt(v / bias2) + ADAM_EPS)
                self.m[key], self.v[key] = m, v


def reference_backward_batch(params, cache, dpred):
    """BPTT with every step's pre-activation gradients in a ``(T, 4H, N)``
    buffer of their own, beside the cache's gate activations, which it only
    reads; ``dW`` and ``dU`` are ``sum(axis=0)`` over stacks of the per-step
    products, ``(T, 4H, in)`` and ``(T - 1, 4H, H)``, copied into a new
    gradient vector."""
    config = cache["config"]
    layers = cache["layers"]
    hidden = config.hidden_units
    _, act_deriv = ACTIVATIONS[config.activation]
    bi, bf, bo, bg = _gate_blocks(hidden)
    sig = slice(0, 3 * hidden)

    grads = params.zeros_like()
    grads.dense_w[...] = cache["z"] @ dpred
    grads.dense_b[...] = dpred.sum()
    dh_last = np.outer(params.dense_w, dpred) * act_deriv(cache["h_last"])

    dpre = np.empty_like(layers[0]["acts"])
    steps = len(dpre)
    d_output = None  # gradient wrt the (possibly dropped-out) output sequence
    for layer in reversed(range(config.lstm_layers)):
        Lc = layers[layer]
        if d_output is None:
            # only the last step's output reaches the head
            dH, dh_rec = None, dh_last
        else:
            dH, dh_rec = d_output, 0.0
            if Lc["mask"] is not None:
                dH *= Lc["mask"].transpose(1, 2, 0)
        W, U, _ = params.layers[layer]
        acts, c_s, tc_s = Lc["acts"], Lc["c"], Lc["tc"]
        dc_rec = 0.0
        U_T = U.T
        for t in reversed(range(steps)):
            a = acts[t]
            i_t, f_t, o_t, g_t = a[bi], a[bf], a[bo], a[bg]
            tc = tc_s[t]
            dh = dh_rec if dH is None else dH[t] + dh_rec
            dc = dh * o_t
            dc *= 1.0 - tc * tc
            dc += dc_rec
            dp = dpre[t]
            np.multiply(dc, g_t, out=dp[bi])
            np.multiply(dc, c_s[t - 1] if t > 0 else 0.0, out=dp[bf])
            np.multiply(dh, tc, out=dp[bo])
            dp[sig] *= a[sig] * (1.0 - a[sig])
            np.multiply(dc * i_t, 1.0 - g_t * g_t, out=dp[bg])
            dc_rec = dc * f_t
            dh_rec = U_T @ dp
        # per-step products (steps, 4H, .) summed over time
        dW, dU, db = grads.layers[layer]
        dW[...] = np.matmul(dpre, Lc["x"].transpose(1, 0, 2)).sum(axis=0)
        # the state before step 0 is zero, so step 0 adds nothing to dU
        dU[...] = np.matmul(dpre[1:], Lc["h"][:-1].transpose(0, 2, 1)).sum(axis=0)
        db[...] = dpre.sum(axis=0).sum(axis=1)
        if layer > 0:
            d_output = np.matmul(W.T, dpre)
    return grads


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
    optimizer = ReferenceOptimizer(config)

    history = []
    best_val = math.inf
    best_params = params.copy()
    bad_epochs = 0
    n = len(X_train)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sq_err_total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb, yb = X_train[idx], y_train[idx]
            pred, cache = forward_batch(params, Xb, config, rng=rng, want_cache=True)
            err = pred - yb
            sq_err_total += float((err**2).sum())
            grads = reference_backward_batch(params, cache, 2.0 * err / len(idx))
            optimizer.step(params, grads)
        train_loss = sq_err_total / n
        val_loss = _dataset_loss(params, val_rows, val_samples.starts, y_val)
        history.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.early_stop_patience:
                break

    model = LstmModel(params=best_params, scaler=scaler, feature_mode=train_samples.feature_mode)
    return model, history

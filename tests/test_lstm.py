from dataclasses import replace

import base64
import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrokin.errors import ConfigError, InputError
from pyrokin.seqmodel import lstm
from pyrokin.seqmodel.features import MinMaxScaler
from pyrokin.seqmodel.lstm import (
    CHECKPOINT_VERSION,
    INFER_MAX_BLOCK,
    INFER_MIN_BLOCK,
    L2_BYTES,
    LstmModel,
    Params,
    backward_batch,
    forward_batch,
    infer,
    infer_block,
    init_params,
    load_model,
    save_model,
)
from pyrokin.seqmodel.training import TrainConfig
from reference_training import reference_backward_batch

# scalar hand evaluation of the cell equations for the weights below,
# window [1.0, -0.5], tanh on the dense path: frozen once, asserted forever
HAND_FORWARD_VALUE = 0.6450558453581282


def gradient_check(config: TrainConfig, window, target: float,
                   epsilon: float = 1e-5) -> float:
    """Analytic vs central-finite-difference gradients over every parameter.

    Uses squared error of one ``(look_back, features)`` window against
    ``target``. Only small models are accepted (hidden <= 8) and dropout
    must be off, since a stochastic forward pass would make the numeric
    reference meaningless.
    """
    if config.hidden_units > 8:
        raise ConfigError("gradient check is limited to hidden_units <= 8")
    if config.dropout > 0.0:
        raise ConfigError("gradient check requires dropout = 0 (training-mode "
                          "dropout makes the loss stochastic)")
    window = np.asarray(window, dtype=float)
    target = float(target)
    X = window[None, :, :]
    check_config = replace(config, look_back=window.shape[0])

    rng = np.random.default_rng(check_config.seed)
    params = init_params(window.shape[1], check_config, rng)

    pred, cache = forward_batch(params, X, check_config, want_cache=True)
    analytic = backward_batch(params, cache, 2.0 * (pred - target))

    def loss_at() -> float:
        p, _ = forward_batch(params, X, check_config)
        return float((p[0] - target) ** 2)

    worst = 0.0
    for key in sorted(params):
        tensor = params[key]  # a view of the parameter vector
        for j in np.ndindex(tensor.shape):
            original = tensor[j]
            tensor[j] = original + epsilon
            up = loss_at()
            tensor[j] = original - epsilon
            down = loss_at()
            tensor[j] = original
            numeric = (up - down) / (2.0 * epsilon)
            analytic_j = analytic[key][j]
            denom = max(abs(analytic_j) + abs(numeric), 1e-8)
            worst = max(worst, abs(analytic_j - numeric) / denom)
    return worst


def tiny_scaler(n_features):
    return MinMaxScaler(
        feature_min=np.zeros(n_features),
        feature_max=np.ones(n_features),
        target_min=0.0,
        target_max=1.0,
    )


def predict_one(model, window):
    """Scaled prediction for one already-scaled (look_back, features) window."""
    return float(infer(model.params, window, np.array([0]))[0])


def zero_params(feature_count, config):
    return Params(feature_count, config)


# ---------------------------------------------------------------- reference
# The per-gate kernels the fused ones replaced: four x_t @ W and four h @ U
# products per step, weight gradients accumulated step by step. Kept here as
# the independent reference the fused kernels must reproduce.
REF_GATES = ("i", "f", "g", "o")


def ref_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


REF_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(float)),
    "sigmoid": (ref_sigmoid, lambda x: ref_sigmoid(x) * (1.0 - ref_sigmoid(x))),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
}


def ref_forward_batch(params, X, config, training=False, rng=None):
    """Reference prediction and cache. Beside c and h the cache holds their
    term magnitudes "cm" and "hm": c_t = f*c_{t-1} + i*g unrolled is a sum
    over steps, and cm is the same sum over its terms' magnitudes. Rounding
    moves c by a small multiple of the unit roundoff times cm, which stays
    large where c itself cancels; h = o*tanh(c) inherits it as hm.
    """
    n, steps, _ = X.shape
    hidden = config.hidden_units
    use_dropout = training and config.dropout > 0.0 and config.lstm_layers > 1
    layers = []
    layer_input, input_mag = X, np.abs(X)
    names = ("i", "f", "g", "o", "c", "tc", "h", "cm", "hm")
    for layer in range(config.lstm_layers):
        Wi, Wf, Wg, Wo = (params[f"l{layer}.W{g}"] for g in REF_GATES)
        Ui, Uf, Ug, Uo = (params[f"l{layer}.U{g}"] for g in REF_GATES)
        bi, bf, bg, bo = (params[f"l{layer}.b{g}"] for g in REF_GATES)
        seqs = {k: np.empty((n, steps, hidden)) for k in names}
        h = np.zeros((n, hidden))
        c = np.zeros((n, hidden))
        cm = np.zeros((n, hidden))
        for t in range(steps):
            x_t = layer_input[:, t]
            i_t = ref_sigmoid(x_t @ Wi + h @ Ui + bi)
            f_t = ref_sigmoid(x_t @ Wf + h @ Uf + bf)
            g_t = np.tanh(x_t @ Wg + h @ Ug + bg)
            o_t = ref_sigmoid(x_t @ Wo + h @ Uo + bo)
            c = f_t * c + i_t * g_t
            cm = f_t * cm + i_t * np.abs(g_t)
            tc = np.tanh(c)
            h = o_t * tc
            # tanh has slope at most 1: tanh(c) moves by at most what c does
            hm = o_t * (np.abs(tc) + cm)
            for k, v in zip(names, (i_t, f_t, g_t, o_t, c, tc, h, cm, hm)):
                seqs[k][:, t] = v
        mask = None
        output, output_mag = seqs["h"], seqs["hm"]
        if use_dropout and layer < config.lstm_layers - 1:
            keep = 1.0 - config.dropout
            mask = (rng.random((n, steps, hidden)) < keep) / keep
            output, output_mag = seqs["h"] * mask, seqs["hm"] * mask
        layers.append({"x": layer_input, "xm": input_mag, "mask": mask, **seqs})
        layer_input, input_mag = output, output_mag
    act, _ = REF_ACTIVATIONS[config.activation]
    h_last = layers[-1]["h"][:, -1]
    z = act(h_last)
    # every head activation has slope at most 1
    zm = np.abs(z) + layers[-1]["hm"][:, -1]
    pred = z @ params["dense.w"] + params["dense.b"][0]
    pred_mag = zm @ np.abs(params["dense.w"]) + abs(params["dense.b"][0])
    return pred, {"layers": layers, "h_last": h_last, "z": z, "zm": zm,
                  "pred_mag": pred_mag, "config": config}


def ref_backward_batch(params, cache, dpred):
    """Reference gradients plus, per key, the sums of the absolute terms.

    Every gradient entry is a sum over batch and steps; the second dict holds
    the same sums taken over the terms' magnitudes (|x|.T @ |dpre| and so
    on), the scale of the rounding error of any summation order. Forward
    values enter through their term magnitudes from ``ref_forward_batch``
    (hm for h, cm for c), so rounding in a forward pass that cancels is
    covered too.
    """
    config = cache["config"]
    layers = cache["layers"]
    hidden = config.hidden_units
    _, act_deriv = REF_ACTIVATIONS[config.activation]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["dense.w"] = cache["z"].T @ dpred
    grads["dense.b"] = np.array([dpred.sum()])
    scales = {k: np.zeros_like(v) for k, v in params.items()}
    scales["dense.w"] = cache["zm"].T @ np.abs(dpred)
    scales["dense.b"] = np.array([np.abs(dpred).sum()])
    dh_last = np.outer(dpred, params["dense.w"]) * act_deriv(cache["h_last"])
    n, steps, _ = layers[0]["x"].shape
    zero = np.zeros((n, hidden))
    d_output = None
    for layer in reversed(range(config.lstm_layers)):
        Lc = layers[layer]
        if d_output is None:
            dH = np.zeros((n, steps, hidden))
            dH[:, -1] = dh_last
        else:
            dH = d_output if Lc["mask"] is None else d_output * Lc["mask"]
        W = {g: params[f"l{layer}.W{g}"] for g in REF_GATES}
        U = {g: params[f"l{layer}.U{g}"] for g in REF_GATES}
        dx_seq = np.zeros_like(Lc["x"])
        dh_rec = np.zeros((n, hidden))
        dc_rec = np.zeros((n, hidden))
        for t in reversed(range(steps)):
            i_t, f_t, g_t, o_t = (Lc[k][:, t] for k in ("i", "f", "g", "o"))
            tc, cm = Lc["tc"][:, t], Lc["cm"][:, t]
            dh = dH[:, t] + dh_rec
            dc = dh * o_t * (1.0 - tc**2) + dc_rec
            c_prev, cm_prev, h_prev, hm_prev = (Lc[k][:, t - 1] if t > 0 else zero
                                                for k in ("c", "cm", "h", "hm"))
            dpre = {
                "o": dh * tc * o_t * (1.0 - o_t),
                "i": dc * g_t * i_t * (1.0 - i_t),
                "g": dc * i_t * (1.0 - g_t**2),
                "f": dc * c_prev * f_t * (1.0 - f_t),
            }
            # the same terms with tanh(c) and c_prev at their magnitudes
            dpre_mag = {
                "o": np.abs(dh) * (np.abs(tc) + cm) * o_t * (1.0 - o_t),
                "i": np.abs(dpre["i"]),
                "g": np.abs(dpre["g"]),
                "f": np.abs(dc) * cm_prev * f_t * (1.0 - f_t),
            }
            dc_rec = dc * f_t
            x_t, xm_t = Lc["x"][:, t], Lc["xm"][:, t]
            dh_rec = np.zeros((n, hidden))
            for g in REF_GATES:
                grads[f"l{layer}.W{g}"] += x_t.T @ dpre[g]
                grads[f"l{layer}.U{g}"] += h_prev.T @ dpre[g]
                grads[f"l{layer}.b{g}"] += dpre[g].sum(axis=0)
                scales[f"l{layer}.W{g}"] += xm_t.T @ dpre_mag[g]
                scales[f"l{layer}.U{g}"] += hm_prev.T @ dpre_mag[g]
                scales[f"l{layer}.b{g}"] += dpre_mag[g].sum(axis=0)
                dx_seq[:, t] += dpre[g] @ W[g].T
                dh_rec += dpre[g] @ U[g].T
        d_output = dx_seq
    return grads, scales


def assert_rel_close(actual, expected, rel=1e-12, scale=None):
    """Largest deviation at most ``rel`` times the largest reference magnitude.

    ``scale``, when given, replaces ``|expected|`` as the magnitude: for a
    sum, the sum of its terms' magnitudes bounds the rounding error of every
    summation order (Higham, Accuracy and Stability of Numerical Algorithms,
    section 4.2), while a sum that nearly cancels can be far smaller.
    """
    assert actual.shape == expected.shape
    magnitude = np.abs(expected) if scale is None else scale
    assert np.abs(actual - expected).max(initial=0.0) <= rel * magnitude.max(initial=0.0)


def assert_matches_reference(n, steps, features, hidden, layers, activation,
                             dropout, seed):
    config = TrainConfig(hidden_units=hidden, lstm_layers=layers, look_back=steps,
                         activation=activation, dropout=dropout, seed=seed)
    params = init_params(features, config, np.random.default_rng(seed))
    X = np.random.default_rng(seed + 1).random((n, steps, features))
    dpred = np.random.default_rng(seed + 2).standard_normal(n)

    pred, cache = forward_batch(params, X, config, rng=np.random.default_rng(seed + 3),
                                want_cache=True)
    ref_pred, ref_cache = ref_forward_batch(params, X, config, training=True,
                                            rng=np.random.default_rng(seed + 3))
    # the prediction is a sum too, whose terms carry h's term magnitude
    assert_rel_close(pred, ref_pred, scale=ref_cache["pred_mag"])
    infer, _ = forward_batch(params, X, config)
    ref_infer, ref_infer_cache = ref_forward_batch(params, X, config)
    assert_rel_close(infer, ref_infer, scale=ref_infer_cache["pred_mag"])

    grads = backward_batch(params, cache, dpred)
    ref_grads, scales = ref_backward_batch(params, ref_cache, dpred)
    assert grads.keys() == params.keys()
    for key, ref in ref_grads.items():
        assert_rel_close(grads[key], ref, scale=scales[key])


class TestFusedMatchesReference:
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    @pytest.mark.parametrize("hidden", [1, 5, 48])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_predictions_and_gradients(self, layers, hidden, activation):
        assert_matches_reference(n=16, steps=6, features=4, hidden=hidden,
                                 layers=layers, activation=activation,
                                 dropout=0.3, seed=layers * 100 + hidden)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        n=st.integers(1, 9),
        steps=st.integers(1, 7),
        features=st.integers(1, 6),
        hidden=st.integers(1, 9),
        layers=st.integers(1, 3),
        activation=st.sampled_from(["relu", "sigmoid", "tanh"]),
        dropout=st.sampled_from([0.0, 0.25]),
        seed=st.integers(0, 2**16),
    )
    # l0.bi is a 5-step sum that nearly cancels: 1.2776e-07 from terms whose
    # magnitudes sum to far more, so the summation orders of the fused and
    # per-gate kernels differ by 2.3e-12 of the result
    @example(n=1, steps=5, features=1, hidden=1, layers=1, activation="sigmoid",
             dropout=0.0, seed=42554)
    # the forward pass cancels: h_last (6.5e-07) comes from a cell state far
    # below its terms, so the prediction (2.6e-07) and dense.w (3.1e-08) carry
    # their rounding, 2.0e-11 of the scales taken from the values alone
    @example(n=1, steps=6, features=1, hidden=2, layers=2, activation="relu",
             dropout=0.25, seed=64938)
    def test_any_shape(self, n, steps, features, hidden, layers, activation,
                       dropout, seed):
        assert_matches_reference(n, steps, features, hidden, layers, activation,
                                 dropout, seed)


class TestCacheLayout:
    """Layer inputs and dropout masks stay batch-major, like X, whatever
    layout the kernels use inside."""

    @pytest.mark.parametrize("layers,dropout", [(1, 0.0), (2, 0.0), (3, 0.3)])
    def test_inputs_and_masks_match_reference(self, layers, dropout):
        n, steps, features, hidden = 5, 4, 3, 6
        config = TrainConfig(hidden_units=hidden, lstm_layers=layers, look_back=steps,
                             dropout=dropout)
        params = init_params(features, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((n, steps, features))
        _, cache = forward_batch(params, X, config, rng=np.random.default_rng(2), want_cache=True)
        _, ref_cache = ref_forward_batch(params, X, config, training=True,
                                         rng=np.random.default_rng(2))
        assert cache["config"] is config
        assert len(cache["layers"]) == layers
        assert np.array_equal(cache["layers"][0]["x"], X)
        for k, (entry, ref) in enumerate(zip(cache["layers"], ref_cache["layers"])):
            assert entry["x"].shape == (n, steps, features if k == 0 else hidden)
            assert_rel_close(entry["x"], ref["x"])
            mask = entry["mask"]
            # inverted dropout sits between stacked layers only
            assert (mask is not None) == (dropout > 0.0 and k < layers - 1)
            if mask is not None:
                assert mask.shape == (n, steps, hidden)
                assert np.array_equal(mask, ref["mask"])


class TestCacheReuse:
    """A training step's cache: what it holds for ``backward_batch``, and
    that a step allocates its own and little more, since no step reuses the
    previous step's (``train`` frees that first)."""

    def test_dropout_buffers_hold_the_mask_and_dropped_out_states(self):
        config = TrainConfig(hidden_units=5, lstm_layers=3, look_back=4, dropout=0.3)
        params = init_params(3, config, np.random.default_rng(0))
        X = np.random.default_rng(2).random((6, 4, 3))
        _, cache = forward_batch(params, X, config, rng=np.random.default_rng(2),
                                 want_cache=True)
        keep = 1.0 - config.dropout
        draws = np.random.default_rng(2).random((2, 6, 4, 5))
        for k, (entry, above) in enumerate(zip(cache["layers"], cache["layers"][1:])):
            mask = entry["mask"]
            assert np.array_equal(mask, (draws[k] < keep) / keep)
            # the layer above reads the dropped-out states as its input
            assert above["x"].shape == (6, 4, 5)
            assert np.array_equal(above["x"], entry["h"].transpose(2, 0, 1) * mask)
        assert cache["layers"][-1]["mask"] is None

    def test_fresh_step_allocates_its_cache_and_less_than_one_mask_more(self):
        # tune_small's largest shape: 3 layers, H=32, N=64, T=20, 7 features,
        # dropout 0.3. The cache takes 8.19 MB, and the step peaked 0.15 MB
        # above it under tracemalloc (numpy 2.4): one more (N, T, H) float64
        # array (0.33 MB) kept or live at the end of the step would fail
        n, steps, hidden, features = 64, 20, 32, 7
        config = TrainConfig(hidden_units=hidden, lstm_layers=3, look_back=steps,
                             dropout=0.3)
        params = init_params(features, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((n, steps, features))
        tracemalloc.start()
        try:
            _, cache = forward_batch(params, X, config, rng=np.random.default_rng(2),
                                     want_cache=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every entry but "x", a view of X or of the layer below's states,
        # plus the dropped-out states a layer above a mask reads as its "x"
        layers = cache["layers"]
        cache_bytes = sum(array.nbytes for entry in layers
                          for key, array in entry.items()
                          if key != "x" and array is not None)
        cache_bytes += sum(above["x"].nbytes for entry, above in zip(layers, layers[1:])
                           if entry["mask"] is not None)
        assert peak < cache_bytes + 8 * n * steps * hidden


class TestBackwardInTheCache:
    """``backward_batch`` writes each step's pre-activation gradients over
    that step's spent gate activations and sums dW and dU step by step; the
    BPTT it replaced (tests/reference_training.py) kept a ``(T, 4H, N)``
    gradient buffer of its own and summed stacks of per-step products. The
    arithmetic and its order are the same, so are the bits."""

    FEATURES = 7

    def cache(self, params, X, config):
        _, cache = forward_batch(params, X, config, rng=np.random.default_rng(3), want_cache=True)
        return cache

    @pytest.mark.parametrize("layers, dropout, steps, n, hidden, activation", [
        (1, 0.0, 20, 64, 48, "tanh"),     # C07 shapes
        (1, 0.0, 20, 1, 48, "tanh"),      # one window
        (2, 0.3, 20, 13, 48, "relu"),     # a short last batch
        (3, 0.3, 20, 64, 72, "tanh"),     # past the 68-unit small-GEMM edge
        (1, 0.0, 20, 64, 128, "relu"),
        (2, 0.0, 1, 64, 48, "relu"),      # look-back 1: forward's sliding path
        (3, 0.3, 1, 1, 96, "sigmoid"),
    ])
    def test_gradients_bitwise(self, layers, dropout, steps, n, hidden, activation):
        config = TrainConfig(hidden_units=hidden, lstm_layers=layers, look_back=steps,
                             activation=activation, dropout=dropout)
        params = init_params(self.FEATURES, config, np.random.default_rng(hidden))
        X = np.random.default_rng(n).random((n, steps, self.FEATURES))
        dpred = np.random.default_rng(steps).standard_normal(n)
        cache = self.cache(params, X, config)
        assert "dpre" not in cache
        grads = backward_batch(params, cache, dpred)
        ref = reference_backward_batch(params, self.cache(params, X, config), dpred)
        assert grads.keys() == ref.keys() == params.keys()
        for key, value in grads.items():
            assert value.shape == ref[key].shape, key
            assert value.tobytes() == ref[key].tobytes(), key

    @pytest.mark.parametrize("features", [FEATURES, 64])
    def test_peak_below_half_a_stack_of_step_products(self, features):
        # C07 shapes (T=20, H=48, N=64): a (T, 4H, N) gradient buffer takes
        # 1.9 MiB and a (T - 1, 4H, H) stack of dU products 1.3 MiB; with 64
        # features a (T, 4H, in) stack of dW products is the larger stack
        steps, hidden, n = 20, 48, 64
        config = TrainConfig(hidden_units=hidden, lstm_layers=1, look_back=steps,
                             dropout=0.0)
        params = init_params(features, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((n, steps, features))
        cache = self.cache(params, X, config)
        dpred = np.random.default_rng(2).standard_normal(n)
        tracemalloc.start()
        try:
            backward_batch(params, cache, dpred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack = 8 * 4 * hidden * max((steps - 1) * hidden, steps * features)
        assert peak < stack / 2

    def test_gradient_into_the_layer_below_reuses_the_spent_one(self):
        # 3 layers at T=20, H=72, N=64: a fresh (T, H, N) buffer (0.74 MB)
        # for each layer's gradient into the layer below peaked at 3.15 MB
        # under tracemalloc; written over the layer's spent incoming gradient
        # it peaks at 2.74 MB (numpy 2.4)
        steps, hidden, n = 20, 72, 64
        config = TrainConfig(hidden_units=hidden, lstm_layers=3, look_back=steps,
                             dropout=0.0)
        params = init_params(self.FEATURES, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((n, steps, self.FEATURES))
        cache = self.cache(params, X, config)
        dpred = np.random.default_rng(2).standard_normal(n)
        tracemalloc.start()
        try:
            backward_batch(params, cache, dpred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.95e6

    def test_top_layer_gradient_into_the_layer_below_reuses_its_cell_states(self):
        # 3 layers with dropout at T=20, H=8, N=512: a fresh (T, H, N) buffer
        # (0.66 MB) for the top layer's gradient into the layer below peaked
        # at 1.08 MB under tracemalloc; written over the top layer's spent
        # cell states, the whole backward pass peaks at 0.42 MB (numpy 2.4)
        steps, hidden, n = 20, 8, 512
        config = TrainConfig(hidden_units=hidden, lstm_layers=3, look_back=steps,
                             dropout=0.3)
        params = init_params(self.FEATURES, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((n, steps, self.FEATURES))
        cache = self.cache(params, X, config)
        dpred = np.random.default_rng(2).standard_normal(n)
        tracemalloc.start()
        try:
            backward_batch(params, cache, dpred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * steps * hidden * n


class TestForward:
    def test_zero_weights_predict_dense_bias(self):
        config = TrainConfig(hidden_units=3, lstm_layers=2, look_back=4,
                             activation="sigmoid", dropout=0.0)
        params = zero_params(5, config)
        params["dense.b"][0] = 0.73
        model = LstmModel(params, tiny_scaler(5), "model1")
        window = np.ones((4, 5))
        assert predict_one(model, window) == pytest.approx(0.73, abs=1e-15)

    def test_hand_computed_single_unit_cell(self):
        config = TrainConfig(hidden_units=1, lstm_layers=1, look_back=2,
                             activation="tanh", dropout=0.0)
        params = zero_params(1, config)
        for gate, w, u, b in (
            ("i", 0.5, 0.1, 0.0),
            ("f", 0.4, 0.2, 1.0),
            ("g", 0.3, 0.3, 0.1),
            ("o", 0.2, 0.4, -0.1),
        ):
            params[f"l0.W{gate}"][0, 0] = w
            params[f"l0.U{gate}"][0, 0] = u
            params[f"l0.b{gate}"][0] = b
        params["dense.w"][0] = 2.0
        params["dense.b"][0] = 0.5
        model = LstmModel(params, tiny_scaler(1), "model1")
        window = np.array([[1.0], [-0.5]])
        assert predict_one(model, window) == pytest.approx(HAND_FORWARD_VALUE, abs=1e-12)

    def test_inference_is_bitwise_deterministic(self):
        config = TrainConfig(hidden_units=6, lstm_layers=2, look_back=8, dropout=0.3)
        params = init_params(4, config, np.random.default_rng(11))
        model = LstmModel(params, tiny_scaler(4), "model1")
        window = np.random.default_rng(2).random((8, 4))
        assert predict_one(model, window) == predict_one(model, window)

    def test_training_dropout_needs_rng(self):
        config = TrainConfig(hidden_units=2, lstm_layers=2, look_back=3, dropout=0.5)
        params = init_params(3, config, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="RNG"):
            forward_batch(params, np.ones((1, 3, 3)), config, want_cache=True)

    def test_inference_ignores_the_rng(self):
        # a pass without a cache is inference: no dropout, and no draw
        config = TrainConfig(hidden_units=4, lstm_layers=3, look_back=5, dropout=0.5)
        params = init_params(3, config, np.random.default_rng(0))
        X = np.random.default_rng(1).random((7, 5, 3))
        rng = np.random.default_rng(2)
        with_rng, cache = forward_batch(params, X, config, rng=rng)
        without, _ = forward_batch(params, X, config)
        assert cache is None
        assert with_rng.tobytes() == without.tobytes()
        assert rng.random() == np.random.default_rng(2).random()


class TestInfer:
    @pytest.mark.parametrize("hidden, block", [
        (8, 409), (16, 204), (32, 102), (48, 68), (51, 64),  # pre-activations fit L2
        (52, 512), (64, 512), (256, 512),                   # 64 windows overflow it
        (1, 512), (4, 512),                                 # capped at 512
    ])
    def test_block_rule_at_look_back_20(self, hidden, block):
        assert infer_block(20, hidden) == block

    @settings(max_examples=200, deadline=None, database=None)
    @given(steps=st.integers(1, 400), hidden=st.integers(1, 600))
    def test_block_bounds(self, steps, hidden):
        block = infer_block(steps, hidden)
        assert INFER_MIN_BLOCK <= block <= INFER_MAX_BLOCK
        preact_bytes = 8 * steps * 4 * hidden
        if preact_bytes * INFER_MIN_BLOCK > L2_BYTES:
            assert block == INFER_MAX_BLOCK
        else:
            assert preact_bytes * block <= L2_BYTES
            assert block == INFER_MAX_BLOCK or preact_bytes * (block + 1) > L2_BYTES

    @pytest.mark.parametrize("layers", [1, 2])
    def test_several_blocks_and_a_remainder_match_one_batch(self, layers):
        config = TrainConfig(hidden_units=48, lstm_layers=layers, look_back=20,
                             activation="sigmoid")
        block = infer_block(20, 48)
        n = 3 * block + 5
        rows = np.random.default_rng(5).random((n + 19, 7))
        starts = np.arange(n)
        params = init_params(7, config, np.random.default_rng(9))
        whole, _ = forward_batch(params, gathered(rows, starts, 20), config)
        assert np.allclose(infer(params, rows, starts), whole, rtol=1e-12, atol=0.0)

    def test_empty_stack(self):
        config = TrainConfig(hidden_units=4, look_back=6)
        params = init_params(3, config, np.random.default_rng(0))
        pred = infer(params, np.random.default_rng(1).random((10, 3)), np.array([], dtype=int))
        assert pred.shape == (0,)


def gathered(rows, starts, look_back):
    """The ``(n, look_back, features)`` stack of the windows at ``starts``."""
    return rows[starts[:, None] + np.arange(look_back)]


def blockwise_reference(params, rows, starts, config):
    """``forward_batch`` on each ``infer_block`` slice of the gathered windows,
    concatenated: what ``infer`` computed before it took rows and starts."""
    X = gathered(rows, starts, config.look_back)
    block = infer_block(config.look_back, config.hidden_units)
    preds = [forward_batch(params, X[k : k + block], config)[0]
             for k in range(0, len(X), block)]
    return np.concatenate(preds)


def two_curve_starts(rows_a, rows_b, look_back):
    """Window starts of two curves of ``rows_a`` and ``rows_b`` rows, laid out
    as ``window_sequences`` lays them out."""
    return np.concatenate([np.arange(rows_a - look_back),
                           rows_a + np.arange(rows_b - look_back)])


class TestSlidingInfer:
    """``infer`` on rows and starts against the gathered blockwise reference,
    bitwise; a block of consecutive starts runs as a view of the rows."""

    def check(self, rows, starts, config, monkeypatch, rtol=None):
        params = init_params(rows.shape[1], config, np.random.default_rng(4))
        views = []

        def spy(params, X, config, **kwargs):
            views.append(np.shares_memory(X, rows))
            return forward_batch(params, X, config, **kwargs)

        monkeypatch.setattr(lstm, "forward_batch", spy)
        got = infer(params, rows, starts)
        monkeypatch.undo()
        expected = blockwise_reference(params, rows, starts, config)
        if rtol is None:
            assert np.array_equal(got, expected)
        else:
            assert np.allclose(got, expected, rtol=rtol, atol=0.0)
        return views

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_one_curve(self, layers, monkeypatch):
        config = TrainConfig(hidden_units=48, lstm_layers=layers, look_back=20)
        block = infer_block(20, 48)
        n = 2 * block + 9
        rows = np.random.default_rng(1).random((n + 19, 7))
        views = self.check(rows, np.arange(n), config, monkeypatch)
        assert views == [True, True, True]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_two_curves(self, layers, monkeypatch):
        config = TrainConfig(hidden_units=16, lstm_layers=layers, look_back=10,
                             activation="relu")
        block = infer_block(10, 16)
        rows_a = block + 30  # the first curve ends inside the second block
        rows = np.random.default_rng(2).random((rows_a + 400, 4))
        starts = two_curve_starts(rows_a, 400, 10)
        assert np.diff(starts).max() == 11
        views = self.check(rows, starts, config, monkeypatch)
        assert views == [True, False, True]

    def test_large_model_matches_to_rounding(self, monkeypatch):
        # the first block's projection GEMM, 4H x (block + T - 1) x 7, is past
        # OpenBLAS's small-matrix path (M * N * K > 1e6), where a sliding and a
        # gathered block may round differently: equal to 1e-12, not bitwise
        config = TrainConfig(hidden_units=96, look_back=20)
        block = infer_block(20, 96)
        assert 4 * 96 * (block + 19) * 7 > 10**6
        n = block + 40
        rows = np.random.default_rng(8).random((n + 19, 7))
        views = self.check(rows, np.arange(n), config, monkeypatch, rtol=1e-12)
        assert views == [True, True]

    def test_permuted_block_is_gathered(self, monkeypatch):
        # first and last start differ by len - 1, yet the windows are not in order
        config = TrainConfig(hidden_units=8, lstm_layers=2, look_back=5)
        rows = np.random.default_rng(3).random((8, 3))
        views = self.check(rows, np.array([0, 2, 1, 3]), config, monkeypatch)
        assert views == [False]

    def test_shuffled_split(self, monkeypatch):
        config = TrainConfig(hidden_units=32, look_back=20, activation="sigmoid")
        rows = np.random.default_rng(6).random((300, 7))
        starts = np.random.default_rng(7).permutation(two_curve_starts(120, 180, 20))
        views = self.check(rows, starts, config, monkeypatch)
        assert not any(views)


class TestSlidingView:
    """``forward_batch`` on a sliding view of rows, whose layer-0 input
    projection is computed once per row, against its contiguous copy."""

    def views(self, n, steps, features, seed=0):
        rows = np.random.default_rng(seed).random((n + steps - 1, features))
        view = sliding_window_view(rows, steps, axis=0).transpose(0, 2, 1)
        assert view.strides[0] == view.strides[1]
        # gathered, not np.ascontiguousarray: numpy counts a one-window view
        # as contiguous already and would return it as it is
        copy = gathered(rows, np.arange(n), steps)
        assert copy.flags.c_contiguous and (steps == 1 or copy.strides[0] != copy.strides[1])
        return view, copy

    @pytest.mark.parametrize("n, steps, features, hidden, layers, activation", [
        (68, 20, 7, 48, 1, "tanh"),
        (40, 20, 7, 48, 2, "sigmoid"),
        (25, 7, 4, 6, 3, "relu"),
        (9, 1, 3, 5, 1, "tanh"),
        (1, 20, 7, 48, 1, "tanh"),  # one window: its projection stays a GEMV
    ])
    def test_predictions_and_gradients(self, n, steps, features, hidden, layers, activation):
        config = TrainConfig(hidden_units=hidden, lstm_layers=layers, look_back=steps,
                             activation=activation)
        params = init_params(features, config, np.random.default_rng(n))
        view, copy = self.views(n, steps, features)
        assert np.array_equal(forward_batch(params, view, config)[0],
                              forward_batch(params, copy, config)[0])
        pred_v, cache_v = forward_batch(params, view, config, want_cache=True)
        pred_c, cache_c = forward_batch(params, copy, config, want_cache=True)
        assert np.array_equal(pred_v, pred_c)
        for entry_v, entry_c in zip(cache_v["layers"], cache_c["layers"]):
            for key in ("x", "h", "acts", "c", "tc"):
                assert np.array_equal(entry_v[key], entry_c[key]), key
        dpred = np.random.default_rng(1).standard_normal(n)
        grads_v = backward_batch(params, cache_v, dpred)
        grads_c = backward_batch(params, cache_c, dpred)
        assert grads_v.keys() == grads_c.keys()
        for key in grads_c:
            assert np.array_equal(grads_v[key], grads_c[key]), key


class TestCheckpoint:
    def test_round_trip_preserves_predictions_bitwise(self):
        config = TrainConfig(hidden_units=5, lstm_layers=2, look_back=6,
                             activation="relu")
        params = init_params(4, config, np.random.default_rng(21))
        model = LstmModel(params, tiny_scaler(4), "model1")
        again = load_model(save_model(model))
        window = np.random.default_rng(3).random((6, 4))
        assert predict_one(model, window) == predict_one(again, window)
        assert again.params.config == model.params.config
        assert again.feature_mode == "model1"

    def test_unsupported_version_rejected(self):
        config = TrainConfig(hidden_units=2, lstm_layers=1, look_back=3)
        params = init_params(2, config, np.random.default_rng(0))
        model = LstmModel(params, tiny_scaler(2), "model1")
        text = save_model(model)
        version = f'"format_version": {CHECKPOINT_VERSION}'
        assert version in text
        with pytest.raises(InputError, match="version"):
            load_model(text.replace(version, '"format_version": 99'))

    def test_weights_are_exact_row_major_little_endian_float64(self):
        config = TrainConfig(hidden_units=3, lstm_layers=1, look_back=4)
        params = init_params(4, config, np.random.default_rng(5))
        # extreme finite values, in a tensor that is a strided view of the
        # parameter vector
        params["l0.Wi"][...] = [[-0.0, 5e-324, 0.1],
                                [1.7976931348623157e308, -2.5e-310, 1 / 3],
                                [-1e-300, 1e300, np.pi],
                                [2.0**-1074, -(2.0**1023), 0.0]]
        model = LstmModel(params, tiny_scaler(4), "model1")
        text = save_model(model)
        weights = json.loads(text)["weights"]
        assert sorted(weights) == sorted(params)
        raw = base64.b64decode(weights["l0.Wi"])
        assert raw == np.ascontiguousarray(params["l0.Wi"]).astype("<f8").tobytes()
        again = load_model(text)
        for key, value in params.items():
            assert again.params[key].shape == value.shape
            assert again.params[key].tobytes() == np.ascontiguousarray(value).tobytes(), key
            assert again.params[key].flags.writeable
        assert save_model(again) == text


class TestGradients:
    def window(self, look_back=5, features=4, seed=7):
        return np.random.default_rng(seed).random((look_back, features))

    def test_small_model_gradients_match_finite_differences(self):
        config = TrainConfig(hidden_units=4, lstm_layers=1, dropout=0.0,
                             look_back=5, seed=3)
        assert gradient_check(config, self.window(), 0.42, epsilon=1e-5) < 1e-4

    def test_two_layer_gradients_match(self):
        config = TrainConfig(hidden_units=3, lstm_layers=2, dropout=0.0,
                             look_back=4, activation="relu", seed=5)
        assert gradient_check(config, self.window(look_back=4), 0.42, epsilon=1e-5) < 1e-4

    def test_dense_bias_gradient_sign_convention(self):
        config = TrainConfig(hidden_units=3, lstm_layers=1, look_back=4, dropout=0.0)
        params = zero_params(2, config)
        params["dense.b"][0] = 0.5
        X = np.zeros((1, 4, 2))
        pred, cache = forward_batch(params, X, config, want_cache=True)
        assert pred[0] == 0.5
        grads = backward_batch(params, cache, 2.0 * (pred - 0.0))
        # squared-error loss against a zero target: d/db = 2 (pred - target)
        assert grads["dense.b"][0] == pytest.approx(1.0)

    def test_dropout_must_be_off(self):
        config = TrainConfig(hidden_units=4, lstm_layers=2, dropout=0.2, look_back=5)
        with pytest.raises(ConfigError, match="dropout"):
            gradient_check(config, self.window(), 0.42)

    def test_large_models_rejected(self):
        config = TrainConfig(hidden_units=64, lstm_layers=1, dropout=0.0, look_back=5)
        with pytest.raises(ConfigError, match="hidden"):
            gradient_check(config, self.window(), 0.42)

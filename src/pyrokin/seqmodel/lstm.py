"""Hand-rolled stacked LSTM with a dense regression head.

The cell is the canonical formulation: input/forget/output gates through
sigmoids, a tanh candidate, and h = o * tanh(c). The configurable activation
from the tuning space sits on the dense output path (applied to the final
hidden state before the linear read-out); gate nonlinearities are never
substituted. Everything is float64 numpy so the analytic gradients can be
verified against central finite differences.

A network's parameters live in one contiguous float64 vector (``Params``),
read by the kernels through named fused views: per layer ``W`` (4H, in),
``U`` (4H, H) and ``b`` (4H,), with gate row blocks ordered i, f, o, g so
that the three sigmoid gates are contiguous, and the read-out ``dense.w``
and ``dense.b``. The input projection of every step is computed before the
recurrence, and each step does one ``U @ h`` and one tanh over all four
gates (Appleyard, Kocisky & Blunsom, arXiv:1604.01946). Gradients have the
same layout, so an optimizer updates the whole vector in one pass. One
tensor per gate (``l<k>.W<g>``, ``l<k>.U<g>``, ``l<k>.b<g>``) exists only as
a view, where a checkpoint is written or read.

Inference takes feature rows and window starts. A row sits in ``look_back``
consecutive windows of its curve, at a different step of each, so for a
block of consecutive windows (a zero-copy sliding view of the rows) layer 0
projects its ``block + T - 1`` rows once, ``(4H, block + T - 1)``, in place
of a ``(T, 4H, block)`` projection of a window stack: the projection is
hoisted out of the window overlap as well as out of the recurrence.

Training gathers each mini-batch from the scaled feature rows, and
``backward_batch`` consumes the cache's gate activations, writing each
step's pre-activation gradients over that step's spent gates and summing
the weight gradients step by step; its gradients into the layers below go
over the top layer's spent cell states. So a backward pass allocates no
array of the cache's ``(T, 4H, N)`` or ``(T, H, N)`` sizes, nor a
``(T, 4H, in)`` or ``(T - 1, 4H, H)`` stack of per-step weight-gradient
products (reusing spent workspace, as in arXiv:1604.01946; Gruslys et al.,
arXiv:1606.03401, make the same case for BPTT memory).

Inside the kernels the layout is gate-major and batch-minor: a layer's
pre-activations are ``(T, 4H, N)`` and its states ``h``, ``c`` are
``(T, H, N)``. Each gate of a step is then one contiguous ``(H, N)`` block,
so every elementwise op runs as a single flat loop; with batch-major
``(N, 4H)`` rows a gate is a strided column slice, which numpy walks one
row at a time. The cache's layer inputs ``x`` and dropout masks stay
batch-major ``(N, T, .)`` like ``X``.
"""

from __future__ import annotations

import base64
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..errors import ConfigError, InputError
from ..tga_io import json_object, json_text, read_json
from .features import FEATURE_COLUMNS, MinMaxScaler, WindowDataset

if TYPE_CHECKING:
    from .training import TrainConfig

GATES = ("i", "f", "g", "o")
FUSED_GATES = ("i", "f", "o", "g")  # row blocks of the fused kernels

CHECKPOINT_VERSION = 2  # format_version 1 (decimal weights) still loads


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _sigmoid_deriv(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(float)),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
}


def param_shapes(feature_count: int, config: "TrainConfig") -> dict:
    """Key and shape of every parameter tensor, in initialisation order.

    This is also the checkpoint's weight layout: ``l<k>.W<g>`` (in_dim,
    hidden), ``l<k>.U<g>`` (hidden, hidden) and ``l<k>.b<g>`` (hidden,) for
    gates g in i/f/g/o, then ``dense.w`` (hidden,) and ``dense.b`` (1,).
    Layer 0 takes the feature count as in_dim; deeper layers the hidden size.
    A ``format_version`` 2 checkpoint stores each tensor as base64 of its
    ``8 * prod(shape)`` little-endian float64 bytes, row-major; version 1
    as nested decimal lists of this shape.
    """
    hidden = config.hidden_units
    shapes = {}
    for layer in range(config.lstm_layers):
        in_dim = feature_count if layer == 0 else hidden
        for gate in GATES:
            shapes[f"l{layer}.W{gate}"] = (in_dim, hidden)
            shapes[f"l{layer}.U{gate}"] = (hidden, hidden)
            shapes[f"l{layer}.b{gate}"] = (hidden,)
    shapes["dense.w"] = (hidden,)
    shapes["dense.b"] = (1,)
    return shapes


class Params(Mapping):
    """A network's weights in one contiguous float64 vector, ``flat``.

    ``layers[k]`` holds layer k's fused views ``(W, U, b)``: ``W`` (4H, in),
    ``U`` (4H, H) and ``b`` (4H,), gate row blocks in FUSED_GATES order;
    ``dense_w`` (H,) and ``dense_b`` (1,) are the read-out. Each ``W`` and
    ``U`` is stored row-major as its transpose, (in, 4H) and (H, 4H), so the
    fused matrix is column-major: the memory order that concatenating the
    transposed per-gate tensors gives, and with it the rounding of numpy's
    matrix-vector paths (a batch of one or two windows).

    As a mapping it is the checkpoint boundary: the keys and shapes of
    ``param_shapes``, each a view of its gate's block (``l<k>.W<g>`` is
    ``W[block].T``), so writing into a tensor writes the vector.
    """

    def __init__(self, feature_count: int, config: "TrainConfig", flat=None):
        self.feature_count, self.config = feature_count, config
        shapes = param_shapes(feature_count, config)
        if flat is None:
            size = sum(map(math.prod, shapes.values()))
            try:
                flat = np.zeros(size)
            except MemoryError:
                raise ConfigError(f"hidden_units={config.hidden_units}: the {8 * size:,} bytes "
                                  "of its parameters cannot be allocated") from None
        self.flat = flat
        end = 0

        def take(*shape):
            nonlocal end
            start, end = end, end + math.prod(shape)
            return self.flat[start:end].reshape(shape)

        hidden = config.hidden_units
        blocks = dict(zip(FUSED_GATES, _gate_blocks(hidden)))
        views = {}
        self.layers = []
        for layer in range(config.lstm_layers):
            in_dim = feature_count if layer == 0 else hidden
            W, U, b = take(in_dim, 4 * hidden).T, take(hidden, 4 * hidden).T, take(4 * hidden)
            self.layers.append((W, U, b))
            for gate in GATES:
                blk = blocks[gate]
                views[f"l{layer}.W{gate}"] = W[blk].T
                views[f"l{layer}.U{gate}"] = U[blk].T
                views[f"l{layer}.b{gate}"] = b[blk]
        self.dense_w, self.dense_b = take(hidden), take(1)
        views["dense.w"], views["dense.b"] = self.dense_w, self.dense_b
        self._views = views

    def __getitem__(self, key):
        return self._views[key]

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)

    def zeros_like(self) -> "Params":
        return Params(self.feature_count, self.config)

    def copy(self) -> "Params":
        return Params(self.feature_count, self.config, self.flat.copy())


def init_params(feature_count: int, config: "TrainConfig", rng: np.random.Generator):
    """Glorot-uniform weights, zero biases, forget-gate bias at 1, each
    tensor drawn in ``param_shapes`` order."""
    params = Params(feature_count, config)
    for key, shape in param_shapes(feature_count, config).items():
        if len(shape) == 2 or key == "dense.w":  # the read-out is a (hidden, 1) matrix
            bound = np.sqrt(6.0 / (shape[0] + (shape[1] if len(shape) == 2 else 1)))
            params[key][...] = rng.uniform(-bound, bound, shape)
        elif key.endswith(".bf"):
            params[key][...] = 1.0
    return params


def _gate_blocks(hidden):
    """Row slices of the FUSED_GATES blocks in a fused (4H, .) array."""
    return [slice(k * hidden, (k + 1) * hidden) for k in range(len(FUSED_GATES))]


def forward_batch(params, X, config, rng: np.random.Generator | None = None,
                  want_cache: bool = False):
    """Run a batch of windows through the network.

    ``X`` has shape (batch, look_back, features). Returns ``(pred, cache)``
    with ``pred`` of shape (batch,). A pass with ``want_cache`` is a training
    step: inverted dropout, drawn from ``rng``, is applied between stacked
    layers when the config asks for it. A pass without it is inference,
    which never drops out and leaves ``rng`` alone.

    When ``X.strides[0] == X.strides[1]``, window j's step t is row j + t of
    one sequence of ``batch + look_back - 1`` rows (a sliding view, such as
    ``infer`` passes): layer 0 then projects each of those rows once, and
    step t reads columns t .. t + batch of the projection.

    With ``want_cache`` the cache keeps every layer's gate activations
    ``acts`` (T, 4H, N), states ``h``, ``c`` and ``tanh(c)`` as ``tc``;
    a layer below a dropout boundary also keeps its ``mask`` (N, T, H) of
    1/keep or 0 (None elsewhere), and the layer above it reads the
    dropped-out output as its input ``x``. ``backward_batch`` consumes the
    cache, overwriting ``acts`` with the pre-activation gradients and the
    top layer's ``c`` with its gradient into the layer below.
    """
    n, steps, features = X.shape
    hidden = config.hidden_units
    bi, bf, bo, bg = _gate_blocks(hidden)
    sig = slice(0, 3 * hidden)
    use_dropout = want_cache and config.dropout > 0.0 and config.lstm_layers > 1
    if use_dropout and rng is None:
        raise ConfigError("training-mode dropout requires an RNG")
    # steps whose gate activations, c and tanh(c) are kept: without a cache
    # only the current step's are needed
    kept = steps if want_cache else 1

    layers = []
    seq = X.transpose(1, 2, 0)  # every sequence below is (steps, features, batch)
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): weights with the sigmoid rows
    # halved (exact in binary floating point) let one tanh cover all four
    # gates; the copies are column-major like the stored W and U
    half = np.repeat([0.5, 1.0], [3 * hidden, hidden])[:, None]
    for layer, (W, U, b) in enumerate(params.layers):
        W, U, b = (np.multiply(m, half, order="F") for m in (W, U, b[:, None]))
        # (one window stays on the per-step path: its gathered projection is
        # a matrix-vector product, which rounds unlike a GEMM column)
        sliding = layer == 0 and n > 1 and X.strides[0] == X.strides[1]
        # the sliding projection is shared by every step, so the gate
        # activations go to their own buffer: one step's when no cache is kept
        acts = np.empty((kept if sliding else steps, 4 * hidden, n))
        h_s = np.empty((steps, hidden, n))
        c_s, tc_s = np.empty((kept, hidden, n)), np.empty((kept, hidden, n))
        if sliding:
            spanned = as_strided(X, (n + steps - 1, features), X.strides[::2],
                                 writeable=False)
            proj = W @ spanned.T
            proj += b
        else:
            # pre-activations of every step, overwritten step by step with
            # the gate activations i, f, o (sigmoid) and g (tanh)
            proj = None
            np.matmul(W, seq, out=acts)
            acts += b
        h = c = np.zeros((hidden, n))
        for t in range(steps):
            k = t if want_cache else 0
            if proj is None:
                a = acts[t]
                a += U @ h
            else:
                a = np.add(proj[:, t : t + n], U @ h, out=acts[k])
            np.tanh(a, out=a)
            s = a[sig]
            s *= 0.5
            s += 0.5
            i_t, f_t, o_t, g_t = a[bi], a[bf], a[bo], a[bg]
            c = np.multiply(f_t, c, out=c_s[k])
            c += i_t * g_t
            tc = np.tanh(c, out=tc_s[k])
            h = np.multiply(o_t, tc, out=h_s[t])
        mask = None
        output = h_s
        if use_dropout and layer < config.lstm_layers - 1:
            keep = 1.0 - config.dropout
            mask, output = np.empty((n, steps, hidden)), np.empty((steps, hidden, n))
            # the uniforms are drawn into the mask, which becomes 1/keep or 0
            rng.random(out=mask)
            np.less(mask, keep, out=mask)
            mask /= keep
            np.multiply(h_s, mask.transpose(1, 2, 0), out=output)
        if want_cache:
            # "x" (the layer input) and "mask" are batch-major like X
            layers.append({"x": seq.transpose(2, 0, 1), "h": h_s, "mask": mask,
                           "acts": acts, "c": c_s, "tc": tc_s})
        seq = output

    act, _ = ACTIVATIONS[config.activation]
    z = act(h)  # h: the top layer's last state
    pred = params.dense_w @ z + params.dense_b[0]
    if not want_cache:
        return pred, None
    return pred, {"layers": layers, "h_last": h, "z": z, "config": config}


def backward_batch(params, cache, dpred, grads=None):
    """Backpropagation through time for one batch.

    ``dpred`` is dLoss/dprediction of shape (batch,). Returns the gradients
    as a ``Params`` of the layout of ``params``: ``grads`` when given, whose
    every value is overwritten (a training loop passes one vector for all
    its steps), otherwise a new one.

    Backward consumes the cache's gate activations. The step loop works on
    the gate-major ``(4H, N)`` blocks of the cache, carries only ``dh`` and
    ``dc`` and does one GEMM per step (the recurrent ``U.T @ dpre``). Once
    step t's gates are read, its pre-activation gradient ``dpre[t]`` is
    written over them in ``acts[t]``: the products of the step's recurrent
    gradients go to one ``(4H, N)`` step buffer, the gate derivatives are
    formed in place on the activation rows, and one multiply joins the two.
    ``dW`` and ``dU`` are then summed from +0.0 in ascending t through one
    product buffer each, the order in which ``sum(axis=0)`` adds a stack of
    the products, so the bits are those of the stacked sums without the
    stack, and copied into their views of the gradient vector; ``db`` (also
    written in its view) and the gradient into the layer below are each one
    call over the whole sequence; the latter is written over the layer's incoming gradient,
    spent by then, and for the top layer, which has none, over its own spent
    cell states ``c``. A cache cannot be given to ``backward_batch`` twice.
    """
    config = cache["config"]
    layers = cache["layers"]
    hidden = config.hidden_units
    _, act_deriv = ACTIVATIONS[config.activation]
    bi, bf, bo, bg = _gate_blocks(hidden)
    sig = slice(0, 3 * hidden)

    if grads is None:
        grads = params.zeros_like()
    np.matmul(cache["z"], dpred, out=grads.dense_w)
    grads.dense_b[0] = dpred.sum()
    dh_last = np.outer(params.dense_w, dpred) * act_deriv(cache["h_last"])

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
        steps = len(acts)
        step_grad = np.empty_like(acts[0])
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
            np.multiply(dc, g_t, out=step_grad[bi])
            np.multiply(dc, c_s[t - 1] if t > 0 else 0.0, out=step_grad[bf])
            np.multiply(dh, tc, out=step_grad[bo])
            np.multiply(dc, i_t, out=step_grad[bg])
            dc_rec = dc * f_t
            # the gates are read: a(1 - a) and 1 - g^2 replace them, then
            # the step's pre-activation gradient
            s = a[sig]
            s *= 1.0 - s
            np.multiply(g_t, g_t, out=g_t)
            np.subtract(1.0, g_t, out=g_t)
            a *= step_grad
            dh_rec = U_T @ a
        dW, dU, db = grads.layers[layer]
        # row-major sums and products, as numpy's BLAS path writes them (an
        # add into the column-major views each step costs 4-6x a row-major one)
        dW_sum, dU_sum = np.zeros(dW.shape), np.zeros(dU.shape)
        dW_t, dU_t = np.empty_like(dW_sum), np.empty_like(dU_sum)
        for t in range(steps):
            dW_sum += np.matmul(acts[t], Lc["x"][:, t], out=dW_t)
            # the state before step 0 is zero, so step 0 adds nothing to dU
            if t > 0:
                dU_sum += np.matmul(acts[t], Lc["h"][t - 1].T, out=dU_t)
        dW[...] = dW_sum
        dU[...] = dU_sum
        acts.sum(axis=0, out=step_grad).sum(axis=1, out=db)  # the step buffer is spent
        if layer > 0:
            d_output = np.matmul(W.T, acts, out=c_s if dH is None else dH)
    return grads


@dataclass(frozen=True)
class LstmModel:
    """Trained network: weights (with their config), scaler, and feature layout."""

    params: Params
    scaler: MinMaxScaler
    feature_mode: str

    def predict(self, samples: WindowDataset) -> np.ndarray:
        """Mass-percent predictions for raw windows: scaled with the stored
        scaler, run through ``infer`` and mapped back to target units."""
        rows = self.scaler.scale_window(samples.rows)
        scaled = infer(self.params, rows, samples.starts)
        return self.scaler.unscale_target(scaled)


# Inference blocks: as many windows as keep one layer's (T, 4H, block) float64
# pre-activations within a 2 MiB per-core L2, so each recurrent step reads
# its gates from cache. When fewer than INFER_MIN_BLOCK windows fit, even
# that many overflow L2 and GEMM width matters more: blocks are then
# INFER_MAX_BLOCK windows, which also caps the block for narrow layers.
# Gathered blocks and every layer past the first still allocate that buffer;
# layer 0 of a consecutive block does not (it keeps a (4H, block + T - 1)
# projection and one step's gates). On that path the block size matters
# little: at H=48, T=20, 7 features, 1,024 consecutive windows (3 sweeps of
# 30 rotated rounds, 2 vCPUs, 1 BLAS thread), the rule's 68 windows ran
# 1.06-1.10x the gathered path and 96-512 windows 1.03-1.14x, so the rule
# stands for both paths.
L2_BYTES = 2 * 1024 * 1024
INFER_MIN_BLOCK = 64
INFER_MAX_BLOCK = 512


def infer_block(steps: int, hidden: int) -> int:
    """Windows per inference block for look-back ``steps`` and ``hidden`` units."""
    fit = L2_BYTES // (8 * steps * 4 * hidden)
    return min(fit, INFER_MAX_BLOCK) if fit >= INFER_MIN_BLOCK else INFER_MAX_BLOCK


def infer(params, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Predictions for the windows of scaled feature ``rows`` (R, features)
    that start at ``starts``, each ``look_back`` rows long.

    Blocks of ``infer_block`` windows go through ``forward_batch``. A block
    of consecutive starts is a zero-copy sliding view of the rows, whose
    input projection ``forward_batch`` computes once per row; any other
    block (a shuffled split, or one straddling two curves) is gathered.
    Both give the same bits where the BLAS rounds each column of a GEMM
    independent of the matrix width: OpenBLAS's AVX-512 small-matrix
    kernel (M * N * K <= 1e6) does, which at T=20 and 7 features covers
    every block up to 67 hidden units. Past that the forms agree to
    rounding, not bit for bit (1e-12 relative in the tests at H=96).
    """
    steps = params.config.look_back
    block = infer_block(steps, params.config.hidden_units)
    pred = np.empty(len(starts))
    for k in range(0, len(starts), block):
        s = starts[k : k + block]
        if np.all(np.diff(s) == 1):
            span = rows[s[0] : s[0] + len(s) + steps - 1]
            X = sliding_window_view(span, steps, axis=0).transpose(0, 2, 1)
        else:
            X = rows[s[:, None] + np.arange(steps)]
        pred[k : k + block], _ = forward_batch(params, X, params.config)
    return pred


def save_model(model: LstmModel) -> str:
    """Checkpoint as a self-describing JSON document, ``format_version`` 2.

    The config and scaler are decimal JSON. The weights keep the keys and
    shapes of ``param_shapes``, one tensor per gate (views of the flat
    parameter vector, whose layout never reaches the file); each is one
    base64 string of its little-endian float64 bytes in row-major order,
    which writes and reads every value exactly without formatting or
    parsing a decimal float.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "feature_mode": model.feature_mode,
        "feature_count": model.params.feature_count,
        "config": model.params.config.to_dict(),
        "scaler": {
            "feature_min": model.scaler.feature_min.tolist(),
            "feature_max": model.scaler.feature_max.tolist(),
            "target_min": model.scaler.target_min,
            "target_max": model.scaler.target_max,
        },
        "weights": {k: base64.b64encode(np.asarray(v, dtype="<f8").tobytes()).decode("ascii")
                    for k, v in sorted(model.params.items())},
    }
    return json_text(doc)


def _checkpoint_array(value, shape, what, packed=False):
    """``value`` as a finite float64 array of ``shape``: nested decimal
    lists, or with ``packed`` one base64 string of little-endian float64
    bytes (``format_version`` 2 weights)."""
    if packed:
        if not isinstance(value, str):
            raise InputError(f"checkpoint {what} is not a base64 string")
        try:
            raw = base64.b64decode(value, validate=True)
        except ValueError:  # binascii.Error, or text that is not ASCII
            raise InputError(f"checkpoint {what} is not valid base64") from None
        size = 8 * math.prod(shape)
        if len(raw) != size:
            raise InputError(f"checkpoint {what} has {len(raw)} bytes, expected {size}")
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
    else:
        try:
            arr = np.array(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"checkpoint {what} is not a numeric array") from None
        if arr.shape != shape:
            raise InputError(f"checkpoint {what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"checkpoint {what} has non-finite values")
    return arr


def load_model(text: str) -> LstmModel:
    """Read a ``save_model`` checkpoint of ``format_version`` 2, or of
    version 1, whose weights are nested decimal lists of the same keys and
    shapes. The version, not the type of a value, picks the decoding.

    Raises InputError for anything else: text that is not a JSON object (see
    ``read_json``), a version that is not the JSON integer 1 or 2, a missing section,
    a config ``TrainConfig`` rejects, a feature count that does not fit the feature
    mode, or a weight or scaler array whose shape disagrees with config and features.
    """
    from .training import TrainConfig

    doc = read_json(text, "checkpoint")
    version = doc.get("format_version")
    # an int, not just equal to one: JSON true == 1 and 2.0 == 2 in Python
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):
        raise InputError(f"unsupported checkpoint version {version!r}")
    json_object(doc, "checkpoint",
                ("config", "scaler", "weights", "feature_mode", "feature_count"))
    try:
        config = TrainConfig.from_dict(json_object(doc["config"], "checkpoint config"))
    except ConfigError as exc:
        raise InputError(f"checkpoint config is malformed: {exc}") from None
    feature_mode = doc["feature_mode"]
    if not isinstance(feature_mode, str) or feature_mode not in FEATURE_COLUMNS:
        raise InputError(
            f"checkpoint feature_mode {feature_mode!r} not one of {sorted(FEATURE_COLUMNS)}")
    feature_count = len(FEATURE_COLUMNS[feature_mode])
    if doc["feature_count"] != feature_count:
        raise InputError(
            f"checkpoint feature_count {doc['feature_count']!r} != {feature_count} "
            f"features of {feature_mode}"
        )

    ranges = json_object(doc["scaler"], "checkpoint scaler",
                         ("feature_min", "feature_max", "target_min", "target_max"))
    scaler = MinMaxScaler(
        feature_min=_checkpoint_array(ranges["feature_min"], (feature_count,), "feature_min"),
        feature_max=_checkpoint_array(ranges["feature_max"], (feature_count,), "feature_max"),
        target_min=float(_checkpoint_array(ranges["target_min"], (), "target_min")),
        target_max=float(_checkpoint_array(ranges["target_max"], (), "target_max")),
    )
    weights = doc["weights"]
    # a layer has 12 weight tensors, so more layers than tensors cannot match;
    # checked first, since param_shapes takes time in proportion to the layers
    if isinstance(weights, dict) and config.lstm_layers > len(weights):
        raise InputError(f"checkpoint config has {config.lstm_layers} layers, more than its "
                         f"{len(weights)} weight tensors")
    shapes = param_shapes(feature_count, config)
    weights = json_object(weights, "checkpoint weights", shapes)
    unexpected = sorted(set(weights) - set(shapes))
    if unexpected:
        raise InputError(f"checkpoint weights not in the config: {', '.join(unexpected)}")
    packed = version == 2
    # every tensor is checked before the vector the config sizes is allocated,
    # so a config far larger than its weights is rejected, not allocated
    arrays = {k: _checkpoint_array(weights[k], shape, f"weight {k}", packed)
              for k, shape in shapes.items()}
    params = Params(feature_count, config)
    for k, array in arrays.items():
        params[k][...] = array
    return LstmModel(params=params, scaler=scaler, feature_mode=feature_mode)

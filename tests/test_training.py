import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from reference_training import reference_train

from pyrokin.constants import KELVIN_OFFSET
from pyrokin.errors import ConfigError, InputError, TrainingError
from pyrokin.seqmodel.features import MODEL1, MODEL2, window_sequences
from pyrokin.seqmodel.metrics import evaluate, metrics_from_arrays
from pyrokin.seqmodel.search import SearchSpace, random_search
from pyrokin.seqmodel.lstm import infer, init_params
from pyrokin.seqmodel.training import TrainConfig, _dataset_loss, train
from pyrokin.tga_io import DATE_SEEDS, TgaCurve


def linear_mass_samples(n_rows=120, look_back=10, beta=10.0, curve_id="lin", mode=MODEL1):
    """Mass falling linearly with temperature: an easy sequence task."""
    T = 25.0 + KELVIN_OFFSET + 5.0 * np.arange(n_rows)
    curve = TgaCurve(
        spec=DATE_SEEDS,
        heating_rate_beta=beta,
        time_s=(T - T[0]) * 60.0 / beta,
        temperature_k=T,
        mass_fraction=1.0 - 0.7 * np.arange(n_rows) / (n_rows - 1),
    )
    return window_sequences({curve_id: curve}, mode, look_back)


def far_targets(samples):
    """The same windows with every target at -500 mass percent."""
    return replace(samples, mass_pct=np.full_like(samples.mass_pct, -500.0))


def quick_config(**overrides):
    base = dict(
        learning_rate=0.01,
        batch_size=32,
        epochs=5,
        dropout=0.0,
        hidden_units=8,
        lstm_layers=1,
        activation="tanh",
        optimizer="adam",
        look_back=10,
        early_stop_patience=5,
        seed=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [4.0, True])
    @pytest.mark.parametrize("field", ["batch_size", "epochs", "hidden_units", "lstm_layers",
                                       "look_back", "early_stop_patience", "seed"])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ConfigError, match=field):
            quick_config(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True,
                                       10**400])
    def test_learning_rate_must_be_finite_positive_real(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            quick_config(learning_rate=value)

    def test_numpy_integers_accepted(self):
        assert quick_config(hidden_units=np.int64(8)).hidden_units == 8


class TestTrain:
    def test_linear_target_reaches_high_validation_r2(self):
        from pyrokin.seqmodel.features import split_dataset

        samples = linear_mass_samples(n_rows=220)
        train_set, val_set, _ = split_dataset(samples, seed=4)
        config = quick_config(
            learning_rate=0.005, hidden_units=32, epochs=30, batch_size=32
        )
        model, history = train(train_set, val_set, config)
        metrics = evaluate(model, val_set)
        assert metrics.r_squared >= 0.99
        assert history[-1].val_loss <= history[0].val_loss

    def test_zero_patience_stops_one_epoch_past_best(self):
        # validation targets sit far from the training targets, so fitting
        # the training data strictly worsens validation loss every epoch
        train_set = linear_mass_samples()
        val_set = far_targets(train_set[:20])
        config = quick_config(early_stop_patience=0, epochs=40, optimizer="sgd",
                              learning_rate=0.01)
        _, history = train(train_set, val_set, config)
        assert len(history) == 2
        assert history[1].val_loss > history[0].val_loss

    def test_same_config_and_seed_reproduce_history_bitwise(self):
        samples = linear_mass_samples()
        train_set, val_set = samples[:80], samples[80:]
        config = quick_config(dropout=0.2, lstm_layers=2, hidden_units=6)
        _, h1 = train(train_set, val_set, config)
        _, h2 = train(train_set, val_set, config)
        assert [(r.train_loss, r.val_loss) for r in h1] == [
            (r.train_loss, r.val_loss) for r in h2
        ]

    def test_best_weights_returned_not_last(self):
        train_set = linear_mass_samples()
        val_set = far_targets(train_set[:20])
        config = quick_config(early_stop_patience=3, epochs=6)
        model, history = train(train_set, val_set, config)
        best = min(r.val_loss for r in history)
        assert evaluate_scaled_loss(model, val_set) == pytest.approx(best, rel=1e-9)

    def test_divergence_reports_epoch(self):
        samples = linear_mass_samples()
        # an absurd step size blows the weights up within a few updates
        config = quick_config(optimizer="sgd", learning_rate=1e30, epochs=10)
        with pytest.raises(TrainingError, match="epoch"), np.errstate(all="ignore"):
            train(samples[:40], samples[40:50], config)

    def test_empty_sets_rejected(self):
        samples = linear_mass_samples()
        with pytest.raises(InputError):
            train(samples[:0], samples[:5], quick_config())
        with pytest.raises(InputError):
            train(samples[:5], samples[:0], quick_config())

    @pytest.mark.parametrize("mode", [MODEL1, MODEL2])
    def test_feature_mode_comes_from_the_dataset(self, mode):
        samples = linear_mass_samples(mode=mode)
        model, _ = train(samples[:40], samples[40:60], quick_config(epochs=1))
        assert model.feature_mode == mode
        assert model.params.feature_count == samples.rows.shape[1]

    def test_validation_loss_is_the_mse_of_infer(self):
        # 1,100 windows: two 512-window loss groups and a remainder
        config = quick_config(hidden_units=4, look_back=5)
        params = init_params(3, config, np.random.default_rng(8))
        rng = np.random.default_rng(6)
        rows, y = rng.random((1104, 3)), rng.random(1100)
        starts = rng.permutation(1100)
        mse = float(((infer(params, rows, starts) - y) ** 2).mean())
        assert _dataset_loss(params, rows, starts, y) == pytest.approx(
            mse, rel=1e-15, abs=0.0)


class TestMatchesReferenceLoop:
    """``train`` gathers each batch from the scaled rows; the loop it
    replaced (tests/reference_training.py) stacked the whole split. The
    values and the order of the arithmetic are the same, so are the bits."""

    @pytest.mark.parametrize(
        "layers, dropout, optimizer, batch_size, look_back, patience",
        [
            # 80 training windows: 16 divides them, the other sizes leave
            # a short last batch
            (1, 0.0, "adam", 16, 10, 5),
            (2, 0.2, "sgd", 13, 10, 5),
            (3, 0.2, "rmsprop", 9, 5, 5),
            (3, 0.0, "adam", 32, 5, 5),
            # validation targets far from the training ones: stops early
            (2, 0.2, "sgd", 11, 10, 0),
            # one-step windows: a gathered batch has equal window and step
            # strides, so forward_batch takes its sliding path
            (2, 0.0, "rmsprop", 7, 1, 5),
            # last batches of one and of two windows, where numpy multiplies
            # matrices by vectors
            (3, 0.2, "adam", 79, 10, 5),
            (3, 0.2, "rmsprop", 39, 10, 5),
        ],
    )
    def test_history_and_weights_bitwise(self, layers, dropout, optimizer, batch_size,
                                         look_back, patience):
        samples = linear_mass_samples(look_back=look_back)
        train_set, val_set = samples[:80], samples[80:]
        if patience == 0:
            val_set = far_targets(train_set[:20])
        config = quick_config(lstm_layers=layers, dropout=dropout, optimizer=optimizer,
                              batch_size=batch_size, look_back=look_back,
                              early_stop_patience=patience, hidden_units=6, epochs=4)
        model, history = train(train_set, val_set, config)
        ref_model, ref_history = reference_train(train_set, val_set, config)
        assert history == ref_history
        assert (len(history) < config.epochs) == (patience == 0)
        assert model.params.keys() == ref_model.params.keys()
        for key, value in model.params.items():
            assert np.array_equal(value, ref_model.params[key]), key
        assert np.array_equal(model.scaler.feature_min, ref_model.scaler.feature_min)
        assert np.array_equal(model.scaler.feature_max, ref_model.scaler.feature_max)

    def test_splits_with_their_own_rows(self):
        # the validation rows are scaled on their own when not shared
        train_set = linear_mass_samples()[:60]
        val_set = linear_mass_samples(n_rows=40, beta=20.0)
        config = quick_config(epochs=2)
        _, history = train(train_set, val_set, config)
        assert history == reference_train(train_set, val_set, config)[1]


class TestTrainMemory:
    def test_peak_is_a_fraction_of_the_window_stack(self):
        # a stack of the training split would take 5,000 * 20 * 4 * 8 bytes;
        # train holds the rows (1/20 of that), one batch and one step's cache
        samples = linear_mass_samples(n_rows=5060, look_back=20)
        train_set, val_set = samples[:5000], samples[5000:]
        stack_bytes = len(train_set) * 20 * train_set.rows.shape[1] * 8
        assert stack_bytes >= 3 * 2**20
        config = quick_config(hidden_units=4, look_back=20, epochs=1)
        # a first call imports what train imports lazily (numpy.random),
        # which would count otherwise
        train(train_set[:40], val_set, config)
        tracemalloc.start()
        try:
            train(train_set, val_set, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 4


def evaluate_scaled_loss(model, samples):
    """Validation-style MSE in scaled units, replicating the training loop's
    bookkeeping (independent of evaluate's unscaled metrics)."""
    from pyrokin.seqmodel.lstm import infer

    X = np.stack([model.scaler.scale_window(w) for w in samples.windows()])
    y = model.scaler.scale_target(samples.targets)
    # each window as its own rows: starts look_back apart, so every block is gathered
    n, steps, features = X.shape
    pred = infer(model.params, X.reshape(-1, features), np.arange(n) * steps)
    return float(((pred - y) ** 2).mean())


class TestRandomSearch:
    def space_point(self):
        return SearchSpace(
            learning_rate_bounds=(0.01, 0.01),
            batch_sizes=(32,),
            epochs_choices=(2,),
            dropout_choices=(0.0,),
            hidden_choices=(4,),
            layer_choices=(1,),
            activations=("tanh",),
            optimizers=("adam",),
        )

    def test_single_point_space_returns_that_config(self):
        samples = linear_mass_samples()
        best, board = random_search(self.space_point(), 1, 0, samples[:60], samples[60:80])
        assert best.hidden_units == 4
        assert best.epochs == 2
        assert best.look_back == 10  # the dataset's
        assert len(board) == 1

    def test_same_master_seed_reproduces_leaderboard(self):
        samples = linear_mass_samples()
        space = SearchSpace(
            learning_rate_bounds=(0.001, 0.01),
            batch_sizes=(16, 32),
            epochs_choices=(2, 3),
            dropout_choices=(0.0,),
            hidden_choices=(4, 6),
            layer_choices=(1,),
            activations=("tanh", "relu"),
            optimizers=("adam", "sgd"),
        )
        _, b1 = random_search(space, 4, 9, samples[:60], samples[60:80])
        _, b2 = random_search(space, 4, 9, samples[:60], samples[60:80])
        assert [(r.trial, r.val_loss, r.config) for r in b1] == [
            (r.trial, r.val_loss, r.config) for r in b2
        ]
        assert {r.config.look_back for r in b1} == {10}

    def test_leaderboard_sorted_and_best_not_above_median(self):
        samples = linear_mass_samples()
        space = SearchSpace(
            learning_rate_bounds=(0.0001, 0.01),
            batch_sizes=(32,),
            epochs_choices=(2,),
            dropout_choices=(0.0,),
            hidden_choices=(4, 8),
            layer_choices=(1,),
            activations=("tanh",),
            optimizers=("adam", "sgd", "rmsprop"),
        )
        _, board = random_search(space, 5, 2, samples[:60], samples[60:80])
        losses = [r.val_loss for r in board]
        assert losses == sorted(losses)
        assert losses[0] <= float(np.median(losses))
        assert {r.config.look_back for r in board} == {10}

    @pytest.mark.parametrize("change", [
        {"learning_rate_bounds": (0.01,)},
        {"learning_rate_bounds": (0.001, 0.01, 0.1)},
        {"learning_rate_bounds": (0.01, 0.001)},
        {"learning_rate_bounds": (0.0, 0.01)},
        {"learning_rate_bounds": (float("nan"), 0.01)},
        {"learning_rate_bounds": (0.001, float("inf"))},
        {"batch_sizes": ()},
        {"hidden_choices": ()},
        {"optimizers": ()},
        {"activations": ()},
        {"activations": ("tanh", "bogus")},
        {"optimizers": ("adam", "lbfgs")},
        {"batch_sizes": (32, 0)},
        {"epochs_choices": (0,)},
        {"dropout_choices": (0.0, 1.0)},
        {"hidden_choices": (4, -1)},
        {"layer_choices": (0,)},
        {"dropout_choices": (-0.1,)},
        {"early_stop_patience": -1},
        {"learning_rate_bounds": (0.001, True)},
    ])
    def test_malformed_space_is_config_error(self, change):
        with pytest.raises(ConfigError):
            replace(self.space_point(), **change)


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([3.0, 5.0, 9.0, 2.0])
        m = metrics_from_arrays(y, y)
        assert m.mae == 0.0 and m.mse == 0.0
        assert m.r_squared == 1.0

    def test_mean_prediction_scores_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        m = metrics_from_arrays(y, np.full(4, y.mean()))
        assert m.r_squared == pytest.approx(0.0, abs=1e-15)

    def test_rmse_squares_to_mse(self):
        rng = np.random.default_rng(17)
        y = rng.random(50)
        p = y + 0.1 * rng.standard_normal(50)
        m = metrics_from_arrays(y, p)
        assert m.rmse**2 == pytest.approx(m.mse, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            metrics_from_arrays([], [])

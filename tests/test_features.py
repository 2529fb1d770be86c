from collections import namedtuple

import numpy as np
import pytest

from pyrokin.constants import KELVIN_OFFSET
from pyrokin.errors import DomainError, InputError
from pyrokin.seqmodel.features import (
    FIBRE_WINDOWS_C,
    MODEL1,
    MODEL2,
    MODEL2_FEATURES,
    MinMaxScaler,
    WindowDataset,
    build_features,
    lignocellulosic_remaining,
    split_dataset,
    window_sequences,
)
from pyrokin.synthkin import simulate, suite_models
from pyrokin.tga_io import (
    DATE_SEEDS,
    SPENT_COFFEE_GROUNDS,
    TgaCurve,
    blend_spec,
    resample_uniform,
)


def make_curve(spec, n=40, t_lo=290.0, t_hi=690.0, beta=10.0):
    T = np.linspace(t_lo + 273.15, t_hi + 273.15, n)
    return TgaCurve(
        spec=spec,
        heating_rate_beta=beta,
        time_s=(T - T[0]) * 60.0 / beta,
        temperature_k=T,
        mass_fraction=np.linspace(1.0, 0.25, n),
    )


def column(name):
    return MODEL2_FEATURES.index(name)


# ---------------------------------------------------------------- reference
# The per-row and per-window object forms the array dataset replaced: one
# scalar featurisation per row, one (window, target, curve id) record per
# window, and list comprehensions for the split. Kept here as the reference
# the arrays must reproduce bit for bit.
RefSample = namedtuple("RefSample", "window target curve_id")


def ref_remaining(temperature_c, window):
    t_start, t_end = window
    if temperature_c <= t_start:
        return 1.0
    if temperature_c >= t_end:
        return 0.0
    return (t_end - temperature_c) / (t_end - t_start)


def ref_feature_rows(curve, mode):
    """(feature vector, mass percent) of every row, one row at a time."""
    spec = curve.spec
    rows = []
    for temp_k, mass in zip(curve.temperature_k, curve.mass_fraction):
        temp_c = temp_k - KELVIN_OFFSET
        vector = [spec.ds_fraction * 100.0, spec.scg_fraction * 100.0,
                  curve.heating_rate_beta, temp_c]
        if mode == MODEL2:
            vector += [
                spec.cellulose_pct * ref_remaining(temp_c, FIBRE_WINDOWS_C["cellulose"]),
                spec.hemicellulose_pct * ref_remaining(temp_c, FIBRE_WINDOWS_C["hemicellulose"]),
                spec.lignin_pct * ref_remaining(temp_c, FIBRE_WINDOWS_C["lignin"]),
            ]
        rows.append((np.array(vector), mass * 100.0))
    return rows


def ref_window_sequences(rows_by_curve, look_back):
    samples = []
    for curve_id, rows in rows_by_curve.items():
        if len(rows) <= look_back:
            continue
        vectors = np.stack([v for v, _ in rows])
        targets = np.array([m for _, m in rows])
        for start in range(len(rows) - look_back):
            samples.append(RefSample(vectors[start : start + look_back],
                                     float(targets[start + look_back]), curve_id))
    return samples


def ref_split_dataset(samples, holdout_curves=(), seed=0):
    holdout_set = set(holdout_curves)
    held = [s for s in samples if s.curve_id in holdout_set]
    rest = [s for s in samples if s.curve_id not in holdout_set]
    perm = np.random.default_rng(seed).permutation(len(rest))
    n_train = int(len(rest) * 0.70)
    n_val = int(len(rest) * 0.15)
    return (
        [rest[i] for i in perm[:n_train]],
        [rest[i] for i in perm[n_train : n_train + n_val]],
        held + [rest[i] for i in perm[n_train + n_val :]],
    )


def assert_same_windows(dataset, ref_samples):
    assert len(dataset) == len(ref_samples)
    assert np.array_equal(dataset.windows(), np.stack([s.window for s in ref_samples]))
    assert np.array_equal(dataset.targets, [s.target for s in ref_samples])
    assert list(dataset.curve_ids) == [s.curve_id for s in ref_samples]


# Every fibre-window edge in Celsius, and the kelvin doubles on either side
# of each edge's nearest kelvin value.
WINDOW_EDGES_C = (160.0, 225.0, 315.0, 325.0, 405.0, 900.0)


def edge_temperatures_k():
    temps = []
    for edge in WINDOW_EDGES_C:
        t = edge + KELVIN_OFFSET
        temps += [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]
    return np.array(temps)


def boundary_curve(spec):
    """A curve from 20 to 950 C whose rows include every window edge."""
    T = np.unique(np.concatenate([np.linspace(293.15, 1223.15, 187), edge_temperatures_k()]))
    return TgaCurve(spec=spec, heating_rate_beta=10.0, time_s=(T - T[0]) * 6.0,
                    temperature_k=T, mass_fraction=np.linspace(1.0, 0.2, len(T)))


def reference_curves():
    blend = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.75)
    _, model, spec = suite_models()[1]
    simulated = simulate(model, 15.0, 0.5, spec=spec)
    return {
        "edges": boundary_curve(blend),
        "sim@15": simulated,
        "resampled@15": resample_uniform(simulated, 1.0),
        "short": make_curve(DATE_SEEDS, n=8),
        "linear": make_curve(SPENT_COFFEE_GROUNDS, n=61, beta=20.0),
    }


class TestMatchesObjectReference:
    @pytest.mark.parametrize("mode", [MODEL1, MODEL2])
    def test_build_features_bitwise(self, mode):
        for curve in reference_curves().values():
            features = build_features(curve, mode)
            ref = ref_feature_rows(curve, mode)
            assert np.array_equal(features, np.stack([v for v, _ in ref]))

    def test_edges_hit_exactly_where_representable(self):
        # 900 C has no kelvin double d with d - 273.15 == 900.0; the curve
        # carries the two doubles around it instead
        temps_c = build_features(boundary_curve(DATE_SEEDS), MODEL1)[:, column("temperature")]
        for edge in WINDOW_EDGES_C[:-1]:
            assert edge in temps_c
        assert np.any(np.abs(temps_c - 900.0) < 1e-12)

    def test_remaining_bitwise_at_window_edges(self):
        temps = np.concatenate([WINDOW_EDGES_C, edge_temperatures_k() - KELVIN_OFFSET,
                                np.nextafter(WINDOW_EDGES_C, np.inf),
                                np.nextafter(WINDOW_EDGES_C, -np.inf),
                                np.linspace(0.0, 1000.0, 401)])
        for window in FIBRE_WINDOWS_C.values():
            got = lignocellulosic_remaining(temps, window)
            assert np.array_equal(got, [ref_remaining(t, window) for t in temps])

    @pytest.mark.parametrize("mode", [MODEL1, MODEL2])
    @pytest.mark.parametrize("look_back", [1, 5, 20])
    def test_windows_targets_and_curve_ids(self, mode, look_back):
        curves = reference_curves()
        dataset = window_sequences(curves, mode, look_back)
        ref = ref_window_sequences(
            {cid: ref_feature_rows(c, mode) for cid, c in curves.items()}, look_back)
        assert_same_windows(dataset, ref)
        assert dataset.feature_mode == mode and dataset.look_back == look_back

    @pytest.mark.parametrize("holdout", [(), ("sim@15",), ("edges", "short", "linear")])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_split_membership_and_order(self, holdout, seed):
        curves = reference_curves()
        dataset = window_sequences(curves, MODEL2, 20)
        ref = ref_window_sequences(
            {cid: ref_feature_rows(c, MODEL2) for cid, c in curves.items()}, 20)
        parts = split_dataset(dataset, holdout_curves=holdout, seed=seed)
        ref_parts = ref_split_dataset(ref, holdout_curves=holdout, seed=seed)
        for part, ref_part in zip(parts, ref_parts):
            assert_same_windows(part, ref_part)


class TestRemainingFraction:
    def test_below_window_is_one(self):
        assert lignocellulosic_remaining(200.0, FIBRE_WINDOWS_C["cellulose"]) == 1.0

    def test_midpoint_is_half(self):
        assert lignocellulosic_remaining(360.0, FIBRE_WINDOWS_C["cellulose"]) == 0.5

    def test_window_end_is_zero(self):
        for window in FIBRE_WINDOWS_C.values():
            assert lignocellulosic_remaining(window[1], window) == 0.0

    def test_continuous_and_non_increasing(self):
        window = FIBRE_WINDOWS_C["hemicellulose"]
        values = lignocellulosic_remaining(np.linspace(0.0, 1000.0, 5000), window)
        diffs = np.diff(values)
        assert np.all(diffs <= 0.0)
        assert np.max(np.abs(diffs)) < 1e-2  # no jumps

    def test_degenerate_window_rejected(self):
        with pytest.raises(DomainError):
            lignocellulosic_remaining(100.0, (400.0, 400.0))


class TestBuildFeatures:
    def test_blend_cellulose_feature_before_depletion(self):
        spec = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.75)
        curve = make_curve(spec, t_lo=25.0, t_hi=425.0, n=41)
        features = build_features(curve, MODEL2)
        assert features[0, column("temperature")] == pytest.approx(25.0)
        assert features[0, column("cellulose_t")] == pytest.approx(24.875)

    def test_blend_cellulose_feature_fully_depleted(self):
        spec = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.75)
        curve = make_curve(spec, t_lo=25.0, t_hi=425.0, n=41)
        features = build_features(curve, MODEL2)
        assert features[-1, column("temperature")] == pytest.approx(425.0)
        assert features[-1, column("cellulose_t")] == 0.0

    def test_basic_mode_has_four_features(self):
        assert build_features(make_curve(DATE_SEEDS), MODEL1).shape == (40, 4)

    def test_extended_mode_has_seven_features(self):
        assert build_features(make_curve(DATE_SEEDS), MODEL2).shape == (40, 7)

    def test_fibre_features_non_increasing_along_curve(self):
        _, model, spec = suite_models()[0]
        features = build_features(simulate(model, 10.0, 1.0, spec=spec), MODEL2)
        for name in ("cellulose_t", "hemicellulose_t", "lignin_t"):
            assert np.all(np.diff(features[:, column(name)]) <= 1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            build_features(make_curve(DATE_SEEDS), "model3")


def toy_curve(n):
    """n rows of DS at 10 K/min: 25 + i C and 100 - i mass percent."""
    T = 25.0 + KELVIN_OFFSET + np.arange(n, dtype=float)
    return TgaCurve(spec=DATE_SEEDS, heating_rate_beta=10.0, time_s=(T - T[0]) * 6.0,
                    temperature_k=T, mass_fraction=(100.0 - np.arange(n)) / 100.0)


class TestWindowSequences:
    def test_sample_count(self):
        samples = window_sequences({"c": toy_curve(25)}, look_back=20)
        assert len(samples) == 5

    def test_exact_length_curve_yields_nothing(self):
        assert len(window_sequences({"c": toy_curve(20)}, look_back=20)) == 0

    def test_no_cross_curve_windows(self):
        samples = window_sequences({"a": toy_curve(30), "b": toy_curve(30)}, look_back=10)
        assert len(samples) == 40
        assert set(samples.curve_ids) == {"a", "b"}
        # the first window of each curve starts at that curve's first temperature
        assert np.count_nonzero(samples.windows()[:, 0, 3] == 25.0) == 2

    def test_every_window_of_a_curve_holds_its_one_id_object(self):
        ids = ["".join(("curve-", str(k))) for k in range(2)]  # built at run time
        samples = window_sequences({ids[0]: toy_curve(30), ids[1]: toy_curve(26)},
                                   look_back=10)
        assert list(samples.curve_ids) == [ids[0]] * 20 + [ids[1]] * 16
        assert all(cid is ids[0] for cid in samples.curve_ids[:20])
        assert all(cid is ids[1] for cid in samples.curve_ids[20:])

    def test_target_is_next_step_mass(self):
        samples = window_sequences({"c": toy_curve(25)}, look_back=20)
        assert samples.targets[0] == pytest.approx(80.0)  # mass after rows 0..19

    def test_bad_look_back_rejected(self):
        with pytest.raises(DomainError):
            window_sequences({"c": toy_curve(25)}, look_back=0)

    def test_indexing_shares_rows_and_keeps_metadata(self):
        samples = window_sequences({"a": toy_curve(30), "b": toy_curve(26)}, MODEL2, 10)
        picked = samples[np.array([25, 3, 17])]
        assert picked.rows is samples.rows
        assert (picked.look_back, picked.feature_mode) == (10, MODEL2)
        assert list(picked.curve_ids) == ["b", "a", "a"]
        assert np.array_equal(picked.windows(), samples.windows()[[25, 3, 17]])
        assert len(samples[5:9]) == 4


class TestSplitDataset:
    def samples(self, n=100, curves=4):
        # n // curves windows per curve
        return window_sequences(
            {f"c{k}": toy_curve(n // curves + 20) for k in range(curves)}, look_back=20)

    def test_70_15_15_split(self):
        tr, va, te = split_dataset(self.samples(100), seed=0)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_same_seed_reproduces_partitions(self):
        samples = self.samples(100)
        a = split_dataset(samples, seed=7)
        b = split_dataset(samples, seed=7)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.starts, pb.starts)

    def test_holdout_curves_never_in_train_or_val(self):
        samples = self.samples(100)
        tr, va, te = split_dataset(samples, holdout_curves=("c1",), seed=3)
        assert "c1" not in set(tr.curve_ids) | set(va.curve_ids)
        assert "c1" in set(te.curve_ids)

    def test_holdout_of_everything_rejected(self):
        samples = self.samples(40, curves=2)
        with pytest.raises(InputError, match="holdout"):
            split_dataset(samples, holdout_curves=("c0", "c1"), seed=0)

    def test_unknown_holdout_id_rejected(self):
        with pytest.raises(InputError, match="c9"):
            split_dataset(self.samples(40), holdout_curves=("c1", "c9"), seed=0)


def dataset_of(rows, look_back, mass=None):
    n = len(rows) - look_back
    return WindowDataset(
        rows=rows,
        mass_pct=np.linspace(20.0, 100.0, len(rows)) if mass is None else mass,
        starts=np.arange(n),
        curve_ids=np.full(n, "c", dtype=object),
        curves=("c",),
        look_back=look_back,
        feature_mode=MODEL1,
    )


class TestScaler:
    def windows(self):
        rng = np.random.default_rng(5)
        return dataset_of(rng.uniform(-3.0, 9.0, (36, 4)), 6,
                          mass=rng.uniform(20.0, 100.0, 36))

    def test_train_features_land_in_unit_interval(self):
        samples = self.windows()
        scaled = samples.windows(MinMaxScaler.fit(samples))
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_out_of_range_data_not_clamped(self):
        samples = self.windows()
        scaler = MinMaxScaler.fit(samples)
        wild = samples.windows()[0] + 100.0
        assert scaler.scale_window(wild).max() > 1.0

    def test_round_trip_within_1e12(self):
        samples = self.windows()
        scaler = MinMaxScaler.fit(samples)
        w = samples.windows()[3]
        scaled = scaler.scale_window(w)
        back = scaled * (scaler.feature_max - scaler.feature_min) + scaler.feature_min
        assert np.max(np.abs(back - w)) < 1e-12
        t = samples.targets[3]
        assert float(scaler.unscale_target(scaler.scale_target(t))) == pytest.approx(
            t, abs=1e-12
        )

    def test_degenerate_feature_round_trips_to_its_constant(self):
        rows = np.column_stack([np.full(8, 42.0), np.linspace(0.0, 1.0, 8)])
        scaler = MinMaxScaler.fit(dataset_of(rows, 5))
        scaled = scaler.scale_window(rows)
        assert np.all(scaled[:, 0] == 0.0)
        assert np.all(scaler.feature_min[0] == scaler.feature_max[0] == 42.0)

    def test_fit_covers_only_the_windowed_rows(self):
        samples = self.windows()[[4, 9, 10]]
        scaler = MinMaxScaler.fit(samples)
        windowed = np.concatenate(list(samples.windows()))
        assert np.array_equal(scaler.feature_min, windowed.min(axis=0))
        assert np.array_equal(scaler.feature_max, windowed.max(axis=0))
        assert scaler.target_min == samples.targets.min()
        assert scaler.target_max == samples.targets.max()

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            MinMaxScaler.fit(self.windows()[:0])

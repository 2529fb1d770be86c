import numpy as np
import pytest

from pyrokin.errors import DomainError, InputError
from pyrokin.seqmodel.features import (
    FIBRE_WINDOWS_C,
    MODEL1,
    MODEL2,
    FeatureRow,
    MinMaxScaler,
    SequenceSample,
    build_features,
    lignocellulosic_remaining,
    split_dataset,
    window_sequences,
)
from pyrokin.synthkin import simulate, suite_models
from pyrokin.tga_io import DATE_SEEDS, SPENT_COFFEE_GROUNDS, TgaCurve, blend_spec


def make_curve(spec, n=40, t_lo=290.0, t_hi=690.0, beta=10.0):
    T = np.linspace(t_lo + 273.15, t_hi + 273.15, n)
    return TgaCurve(
        spec=spec,
        heating_rate_beta=beta,
        time_s=(T - T[0]) * 60.0 / beta,
        temperature_k=T,
        mass_fraction=np.linspace(1.0, 0.25, n),
    )


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
        temps = np.linspace(0.0, 1000.0, 5000)
        values = [lignocellulosic_remaining(float(t), window) for t in temps]
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
        rows = build_features(curve, MODEL2)
        assert rows[0].temperature == pytest.approx(25.0)
        assert rows[0].cellulose_t == pytest.approx(24.875)

    def test_blend_cellulose_feature_fully_depleted(self):
        spec = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.75)
        curve = make_curve(spec, t_lo=25.0, t_hi=425.0, n=41)
        rows = build_features(curve, MODEL2)
        assert rows[-1].temperature == pytest.approx(425.0)
        assert rows[-1].cellulose_t == 0.0

    def test_basic_mode_has_four_features(self):
        rows = build_features(make_curve(DATE_SEEDS), MODEL1)
        assert all(r.as_vector().shape == (4,) for r in rows)
        assert all(r.mode == MODEL1 for r in rows)

    def test_extended_mode_has_seven_features(self):
        rows = build_features(make_curve(DATE_SEEDS), MODEL2)
        assert all(r.as_vector().shape == (7,) for r in rows)

    def test_fibre_features_non_increasing_along_curve(self):
        for _, model, spec in suite_models():
            curve = simulate(model, 10.0, 1.0, spec=spec)
            rows = build_features(curve, MODEL2)
            for attr in ("cellulose_t", "hemicellulose_t", "lignin_t"):
                values = np.array([getattr(r, attr) for r in rows])
                assert np.all(np.diff(values) <= 1e-12)
            break

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            build_features(make_curve(DATE_SEEDS), "model3")


def toy_rows(n, mass0=100.0):
    return [
        FeatureRow(
            ds_pct=100.0, scg_pct=0.0, heating_rate=10.0,
            temperature=25.0 + i, mass_pct=mass0 - i,
        )
        for i in range(n)
    ]


class TestWindowSequences:
    def test_sample_count(self):
        samples = window_sequences({"c": toy_rows(25)}, look_back=20)
        assert len(samples) == 5

    def test_exact_length_curve_yields_nothing(self):
        assert window_sequences({"c": toy_rows(20)}, look_back=20) == []

    def test_no_cross_curve_windows(self):
        samples = window_sequences({"a": toy_rows(30), "b": toy_rows(30)}, look_back=10)
        assert len(samples) == 40
        assert {s.curve_id for s in samples} == {"a", "b"}
        # first sample of each curve starts at that curve's first temperature
        firsts = [s for s in samples if s.window[0, 3] == 25.0]
        assert len(firsts) == 2

    def test_target_is_next_step_mass(self):
        samples = window_sequences({"c": toy_rows(25)}, look_back=20)
        assert samples[0].target == pytest.approx(80.0)  # mass after rows 0..19

    def test_bad_look_back_rejected(self):
        with pytest.raises(DomainError):
            window_sequences({"c": toy_rows(25)}, look_back=0)


class TestSplitDataset:
    def samples(self, n=100, curves=4):
        out = []
        for k in range(curves):
            rows = toy_rows(n // curves + 20)
            out.extend(
                s
                for s in window_sequences({f"c{k}": rows}, look_back=20)[: n // curves]
            )
        return out

    def test_70_15_15_split(self):
        tr, va, te = split_dataset(self.samples(100), seed=0)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_same_seed_reproduces_partitions(self):
        samples = self.samples(100)
        a = split_dataset(samples, seed=7)
        b = split_dataset(samples, seed=7)
        for pa, pb in zip(a, b):
            assert [id(s) for s in pa] == [id(s) for s in pb]

    def test_holdout_curves_never_in_train_or_val(self):
        samples = self.samples(100)
        tr, va, te = split_dataset(samples, holdout_curves=("c1",), seed=3)
        assert all(s.curve_id != "c1" for s in tr + va)
        assert any(s.curve_id == "c1" for s in te)

    def test_holdout_of_everything_rejected(self):
        samples = self.samples(40, curves=2)
        with pytest.raises(InputError, match="holdout"):
            split_dataset(samples, holdout_curves=("c0", "c1"), seed=0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(DomainError):
            split_dataset(self.samples(40), fractions=(0.5, 0.4, 0.2), seed=0)


class TestScaler:
    def windows(self):
        rng = np.random.default_rng(5)
        return [
            SequenceSample(
                window=rng.uniform(-3.0, 9.0, (6, 4)),
                target=float(rng.uniform(20.0, 100.0)),
                curve_id="c",
            )
            for _ in range(30)
        ]

    def test_train_features_land_in_unit_interval(self):
        samples = self.windows()
        scaler = MinMaxScaler.fit(samples)
        for s in samples:
            scaled = scaler.scale_window(s.window)
            assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_out_of_range_data_not_clamped(self):
        samples = self.windows()
        scaler = MinMaxScaler.fit(samples)
        wild = samples[0].window + 100.0
        assert scaler.scale_window(wild).max() > 1.0

    def test_round_trip_within_1e12(self):
        samples = self.windows()
        scaler = MinMaxScaler.fit(samples)
        w = samples[3].window
        back = scaler.unscale_window(scaler.scale_window(w))
        assert np.max(np.abs(back - w)) < 1e-12
        t = samples[3].target
        assert float(scaler.unscale_target(scaler.scale_target(t))) == pytest.approx(
            t, abs=1e-12
        )

    def test_degenerate_feature_round_trips_to_its_constant(self):
        samples = [
            SequenceSample(
                window=np.column_stack(
                    [np.full(5, 42.0), np.linspace(0.0, 1.0, 5)]
                ),
                target=float(k),
                curve_id="c",
            )
            for k in range(4)
        ]
        scaler = MinMaxScaler.fit(samples)
        scaled = scaler.scale_window(samples[0].window)
        assert np.all(scaled[:, 0] == 0.0)
        assert np.all(scaler.unscale_window(scaled)[:, 0] == 42.0)

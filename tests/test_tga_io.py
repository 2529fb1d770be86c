import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from pyrokin.errors import DomainError, InputError, ParseError, ResolutionError
from pyrokin.tga_io import (
    DATE_SEEDS,
    MAX_GRID_POINTS,
    SPENT_COFFEE_GROUNDS,
    SampleSpec,
    TgaCurve,
    blend_spec,
    curve_to_csv,
    grid_intervals,
    load_curve,
    resample_uniform,
    sidecar_to_spec,
    spec_to_sidecar,
)


def make_csv(rows, header="time_s,temperature_c,mass_pct"):
    return header + "\n" + "\n".join(",".join(str(v) for v in r) for r in rows) + "\n"


def ramp_rows(n=20, mass_start=100.0, mass_end=50.0):
    return [
        (float(i * 6), 25.0 + i * 10.0, mass_start + (mass_end - mass_start) * i / (n - 1))
        for i in range(n)
    ]


class TestLoadCurve:
    def test_mass_normalized_to_first_row(self):
        curve = load_curve(make_csv(ramp_rows()), DATE_SEEDS, beta=10.0)
        assert curve.mass_fraction[0] == 1.0
        assert curve.temperature_k[0] == pytest.approx(25.0 + 273.15)

    def test_final_char_yield_preserved(self):
        # run ending at 27.74% of initial mass keeps that ratio exactly
        curve = load_curve(make_csv(ramp_rows(mass_end=27.74)), DATE_SEEDS, beta=10.0)
        assert curve.mass_fraction[-1] == pytest.approx(0.2774, abs=1e-12)

    def test_two_column_variant_reconstructs_time(self):
        rows = [(25.0 + i * 10.0, 100.0 - i) for i in range(15)]
        curve = load_curve(
            make_csv(rows, header="temperature_c,mass_pct"), DATE_SEEDS, beta=20.0
        )
        # 10 K per row at 20 K/min -> 30 s per row
        assert curve.time_s[1] - curve.time_s[0] == pytest.approx(30.0)

    def test_decreasing_temperature_names_row(self):
        rows = ramp_rows()
        rows[7] = (rows[7][0], rows[6][1] - 5.0, rows[7][2])
        with pytest.raises(InputError, match="row 7"):
            load_curve(make_csv(rows), DATE_SEEDS, beta=10.0)

    def test_non_monotone_time_rejected(self):
        rows = ramp_rows()
        rows[5] = (rows[4][0], rows[5][1], rows[5][2])
        with pytest.raises(InputError, match="time"):
            load_curve(make_csv(rows), DATE_SEEDS, beta=10.0)

    def test_malformed_row_reports_line_number(self):
        text = make_csv(ramp_rows()).splitlines()
        text[3] = "1.0,not_a_number,99.0"
        with pytest.raises(ParseError, match="line 4"):
            load_curve("\n".join(text), DATE_SEEDS, beta=10.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(InputError, match="empty"):
            load_curve("", DATE_SEEDS, beta=10.0)

    def test_too_few_rows_rejected(self):
        with pytest.raises(InputError, match="at least"):
            load_curve(make_csv(ramp_rows(n=5)), DATE_SEEDS, beta=10.0)

    def test_unknown_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            load_curve(make_csv(ramp_rows(), header="a,b,c"), DATE_SEEDS, beta=10.0)


class TestSerializationRoundTrip:
    def test_curve_round_trips_to_1e12_relative(self):
        curve = load_curve(make_csv(ramp_rows(n=40)), DATE_SEEDS, beta=10.0)
        again = load_curve(curve_to_csv(curve), curve.spec, curve.heating_rate_beta)
        for field in ("time_s", "temperature_k", "mass_fraction"):
            a, b = getattr(curve, field), getattr(again, field)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_sidecar_round_trip_exact(self):
        text = spec_to_sidecar(SPENT_COFFEE_GROUNDS, beta=12.5)
        spec, beta = sidecar_to_spec(text)
        assert spec == SPENT_COFFEE_GROUNDS
        assert beta == 12.5

    @pytest.mark.parametrize("present", [
        kept for n in range(4) for kept in combinations(("ash_pct", "vm_pct", "fc_pct"), n)
    ], ids=lambda kept: "+".join(kept) or "none")
    def test_sidecar_round_trips_with_any_proximate_fields(self, present):
        spec = replace(DATE_SEEDS, **{k: None for k in ("ash_pct", "vm_pct", "fc_pct")
                                      if k not in present})
        text = spec_to_sidecar(spec, beta=12.5)
        assert sorted(json.loads(text)) == sorted([
            "sample_id", "ds_fraction", "scg_fraction", "cellulose_pct",
            "hemicellulose_pct", "lignin_pct", "heating_rate_c_per_min", *present])
        assert sidecar_to_spec(text) == (spec, 12.5)
        assert spec_to_sidecar(*sidecar_to_spec(text)) == text

    def test_sidecar_missing_field_rejected(self):
        with pytest.raises(InputError, match="missing"):
            sidecar_to_spec('{"sample_id": "x"}')

    @pytest.mark.parametrize("field, value", [
        ("heating_rate_c_per_min", "ten"),
        ("heating_rate_c_per_min", float("inf")),
        ("heating_rate_c_per_min", -5.0),
        ("lignin_pct", None),
        ("scg_fraction", {"value": 0.5}),
        # JSON booleans and strings are not numbers, whatever float() makes of them
        ("heating_rate_c_per_min", True),
        ("cellulose_pct", "22.5"),
        ("ash_pct", False),
    ])
    def test_sidecar_bad_number_is_input_error(self, field, value):
        doc = json.loads(spec_to_sidecar(DATE_SEEDS, beta=10.0))
        doc[field] = value
        with pytest.raises(InputError, match=field):
            sidecar_to_spec(json.dumps(doc))

    def test_sidecar_nan_fibre_is_domain_error(self):
        doc = json.loads(spec_to_sidecar(DATE_SEEDS, beta=10.0))
        doc["cellulose_pct"] = float("nan")
        with pytest.raises(DomainError, match="cellulose_pct"):
            sidecar_to_spec(json.dumps(doc))

    def test_sidecar_must_be_an_object(self):
        with pytest.raises(InputError, match="object"):
            sidecar_to_spec("[1, 2, 3]")


class TestResampleUniform:
    def test_identity_on_matching_grid(self):
        T = np.linspace(300.0, 400.0, 101)
        curve = TgaCurve(
            spec=DATE_SEEDS,
            heating_rate_beta=10.0,
            time_s=(T - 300.0) * 6.0,
            temperature_k=T,
            mass_fraction=np.linspace(1.0, 0.5, 101),
        )
        out = resample_uniform(curve, 1.0)
        assert np.array_equal(out.temperature_k, curve.temperature_k)
        assert np.array_equal(out.mass_fraction, curve.mass_fraction)

    def test_linear_interpolation_hits_midpoint(self):
        curve = TgaCurve(
            spec=DATE_SEEDS,
            heating_rate_beta=10.0,
            time_s=np.array([0.0, 600.0]),
            temperature_k=np.array([300.0, 400.0]),
            mass_fraction=np.array([1.0, 0.8]),
        )
        out = resample_uniform(curve, 5.0)
        k = int(np.argmin(np.abs(out.temperature_k - 350.0)))
        assert out.temperature_k[k] == pytest.approx(350.0)
        assert out.mass_fraction[k] == pytest.approx(0.9)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(3)
        T = np.sort(300.0 + 300.0 * rng.random(57))
        T[0], T[-1] = 300.0, 600.0
        mass = np.minimum.accumulate(np.concatenate(([1.0], 1.0 - 0.4 * rng.random(56))))
        curve = TgaCurve(DATE_SEEDS, 10.0, np.arange(57.0), T, mass)
        out = resample_uniform(curve, 0.5)
        assert out.temperature_k[0] == 300.0
        assert out.temperature_k[-1] == 600.0
        assert out.mass_fraction[0] == mass[0]
        assert out.mass_fraction[-1] == mass[-1]

    def test_coarse_step_rejected(self):
        curve = TgaCurve(
            DATE_SEEDS,
            10.0,
            np.array([0.0, 600.0]),
            np.array([300.0, 400.0]),
            np.array([1.0, 0.8]),
        )
        with pytest.raises(ResolutionError):
            resample_uniform(curve, 50.0)

    def test_grid_point_limit_is_exact(self):
        assert grid_intervals(600.0, 600.0 / (MAX_GRID_POINTS - 1)) == MAX_GRID_POINTS - 1
        for dT in (600.0 / MAX_GRID_POINTS, 1e-9, 5e-324):  # 5e-324: the ratio is inf
            with pytest.raises(DomainError, match="too fine"):
                grid_intervals(600.0, dT)

    def test_resampled_mass_close_to_direct_fine_integration(self, single_step_model):
        from pyrokin.synthkin import simulate

        coarse = simulate(single_step_model, 10.0, 1.0)
        fine = simulate(single_step_model, 10.0, 0.5)
        resampled = resample_uniform(coarse, 0.5)
        assert np.array_equal(resampled.temperature_k, fine.temperature_k)
        assert np.max(np.abs(resampled.mass_fraction - fine.mass_fraction)) < 1e-3


class TestBlendSpec:
    def test_identity_at_full_fraction(self):
        out = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 1.0)
        assert out.cellulose_pct == DATE_SEEDS.cellulose_pct
        assert out.hemicellulose_pct == DATE_SEEDS.hemicellulose_pct
        assert out.lignin_pct == DATE_SEEDS.lignin_pct
        assert out.ds_fraction == 1.0

    def test_three_quarter_blend_weighted_means(self):
        out = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.75)
        assert out.cellulose_pct == pytest.approx(24.875)
        assert out.hemicellulose_pct == pytest.approx(44.9)
        assert out.lignin_pct == pytest.approx(25.525)
        assert out.ds_fraction == pytest.approx(0.75)

    def test_half_blend_cellulose(self):
        out = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.5)
        assert out.cellulose_pct == pytest.approx(27.25)

    def test_symmetry_exact_over_dyadic_fractions(self):
        for k in range(0, 65):
            f = k / 64.0
            lhs = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, f)
            rhs = blend_spec(SPENT_COFFEE_GROUNDS, DATE_SEEDS, 1.0 - f)
            assert lhs == rhs

    def test_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 1.5)

    def test_blending_a_blend_rejected(self):
        half = blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, 0.5)
        with pytest.raises(DomainError, match="pure"):
            blend_spec(half, SPENT_COFFEE_GROUNDS, 0.5)


class TestSampleSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(DomainError):
            SampleSpec("x", 0.6, 0.6, 20.0, 30.0, 25.0)

    def test_fibre_sum_capped_at_100(self):
        with pytest.raises(DomainError):
            SampleSpec("x", 1.0, 0.0, 50.0, 40.0, 30.0)

    @pytest.mark.parametrize("field", ["ds_fraction", "scg_fraction", "cellulose_pct",
                                       "hemicellulose_pct", "lignin_pct"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_composition_rejected(self, field, value):
        fields = {"ds_fraction": 0.5, "scg_fraction": 0.5, "cellulose_pct": 20.0,
                  "hemicellulose_pct": 30.0, "lignin_pct": 25.0, field: value}
        with pytest.raises(DomainError, match=field):
            SampleSpec("x", **fields)

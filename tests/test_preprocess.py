import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrokin.errors import DomainError, InputError, ResolutionError
from pyrokin.kinetics import reachable_levels
from pyrokin.preprocess import (
    AlphaCurve,
    compute_alpha,
    compute_dtg,
    default_mass_bounds,
    find_peaks,
    invert_alpha_curves,
)
from pyrokin.synthkin import (
    PseudoComponent,
    PseudoComponentModel,
    simulate,
)
from pyrokin.tga_io import DATE_SEEDS, TgaCurve

from kissinger import kissinger_peak
from reference_kinetics import Unreachable, rate_at_temperature, temperature_at_alpha


def make_curve(temperature_k, mass_fraction, beta=10.0):
    temperature_k = np.asarray(temperature_k, dtype=float)
    return TgaCurve(
        spec=DATE_SEEDS,
        heating_rate_beta=beta,
        time_s=(temperature_k - temperature_k[0]) * 60.0 / beta,
        temperature_k=temperature_k,
        mass_fraction=np.asarray(mass_fraction, dtype=float),
    )


class TestComputeDtg:
    def test_linear_mass_gives_constant_slope(self):
        T = np.linspace(300.0, 500.0, 201)
        curve = make_curve(T, 1.0 - 0.001 * (T - 300.0))
        _, deriv = compute_dtg(curve, smooth_window=1)
        assert np.allclose(deriv[1:-1], -0.001, atol=1e-12)

    def test_constant_mass_gives_zero(self):
        T = np.linspace(300.0, 500.0, 101)
        curve = make_curve(T, np.ones(101))
        _, deriv = compute_dtg(curve, smooth_window=5)
        assert np.all(deriv == 0.0)

    def test_quadratic_mass_exact_at_interior(self):
        T = np.linspace(300.0, 400.0, 101)
        mass = 1.0 - 2e-6 * (T - 300.0) ** 2
        curve = make_curve(T, mass)
        _, deriv = compute_dtg(curve, smooth_window=1)
        expected = -4e-6 * (T - 300.0)
        assert np.max(np.abs(deriv[1:-1] - expected[1:-1])) < 1e-10

    def test_peak_near_kissinger_root(self):
        model = PseudoComponentModel(
            components=(PseudoComponent(fraction=1.0, ea=150e3, a=1e13),),
            residue=0.0,
            t_start=300.0,
            t_end=900.0,
        )
        curve = simulate(model, 10.0, 0.5)
        T, deriv = compute_dtg(curve, smooth_window=9)
        peak = T[int(np.argmin(deriv))]
        assert abs(peak - kissinger_peak(150e3, 1e13, 10.0 / 60.0)) < 2.0

    def test_non_uniform_grid_rejected(self):
        T = np.concatenate([np.linspace(300, 400, 50), np.linspace(401.7, 500, 50)])
        curve = make_curve(T, np.linspace(1.0, 0.5, 100))
        with pytest.raises(InputError, match="uniform"):
            compute_dtg(curve, smooth_window=1)

    def test_even_window_rejected(self):
        T = np.linspace(300.0, 500.0, 101)
        curve = make_curve(T, np.linspace(1.0, 0.5, 101))
        with pytest.raises(DomainError, match="odd"):
            compute_dtg(curve, smooth_window=4)

    def test_window_too_wide_rejected(self):
        T = np.linspace(300.0, 500.0, 41)
        curve = make_curve(T, np.linspace(1.0, 0.5, 41))
        with pytest.raises(ResolutionError):
            compute_dtg(curve, smooth_window=11)


class TestComputeAlpha:
    def test_midpoint_and_boundaries(self):
        T = np.linspace(300.0, 500.0, 101)
        curve = make_curve(T, np.linspace(1.0, 0.2, 101))
        ac = compute_alpha(curve, m0=1.0, mf=0.2, smooth_window=1)
        assert ac.alpha[0] == 0.0
        assert ac.alpha[-1] == 1.0
        k = int(np.argmin(np.abs(curve.mass_fraction - 0.6)))
        assert ac.alpha[k] == pytest.approx(0.5, abs=1e-12)

    def test_pointwise_definition_on_clean_data(self):
        T = np.linspace(300.0, 500.0, 101)
        mass = np.linspace(1.0, 0.3, 101)
        curve = make_curve(T, mass)
        ac = compute_alpha(curve, m0=1.0, mf=0.3, smooth_window=1)
        assert np.max(np.abs(ac.alpha - (1.0 - mass) / 0.7)) < 1e-12

    def test_matches_integrated_conversion_for_synthetic(self, single_step_model):
        curve = simulate(single_step_model, 10.0, 0.5)
        m0, mf = default_mass_bounds(curve)
        ac = compute_alpha(curve, m0, mf, smooth_window=1)
        oracle = 1.0 - curve.mass_fraction  # residue-free single component
        assert np.max(np.abs(ac.alpha - oracle)) < 1e-3

    def test_monotone_enforcement_never_decreases(self):
        T = np.linspace(300.0, 500.0, 201)
        rng = np.random.default_rng(8)
        mass = np.linspace(1.0, 0.2, 201) + 0.004 * rng.standard_normal(201)
        mass[0] = 1.0
        mass = np.clip(mass, 0.01, 1.0)
        curve = make_curve(T, mass)
        ac = compute_alpha(curve, m0=1.0, mf=float(mass.min()), smooth_window=5)
        raw = np.clip((1.0 - mass) / (1.0 - mass.min()), 0.0, 1.0)
        assert np.all(ac.alpha >= raw - 1e-15)
        assert np.all(np.diff(ac.alpha) >= 0.0)

    def test_inverted_bounds_rejected(self):
        T = np.linspace(300.0, 500.0, 101)
        curve = make_curve(T, np.linspace(1.0, 0.2, 101))
        with pytest.raises(DomainError):
            compute_alpha(curve, m0=0.2, mf=1.0)

    def test_heating_rate_shift_in_t_of_alpha(self, single_step_model):
        alpha_curves = []
        for beta in (5.0, 10.0, 15.0, 20.0):
            curve = simulate(single_step_model, beta, 0.5)
            m0, mf = default_mass_bounds(curve)
            alpha_curves.append(compute_alpha(curve, m0, mf, smooth_window=1))
        temps, _ = invert_alpha_curves(alpha_curves, np.arange(0.1, 0.75, 0.1))
        assert np.all(np.diff(temps, axis=1) > 0.0)


def t_alpha(ac, alpha):
    """``invert_alpha_curves`` for one curve at one level."""
    temps, _ = invert_alpha_curves([ac], [alpha])
    return temps[0, 0]


def hand_curve(temperature_k, alpha, dalpha_dT=None):
    temperature_k = np.asarray(temperature_k, dtype=float)
    return AlphaCurve(
        heating_rate_beta=10.0,
        temperature_k=temperature_k,
        alpha=np.asarray(alpha, dtype=float),
        dalpha_dT=np.zeros(len(temperature_k)) if dalpha_dT is None else dalpha_dT,
    )


class TestTemperatureAtAlpha:
    def ac(self):
        T = np.linspace(300.0, 500.0, 101)
        curve = make_curve(T, np.linspace(1.0, 0.0 + 0.01, 101))
        return compute_alpha(curve, m0=1.0, mf=0.01, smooth_window=1)

    def test_exact_grid_hit(self):
        ac = self.ac()
        k = 40
        assert t_alpha(ac, float(ac.alpha[k])) == ac.temperature_k[k]

    def test_linear_interpolation_between_grid_points(self):
        series = hand_curve([600.0, 610.0], [0.4, 0.5])
        assert t_alpha(series, 0.45) == pytest.approx(605.0)

    def test_synthetic_half_conversion_matches_oracle(self, single_step_model):
        curve = simulate(single_step_model, 10.0, 0.5)
        m0, mf = default_mass_bounds(curve)
        ac = compute_alpha(curve, m0, mf, smooth_window=1)
        t_half = t_alpha(ac, 0.5)
        oracle = float(
            np.interp(0.5, 1.0 - curve.mass_fraction, curve.temperature_k)
        )
        assert abs(t_half - oracle) < 1.0

    def test_out_of_range_names_interval(self):
        series = hand_curve([600.0, 610.0], [0.4, 0.5])
        temps, dadT = invert_alpha_curves([series], [0.9])
        assert np.isnan(temps[0, 0]) and np.isnan(dadT[0, 0])
        _, _, _, excluded, warnings = reachable_levels([series], [0.9])
        assert excluded == [0.9]
        assert "[0.4, 0.5]" in warnings[0]
        with pytest.raises(DomainError):
            invert_alpha_curves([series], [1.5])

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.sampled_from([0.0, 0.0, 0.05, 0.25]),
        steps=st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.125, 0.3]),
                       min_size=1, max_size=30),
        extra=st.lists(st.floats(0.001, 0.999), max_size=5),
    )
    def test_matches_the_scalar_inversion_bitwise(self, start, steps, extra):
        # non-decreasing conversion with flat segments (repeated steps of 0)
        alpha = np.minimum(start + np.cumsum([0.0, *steps]), 1.0)
        T = 500.0 + 0.7 * np.arange(len(alpha))
        ac = hand_curve(T, alpha, np.sin(T))
        # exact hits (the endpoints and every flat value among them), points
        # between neighbours, levels just outside the achieved range
        levels = [*alpha, *(0.5 * (alpha[1:] + alpha[:-1])), *extra,
                  np.nextafter(alpha[0], 0.0), np.nextafter(alpha[-1], 1.0)]
        levels = [float(a) for a in levels if 0.0 < a < 1.0]
        temps, dadT = invert_alpha_curves([ac], levels)
        for level, t, rate in zip(levels, temps[:, 0], dadT[:, 0]):
            try:
                expected = temperature_at_alpha(ac, level)
            except Unreachable:
                assert np.isnan(t) and np.isnan(rate), level
                continue
            assert t.tobytes() == np.float64(expected).tobytes(), level
            assert rate.tobytes() == np.float64(rate_at_temperature(ac, expected)).tobytes()


class TestFindPeaks:
    def test_single_component_lands_in_hemicellulose_window(self):
        # peak placed at ~550 K (277 C) inside the 225-325 C window
        model = PseudoComponentModel(
            components=(PseudoComponent(fraction=1.0, ea=150e3, a=1.75e12),),
            residue=0.0,
            t_start=300.0,
            t_end=900.0,
        )
        curve = simulate(model, 10.0, 0.5)
        peaks = find_peaks(compute_dtg(curve, smooth_window=9))
        hemi = [p for p in peaks if p.stage_label == "hemicellulose"]
        assert len(hemi) == 1
        assert hemi[0].window[0] <= hemi[0].T_peak <= hemi[0].window[1]

    def test_flat_signal_yields_nothing(self):
        T = np.linspace(300.0, 900.0, 601)
        peaks = find_peaks((T, np.zeros_like(T)))
        assert peaks == []

    def test_two_well_separated_components_give_ordered_peaks(self):
        model = PseudoComponentModel(
            components=(
                PseudoComponent(fraction=0.5, ea=150e3, a=1.75e12),
                PseudoComponent(fraction=0.5, ea=200e3, a=3.9e14),
            ),
            residue=0.0,
            t_start=300.0,
            t_end=900.0,
        )
        curve = simulate(model, 10.0, 0.5)
        peaks = find_peaks(compute_dtg(curve, smooth_window=9))
        stages = [p.stage_label for p in peaks]
        assert "hemicellulose" in stages and "cellulose" in stages
        temps = [p.T_peak for p in peaks]
        assert temps == sorted(temps)

    def test_subthreshold_window_yields_no_peak(self):
        # tall peak in the hemicellulose window, faint wiggle in cellulose's
        T = np.linspace(400.0, 800.0, 801)
        signal = -np.exp(-((T - 550.0) ** 2) / 50.0) - 0.01 * np.exp(
            -((T - 640.0) ** 2) / 50.0
        )
        peaks = find_peaks((T, signal))
        assert all(p.stage_label != "cellulose" for p in peaks)

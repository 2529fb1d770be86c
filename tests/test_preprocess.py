import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrokin.errors import DomainError, InputError, ResolutionError
from pyrokin.preprocess import (
    DEFAULT_RESAMPLE_DT,
    DEFAULT_STAGE_WINDOWS,
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
    suite_models,
)
from pyrokin.tga_io import DATE_SEEDS, TgaCurve, resample_uniform

from kissinger import kissinger_peak
from reference_kinetics import Unreachable, rate_at_temperature, temperature_at_alpha


def make_curve(temperature_k, mass_fraction, beta=10.0):
    temperature_k = np.asarray(temperature_k, dtype=float)
    return TgaCurve(
        spec=DATE_SEEDS,
        heating_rate_beta=beta,
        temperature_k=temperature_k,
        mass_fraction=np.asarray(mass_fraction, dtype=float),
    )


class TestComputeDtg:
    def test_linear_mass_gives_constant_slope(self):
        T = np.linspace(300.0, 500.0, 201)
        curve = make_curve(T, 1.0 - 0.001 * (T - 300.0))
        deriv = compute_dtg(curve, smooth_window=1)
        assert np.allclose(deriv[1:-1], -0.001, atol=1e-12)

    def test_constant_mass_gives_zero(self):
        T = np.linspace(300.0, 500.0, 101)
        curve = make_curve(T, np.ones(101))
        deriv = compute_dtg(curve, smooth_window=5)
        assert np.all(deriv == 0.0)

    def test_quadratic_mass_exact_at_interior(self):
        T = np.linspace(300.0, 400.0, 101)
        mass = 1.0 - 2e-6 * (T - 300.0) ** 2
        curve = make_curve(T, mass)
        deriv = compute_dtg(curve, smooth_window=1)
        expected = -4e-6 * (T - 300.0)
        assert np.max(np.abs(deriv[1:-1] - expected[1:-1])) < 1e-10

    def test_peak_near_kissinger_root(self):
        model = PseudoComponentModel(
            components=(PseudoComponent(fraction=1.0, ea=150e3, a=1e13),),
            residue=0.0,
            t_start=300.0,
            t_end=900.0,
        )
        curve = simulate(model, 10.0, 0.5, DATE_SEEDS)
        deriv = compute_dtg(curve, smooth_window=9)
        peak = curve.temperature_k[int(np.argmin(deriv))]
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
        curve = simulate(single_step_model, 10.0, 0.5, DATE_SEEDS)
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
            curve = simulate(single_step_model, beta, 0.5, DATE_SEEDS)
            m0, mf = default_mass_bounds(curve)
            alpha_curves.append(compute_alpha(curve, m0, mf, smooth_window=1))
        temps, _ = invert_alpha_curves(alpha_curves, np.arange(0.1, 0.75, 0.1))
        assert np.all(np.diff(temps, axis=1) > 0.0)

    @pytest.mark.parametrize("resample_dt", [DEFAULT_RESAMPLE_DT, 1.0])
    @pytest.mark.parametrize("dt", [0.5, 1.0])
    @pytest.mark.parametrize("beta", [5.0, 10.0, 15.0, 20.0])
    def test_suite_conversion_spans_zero_to_one(self, beta, dt, resample_dt):
        """Simulated at ``dt`` and prepared as run_analysis prepares them, the
        suite's curves convert from exactly 0 to exactly 1, so every level in
        (0, 1) is reachable."""
        for name, model, spec in suite_models():
            curve = resample_uniform(simulate(model, beta, dt, spec=spec), resample_dt)
            ac = compute_alpha(curve, *default_mass_bounds(curve))
            assert (ac.alpha[0], ac.alpha[-1]) == (0.0, 1.0), name

    def test_m0_above_the_first_mass_is_clamped_to_it(self):
        # the mass at 160 C (433.15 K) sits 1e-12 above the first, as TgaCurve allows
        T = np.linspace(400.0, 600.0, 201)
        mass = np.where(T <= 450.0, 1.0 + 1e-12, 1.0 - 0.004 * (T - 450.0))
        mass[0] = 1.0
        curve = make_curve(T, mass)
        assert np.interp(433.15, T, mass) > 1.0
        m0, mf = default_mass_bounds(curve)
        assert (m0, mf) == (1.0, mass[-1])
        ac = compute_alpha(curve, m0, mf, smooth_window=1)
        assert (ac.alpha[0], ac.alpha[-1]) == (0.0, 1.0)


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
        curve = simulate(single_step_model, 10.0, 0.5, DATE_SEEDS)
        m0, mf = default_mass_bounds(curve)
        ac = compute_alpha(curve, m0, mf, smooth_window=1)
        t_half = t_alpha(ac, 0.5)
        oracle = float(
            np.interp(0.5, 1.0 - curve.mass_fraction, curve.temperature_k)
        )
        assert abs(t_half - oracle) < 1.0

    def test_out_of_range_names_interval(self):
        series = hand_curve([600.0, 610.0], [0.4, 0.5])
        with pytest.raises(DomainError, match=r"alpha=0\.9 unreachable at beta=10 K/min: "
                                              r"outside achieved range \[0\.4, 0\.5\]"):
            invert_alpha_curves([series], [0.9])
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
        reached = []  # (level, the scalar inversion's temperature)
        for level in levels:
            try:
                reached.append((level, temperature_at_alpha(ac, level)))
            except Unreachable:
                with pytest.raises(DomainError, match="unreachable"):
                    invert_alpha_curves([ac], [level])
        if not reached:
            return
        temps, dadT = invert_alpha_curves([ac], [level for level, _ in reached])
        for (level, expected), t, rate in zip(reached, temps[:, 0], dadT[:, 0]):
            assert t.tobytes() == np.float64(expected).tobytes(), level
            assert rate.tobytes() == np.float64(rate_at_temperature(ac, expected)).tobytes()


# (hemicellulose, cellulose) DTG peak temperatures (K) of every suite preset
# at 5/10/15/20 K/min, simulated at dT 0.5 K and smoothed over 9 points; the
# Tm a thermo --curve run reads. Grid points, so they compare exactly.
SUITE_STAGE_PEAKS = {
    "single-step": ((598.0, 613.5), (598.0, 625.5), (598.0, 632.5), (598.0, 637.5)),
    "three-component-ds": ((539.5, 619.0), (550.0, 630.0), (556.5, 636.5), (561.5, 641.0)),
    "three-component-scg": ((536.5, 622.5), (547.5, 633.5), (553.5, 640.0), (558.5, 644.5)),
    "blend-0.75": ((539.0, 620.0), (549.5, 631.0), (556.0, 637.5), (560.5, 642.0)),
    "blend-0.5": ((538.0, 621.0), (549.0, 632.0), (555.5, 638.5), (560.0, 643.0)),
    "blend-0.25": ((537.5, 622.0), (548.0, 633.0), (554.5, 639.5), (559.0, 644.0)),
}


class TestFindPeaks:
    @pytest.mark.parametrize("name, model, spec", suite_models(),
                             ids=[name for name, _, _ in suite_models()])
    def test_suite_stage_peaks_are_pinned(self, name, model, spec):
        got = []
        for beta in (5.0, 10.0, 15.0, 20.0):
            curve = simulate(model, beta, 0.5, spec)
            peaks = find_peaks(curve.temperature_k, compute_dtg(curve, smooth_window=9))
            got.append((peaks["hemicellulose"], peaks["cellulose"]))
        assert tuple(got) == SUITE_STAGE_PEAKS[name]

    def test_single_component_lands_in_hemicellulose_window(self):
        # peak placed at ~550 K (277 C) inside the 225-325 C window
        model = PseudoComponentModel(
            components=(PseudoComponent(fraction=1.0, ea=150e3, a=1.75e12),),
            residue=0.0,
            t_start=300.0,
            t_end=900.0,
        )
        curve = simulate(model, 10.0, 0.5, DATE_SEEDS)
        peaks = find_peaks(curve.temperature_k, compute_dtg(curve, smooth_window=9))
        lo, hi = DEFAULT_STAGE_WINDOWS["hemicellulose"]
        assert lo <= peaks["hemicellulose"] <= hi

    def test_flat_signal_yields_nothing(self):
        T = np.linspace(300.0, 900.0, 601)
        peaks = find_peaks(T, np.zeros_like(T))
        assert peaks == {}

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
        curve = simulate(model, 10.0, 0.5, DATE_SEEDS)
        peaks = find_peaks(curve.temperature_k, compute_dtg(curve, smooth_window=9))
        assert "hemicellulose" in peaks and "cellulose" in peaks
        temps = list(peaks.values())
        assert temps == sorted(temps)

    def test_subthreshold_window_yields_no_peak(self):
        # tall peak in the hemicellulose window, faint wiggle in cellulose's
        T = np.linspace(400.0, 800.0, 801)
        signal = -np.exp(-((T - 550.0) ** 2) / 50.0) - 0.01 * np.exp(
            -((T - 640.0) ** 2) / 50.0
        )
        peaks = find_peaks(T, signal)
        assert "cellulose" not in peaks

    def test_window_outside_the_curve_is_skipped(self):
        T = np.linspace(400.0, 800.0, 801)
        signal = -np.exp(-((T - 550.0) ** 2) / 50.0)
        peaks = find_peaks(T, signal, {"beyond": (900.0, 1000.0), "peak": (500.0, 600.0)})
        assert peaks == {"peak": 550.0}

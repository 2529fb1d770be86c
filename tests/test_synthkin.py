import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrokin.constants import GAS_CONSTANT
from pyrokin.errors import ConfigError, DomainError
from pyrokin.synthkin import (
    _GL_NODES,
    _GL_WEIGHTS,
    BLEND_FRAC,
    PRESETS,
    PseudoComponent,
    PseudoComponentModel,
    blend_models,
    model_to_json,
    preset,
    simulate,
    suite_models,
)

from kissinger import BracketError, kissinger_peak

# root of the first-order peak condition for Ea=150 kJ/mol, A=1e13/s at
# 10 K/min, found by an independent bisection run
KISSINGER_150_1E13_10 = 523.7290582153946


def model_from_json(text: str) -> PseudoComponentModel:
    """Inverse of ``model_to_json``: the written model file read back."""
    doc = json.loads(text)
    return PseudoComponentModel(
        components=tuple(
            PseudoComponent(
                fraction=c["fraction"], ea=c["ea_j_mol"], a=c["a_per_s"], order=c["order"]
            )
            for c in doc["components"]
        ),
        residue=doc["residue"],
        t_start=doc["t_start_k"],
        t_end=doc["t_end_k"],
    )


def one_component(ea=150e3, a=1e13, order=1.0, t_end=900.0, residue=0.0):
    return PseudoComponentModel(
        components=(PseudoComponent(fraction=1.0 - residue, ea=ea, a=a, order=order),),
        residue=residue,
        t_start=300.0,
        t_end=t_end,
    )


def rk4_mass(model, beta, dT):
    """Independent reference: classical RK4 on d(alpha_i)/dT, clamped to [0, 1]."""
    beta_s = beta / 60.0
    n_steps = round((model.t_end - model.t_start) / dT)
    grid = np.linspace(model.t_start, model.t_end, n_steps + 1)
    h = (model.t_end - model.t_start) / n_steps
    eas, a, orders, fracs = (
        np.array([getattr(c, name) for c in model.components])
        for name in ("ea", "a", "order", "fraction")
    )

    def rates(T, alphas):
        remaining = np.clip(1.0 - alphas, 0.0, None)
        return a / beta_s * np.exp(-eas / (GAS_CONSTANT * T)) * remaining**orders

    alphas = np.zeros(len(eas))
    mass = [model.residue + fracs.sum()]
    for T in grid[:-1]:
        k1 = rates(T, alphas)
        k2 = rates(T + 0.5 * h, alphas + 0.5 * h * k1)
        k3 = rates(T + 0.5 * h, alphas + 0.5 * h * k2)
        k4 = rates(T + h, alphas + h * k3)
        alphas = np.clip(alphas + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, 1.0)
        mass.append(model.residue + fracs @ (1.0 - alphas))
    return np.array(mass) / mass[0]


class TestSimulate:
    def test_no_reaction_when_a_is_zero(self):
        model = one_component(a=0.0)
        curve = simulate(model, 10.0, 1.0)
        assert np.all(curve.mass_fraction == 1.0)

    def test_complete_burnout_reaches_zero(self):
        curve = simulate(one_component(), 10.0, 0.5)
        assert curve.mass_fraction[-1] < 1e-6

    def test_mass_non_increasing_and_starts_at_one(self):
        curve = simulate(one_component(), 10.0, 0.5)
        assert curve.mass_fraction[0] == 1.0
        assert np.all(np.diff(curve.mass_fraction) <= 0.0)

    def test_dtg_peak_matches_kissinger_root(self):
        from pyrokin.preprocess import compute_dtg

        curve = simulate(one_component(), 10.0, 0.5)
        T, dm = compute_dtg(curve, smooth_window=1)
        peak = T[int(np.argmin(dm))]
        assert abs(peak - KISSINGER_150_1E13_10) < 2.0

    def test_mass_conservation_pointwise(self):
        # dyadic fractions keep the balance exact in floating point
        model = PseudoComponentModel(
            components=(
                PseudoComponent(fraction=0.5, ea=150e3, a=1.75e12),
                PseudoComponent(fraction=0.25, ea=200e3, a=3.9e14),
            ),
            residue=0.25,
            t_start=300.0,
            t_end=900.0,
        )
        curve = simulate(model, 10.0, 0.5)
        assert curve.mass_fraction[0] == 1.0
        assert np.all(curve.mass_fraction >= 0.25 - 1e-12)
        assert curve.mass_fraction[-1] == pytest.approx(0.25, abs=1e-9)

    def test_matches_rk4_reference_on_step_halving(self):
        # RK4 converges to the exact curve at fourth order (16x per halving),
        # so the fine reference pins the closed form to well under 1e-9
        for order in (1.0, 1.3):
            model = one_component(order=order)
            exact = simulate(model, 10.0, 0.5).mass_fraction
            gap_coarse = np.max(np.abs(rk4_mass(model, 10.0, 0.25)[::2] - exact))
            gap_fine = np.max(np.abs(rk4_mass(model, 10.0, 0.125)[::4] - exact))
            assert gap_fine <= 1e-9, order
            assert gap_coarse >= 10.0 * gap_fine, order

    def test_gauss_legendre_rule_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(4)
        np.testing.assert_allclose(_GL_NODES, nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_GL_WEIGHTS, weights, rtol=0, atol=1e-15)

    def test_temperature_at_fixed_alpha_increases_with_beta(self):
        curves = {b: simulate(one_component(), b, 0.5) for b in (5.0, 10.0, 20.0)}
        for alpha in (0.1, 0.3, 0.5, 0.7):
            temps = [
                np.interp(alpha, 1.0 - c.mass_fraction, c.temperature_k)
                for c in curves.values()
            ]
            assert temps[0] < temps[1] < temps[2]

    def test_stiff_component_gives_valid_curve(self):
        mass = simulate(one_component(a=1e30), 5.0, 1.0).mass_fraction
        assert mass[0] == 1.0
        assert np.all(np.diff(mass) <= 0.0)
        assert mass[-1] <= 1e-6

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        ea=st.floats(20e3, 400e3),
        a=st.one_of(st.just(0.0), st.floats(-2.0, 30.0).map(lambda e: 10.0**e)),
        order=st.one_of(st.just(1.0), st.floats(0.2, 3.0)),
        beta=st.floats(0.5, 100.0),
        dT=st.floats(0.05, 1.0),
        residue=st.integers(0, 32).map(lambda k: k / 64.0),  # dyadic: exact balance
    )
    def test_mass_bounded_and_non_increasing(self, ea, a, order, beta, dT, residue):
        model = one_component(ea=ea, a=a, order=order, residue=residue)
        mass = simulate(model, beta, dT).mass_fraction
        assert mass[0] == 1.0
        assert np.all(np.diff(mass) <= 0.0)
        assert np.all(mass >= residue - 1e-12) and np.all(mass <= 1.0)

    def test_step_above_one_kelvin_rejected(self):
        with pytest.raises(DomainError):
            simulate(one_component(), 10.0, 2.0)

    def test_fraction_sum_validated(self):
        with pytest.raises(DomainError):
            PseudoComponentModel(
                components=(PseudoComponent(fraction=0.5, ea=1e5, a=1e10),),
                residue=0.1,
                t_start=300.0,
                t_end=900.0,
            )


class TestKissingerPeak:
    def test_reference_root(self):
        root = kissinger_peak(150e3, 1e13, 10.0 / 60.0)
        assert root == pytest.approx(KISSINGER_150_1E13_10, abs=2e-6)

    def test_doubling_beta_increases_root(self):
        r1 = kissinger_peak(150e3, 1e13, 10.0 / 60.0)
        r2 = kissinger_peak(150e3, 1e13, 20.0 / 60.0)
        assert r2 > r1

    def test_root_satisfies_defining_equation(self):
        ea, a, beta = 150e3, 1e13, 10.0 / 60.0
        T = kissinger_peak(ea, a, beta)
        lhs = ea * beta / (GAS_CONSTANT * T * T)
        rhs = a * math.exp(-ea / (GAS_CONSTANT * T))
        assert abs(lhs - rhs) / rhs < 1e-9

    def test_no_bracket_raises(self):
        with pytest.raises(BracketError):
            kissinger_peak(500e3, 1e-30, 10.0 / 60.0)


class TestPreset:
    @pytest.mark.parametrize("name", [n for n in PRESETS if n != "blend"])
    def test_pure_preset_is_its_suite_model(self, name):
        suite = {triple[0]: triple for triple in suite_models()}
        assert preset(name) == suite[name]

    def test_blend_defaults_to_blend_frac(self):
        assert preset("blend") == preset("blend", BLEND_FRAC)
        assert preset("blend")[0] == "blend-0.75"

    def test_unknown_name_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown preset 'blend-0.5'"):
            preset("blend-0.5")

    @pytest.mark.parametrize("name", [n for n in PRESETS if n != "blend"])
    def test_frac_on_a_pure_preset_is_config_error(self, name):
        with pytest.raises(ConfigError, match="applies only to the blend preset"):
            preset(name, 0.5)


class TestFixtureSuite:
    def test_three_component_shows_stage_peaks_at_slow_rate(self):
        from pyrokin.preprocess import compute_dtg, find_peaks

        suite = {name: (model, spec) for name, model, spec in suite_models()}
        model, spec = suite["three-component-ds"]
        curve = simulate(model, 5.0, 0.5, spec=spec)
        peaks = find_peaks(compute_dtg(curve, smooth_window=9))
        labels = {p.stage_label for p in peaks}
        assert {"hemicellulose", "cellulose"} <= labels

    def test_blend_curve_is_convex_combination_of_parents(self):
        models = {name: model for name, model, _ in suite_models()}
        ds, scg = models["three-component-ds"], models["three-component-scg"]
        frac = 0.75
        blend = blend_models(ds, scg, frac)
        beta, dT = 10.0, 0.5
        blended = simulate(blend, beta, dT).mass_fraction
        combo = (
            frac * simulate(ds, beta, dT).mass_fraction
            + (1.0 - frac) * simulate(scg, beta, dT).mass_fraction
        )
        assert np.max(np.abs(blended - combo)) < 1e-9

    def test_model_json_round_trip(self):
        model = one_component(ea=123e3, a=4.5e11, order=1.3)
        assert model_from_json(model_to_json(model)) == model

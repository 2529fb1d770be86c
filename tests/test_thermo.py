import math

import numpy as np
import pytest

from pyrokin.constants import BOLTZMANN, GAS_CONSTANT, PLANCK
from pyrokin.errors import DomainError, InputError
from pyrokin.kinetics import AnalysisTable, KineticEstimate
from pyrokin.report import thermo_to_csv
from pyrokin.thermo import delta_g, delta_h, delta_s, thermo_profile

# frozen scalar evaluations of the closed forms
DELTA_H_200KJ_600K = 195011.3224292
DELTA_G_200KJ_600K_1E15 = 178140.26875476283


def one_row_table(method="friedman", alpha=0.5, ea=200e3, a=1e15):
    est = KineticEstimate(method, alpha, ea, a, 1.0)
    return AnalysisTable("x", (est,), (alpha,))


class TestDeltaH:
    def test_direct_substitution(self):
        assert delta_h(200e3, 600.0) == pytest.approx(DELTA_H_200KJ_600K, abs=1e-6)

    def test_zero_activation_energy(self):
        assert delta_h(0.0, 700.0) == pytest.approx(-GAS_CONSTANT * 700.0)

    def test_always_below_ea(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ea = float(rng.uniform(1e3, 600e3))
            t_m = float(rng.uniform(300.0, 1200.0))
            assert delta_h(ea, t_m) < ea

    def test_ratio_matches_scalar_bound(self):
        # dH/Ea = 1 - R Tm/Ea; above 0.95 whenever R Tm/Ea < 0.05, which holds
        # for the synthetic single-step chain (Ea=180 kJ/mol, peak ~614-637 K)
        for ea in (100e3, 200e3, 400e3):
            for t_m in (400.0, 600.0, 900.0):
                ratio = delta_h(ea, t_m) / ea
                assert ratio == pytest.approx(1.0 - GAS_CONSTANT * t_m / ea, rel=1e-12)
                assert ratio < 1.0
        for t_m in (614.0, 625.0, 637.0):
            assert 0.95 < delta_h(180e3, t_m) / 180e3 < 1.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            delta_h(100e3, 0.0)


class TestDeltaG:
    def test_closed_form_value(self):
        assert delta_g(200e3, 600.0, 1e15) == pytest.approx(
            DELTA_G_200KJ_600K_1E15, rel=1e-12
        )
        # four significant figures: 178.1 kJ/mol
        assert round(delta_g(200e3, 600.0, 1e15) / 1000.0, 1) == 178.1

    def test_identity_point_when_a_matches_kt_over_h(self):
        t_m = 650.0
        a = BOLTZMANN * t_m / PLANCK
        assert delta_g(123e3, t_m, a) == pytest.approx(123e3, rel=1e-12)

    def test_decade_down_in_a_adds_rt_ln10(self):
        t_m = 600.0
        g1 = delta_g(200e3, t_m, 1e15)
        g2 = delta_g(200e3, t_m, 1e14)
        assert g2 - g1 == pytest.approx(GAS_CONSTANT * t_m * math.log(10.0), rel=1e-9)

    def test_strictly_decreasing_in_a(self):
        values = [delta_g(150e3, 600.0, a) for a in (1e3, 1e8, 1e13, 1e30, 1e60)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_finite_over_extreme_a_range(self):
        for a in (1e-3, 1.0, 1e15, 1e60):
            assert math.isfinite(delta_g(150e3, 600.0, a))

    def test_nonpositive_a_rejected(self):
        with pytest.raises(DomainError):
            delta_g(150e3, 600.0, 0.0)


class TestDeltaS:
    def test_zero_when_enthalpy_equals_gibbs(self):
        assert delta_s(5e4, 5e4, 600.0) == 0.0

    def test_direct_substitution(self):
        assert delta_s(106e3, 100e3, 600.0) == pytest.approx(10.0)

    def test_gibbs_reconstruction_round_trip(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            ea = float(rng.uniform(2e4, 6e5))
            t_m = float(rng.uniform(300.0, 1200.0))
            a = float(10.0 ** rng.uniform(-3.0, 60.0))
            dh = delta_h(ea, t_m)
            dg = delta_g(ea, t_m, a)
            ds = delta_s(dh, dg, t_m)
            assert dg == pytest.approx(dh - t_m * ds, rel=1e-9)


class TestThermoProfile:
    def test_single_row_gives_single_estimate(self):
        profile = thermo_profile(one_row_table(), t_m=600.0)
        assert len(profile) == 1
        assert profile[0].delta_h == pytest.approx(DELTA_H_200KJ_600K, abs=1e-6)

    def test_alpha_independent_kinetics_give_constant_gibbs(self):
        # one reaction: same (Ea, A) at every conversion level
        ests = tuple(
            KineticEstimate("kas", a, 180e3, 1e13, 1.0)
            for a in (0.1, 0.3, 0.5, 0.7)
        )
        table = AnalysisTable("x", ests, (0.1, 0.3, 0.5, 0.7))
        profile = thermo_profile(table, t_m=600.0)
        gibbs = {e.delta_g for e in profile}
        assert len(gibbs) == 1

    def test_csv_has_three_rows_per_method_alpha_pair(self, single_step_analysis):
        profile = thermo_profile(single_step_analysis, t_m=625.0)
        text = thermo_to_csv(profile)
        n_rows = len(text.strip().splitlines()) - 1
        assert n_rows == 3 * 3 * 7  # quantities x methods x conversion grid

    def test_identity_holds_for_every_emitted_estimate(self, single_step_analysis):
        t_m = 625.0
        profile = thermo_profile(single_step_analysis, t_m=t_m)
        for est in profile:
            assert est.delta_g - est.delta_h + t_m * est.delta_s == pytest.approx(
                0.0, abs=1e-9 * abs(est.delta_g)
            )
            assert est.delta_h < 181e3

    def test_empty_table_rejected(self):
        table = AnalysisTable("x", (), ())
        with pytest.raises(InputError):
            thermo_profile(table, 600.0)

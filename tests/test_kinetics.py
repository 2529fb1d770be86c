import math

import numpy as np
import pytest

from pyrokin.constants import GAS_CONSTANT as R
from pyrokin.errors import DomainError, InputError, NumericalError, RankError
from pyrokin.kinetics import (
    METHOD_FRIEDMAN,
    METHODS,
    AnalysisTable,
    KineticEstimate,
    KineticModelAssumption,
    by_method,
    fit_levels,
    linear_fit,
    reachable_levels,
    run_analysis,
)
from pyrokin.preprocess import AlphaCurve
from pyrokin.synthkin import simulate, suite_models
from pyrokin.thermo import ThermoEstimate

from reference_kinetics import reference_run_analysis

F1 = KineticModelAssumption()


def kas_line_betas(temps, ea=200e3, c=8.0):
    """Heating rates (K/s) on an exact KAS line through ``temps``."""
    temps = np.asarray(temps)
    return temps**2 * np.exp(c - ea / (R * temps))


def fit_one(method, alpha, betas, temps, rates, model=F1):
    """``method``'s estimate from ``fit_levels`` at a single conversion level.

    Every method is fitted, so an input that ``method`` never reads still
    has to be valid: Friedman reads only ``rates``, KAS and FWO only
    ``betas``.
    """
    estimates = fit_levels([alpha], betas, [temps], [rates], model)
    return next(e for e in estimates if e.method == method)


def exact_friedman(ea=200e3, ln_af=30.0, alpha=0.5, temps=(540.0, 560.0, 580.0, 600.0),
                   scale=1.0):
    temps = np.array(temps)
    rates = scale * np.exp(ln_af - ea / (R * temps))
    return fit_one("friedman", alpha, kas_line_betas(temps), temps, rates)


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r2 = linear_fit([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_target_uses_zero_variance_convention(self):
        slope, intercept, r2 = linear_fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert slope == 0.0
        assert intercept == 4.0
        assert r2 == 1.0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        x = np.linspace(0.0, 5.0, 40)
        y = x + 0.05 * rng.standard_normal(40)
        slope, intercept, _ = linear_fit(x, y)
        # independent oracle: solve the normal equations directly
        A = np.array([[np.sum(x * x), np.sum(x)], [np.sum(x), len(x)]])
        b = np.array([np.sum(x * y), np.sum(y)])
        oracle_slope, oracle_intercept = np.linalg.solve(A, b)
        assert slope == pytest.approx(oracle_slope, abs=1e-12)
        assert intercept == pytest.approx(oracle_intercept, abs=1e-12)

    def test_degenerate_x_raises_rank_error(self):
        # no slope in the fit, and the level's estimates raise
        slope, intercept, r2 = linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert np.isnan(slope) and np.isnan(intercept) and np.isnan(r2)
        with pytest.raises(RankError):
            fit_levels([0.5], [1.0, 2.0, 3.0], [[0.5, 0.5, 0.5]], [np.exp([1.0, 2.0, 3.0])])

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            linear_fit([1.0, 2.0], [1.0, 2.0])

    def test_rows_fit_as_one_at_a_time(self):
        rng = np.random.default_rng(7)
        x, y = rng.random((5, 6)), rng.random((5, 6))
        rows = np.array([linear_fit(x[i], y[i]) for i in range(5)])
        assert np.array(linear_fit(x, y)).T.tobytes() == rows.tobytes()


class TestFriedman:
    def test_exact_line_recovers_ea_and_r2(self):
        est = exact_friedman()
        assert est.ea == pytest.approx(200e3, rel=1e-9)
        assert est.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_intercept_gives_a_through_reaction_model(self):
        est = exact_friedman(ln_af=30.0, alpha=0.5)
        assert est.a == pytest.approx(2.0 * math.exp(30.0), rel=1e-9)
        assert est.a == pytest.approx(2.137e13, rel=1e-3)

    def test_rate_scaling_changes_a_but_not_ea(self):
        e1, e2 = exact_friedman(), exact_friedman(scale=7.5)
        assert e1.ea == pytest.approx(e2.ea, rel=1e-12)
        assert e2.a == pytest.approx(e1.a * 7.5, rel=1e-9)

    def test_nonpositive_rate_rejected(self):
        temps = np.array([540.0, 560.0, 580.0, 600.0])
        with pytest.raises(DomainError, match="Friedman"):
            fit_one("friedman", 0.5, kas_line_betas(temps), temps,
                    np.array([1e-3, 0.0, 1e-3, 1e-3]))


class TestKas:
    def test_exact_line_recovers_ea(self):
        temps = np.array([520.0, 545.0, 570.0, 595.0])
        C = 8.0
        betas = temps**2 * np.exp(C - 200e3 / (R * temps))
        est = fit_one("kas", 0.4, betas, temps, np.ones(4))
        assert est.ea == pytest.approx(200e3, rel=1e-9)
        assert est.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_intercept_extraction_closed_form(self):
        # slope fixed, so A = (Ea g(alpha)/R) exp(intercept)
        temps = np.array([520.0, 545.0, 570.0, 595.0])
        C = 8.0
        alpha = 0.4
        betas = temps**2 * np.exp(C - 200e3 / (R * temps))
        est = fit_one("kas", alpha, betas, temps, np.ones(4))
        expected = (200e3 * (-math.log1p(-alpha)) / R) * math.exp(C)
        assert est.a == pytest.approx(expected, rel=1e-8)


class TestFwo:
    def test_exact_line_recovers_ea(self):
        temps = np.array([500.0, 520.0, 540.0, 560.0])
        C = 25.0
        betas = np.exp(C - 1.052 * 150e3 / (R * temps))
        est = fit_one("fwo", 0.3, betas, temps, np.ones(4))
        assert est.ea == pytest.approx(150e3, rel=1e-9)
        assert est.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_zero_temperature_variance_raises_rank_error(self):
        with pytest.raises(RankError):
            fit_one("fwo", 0.3, np.array([1.0, 2.0, 3.0]) / 60.0,
                    np.array([550.0, 550.0, 550.0]), np.ones(3))


class TestFitLevels:
    TEMPS = np.array([520.0, 545.0, 570.0, 595.0])

    @pytest.mark.parametrize("method, other_betas, other_rates", [
        ("friedman", kas_line_betas(TEMPS, ea=120e3, c=3.0), None),
        ("kas", None, np.full(4, 0.25)),
        ("fwo", None, np.array([1e-4, 2e-3, 5e-2, 0.9])),
    ])
    def test_a_row_ignores_what_its_method_does_not_read(self, method, other_betas,
                                                         other_rates):
        betas = kas_line_betas(self.TEMPS)
        rates = np.exp(30.0 - 200e3 / (R * self.TEMPS))
        base = fit_one(method, 0.4, betas, self.TEMPS, rates)
        other = fit_one(method, 0.4, betas if other_betas is None else other_betas,
                        self.TEMPS, rates if other_rates is None else other_rates)
        assert base == other

    def test_rows_come_level_by_level_in_method_order(self):
        temps = np.stack([self.TEMPS, self.TEMPS + 10.0])
        rates = np.exp(30.0 - 200e3 / (R * temps))
        estimates = fit_levels([0.2, 0.6], kas_line_betas(self.TEMPS), temps, rates)
        assert [(e.alpha, e.method) for e in estimates] == [
            (alpha, method) for alpha in (0.2, 0.6) for method in METHODS]

    def test_first_failure_in_level_then_method_order_raises(self):
        # level 0.2: constant heating rates give KAS a non-positive Ea;
        # level 0.6: a zero rate for Friedman, the first method
        temps = np.stack([self.TEMPS, self.TEMPS + 10.0])
        rates = np.exp(30.0 - 200e3 / (R * temps))
        rates[1, 2] = 0.0
        with pytest.raises(DomainError, match="non-positive Ea"):
            fit_levels([0.2, 0.6], np.full(4, 10.0 / 60.0), temps, rates)

    def test_overflowing_a_raises_numerical_error(self):
        rates = np.exp(740.0 - 200e3 / (R * self.TEMPS))
        with pytest.raises(NumericalError, match=r"friedman at alpha=0\.4: .*\(ln A = 740\.51"):
            fit_levels([0.4], kas_line_betas(self.TEMPS), [self.TEMPS], [rates])

    @pytest.mark.parametrize("order, alpha, ln_af, message", [
        # (1 - alpha)^n underflows to 0: Friedman, the first method, raises
        (800.0, 0.7, 30.0, r"friedman at alpha=0\.7: reaction model f\(alpha\) is 0 at order 800,"),
        # (1 - alpha)^(1 - n) overflows, while Friedman's ln A (about 681) fits
        (6750.0, 0.1, -30.0, r"kas at alpha=0\.1: reaction model g\(alpha\) is inf at order 6750,"),
    ], ids=["friedman-f", "kas-g"])
    def test_reaction_model_out_of_float_range_raises_numerical_error(
            self, order, alpha, ln_af, message):
        rates = np.exp(ln_af - 200e3 / (R * self.TEMPS))
        with pytest.raises(NumericalError, match=message):
            fit_levels([alpha], kas_line_betas(self.TEMPS), [self.TEMPS], [rates],
                       KineticModelAssumption(order=order))


class TestSyntheticRecovery:
    def test_all_methods_within_documented_tolerances(self, single_step_analysis):
        tol = {"friedman": 0.01, "kas": 0.02, "fwo": 0.05}
        for method in METHODS:
            for est in by_method(single_step_analysis.estimates)[method]:
                assert abs(est.ea - 180e3) / 180e3 < tol[method], (method, est.alpha)
                assert est.r_squared > 0.999
                assert est.a > 0.0 and math.isfinite(est.a)

    def test_integral_methods_stay_close_to_friedman(self, single_step_analysis):
        fr = {e.alpha: e.ea for e in by_method(single_step_analysis.estimates)["friedman"]}
        for method, bound in (("kas", 0.02), ("fwo", 0.05)):
            for est in by_method(single_step_analysis.estimates)[method]:
                assert abs(est.ea - fr[est.alpha]) / fr[est.alpha] < bound

    def test_method_averages_recover_ground_truth(self, single_step_analysis):
        tol = {"friedman": 0.01, "kas": 0.02, "fwo": 0.05}
        for method, avg in single_step_analysis.ea_averages().items():
            assert abs(avg - 180e3) / 180e3 < tol[method]


class TestNoisyRecovery:
    def test_smoothing_rescues_friedman_under_noise(self, single_step_model):
        from dataclasses import replace

        from pyrokin.synthkin import simulate

        rng = np.random.default_rng(31)
        curves = []
        for beta in (5.0, 10.0, 15.0, 20.0):
            clean = simulate(single_step_model, beta, 0.5)
            noisy = clean.mass_fraction + 2e-4 * rng.standard_normal(clean.n_points)
            noisy[0] = 1.0
            curves.append(replace(clean, mass_fraction=np.clip(noisy, 1e-9, 1.0)))

        def worst_friedman_err(window):
            table = run_analysis(curves, smooth_window=window)
            return max(abs(e.ea - 180e3) / 180e3 for e in by_method(table.estimates)["friedman"])

        raw = worst_friedman_err(1)
        smoothed = worst_friedman_err(9)
        assert smoothed < raw
        assert smoothed < 0.01


def table_from_ea_column(method, eas_kj):
    grid = [round(0.1 * (i + 1), 10) for i in range(len(eas_kj))]
    ests = tuple(
        KineticEstimate(method, a, ea * 1000.0, 1.0, 0.99)
        for a, ea in zip(grid, eas_kj)
    )
    return AnalysisTable("fixture", ests, tuple(grid))


class TestByMethod:
    def test_groups_in_methods_order_keeping_each_methods_row_order(self):
        rows = [KineticEstimate(method, alpha, 1.0, 1.0, 1.0)
                for alpha, method in ((0.2, "fwo"), (0.1, "kas"), (0.1, "fwo"), (0.3, "kas"))]
        groups = by_method(rows)
        assert list(groups) == ["kas", "fwo"]  # no friedman rows, no friedman entry
        assert groups["kas"] == [rows[1], rows[3]]
        assert groups["fwo"] == [rows[0], rows[2]]

    def test_groups_thermodynamic_rows(self):
        rows = [ThermoEstimate(0.1, method, 1.0, 1.0, 0.0) for method in reversed(METHODS)]
        assert by_method(rows) == {method: [row] for method, row in
                                   zip(METHODS, reversed(rows))}


class TestAveraging:
    def test_scg_friedman_column_average(self):
        # per-conversion activation energies for the pure coffee feedstock
        col = [161.66, 213.44, 227.73, 272.07, 291.05, 589.02, 317.26]
        table = table_from_ea_column(METHOD_FRIEDMAN, col)
        avg = table.ea_averages()[METHOD_FRIEDMAN] / 1000.0
        assert avg == pytest.approx(296.03, abs=0.01)

    def test_scg_kas_column_average(self):
        col = [198.63, 197.61, 212.34, 231.19, 312.34, 404.39, 437.53]
        table = table_from_ea_column("kas", col)
        assert table.ea_averages()["kas"] / 1000.0 == pytest.approx(284.86, abs=0.01)

    def test_blend1_friedman_column_average(self):
        col = [104.51, 110.76, 154.30, 76.79, 190.54, 187.73, 307.60]
        table = table_from_ea_column(METHOD_FRIEDMAN, col)
        avg = table.ea_averages()[METHOD_FRIEDMAN] / 1000.0
        assert avg == pytest.approx(161.75, abs=0.01)


class TestRunAnalysis:
    def test_fewer_than_three_curves_rejected(self, single_step_curves):
        with pytest.raises(InputError, match="heating rates"):
            run_analysis(single_step_curves[:2])

    def test_duplicate_heating_rates_rejected(self, single_step_curves):
        with pytest.raises(InputError, match="distinct"):
            run_analysis([single_step_curves[0]] * 3)

    def test_mismatched_samples_rejected(self, single_step_curves):
        from dataclasses import replace

        from pyrokin.tga_io import SPENT_COFFEE_GROUNDS

        other = replace(single_step_curves[1], spec=SPENT_COFFEE_GROUNDS)
        with pytest.raises(InputError, match="share"):
            run_analysis([single_step_curves[0], other, single_step_curves[2]])

    def test_estimate_count_covers_grid_and_methods(self, single_step_analysis):
        assert len(single_step_analysis.included_alphas) == 7
        assert len(single_step_analysis.estimates) == 7 * 3

    def test_unreachable_alpha_excluded_with_warning(self):
        # conversion curves starting at 0.25, so alpha=0.1 is unreachable
        acs = []
        for beta in (5.0, 10.0, 20.0):
            T = np.linspace(500.0, 600.0, 11)
            acs.append(
                AlphaCurve(
                    heating_rate_beta=beta,
                    temperature_k=T,
                    alpha=np.linspace(0.25, 0.9, 11),
                    dalpha_dT=np.full(11, 1e-3),
                )
            )
        included, temps, dadT, excluded, warnings = reachable_levels(acs, (0.1, 0.5, 0.7))
        assert excluded == [0.1]
        assert included == [0.5, 0.7]
        assert temps.shape == dadT.shape == (2, 3)
        assert any("0.1" in w for w in warnings)


def bit_fields(table):
    """Every field of every estimate, floats as their bytes."""
    return [(e.method, e.alpha, *(np.float64(v).tobytes() for v in (e.ea, e.a, e.r_squared)))
            for e in table.estimates]


class TestMatchesTheSlicePath:
    """``run_analysis`` against the per-level slice path it replaced
    (tests/reference_kinetics.py): the same arithmetic in the same order, so
    the same bits."""

    GRIDS = (
        (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
        tuple(round(0.01 * k, 10) for k in range(1, 100)),
        tuple(round(0.05 * k, 10) for k in range(1, 20)),
    )

    @pytest.fixture(scope="class", params=["single-step", "three-component-ds",
                                           "three-component-scg", "blend-0.5"])
    def curves(self, request):
        model = {name: m for name, m, _ in suite_models()}[request.param]
        return [simulate(model, beta, 0.5) for beta in (5.0, 10.0, 15.0, 20.0)]

    @pytest.mark.parametrize("grid", GRIDS, ids=["7-levels", "0.01-step", "0.05-step"])
    @pytest.mark.parametrize("smooth_window", [1, 9])
    @pytest.mark.parametrize("order", [0.5, 1.0, 2.5])
    def test_tables_bitwise(self, curves, grid, smooth_window, order):
        model = KineticModelAssumption(order)
        table = run_analysis(curves, grid, model, smooth_window)
        ref = reference_run_analysis(curves, grid, model, smooth_window)
        assert bit_fields(table) == bit_fields(ref)
        for field in ("sample_id", "included_alphas", "excluded_alphas", "warnings"):
            assert getattr(table, field) == getattr(ref, field), field

"""The isoconversional path that ``run_analysis`` replaced, kept as the
reference for the tables it produced: each conversion level is an
``IsoconversionalSlice`` built from two scalar calls per curve
(``temperature_at_alpha``, ``rate_at_temperature``), and each method is one
call per slice with a scalar ``linear_fit``."""

import math
from dataclasses import dataclass

import numpy as np

from pyrokin.constants import GAS_CONSTANT
from pyrokin.errors import DomainError, InputError, RankError
from pyrokin.kinetics import (
    DOYLE_INTERCEPT,
    DOYLE_SLOPE,
    FIRST_ORDER,
    METHOD_FRIEDMAN,
    METHOD_FWO,
    METHOD_KAS,
    METHODS,
    AnalysisTable,
    KineticEstimate,
)
from pyrokin.preprocess import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_M0_AT_C,
    DEFAULT_SMOOTH_WINDOW,
    compute_alpha,
    default_mass_bounds,
)
from pyrokin.tga_io import resample_uniform


class Unreachable(Exception):
    """A conversion level outside a curve's achieved range."""


def temperature_at_alpha(alpha_curve, alpha):
    """Invert the monotone conversion curve at one conversion level.

    Uses the earliest crossing when the curve has flat segments.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    series = alpha_curve.alpha
    a_lo, a_hi = float(series[0]), float(series[-1])
    if alpha < series[0] or alpha > a_hi:
        raise Unreachable(
            f"alpha={alpha} outside achieved range [{a_lo:.6g}, {a_hi:.6g}]"
        )
    idx = int(np.searchsorted(series, alpha, side="left"))
    if series[idx] == alpha:
        return float(alpha_curve.temperature_k[idx])
    T = alpha_curve.temperature_k
    frac = (alpha - series[idx - 1]) / (series[idx] - series[idx - 1])
    return float(T[idx - 1] + frac * (T[idx] - T[idx - 1]))


def rate_at_temperature(alpha_curve, temperature_k):
    """Conversion rate dalpha/dT interpolated at a temperature."""
    return float(
        np.interp(temperature_k, alpha_curve.temperature_k, alpha_curve.dalpha_dT)
    )


@dataclass(frozen=True)
class IsoconversionalSlice:
    """Per-heating-rate observations at one fixed conversion level."""

    alpha: float
    betas: np.ndarray  # K/s
    temperatures: np.ndarray  # K
    rates: np.ndarray  # 1/s

    def __post_init__(self):
        n = len(self.betas)
        if n < 3:
            raise InputError(f"need >= 3 heating rates per slice, got {n}")
        if not (len(self.temperatures) == n == len(self.rates)):
            raise InputError("slice arrays must have equal length")
        if np.any(self.temperatures <= 0.0) or np.any(self.betas <= 0.0):
            raise DomainError("temperatures and heating rates must be positive")


def r_squared(ss_res, ss_tot):
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-300 else 0.0
    return 1.0 - ss_res / ss_tot


def linear_fit(x, y):
    """Ordinary least squares of y on x: ``(slope, intercept, r_squared)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise InputError("x and y must have equal length")
    if len(x) < 3:
        raise InputError(f"need >= 3 points for a fit, got {len(x)}")
    if np.ptp(x) == 0.0:
        raise RankError("regressor has zero variance; cannot fit a slope")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise RankError("regressor has zero variance; cannot fit a slope")
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    return slope, intercept, min(max(r_squared(ss_res, ss_tot), 0.0), 1.0)


def friedman(slice_, model=FIRST_ORDER):
    if np.any(~np.isfinite(slice_.rates)) or np.any(slice_.rates <= 0.0):
        raise DomainError("Friedman needs strictly positive rates at every heating rate")
    slope, intercept, r2 = linear_fit(1.0 / slice_.temperatures, np.log(slice_.rates))
    ea = -slope * GAS_CONSTANT
    ln_a = intercept - math.log(model.f(slice_.alpha))
    return KineticEstimate(METHOD_FRIEDMAN, slice_.alpha, ea, math.exp(ln_a), r2)


def kas(slice_, model=FIRST_ORDER):
    y = np.log(slice_.betas / slice_.temperatures**2)
    slope, intercept, r2 = linear_fit(1.0 / slice_.temperatures, y)
    ea = -slope * GAS_CONSTANT
    if ea <= 0.0:
        raise DomainError(f"non-positive Ea ({ea:.4g} J/mol); cannot extract A")
    ln_a = math.log(ea * model.g(slice_.alpha) / GAS_CONSTANT) + intercept
    return KineticEstimate(METHOD_KAS, slice_.alpha, ea, math.exp(ln_a), r2)


def fwo(slice_, model=FIRST_ORDER):
    slope, intercept, r2 = linear_fit(1.0 / slice_.temperatures, np.log(slice_.betas))
    ea = -slope * GAS_CONSTANT / DOYLE_SLOPE
    if ea <= 0.0:
        raise DomainError(f"non-positive Ea ({ea:.4g} J/mol); cannot extract A")
    ln_a = math.log(GAS_CONSTANT * model.g(slice_.alpha) / ea) + intercept + DOYLE_INTERCEPT
    return KineticEstimate(METHOD_FWO, slice_.alpha, ea, math.exp(ln_a), r2)


METHOD_FUNCS = {METHOD_FRIEDMAN: friedman, METHOD_KAS: kas, METHOD_FWO: fwo}


def build_slices(alpha_curves, alpha_grid=DEFAULT_ALPHA_GRID):
    """``(slices, excluded, warnings)``: a level that any curve cannot reach
    is excluded with a warning rather than extrapolated."""
    slices = []
    excluded = []
    warnings = []
    for alpha in alpha_grid:
        betas, temps, rates = [], [], []
        reachable = True
        for ac in alpha_curves:
            try:
                T_alpha = temperature_at_alpha(ac, alpha)
            except Unreachable as exc:
                warnings.append(
                    f"alpha={alpha:g} unreachable at beta={ac.heating_rate_beta:g} "
                    f"K/min ({exc}); excluded from averages"
                )
                reachable = False
                break
            beta_s = ac.heating_rate_beta / 60.0
            betas.append(beta_s)
            temps.append(T_alpha)
            rates.append(beta_s * rate_at_temperature(ac, T_alpha))
        if not reachable:
            excluded.append(alpha)
            continue
        slices.append(
            IsoconversionalSlice(
                alpha=alpha,
                betas=np.array(betas),
                temperatures=np.array(temps),
                rates=np.array(rates),
            )
        )
    return slices, excluded, warnings


def reference_run_analysis(curves, alpha_grid=DEFAULT_ALPHA_GRID, model=FIRST_ORDER,
                           smooth_window=DEFAULT_SMOOTH_WINDOW,
                           m0_at_c=DEFAULT_M0_AT_C, resample_dt=0.5):
    """``run_analysis`` over slices: one slice per level, one call per method."""
    if len(curves) < 3:
        raise InputError(f"need >= 3 heating rates, got {len(curves)}")
    ids = {c.spec.sample_id for c in curves}
    if len(ids) != 1:
        raise InputError(f"curves must share one sample, got ids {sorted(ids)}")
    betas = [c.heating_rate_beta for c in curves]
    if len(set(betas)) != len(betas):
        raise InputError(f"heating rates must be distinct, got {betas}")

    alpha_curves = []
    for curve in sorted(curves, key=lambda c: c.heating_rate_beta):
        uniform = resample_uniform(curve, resample_dt)
        m0, mf = default_mass_bounds(uniform, m0_at_c)
        alpha_curves.append(compute_alpha(uniform, m0, mf, smooth_window))

    slices, excluded, warnings = build_slices(alpha_curves, alpha_grid)
    estimates = []
    for sl in slices:
        for method in METHODS:
            estimates.append(METHOD_FUNCS[method](sl, model))
    return AnalysisTable(
        sample_id=curves[0].spec.sample_id,
        estimates=tuple(estimates),
        included_alphas=tuple(s.alpha for s in slices),
        excluded_alphas=tuple(excluded),
        warnings=tuple(warnings),
    )

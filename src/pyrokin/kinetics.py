"""Isoconversional activation-energy estimation: Friedman, KAS, and FWO.

All three methods regress a transform of the per-heating-rate data against
inverse temperature at fixed conversion, every conversion level in one
row-wise fit. Heating rates enter in K/s so the extracted pre-exponential
factors carry 1/s. The pre-exponential factor is recovered from the
regression intercept under a configurable reaction model (first order by
default), evaluated in log space to survive the enormous dynamic range
typical of biomass kinetics. That model's f(alpha) and g(alpha) live in
``pyrokin.reaction``, which also holds the closed form the synthetic oracle
evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAS_CONSTANT
from .errors import DomainError, InputError, NumericalError, RankError
from .preprocess import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_M0_AT_C,
    DEFAULT_RESAMPLE_DT,
    DEFAULT_SMOOTH_WINDOW,
    compute_alpha,
    default_mass_bounds,
    invert_alpha_curves,
)
from .reaction import FIRST_ORDER, ReactionModel
from .tga_io import resample_uniform

METHOD_FRIEDMAN = "friedman"
METHOD_KAS = "kas"
METHOD_FWO = "fwo"
METHODS = (METHOD_FRIEDMAN, METHOD_KAS, METHOD_FWO)

# Doyle's linear approximation of the temperature integral, used by the
# Flynn-Wall-Ozawa formulation: log p(x) ~ -5.331 - 1.052 x.
DOYLE_SLOPE = 1.052
DOYLE_INTERCEPT = 5.331


@dataclass(frozen=True)
class KineticEstimate:
    """One method's activation energy and frequency factor at one conversion."""

    method: str
    alpha: float
    ea: float  # J/mol
    a: float  # 1/s
    r_squared: float


def r_squared(ss_res, ss_tot):
    """Coefficient of determination ``1 - ss_res / ss_tot``, elementwise.

    A constant target (``ss_tot == 0``) scores 1 for an exact fit and 0
    otherwise: the zero-variance convention.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ss_tot == 0.0, np.where(ss_res <= 1e-300, 1.0, 0.0),
                        1.0 - np.divide(ss_res, ss_tot))


def linear_fit(x, y):
    """Ordinary least squares of y on x, two arrays of one shape, along the
    last axis: one fit per row of the >= 3 points ``run_analysis`` requires.

    Returns ``(slope, intercept, r_squared)``, each shaped like the leading
    axes. A constant target with a perfect fit reports r_squared = 1 (the
    zero-variance convention). A row whose regressor has zero variance has
    no slope: all three are NaN there.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean = x.mean(axis=-1, keepdims=True)
    y_mean = y.mean(axis=-1, keepdims=True)
    sxx = ((x - x_mean) ** 2).sum(axis=-1)
    sxy = ((x - x_mean) * (y - y_mean)).sum(axis=-1)
    flat = (np.ptp(x, axis=-1) == 0.0) | (sxx == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(flat, np.nan, sxy / sxx)
    intercept = y_mean[..., 0] - slope * x_mean[..., 0]
    ss_res = ((y - (slope[..., None] * x + intercept[..., None])) ** 2).sum(axis=-1)
    ss_tot = ((y - y_mean) ** 2).sum(axis=-1)
    return slope, intercept, np.minimum(np.maximum(r_squared(ss_res, ss_tot), 0.0), 1.0)


def _model_value(form, method: str, alpha: float, order: float) -> float:
    """The reaction model's ``form`` (its f or g) at ``alpha``, which must be
    a positive finite float: at a large order (1 - alpha)^n underflows to 0
    and (1 - alpha)^(1 - n) overflows."""
    try:
        value = form(alpha)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise NumericalError(
            f"{method} at alpha={alpha:g}: reaction model {form.__name__}(alpha) is {value:g} "
            f"at order {order:g}, not a positive finite float; cannot extract A"
        )
    return value


def fit_levels(alphas, betas, temps, rates,
               model: ReactionModel = FIRST_ORDER) -> list[KineticEstimate]:
    """Every method's estimate at every conversion level, level by level.

    ``temps`` (K) and ``rates`` (dalpha/dt, 1/s) hold one row per level in
    ``alphas`` and one column per heating rate in ``betas`` (K/s). Each
    method regresses a transform of every row on 1/T in one ``linear_fit``:
    Friedman ln(dalpha/dt), slope -Ea/R, intercept ln(A f(alpha)); KAS
    ln(beta/T^2), slope -Ea/R, intercept ln(A R / (Ea g(alpha))); FWO, with
    Doyle's approximation, ln(beta), slope -1.052 Ea/R, intercept
    ln(A Ea / (R g(alpha))) - 5.331. Only Friedman reads ``rates``. Rows
    come out in ``METHODS`` order within each level, and the first level and
    method that cannot be estimated raises.
    """
    betas = np.asarray(betas, dtype=float)
    temps = np.asarray(temps, dtype=float)
    rates = np.asarray(rates, dtype=float)
    bad_rates = np.any(~np.isfinite(rates) | (rates <= 0.0), axis=1)
    x = 1.0 / temps
    regressands = (np.log(np.where(bad_rates[:, None], 1.0, rates)),  # bad levels raise below
                   np.log(betas / temps**2),
                   np.log(np.broadcast_to(betas, temps.shape)))
    fits = [[v.tolist() for v in linear_fit(x, y)] for y in regressands]
    estimates = []
    for i, alpha in enumerate(alphas):
        if bad_rates[i]:
            raise DomainError("Friedman needs strictly positive rates at every heating rate")
        for method, (slopes, intercepts, r2s) in zip(METHODS, fits):
            slope, intercept = slopes[i], intercepts[i]
            if math.isnan(slope):
                raise RankError("regressor has zero variance; cannot fit a slope")
            ea = -slope * GAS_CONSTANT
            if method == METHOD_FWO:
                ea /= DOYLE_SLOPE
            if method == METHOD_FRIEDMAN:
                ln_a = intercept - math.log(_model_value(model.f, method, alpha, model.order))
            elif ea <= 0.0:
                raise DomainError(f"non-positive Ea ({ea:.4g} J/mol); cannot extract A")
            else:
                g = _model_value(model.g, method, alpha, model.order)
                if method == METHOD_KAS:
                    ln_a = math.log(ea * g / GAS_CONSTANT) + intercept
                else:
                    ln_a = math.log(GAS_CONSTANT * g / ea) + intercept + DOYLE_INTERCEPT
            try:
                a = math.exp(ln_a)
            except OverflowError:
                raise NumericalError(
                    f"{method} at alpha={alpha:g}: A overflows a float (ln A = {ln_a:.6g})"
                ) from None
            estimates.append(KineticEstimate(method, alpha, ea, a, r2s[i]))
    return estimates


@dataclass(frozen=True)
class AnalysisTable:
    """All per-conversion estimates for one sample across heating rates, at
    every level of its conversion grid."""

    sample_id: str
    estimates: tuple[KineticEstimate, ...]
    included_alphas: tuple[float, ...]
    excluded_alphas: tuple[float, ...] = ()  # always empty; the benchmark's layer trace reads it

    def ea_averages(self) -> dict[str, float]:
        """Arithmetic mean of Ea (J/mol) over each method's conversion levels."""
        return {method: float(np.mean([e.ea for e in rows]))
                for method, rows in by_method(self.estimates).items()}


def by_method(rows) -> dict[str, list]:
    """A sequence of kinetic or thermodynamic estimate rows grouped by their
    ``method``: the methods in ``METHODS`` order, each method's rows in their
    given order, and no entry for a method without rows."""
    return {method: group for method in METHODS
            if (group := [row for row in rows if row.method == method])}


def run_analysis(curves, alpha_grid=DEFAULT_ALPHA_GRID,
                 model: ReactionModel = FIRST_ORDER,
                 smooth_window: int = DEFAULT_SMOOTH_WINDOW,
                 m0_at_c: float = DEFAULT_M0_AT_C,
                 resample_dt: float = DEFAULT_RESAMPLE_DT) -> AnalysisTable:
    """Full isoconversional analysis over >= 3 runs at distinct heating rates.

    Each curve is resampled to a uniform grid, converted to a conversion
    curve with moisture-free mass bounds, and inverted at the conversion
    grid; every method is fitted at every level of the grid. The bounds make
    every curve reach every level in (0, 1); an empty grid raises
    ``DomainError``.
    """
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

    alpha_grid = tuple(alpha_grid)
    temps, dadT = invert_alpha_curves(alpha_curves, alpha_grid)
    betas_s = np.array([ac.heating_rate_beta / 60.0 for ac in alpha_curves])
    return AnalysisTable(
        sample_id=curves[0].spec.sample_id,
        estimates=tuple(fit_levels(alpha_grid, betas_s, temps, betas_s * dadT, model)),
        included_alphas=alpha_grid,
    )

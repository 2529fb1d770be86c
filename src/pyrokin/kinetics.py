"""Isoconversional activation-energy estimation: Friedman, KAS, and FWO.

All three methods regress a transform of the per-heating-rate data against
inverse temperature at fixed conversion. Heating rates enter in K/s so the
extracted pre-exponential factors carry 1/s. The pre-exponential factor is
recovered from the regression intercept under a configurable reaction model
(first order by default), evaluated in log space to survive the enormous
dynamic range typical of biomass kinetics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import GAS_CONSTANT
from .errors import DomainError, InputError, RangeError, RankError
from .preprocess import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_M0_AT_C,
    DEFAULT_SMOOTH_WINDOW,
    compute_alpha,
    default_mass_bounds,
    rate_at_temperature,
    temperature_at_alpha,
)
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
class KineticModelAssumption:
    """Reaction model f/g pair used to pull A out of regression intercepts."""

    order: float = 1.0

    def __post_init__(self):
        if self.order <= 0.0:
            raise DomainError(f"reaction order must be positive, got {self.order}")

    def f(self, alpha: float) -> float:
        """Differential form f(alpha) = (1 - alpha)^n."""
        self._check_alpha(alpha)
        return (1.0 - alpha) ** self.order

    def g(self, alpha: float) -> float:
        """Integral form g(alpha), the antiderivative of 1/f."""
        self._check_alpha(alpha)
        if self.order == 1.0:
            return -math.log1p(-alpha)
        return (1.0 - (1.0 - alpha) ** (1.0 - self.order)) / (1.0 - self.order)

    @staticmethod
    def _check_alpha(alpha: float):
        if not (0.0 <= alpha < 1.0):
            raise DomainError(f"alpha must lie in [0, 1), got {alpha}")


FIRST_ORDER = KineticModelAssumption()


@dataclass(frozen=True)
class IsoconversionalSlice:
    """Per-heating-rate observations at one fixed conversion level.

    ``rates`` (dalpha/dt, 1/s) may contain NaN when only the integral
    methods will consume the slice.
    """

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


@dataclass(frozen=True)
class KineticEstimate:
    """One method's activation energy and frequency factor at one conversion."""

    method: str
    alpha: float
    ea: float  # J/mol
    a: float  # 1/s
    r_squared: float
    slope: float
    intercept: float


def r_squared(ss_res: float, ss_tot: float) -> float:
    """Coefficient of determination ``1 - ss_res / ss_tot``.

    A constant target (``ss_tot == 0``) scores 1 for an exact fit and 0
    otherwise: the zero-variance convention.
    """
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-300 else 0.0
    return 1.0 - ss_res / ss_tot


def linear_fit(x, y):
    """Ordinary least squares of y on x.

    Returns ``(slope, intercept, r_squared)``. A constant target with a
    perfect fit reports r_squared = 1 (the zero-variance convention).
    """
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


def friedman(slice_: IsoconversionalSlice,
             model: KineticModelAssumption = FIRST_ORDER) -> KineticEstimate:
    """Differential method: regress ln(dalpha/dt) on 1/T.

    The slope is -Ea/R; the intercept is ln(A f(alpha)).
    """
    if np.any(~np.isfinite(slice_.rates)) or np.any(slice_.rates <= 0.0):
        raise DomainError("Friedman needs strictly positive rates at every heating rate")
    slope, intercept, r2 = linear_fit(1.0 / slice_.temperatures, np.log(slice_.rates))
    ea = -slope * GAS_CONSTANT
    ln_a = intercept - math.log(model.f(slice_.alpha))
    return KineticEstimate(METHOD_FRIEDMAN, slice_.alpha, ea, math.exp(ln_a), r2,
                           slope, intercept)


def kas(slice_: IsoconversionalSlice,
        model: KineticModelAssumption = FIRST_ORDER) -> KineticEstimate:
    """Integral method: regress ln(beta/T^2) on 1/T.

    The slope is -Ea/R; the intercept is ln(A R / (Ea g(alpha))).
    """
    y = np.log(slice_.betas / slice_.temperatures**2)
    slope, intercept, r2 = linear_fit(1.0 / slice_.temperatures, y)
    ea = -slope * GAS_CONSTANT
    if ea <= 0.0:
        raise DomainError(f"non-positive Ea ({ea:.4g} J/mol); cannot extract A")
    ln_a = math.log(ea * model.g(slice_.alpha) / GAS_CONSTANT) + intercept
    return KineticEstimate(METHOD_KAS, slice_.alpha, ea, math.exp(ln_a), r2,
                           slope, intercept)


def fwo(slice_: IsoconversionalSlice,
        model: KineticModelAssumption = FIRST_ORDER) -> KineticEstimate:
    """Integral method with Doyle's approximation: regress ln(beta) on 1/T.

    The slope is -1.052 Ea/R; the intercept is
    ln(A Ea / (R g(alpha))) - 5.331.
    """
    slope, intercept, r2 = linear_fit(1.0 / slice_.temperatures, np.log(slice_.betas))
    ea = -slope * GAS_CONSTANT / DOYLE_SLOPE
    if ea <= 0.0:
        raise DomainError(f"non-positive Ea ({ea:.4g} J/mol); cannot extract A")
    ln_a = math.log(GAS_CONSTANT * model.g(slice_.alpha) / ea) + intercept + DOYLE_INTERCEPT
    return KineticEstimate(METHOD_FWO, slice_.alpha, ea, math.exp(ln_a), r2,
                           slope, intercept)


_METHOD_FUNCS = {METHOD_FRIEDMAN: friedman, METHOD_KAS: kas, METHOD_FWO: fwo}


@dataclass(frozen=True)
class AnalysisTable:
    """All per-conversion estimates for one sample across heating rates."""

    sample_id: str
    betas: tuple[float, ...]  # K/min, as supplied
    estimates: tuple[KineticEstimate, ...]
    included_alphas: tuple[float, ...]
    excluded_alphas: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()

    def by_method(self, method: str) -> list[KineticEstimate]:
        return [e for e in self.estimates if e.method == method]

    def ea_averages(self) -> dict[str, float]:
        """Arithmetic mean of Ea (J/mol) over the included conversion grid."""
        out = {}
        for method in METHODS:
            eas = [e.ea for e in self.by_method(method)]
            if eas:
                out[method] = float(np.mean(eas))
        return out


def build_slices(alpha_curves, alpha_grid=DEFAULT_ALPHA_GRID):
    """Assemble per-conversion slices from several conversion curves.

    Returns ``(slices, excluded, warnings)``; a conversion level that any
    curve cannot reach is excluded with a warning rather than extrapolated.
    """
    slices = []
    excluded = []
    warnings = []
    for alpha in alpha_grid:
        betas, temps, rates = [], [], []
        reachable = True
        for ac in alpha_curves:
            try:
                T_alpha = temperature_at_alpha(ac, alpha)
            except RangeError as exc:
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


def run_analysis(curves, alpha_grid=DEFAULT_ALPHA_GRID,
                 model: KineticModelAssumption = FIRST_ORDER,
                 smooth_window: int = DEFAULT_SMOOTH_WINDOW,
                 m0_at_c: float = DEFAULT_M0_AT_C,
                 resample_dt: float = 0.5) -> AnalysisTable:
    """Full isoconversional analysis over >= 3 runs at distinct heating rates.

    Each curve is resampled to a uniform grid, converted to a conversion
    curve with moisture-free mass bounds, and sliced at the conversion grid;
    every method is fitted per slice.
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

    slices, excluded, warnings = build_slices(alpha_curves, alpha_grid)
    estimates = []
    for sl in slices:
        for method in METHODS:
            estimates.append(_METHOD_FUNCS[method](sl, model))
    return AnalysisTable(
        sample_id=curves[0].spec.sample_id,
        betas=tuple(sorted(betas)),
        estimates=tuple(estimates),
        included_alphas=tuple(s.alpha for s in slices),
        excluded_alphas=tuple(excluded),
        warnings=tuple(warnings),
    )

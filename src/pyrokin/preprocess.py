"""Conversion curves, DTG derivatives, and decomposition-stage peak detection.

Operates on uniformly resampled TGA curves. Conversion is defined against a
pair of mass bounds (m0, mf); by default m0 is the mass remaining once the
moisture stage has finished (160 C) and mf is the final mass, so the
conversion axis indexes the devolatilization zone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import KELVIN_OFFSET
from .errors import DomainError, InputError, ResolutionError
from .tga_io import TgaCurve

DEFAULT_SMOOTH_WINDOW = 9
DEFAULT_M0_AT_C = 160.0
DEFAULT_ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
PEAK_THRESHOLD_FRAC = 0.05

# Conventional lignocellulosic decomposition stages, in degrees Celsius: the
# one table of stage windows (the fibre features use it too). The lignin
# stage intentionally spans the whole active range; lignin devolatilizes
# slowly without a sharp peak of its own. Moisture starts at 0 K.
STAGE_WINDOWS_C = {
    "moisture": (-KELVIN_OFFSET, 160.0),
    "hemicellulose": (225.0, 325.0),
    "cellulose": (315.0, 405.0),
    "lignin": (160.0, 900.0),
}

# The model feature layouts by mode; the fibre columns deplete across the windows
# above. They live here so the CLI's parser reads them without loading ``seqmodel``.
MODEL1 = "model1"
MODEL2 = "model2"
MODEL1_FEATURES = ("ds_pct", "scg_pct", "heating_rate", "temperature")
MODEL2_FEATURES = MODEL1_FEATURES + ("cellulose_t", "hemicellulose_t", "lignin_t")
FEATURE_COLUMNS = {MODEL1: MODEL1_FEATURES, MODEL2: MODEL2_FEATURES}


def kelvin_windows(windows_c):
    """Stage windows in degrees Celsius to the kelvin windows ``find_peaks`` reads."""
    return {name: (lo + KELVIN_OFFSET, hi + KELVIN_OFFSET)
            for name, (lo, hi) in windows_c.items()}


DEFAULT_STAGE_WINDOWS = kelvin_windows(STAGE_WINDOWS_C)


@dataclass(frozen=True)
class AlphaCurve:
    """Conversion and conversion rate against temperature for one run."""

    heating_rate_beta: float  # K/min
    temperature_k: np.ndarray
    alpha: np.ndarray
    dalpha_dT: np.ndarray


@dataclass(frozen=True)
class DtgPeak:
    """Location of a stage's maximum mass-loss rate."""

    stage_label: str
    T_peak: float  # K
    window: tuple[float, float]  # K


def _require_uniform(curve: TgaCurve) -> float:
    if not curve.is_uniform_grid():
        raise InputError("curve must be resampled to a uniform temperature grid first")
    return float(curve.temperature_k[1] - curve.temperature_k[0])


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered box average; the window shrinks near the edges."""
    if window == 1:
        return values
    half = window // 2
    csum = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(len(values))
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, len(values))
    return (csum[hi] - csum[lo]) / (hi - lo)


def compute_dtg(curve: TgaCurve, smooth_window: int = DEFAULT_SMOOTH_WINDOW):
    """Differentiate mass against temperature on a uniform grid.

    The mass series is box-smoothed (width ``smooth_window`` points, odd),
    then differentiated with centered differences; the two endpoints use
    one-sided differences. Returns ``(temperature_k, dm_dT)``.
    """
    step = _require_uniform(curve)
    n = curve.n_points
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise DomainError(f"smooth_window must be an odd count >= 1, got {smooth_window}")
    if smooth_window >= max(2, n // 4):
        raise ResolutionError(
            f"smooth_window {smooth_window} too wide for a {n}-point curve"
        )
    smoothed = _moving_average(curve.mass_fraction, smooth_window)
    deriv = np.empty(n)
    deriv[1:-1] = (smoothed[2:] - smoothed[:-2]) / (2.0 * step)
    deriv[0] = (smoothed[1] - smoothed[0]) / step
    deriv[-1] = (smoothed[-1] - smoothed[-2]) / step
    return curve.temperature_k.copy(), deriv


def default_mass_bounds(curve: TgaCurve, m0_at_c: float = DEFAULT_M0_AT_C):
    """(m0, mf) = (mass once moisture is gone, final mass). m0 is linearly
    interpolated, and clamped outside the curve's temperature range."""
    m0 = np.interp(m0_at_c + KELVIN_OFFSET, curve.temperature_k, curve.mass_fraction)
    return float(m0), float(curve.mass_fraction[-1])


def compute_alpha(curve: TgaCurve, m0: float, mf: float,
                  smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> AlphaCurve:
    """Conversion curve alpha(T) = (m0 - m)/(m0 - mf), monotone-enforced.

    Pointwise conversion is clipped to [0, 1] and made non-decreasing with a
    running maximum (instrument noise can make raw conversion dip). The
    conversion rate column comes from the smoothed DTG derivative.
    """
    if m0 <= mf:
        raise DomainError(f"m0 must exceed mf, got m0={m0}, mf={mf}")
    _, dm_dT = compute_dtg(curve, smooth_window)
    raw = (m0 - curve.mass_fraction) / (m0 - mf)
    alpha = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
    return AlphaCurve(
        heating_rate_beta=curve.heating_rate_beta,
        temperature_k=curve.temperature_k,
        alpha=alpha,
        dalpha_dT=-dm_dT / (m0 - mf),
    )


def invert_alpha_curves(alpha_curves, alphas):
    """Temperature (K) and dalpha/dT (1/K) of each curve at each conversion level.

    Returns two ``(len(alphas), len(alpha_curves))`` arrays. Each curve is
    inverted once for the whole grid, at the earliest crossing where it has
    flat segments, which keeps the result single-valued and deterministic. A
    level outside a curve's achieved range ``[alpha[0], alpha[-1]]`` is NaN in
    that curve's column of both arrays: unreachable, not extrapolated.
    """
    for alpha in alphas:
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    levels = np.asarray(alphas, dtype=float)
    temps, dadT = [], []
    for ac in alpha_curves:
        series, T = ac.alpha, ac.temperature_k
        hi = np.minimum(np.searchsorted(series, levels, side="left"), len(series) - 1)
        lo = np.maximum(hi - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero steps: exact hits, unreachable
            frac = (levels - series[lo]) / (series[hi] - series[lo])
            t = np.where(series[hi] == levels, T[hi], T[lo] + frac * (T[hi] - T[lo]))
        t[(levels < series[0]) | (levels > series[-1])] = np.nan
        temps.append(t)
        dadT.append(np.interp(t, T, ac.dalpha_dT))
    return np.column_stack(temps), np.column_stack(dadT)


def find_peaks(dtg, windows=None):
    """Per stage window, the temperature of maximum mass-loss rate.

    ``dtg`` is the ``(temperature_k, dm_dT)`` pair from compute_dtg. A window
    only yields a peak when its maximum |dm/dT| reaches ``PEAK_THRESHOLD_FRAC`` of
    the global maximum, so stages masked at high heating rates simply drop
    out of the result. Absence of a peak is a valid outcome, not an error.
    """
    temperature_k, dm_dT = dtg
    if windows is None:
        windows = DEFAULT_STAGE_WINDOWS
    magnitude = np.abs(dm_dT)
    global_max = float(magnitude.max())
    if global_max <= 0.0:
        return []
    peaks = []
    for label, (t_lo, t_hi) in windows.items():
        mask = (temperature_k >= t_lo) & (temperature_k <= t_hi)
        if not mask.any():
            continue
        local = np.where(mask, magnitude, -np.inf)
        k = int(np.argmax(local))
        if magnitude[k] < PEAK_THRESHOLD_FRAC * global_max or magnitude[k] <= 0.0:
            continue
        peaks.append(
            DtgPeak(
                stage_label=label,
                T_peak=float(temperature_k[k]),
                window=(t_lo, t_hi),
            )
        )
    peaks.sort(key=lambda p: (p.T_peak, p.stage_label))
    return peaks

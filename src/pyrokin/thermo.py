"""Activation thermodynamics from kinetic estimates and the DTG peak temperature.

Uses the transition-state relations conventional in pyrolysis kinetics:

    dH = Ea - R Tm
    dG = Ea + R Tm ln(kB Tm / (h A))
    dS = (dH - dG) / Tm

with the reference temperature Tm taken at a DTG stage peak. The Gibbs term
is evaluated in log space so pre-exponential factors anywhere between 1e-3
and 1e60 1/s stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import BOLTZMANN, GAS_CONSTANT, PLANCK
from .errors import DomainError, InputError
from .kinetics import AnalysisTable


@dataclass(frozen=True)
class ThermoEstimate:
    """Activation enthalpy, Gibbs energy, and entropy at one conversion."""

    alpha: float
    method: str
    delta_h: float  # J/mol
    delta_g: float  # J/mol
    delta_s: float  # J/(mol K)


def delta_h(ea: float, t_m: float) -> float:
    """Activation enthalpy dH = Ea - R Tm; always below Ea."""
    if t_m <= 0.0:
        raise DomainError(f"T_m must be positive, got {t_m}")
    return ea - GAS_CONSTANT * t_m


def delta_g(ea: float, t_m: float, a: float) -> float:
    """Activation Gibbs energy dG = Ea + R Tm ln(kB Tm / (h A))."""
    if a <= 0.0:
        raise DomainError(f"pre-exponential factor must be positive, got {a}")
    log_term = math.log(BOLTZMANN * t_m / PLANCK) - math.log(a)
    return ea + GAS_CONSTANT * t_m * log_term


def delta_s(dh: float, dg: float, t_m: float) -> float:
    """Activation entropy dS = (dH - dG) / Tm."""
    return (dh - dg) / t_m


def thermo_profile(table: AnalysisTable, t_m: float) -> list[ThermoEstimate]:
    """One thermodynamic estimate per (method, conversion) row of a table.

    The same reference peak temperature is used for every row; entropy is
    derived from the enthalpy/Gibbs pair, so dG = dH - Tm dS holds by
    construction.
    """
    if not table.estimates:
        raise InputError("analysis table is empty")
    out = []
    for est in table.estimates:
        dh = delta_h(est.ea, t_m)
        dg = delta_g(est.ea, t_m, est.a)
        out.append(
            ThermoEstimate(
                alpha=est.alpha,
                method=est.method,
                delta_h=dh,
                delta_g=dg,
                delta_s=delta_s(dh, dg, t_m),
            )
        )
    return out

"""The analytic DTG-peak check: the peak temperature of a single
first-order reaction under a linear heating rate, for tests that hold the
simulator's and ``compute_dtg``'s peaks to it."""

import math

from pyrokin.constants import GAS_CONSTANT
from pyrokin.errors import DomainError, NumericalError


class BracketError(NumericalError):
    """Root finding failed: no sign change inside the search bracket."""


def kissinger_peak(ea: float, a: float, beta: float) -> float:
    """Solve the first-order DTG-peak condition for the peak temperature.

    Finds the root of  ea*beta/(R*T^2) = a*exp(-ea/(R*T))  by bisection in
    (200 K, 2000 K), tightened to 1e-9 K so the defining equation's residual
    stays below 1e-9 relative. ``beta`` is in K/s here, matching the 1/s
    units of ``a``.
    """
    if ea <= 0.0 or a <= 0.0 or beta <= 0.0:
        raise DomainError("kissinger_peak requires positive ea, a, beta")

    def resid(T):
        return ea * beta / (GAS_CONSTANT * T * T) - a * math.exp(-ea / (GAS_CONSTANT * T))

    lo, hi = 200.0, 2000.0
    f_lo, f_hi = resid(lo), resid(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise BracketError(
            f"no sign change in (200 K, 2000 K) for ea={ea}, a={a}, beta={beta}"
        )
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        f_mid = resid(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)

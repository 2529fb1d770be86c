"""The order-n reaction model: the one home of f(alpha), g(alpha) and the
closed form that inverts g, so the model that ``analyze --order`` reads A
through (``kinetics.fit_levels``) is the one the synthetic oracle runs
(``synthkin.simulate``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ReactionModel:
    """The reaction model f(alpha) = (1 - alpha)^n of order n > 0."""

    order: float = 1.0

    def __post_init__(self):
        if not self.order > 0.0:  # written so that a NaN fails it
            raise DomainError(f"reaction order must be positive, got {self.order}")
        if self.order == math.inf:
            raise DomainError(f"reaction order must be finite, got {self.order}")

    def f(self, alpha: float) -> float:
        """Differential form f(alpha) = (1 - alpha)^n."""
        return (1.0 - alpha) ** self.order

    def g(self, alpha: float) -> float:
        """Integral form g(alpha), the antiderivative of 1/f."""
        if self.order == 1.0:
            return -math.log1p(-alpha)
        return (1.0 - (1.0 - alpha) ** (1.0 - self.order)) / (1.0 - self.order)

    def unreacted(self, x):
        """The remaining fraction 1 - alpha where g(alpha) = x, elementwise:
        ``exp(-x)`` at n = 1, otherwise ``[1 - (1-n) x]^(1/(1-n))``, which is
        zero once the bracket reaches zero (burnout for n < 1)."""
        if self.order == 1.0:
            return np.exp(-x)
        return np.maximum(1.0 - (1.0 - self.order) * x, 0.0) ** (1.0 / (1.0 - self.order))


FIRST_ORDER = ReactionModel()

"""The order-n reaction model on its own: its closed form against g and f."""

import numpy as np
import pytest

from pyrokin.reaction import ReactionModel

ORDERS = [0.5, 1.0, 1.3, 2.0, 3.0]
# conversions strictly inside (0.01, 0.99)
ALPHAS = np.linspace(0.01, 0.99, 99)[1:-1]


def model_and_x(order):
    model = ReactionModel(order)
    return model, np.array([model.g(alpha) for alpha in ALPHAS])


@pytest.mark.parametrize("order", ORDERS)
def test_unreacted_inverts_g(order):
    model, x = model_and_x(order)
    back = np.array([model.g(1.0 - u) for u in model.unreacted(x)])
    assert np.max(np.abs(back - x) / x) < 1e-13


@pytest.mark.parametrize("order", ORDERS)
def test_unreacted_slope_is_minus_f(order):
    # dg/dalpha = 1/f, so d(1 - alpha)/dx = -f(alpha)
    model, x = model_and_x(order)
    h = 1e-6 * x
    slope = (model.unreacted(x + h) - model.unreacted(x - h)) / (2.0 * h)
    f = np.array([model.f(1.0 - u) for u in model.unreacted(x)])
    assert np.max(np.abs(slope + f) / f) < 1e-6


def test_unreacted_is_zero_past_burnout():
    # order 0.5 burns out at x = 1 / (1 - n) = 2, where the bracket reaches zero
    assert np.array_equal(ReactionModel(0.5).unreacted(np.array([2.0, 2.5])), [0.0, 0.0])

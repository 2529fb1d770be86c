"""Synthetic TGA generator: independent parallel Arrhenius pseudo-components.

Serves as the ground-truth oracle for the preprocessing, kinetics, and
sequence-model pipelines. Components react independently (no cross-component
interaction), which makes blend curves exactly additive and keeps the
analytic DTG-peak condition valid per component.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .constants import GAS_CONSTANT
from .errors import ConfigError, DomainError
from .tga_io import (
    DATE_SEEDS,
    SPENT_COFFEE_GROUNDS,
    SampleSpec,
    TgaCurve,
    blend_spec,
    grid_intervals,
)

# 4-point Gauss-Legendre rule on [-1, 1], correctly rounded; written out so
# that importing the package does not import numpy.polynomial
_GL_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                      0.33998104358485626, 0.8611363115940526])
_GL_WEIGHTS = np.array([0.34785484513745385, 0.6521451548625461,
                        0.6521451548625461, 0.34785484513745385])


@dataclass(frozen=True)
class PseudoComponent:
    """One volatilizable fraction with first-order-family Arrhenius kinetics."""

    fraction: float  # mass fraction of the whole sample
    ea: float  # activation energy, J/mol
    a: float  # pre-exponential factor, 1/s
    order: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.fraction <= 1.0):
            raise DomainError(f"component fraction outside (0, 1]: {self.fraction}")
        if self.ea <= 0.0 or self.a < 0.0 or self.order <= 0.0:
            raise DomainError("component requires ea > 0, a >= 0, order > 0")


@dataclass(frozen=True)
class PseudoComponentModel:
    """Parallel-reaction sample model: components plus inert residue."""

    components: tuple[PseudoComponent, ...]
    residue: float
    t_start: float  # K
    t_end: float  # K

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        total = self.residue + sum(c.fraction for c in self.components)
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"residue + component fractions must equal 1, got {total}")
        if not (0.0 <= self.residue < 1.0):
            raise DomainError(f"residue outside [0, 1): {self.residue}")
        if self.t_start >= self.t_end:
            raise DomainError("t_start must be below t_end")


def simulate(model: PseudoComponentModel, beta: float, dT: float,
             spec: SampleSpec | None = None) -> TgaCurve:
    """Evaluate the exact component conversions on a uniform grid.

    Each component is an independent nth-order reaction under a linear
    ramp, so its remaining fraction is a closed-form function of
    ``x = (A/beta) * I(T)`` with ``I(T) = integral of exp(-Ea/(R T'))`` from
    the grid start: ``exp(-x)`` for n = 1, otherwise
    ``[1 - (1-n) x]^(1/(1-n))``, which is zero once the bracket reaches zero
    (burnout for n < 1). ``I`` is a 4-point Gauss-Legendre rule on each grid
    interval accumulated by a cumulative sum, accurate to rounding for any
    grid step allowed here. The tests check the curve against an RK4
    reference integration of the rate equations.

    Parameters
    ----------
    model : PseudoComponentModel
        Kinetic ground truth to evaluate.
    beta : float
        Heating rate in K/min (converted to K/s internally so the
        pre-exponential factors keep 1/s units).
    dT : float
        Grid step in K, at most 1 K. The step is adjusted to the nearest
        value dividing the span evenly; the grid may hold at most
        ``tga_io.MAX_GRID_POINTS`` points.
    spec : SampleSpec, optional
        Metadata attached to the returned curve; a generic synthetic spec
        is used when omitted.

    The returned mass series is renormalized to its first point, so it
    starts at exactly 1 regardless of float rounding in the fractions.
    """
    if dT <= 0.0 or dT > 1.0:
        raise DomainError(f"dT must lie in (0, 1] K, got {dT}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    beta_s = beta / 60.0

    n_steps = grid_intervals(model.t_end - model.t_start, dT)
    grid = np.linspace(model.t_start, model.t_end, n_steps + 1)
    h = (model.t_end - model.t_start) / n_steps

    eas = np.array([c.ea for c in model.components])
    with np.errstate(over="ignore", divide="ignore"):
        a_over_beta = np.array([c.a for c in model.components]) / beta_s
    if not np.isfinite(a_over_beta).all():
        raise DomainError(f"heating rate {beta!r} K/min is too small: A/beta overflows, "
                          f"so every mass fraction would be NaN")
    fracs = np.array([c.fraction for c in model.components])

    # temperature integral per component, shape (components, grid points)
    nodes = 0.5 * (grid[:-1] + grid[1:])[:, None] + 0.5 * h * _GL_NODES
    arrhenius = np.exp(-eas[:, None, None] / (GAS_CONSTANT * nodes))
    per_interval = 0.5 * h * (arrhenius @ _GL_WEIGHTS)
    integral = np.zeros((len(eas), len(grid)))
    np.cumsum(per_interval, axis=1, out=integral[:, 1:])
    x = a_over_beta[:, None] * integral

    remaining = np.empty_like(x)
    for i, c in enumerate(model.components):
        if c.order == 1.0:
            remaining[i] = np.exp(-x[i])
        else:
            bracket = np.maximum(1.0 - (1.0 - c.order) * x[i], 0.0)
            remaining[i] = bracket ** (1.0 / (1.0 - c.order))

    # row-wise sum keeps each point's additions in one order, so the mass is
    # non-increasing wherever every remaining fraction is; the floor keeps
    # complete burnout representable under the (0, 1] mass contract
    mass = np.maximum(model.residue + (fracs[:, None] * remaining).sum(axis=0), 1e-12)

    if spec is None:
        spec = SampleSpec(
            sample_id="synthetic",
            ds_fraction=1.0,
            scg_fraction=0.0,
            cellulose_pct=0.0,
            hemicellulose_pct=0.0,
            lignin_pct=0.0,
        )
    time_s = (grid - grid[0]) / beta_s
    return TgaCurve(
        spec=spec,
        heating_rate_beta=beta,
        time_s=time_s,
        temperature_k=grid,
        mass_fraction=mass / mass[0],
    )


def blend_models(model_a: PseudoComponentModel, model_b: PseudoComponentModel,
                 frac_a: float) -> PseudoComponentModel:
    """Convex combination of two models: parallel reactions are additive."""
    if not (0.0 <= frac_a <= 1.0):
        raise DomainError(f"frac_a outside [0, 1]: {frac_a}")
    if (model_a.t_start, model_a.t_end) != (model_b.t_start, model_b.t_end):
        raise DomainError("blended models must share the temperature range")
    frac_b = 1.0 - frac_a
    components = []
    for frac, parent in ((frac_a, model_a), (frac_b, model_b)):
        if frac == 0.0:
            continue
        for c in parent.components:
            components.append(
                PseudoComponent(fraction=frac * c.fraction, ea=c.ea, a=c.a, order=c.order)
            )
    return PseudoComponentModel(
        components=tuple(components),
        residue=frac_a * model_a.residue + frac_b * model_b.residue,
        t_start=model_a.t_start,
        t_end=model_a.t_end,
    )


def model_to_json(model: PseudoComponentModel) -> str:
    doc = {
        "components": [
            {"fraction": c.fraction, "ea_j_mol": c.ea, "a_per_s": c.a, "order": c.order}
            for c in model.components
        ],
        "residue": model.residue,
        "t_start_k": model.t_start,
        "t_end_k": model.t_end,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Base kinetic triplets chosen so the 10 K/min DTG peaks fall inside the
# conventional lignocellulosic stage windows (hemicellulose 225-325 C,
# cellulose 315-405 C, lignin broad and shallow).
_SINGLE_STEP = dict(ea=180e3, a=1e13)
_HEMI = dict(ea=150e3, a=1.75e12)
_CELL = dict(ea=200e3, a=3.9e14)
_LIGNIN = dict(ea=55e3, a=6.0e1)

# every suite model spans one temperature range, so any two of them blend
_RANGE = dict(t_start=300.0, t_end=900.0)

SINGLE_STEP = PseudoComponentModel(
    components=(PseudoComponent(fraction=1.0, **_SINGLE_STEP),), residue=0.0, **_RANGE)
# Dyadic fractions keep the mass balance exact in floating point, which the
# blend-additivity checks rely on.
DS_LIKE = PseudoComponentModel(
    components=(
        PseudoComponent(fraction=0.46875, **_HEMI),
        PseudoComponent(fraction=0.21875, **_CELL),
        PseudoComponent(fraction=0.125, **_LIGNIN),
    ),
    residue=0.1875, **_RANGE)
SCG_LIKE = PseudoComponentModel(
    components=(
        PseudoComponent(fraction=0.375, ea=_HEMI["ea"], a=_HEMI["a"] * 1.2),
        PseudoComponent(fraction=0.3125, ea=_CELL["ea"], a=_CELL["a"] * 0.8),
        PseudoComponent(fraction=0.125, **_LIGNIN),
    ),
    residue=0.1875, **_RANGE)

# the pure presets' models and specs; the blend preset mixes the last two
_PURE = {
    "single-step": (SINGLE_STEP, DATE_SEEDS),
    "three-component-ds": (DS_LIKE, DATE_SEEDS),
    "three-component-scg": (SCG_LIKE, SPENT_COFFEE_GROUNDS),
}
PRESETS = (*_PURE, "blend")
# the blend preset's default first-parent (date seed) fraction
BLEND_FRAC = 0.75


def preset(name: str, frac: float | None = None):
    """A preset's (name, model, spec) triple: the one place presets are built.

    ``frac`` is the blend's date-seed fraction (default ``BLEND_FRAC``) and
    names the blend ``blend-<frac:g>``; a pure preset refuses it.
    """
    if name == "blend":
        frac = BLEND_FRAC if frac is None else frac
        return (f"blend-{frac:g}", blend_models(DS_LIKE, SCG_LIKE, frac),
                blend_spec(DATE_SEEDS, SPENT_COFFEE_GROUNDS, frac))
    if name not in _PURE:
        raise ConfigError(f"unknown preset {name!r}; choose from {list(PRESETS)}")
    if frac is not None:
        raise ConfigError(f"--frac applies only to the blend preset, not {name!r}")
    return (name, *_PURE[name])


def suite_models():
    """The pure presets and the blends at fractions 0.75/0.5/0.25, as
    (name, model, spec) triples."""
    return [preset(name) for name in _PURE] + [preset("blend", f) for f in (0.75, 0.5, 0.25)]

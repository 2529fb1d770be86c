"""Feature engineering and dataset assembly for the mass-loss predictor.

Two feature layouts exist: the basic one carries blend ratio, heating rate,
and temperature (4 features); the extended one adds the three fibre
percentages depleted linearly across their decomposition windows (7
features). The prediction target is the remaining mass percent at the step
following each look-back window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..constants import KELVIN_OFFSET
from ..errors import DomainError, InputError
from ..preprocess import (  # the feature layouts, re-exported
    FEATURE_COLUMNS,
    MODEL1,
    MODEL1_FEATURES,
    MODEL2,
    MODEL2_FEATURES,
    STAGE_WINDOWS_C,
)
from ..tga_io import TgaCurve

# The decomposition stage windows (degrees Celsius) of the dynamic fibre features.
FIBRE_WINDOWS_C = {name: w for name, w in STAGE_WINDOWS_C.items() if name != "moisture"}

DEFAULT_LOOK_BACK = 20

# split_dataset's train, validation and in-distribution test shares of the
# windows that are not held out
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


def lignocellulosic_remaining(temperature_c, window: tuple[float, float]):
    """Fraction of a fibre component not yet decomposed at each temperature.

    1 below the window, 0 above it, and a linear ramp in between; continuous
    and non-increasing in temperature.
    """
    t_start, t_end = window
    if t_start >= t_end:
        raise DomainError(f"window start must precede end, got {window}")
    return np.clip((t_end - temperature_c) / (t_end - t_start), 0.0, 1.0)


def build_features(curve: TgaCurve, mode: str = MODEL1) -> np.ndarray:
    """Convert one curve into a ``(rows, F)`` feature array.

    The columns are ``FEATURE_COLUMNS[mode]``. The extended mode multiplies
    each initial fibre percentage by its remaining fraction at the row's
    temperature, so fibre features deplete as the corresponding stage
    progresses.
    """
    if mode not in FEATURE_COLUMNS:
        raise DomainError(f"unknown feature mode {mode!r}")
    spec = curve.spec
    fibres = {"cellulose": spec.cellulose_pct, "hemicellulose": spec.hemicellulose_pct,
              "lignin": spec.lignin_pct}
    temp_c = curve.temperature_k - KELVIN_OFFSET
    columns = [spec.ds_fraction * 100.0, spec.scg_fraction * 100.0,
               curve.heating_rate_beta, temp_c]
    if mode == MODEL2:
        columns += [pct * lignocellulosic_remaining(temp_c, FIBRE_WINDOWS_C[name])
                    for name, pct in fibres.items()]
    return np.column_stack(np.broadcast_arrays(*columns))


@dataclass(frozen=True)
class WindowDataset:
    """Look-back windows over raw feature rows, held as start indices.

    ``rows`` (R, F) and ``mass_pct`` (R,) are the feature rows and mass
    percents of every curve, concatenated. Window k covers the
    ``look_back`` rows from ``starts[k]`` on, all of curve ``curve_ids[k]``;
    its target is the mass percent of the next row. ``curves`` names every
    curve whose rows are in ``rows``, also one too short for any window.
    Indexing by a slice or an index array selects windows and shares the row
    arrays, so a split costs two index arrays. Training and inference gather
    a ``(n, look_back, F)`` window stack only per mini-batch or inference
    block (or view one block of consecutive windows in place); ``windows``,
    the stack of a whole split, is the accessor tests compare them against.
    """

    rows: np.ndarray
    mass_pct: np.ndarray
    starts: np.ndarray
    curve_ids: np.ndarray
    curves: tuple
    look_back: int
    feature_mode: str

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index) -> "WindowDataset":
        return replace(self, starts=self.starts[index], curve_ids=self.curve_ids[index])

    @property
    def targets(self) -> np.ndarray:
        return self.mass_pct[self.starts + self.look_back]

    def row_index(self) -> np.ndarray:
        """``(n, look_back)`` indices into ``rows`` of every window."""
        return self.starts[:, None] + np.arange(self.look_back)

    def windows(self, scaler: "MinMaxScaler | None" = None) -> np.ndarray:
        """The raw windows, or the scaled ones when a scaler is given.

        Scaling the rows before the gather is the same per-element
        arithmetic as scaling each window after it.
        """
        rows = self.rows if scaler is None else scaler.scale_window(self.rows)
        return rows[self.row_index()]


def window_sequences(curves, mode: str = MODEL1,
                     look_back: int = DEFAULT_LOOK_BACK) -> WindowDataset:
    """Slide a look-back window over each curve's feature rows independently.

    ``curves`` maps curve id -> TgaCurve, featurised in ``mode``. A curve
    with n rows yields max(0, n - look_back) windows; windows never mix
    curves.
    """
    if look_back < 1:
        raise DomainError(f"look_back must be >= 1, got {look_back}")
    rows, mass, starts, ids = [], [], [], []
    offset = 0
    for curve_id, curve in curves.items():
        rows.append(build_features(curve, mode))
        mass.append(curve.mass_fraction * 100.0)
        count = max(0, curve.n_points - look_back)
        starts.append(offset + np.arange(count))
        # one id object per curve: np.full would store a copy in every window
        ids.append(np.repeat(np.array([curve_id], dtype=object), count))
        offset += curve.n_points
    return WindowDataset(
        rows=np.concatenate(rows),
        mass_pct=np.concatenate(mass),
        starts=np.concatenate(starts),
        curve_ids=np.concatenate(ids),
        curves=tuple(curves),
        look_back=look_back,
        feature_mode=mode,
    )


def split_dataset(samples: WindowDataset, holdout_curves=(), seed: int = 0):
    """Deterministic train/val/test split with curve-level holdout.

    Windows of held-out curves are excluded from train/val entirely and
    prepended to the test set; the rest are shuffled by ``seed`` and divided
    by ``SPLIT_FRACTIONS``, whose third share becomes the in-distribution
    test remainder. A holdout id that names no curve of ``samples`` is an
    input error.
    """
    unknown = sorted(set(holdout_curves) - set(samples.curves))
    if unknown:
        raise InputError(f"holdout curve ids name no curve of the dataset: {unknown}")
    held = np.isin(samples.curve_ids, list(holdout_curves))
    rest = np.flatnonzero(~held)
    if not len(rest):
        raise InputError("holdout covers every curve; nothing left to train on")
    order = rest[np.random.default_rng(seed).permutation(len(rest))]
    n_train = int(len(rest) * SPLIT_FRACTIONS[0])
    n_val = int(len(rest) * SPLIT_FRACTIONS[1])
    return (
        samples[order[:n_train]],
        samples[order[n_train : n_train + n_val]],
        samples[np.concatenate([np.flatnonzero(held), order[n_train + n_val :]])],
    )


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-feature min/max scaling with the target scaled separately.

    Fit on the training split only; validation and test data may legitimately
    map outside [0, 1] and are not clamped. Degenerate (constant) features
    scale to 0. The feature ranges cover the rows the windows span.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    @classmethod
    def fit(cls, samples: WindowDataset) -> "MinMaxScaler":
        if not samples:
            raise InputError("cannot fit a scaler on an empty dataset")
        # a mask rather than np.unique, whose first call imports numpy.ma;
        # set one window step at a time, so no (n, look_back) row index exists
        covered = np.zeros(len(samples.rows), dtype=bool)
        for step in range(samples.look_back):
            covered[samples.starts + step] = True
        rows = samples.rows[covered]
        targets = samples.targets
        return cls(
            feature_min=rows.min(axis=0),
            feature_max=rows.max(axis=0),
            target_min=float(targets.min()),
            target_max=float(targets.max()),
        )

    def scale_window(self, window: np.ndarray) -> np.ndarray:
        span = self.feature_max - self.feature_min
        safe = np.where(span > 0.0, span, 1.0)
        scaled = (window - self.feature_min) / safe
        return np.where(span > 0.0, scaled, 0.0)

    def scale_target(self, value):
        value = np.asarray(value, dtype=float)
        span = self.target_max - self.target_min
        if span <= 0.0:
            return np.zeros_like(value)
        return (value - self.target_min) / span

    def unscale_target(self, value):
        span = self.target_max - self.target_min
        return np.asarray(value, dtype=float) * span + self.target_min

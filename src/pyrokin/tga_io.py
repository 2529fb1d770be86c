"""TGA curve data model, CSV/JSON ingestion, resampling, and blend composition.

Internal units are kelvin and mass fraction of the initial sample mass.
File formats use instrument-friendly units (degrees Celsius, mass percent,
K/min) and are converted on the way in and out.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import chain

import numpy as np

from .constants import KELVIN_OFFSET
from .errors import DomainError, InputError, ParseError, ResolutionError

CSV_HEADER_3COL = "time_s,temperature_c,mass_pct"
CSV_HEADER_2COL = "temperature_c,mass_pct"

MIN_ROWS = 10

# Most points of a uniform grid (resample_uniform, synthkin.simulate): 80 times
# the 1,201 of a 600 K span at 0.5 K, and far below what exhausts memory.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class SampleSpec:
    """Identity and composition of a feedstock or a feedstock blend.

    Fibre percentages are on a dry-mass basis. ``ds_fraction`` and
    ``scg_fraction`` describe the blend ratio of the two parent feedstocks
    and must sum to one.
    """

    sample_id: str
    ds_fraction: float
    scg_fraction: float
    cellulose_pct: float
    hemicellulose_pct: float
    lignin_pct: float
    ash_pct: float | None = None
    vm_pct: float | None = None
    fc_pct: float | None = None

    def __post_init__(self):
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if abs(self.ds_fraction + self.scg_fraction - 1.0) > 1e-9:
            raise DomainError(
                f"ds_fraction + scg_fraction must equal 1, got "
                f"{self.ds_fraction} + {self.scg_fraction}"
            )
        if not (0.0 <= self.ds_fraction <= 1.0):
            raise DomainError(f"ds_fraction outside [0, 1]: {self.ds_fraction}")
        fibre_sum = self.cellulose_pct + self.hemicellulose_pct + self.lignin_pct
        if fibre_sum > 100.0 + 1e-9:
            raise DomainError(f"fibre percentages sum to {fibre_sum} > 100")
        for name in ("cellulose_pct", "hemicellulose_pct", "lignin_pct"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be non-negative")


# Every SampleSpec field but the id is a number; those with a default are optional.
_NUMERIC_FIELDS = tuple(f.name for f in fields(SampleSpec) if f.name != "sample_id")
# A sidecar holds the spec's fields plus the heating rate (K/min).
_SIDECAR_REQUIRED = (*(f.name for f in fields(SampleSpec) if f.default is MISSING),
                    "heating_rate_c_per_min")

# Fibre compositions of the two pure feedstocks (dry-basis mass percent).
DATE_SEEDS = SampleSpec(
    sample_id="DS",
    ds_fraction=1.0,
    scg_fraction=0.0,
    cellulose_pct=22.5,
    hemicellulose_pct=48.2,
    lignin_pct=25.7,
    ash_pct=1.2,
    vm_pct=77.6,
    fc_pct=21.2,
)

SPENT_COFFEE_GROUNDS = SampleSpec(
    sample_id="SCG",
    ds_fraction=0.0,
    scg_fraction=1.0,
    cellulose_pct=32.0,
    hemicellulose_pct=35.0,
    lignin_pct=25.0,
    ash_pct=1.8,
    vm_pct=77.9,
    fc_pct=20.3,
)


@dataclass(frozen=True)
class TgaCurve:
    """One thermogravimetric run at a fixed heating rate.

    ``temperature_k`` and ``mass_fraction`` are parallel arrays; temperature
    is non-decreasing and above 0 K, and mass is normalized so the first
    sample equals 1.
    """

    spec: SampleSpec
    heating_rate_beta: float  # K/min
    temperature_k: np.ndarray
    mass_fraction: np.ndarray

    def __post_init__(self):
        # each check is written so that a NaN fails it: every comparison with NaN is false
        if not self.heating_rate_beta > 0.0:
            raise DomainError(f"heating rate must be positive, got {self.heating_rate_beta}")
        n = len(self.temperature_k)
        if len(self.mass_fraction) != n:
            raise InputError("temperature and mass series must have equal length")
        if n < 2:
            raise InputError("curve needs at least 2 points")
        rising = np.diff(self.temperature_k) >= 0.0
        if not np.all(rising):
            row = int(np.argmin(rising)) + 1
            raise InputError(f"temperature decreases at row {row}")
        t0 = self.temperature_k[0]
        if not t0 > 0.0:  # temperature never falls, so this covers every point
            raise InputError(f"temperature must be above 0 K, got {t0:g} K "
                             f"({t0 - KELVIN_OFFSET:g} C) at the first point")
        if not (np.all(self.mass_fraction > 0.0) and np.all(self.mass_fraction <= 1.0 + 1e-12)):
            raise InputError("mass fraction must lie in (0, 1]")
        if abs(self.mass_fraction[0] - 1.0) > 1e-12:
            raise InputError("first mass fraction must equal 1 after normalization")

    @property
    def n_points(self) -> int:
        return len(self.temperature_k)

    @property
    def temperature_span(self) -> float:
        return float(self.temperature_k[-1] - self.temperature_k[0])


def csv_text(header: str, rows) -> str:
    """Write rows in the package's CSV dialect: the header line, then one line per row.

    Rows hold one Python value per header column (call ``tolist()`` on arrays
    first). Each cell is written as ``str(value)``, which for a float is the
    shortest text that reads back to the same double. The text ends in a newline.
    """
    cells = tuple(chain.from_iterable(rows))
    width = header.count(",") + 1
    # one % over a template with a "%s" per cell: %s is str() for every type
    line = ",".join(["%s"] * width) + "\n"
    return f"{header}\n" + line * (len(cells) // width) % cells


def read_csv(data_stream, headers, text_columns=()) -> dict:
    """Read text written in the package's CSV dialect (see ``csv_text``).

    ``data_stream`` is the text; ``headers`` lists the accepted header
    lines. Blank lines are skipped, and the header matches without regard to
    case or surrounding spaces. Returns a dict from each column name of the
    matched header to a float array, or to a list of stripped strings for
    the columns named in ``text_columns``. Every numeric cell must be
    finite: a bad cell or column count raises ``ParseError`` with its
    physical line number.
    """
    lines = data_stream.split("\n")
    rows = list(filter(str.strip, lines))
    if not rows:
        raise InputError("empty input: no CSV rows found")
    found = [cell.strip().lower() for cell in rows[0].split(",")]
    names = next((h.split(",") for h in headers if h.lower().split(",") == found), None)
    if names is None:
        expected = " or ".join(map(repr, headers))
        raise ParseError(f"unrecognized header {rows[0].strip()!r}; expected {expected}",
                         line=lines.index(rows[0]) + 1)
    numeric = [k for k, name in enumerate(names) if name not in text_columns]
    body = rows[1:]
    # One split over the whole body. Rows are joined by a "\n" cell, which no
    # row can hold, so every row has len(names) cells exactly when the list
    # has the right length and a "\n" at each row boundary.
    stride = len(names) + 1
    cells = ",\n,".join(body).split(",") if body else []
    valid = (len(cells) == max(len(body) * stride - 1, 0)
             and cells[len(names)::stride] == ["\n"] * (len(body) - 1))
    try:
        values = np.array([cells[k::stride] for k in numeric], dtype=float)
    except ValueError:
        valid = False
    if not (valid and np.isfinite(values).all()):
        raise next(_bad_rows(lines, lines.index(rows[0]) + 1, names, numeric))
    table = {names[k]: column for k, column in zip(numeric, values)}
    for name in text_columns:
        table[name] = [cell.strip() for cell in cells[names.index(name)::stride]]
    return table


def _bad_rows(lines, header_no, names, numeric):
    """A ParseError for each data row ``read_csv`` rejects. There is a first: the
    fast path fails only on a wrong cell count, or on a numeric cell ``float()``
    rejects or reads as non-finite (numpy converts a str cell with ``float()``)."""
    for line_no, row in enumerate(lines[header_no:], start=header_no + 1):
        parts = row.split(",")
        if row.strip() and len(parts) != len(names):
            yield ParseError(f"expected {len(names)} columns, got {len(parts)}", line=line_no)
        elif row.strip():
            for k in numeric:
                try:
                    problem = None if math.isfinite(float(parts[k])) else "non-finite"
                except ValueError:
                    problem = "cannot parse"
                if problem:
                    yield ParseError(f"{problem} {names[k]} value {parts[k]!r}", line=line_no)


def json_text(doc) -> str:
    """Every JSON file the package writes: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def read_json(text: str, document: str, required=(), error=InputError) -> dict:
    """``json_object`` of the JSON ``text``; text that is not JSON, over-long integers
    and nesting past the decoder's limit included, raises ``error`` naming ``document``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{document} is not valid JSON: {exc}") from None
    return json_object(doc, document, required, error)


def json_object(doc, document: str, required=(), error=InputError) -> dict:
    """``doc``, or a section of it, if it is a JSON object holding every ``required``
    field; otherwise raise ``error`` naming ``document``."""
    if not isinstance(doc, dict):
        raise error(f"{document} must be a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise error(f"{document} missing fields: {', '.join(missing)}")
    return doc


def load_curve(data_stream, meta: SampleSpec, beta: float) -> TgaCurve:
    """Read TGA CSV text into a curve with normalized mass.

    Parameters
    ----------
    data_stream : str
        CSV text with header ``time_s,temperature_c,mass_pct`` or the
        two-column variant ``temperature_c,mass_pct``. A time column must
        rise strictly; it is checked and then dropped, since no analysis
        reads time.
    meta : SampleSpec
        Sample identity attached to the curve.
    beta : float
        Heating rate in K/min.

    The first mass value becomes 1 after normalization; temperatures are
    converted from Celsius to kelvin.
    """
    table = read_csv(data_stream, (CSV_HEADER_3COL, CSV_HEADER_2COL))
    temp_c, mass = table["temperature_c"], table["mass_pct"]
    if len(mass) < MIN_ROWS:
        raise InputError(f"need at least {MIN_ROWS} data rows, got {len(mass)}")
    if mass[0] <= 0.0:
        raise InputError("initial mass must be positive")
    if "time_s" in table:
        increasing = np.diff(table["time_s"]) > 0.0
        if not increasing.all():
            row = int(np.argmin(increasing)) + 1
            raise InputError(f"time not strictly increasing at row {row}")
    return TgaCurve(
        spec=meta,
        heating_rate_beta=beta,
        temperature_k=temp_c + KELVIN_OFFSET,
        mass_fraction=mass / mass[0],
    )


def curve_to_csv(curve: TgaCurve) -> str:
    """Serialize a curve to the three-column CSV dialect (shortest round-trip floats).

    Time is the linear ramp's, in seconds from the first point at the curve's
    heating rate; a temperature that holds still writes a repeated time, which
    ``load_curve`` refuses (a ``simulate`` grid never holds still).
    """
    T = curve.temperature_k
    time_s = (T - T[0]) / (curve.heating_rate_beta / 60.0)
    mass_pct = curve.mass_fraction * 100.0
    return csv_text(CSV_HEADER_3COL,
                    zip(time_s.tolist(), (T - KELVIN_OFFSET).tolist(), mass_pct.tolist()))


def spec_to_sidecar(spec: SampleSpec, beta: float) -> str:
    """Serialize sample metadata plus heating rate to the JSON sidecar format."""
    doc = {k: v for k, v in asdict(spec).items() if v is not None}
    doc["heating_rate_c_per_min"] = beta
    return json_text(doc)


# Code points a sample id may not hold. The id reaches CSV cells, text tables
# and SVG labels: XML cannot write the C0 controls other than tab and line
# breaks, nor U+FFFE and U+FFFF, a line break splits a CSV row, and a tab or
# DEL is a control no label shows.
_ID_FORBIDDEN = frozenset(map(chr, range(0x20))) | {"\x7f", "\ufffe", "\uffff"}


def sidecar_to_spec(text: str) -> tuple[SampleSpec, float]:
    """Parse a JSON sidecar; returns the sample spec and the heating rate (K/min)."""
    doc = read_json(text, "sidecar", _SIDECAR_REQUIRED)

    def number(key):
        value = doc[key]
        try:  # a JSON number only: not a string, a boolean or null
            if type(value) in (int, float):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
        raise InputError(f"sidecar field {key} is not a number: {value!r}")

    if not isinstance(doc["sample_id"], str):
        raise InputError(f"sidecar field sample_id is not a string: {doc['sample_id']!r}")
    try:  # JSON escapes can spell lone surrogates, which no output file can hold
        doc["sample_id"].encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(
            f"sidecar field sample_id is not UTF-8 encodable: {doc['sample_id']!r}") from None
    if _ID_FORBIDDEN.intersection(doc["sample_id"]):
        raise InputError("sidecar field sample_id holds a control character or a "
                         f"noncharacter: {doc['sample_id']!r}")
    spec = SampleSpec(sample_id=doc["sample_id"],
                      **{name: number(name) for name in _NUMERIC_FIELDS
                         if name in _SIDECAR_REQUIRED or doc.get(name) is not None})
    beta = number("heating_rate_c_per_min")
    if not (math.isfinite(beta) and beta > 0.0):
        raise InputError(f"sidecar heating_rate_c_per_min must be positive, got {beta}")
    return spec, beta


def grid_intervals(span: float, dT: float) -> int:
    """Intervals of step ~dT over ``span`` (at least one); ``DomainError``,
    before anything is allocated, past ``MAX_GRID_POINTS`` grid points."""
    if not span / dT + 1.0 <= MAX_GRID_POINTS:
        raise DomainError(f"dT={dT} too fine: a {span:.6g} K span would need "
                          f"{span / dT + 1.0:.6g} grid points, over {MAX_GRID_POINTS}")
    return max(1, round(span / dT))


def resample_uniform(curve: TgaCurve, dT: float) -> TgaCurve:
    """Resample a curve onto an arithmetic temperature grid of step ~dT.

    The step is adjusted to the nearest value that divides the temperature
    span evenly, so both endpoints are preserved exactly. Mass is linearly
    interpolated; a curve already on the requested grid passes
    through unchanged.
    """
    if dT <= 0.0:
        raise DomainError(f"dT must be positive, got {dT}")
    span = curve.temperature_span
    if span < 10.0 * dT:
        raise ResolutionError(
            f"dT={dT} too coarse: temperature span {span:.6g} K is below 10*dT"
        )
    n_intervals = grid_intervals(span, dT)
    grid = np.linspace(curve.temperature_k[0], curve.temperature_k[-1], n_intervals + 1)
    if curve.n_points == len(grid) and np.array_equal(grid, curve.temperature_k):
        return curve

    # np.interp needs a strictly increasing abscissa; collapse any isothermal
    # plateaus to their last point so interpolation stays single-valued.
    T = curve.temperature_k
    keep = np.empty(len(T), dtype=bool)
    keep[:-1] = T[:-1] < T[1:]
    keep[-1] = True
    T_inc = T[keep]
    mass = np.interp(grid, T_inc, curve.mass_fraction[keep])
    mass[0] = curve.mass_fraction[0]
    mass[-1] = curve.mass_fraction[-1]
    return replace(curve, temperature_k=grid, mass_fraction=mass)


def blend_spec(pure_a: SampleSpec, pure_b: SampleSpec, frac_a: float) -> SampleSpec:
    """Compose a blend from two pure feedstocks by mass fraction of the first.

    Both parents carry every numeric field, proximate values included; each
    field of the blend is the fraction-weighted mean of the parent values.
    A ``frac_a`` outside [0, 1] makes a ``ds_fraction`` that ``SampleSpec``
    rejects.
    """
    for spec in (pure_a, pure_b):
        if spec.ds_fraction not in (0.0, 1.0):
            raise DomainError(f"{spec.sample_id!r} is not a pure feedstock")
    frac_b = 1.0 - frac_a
    values = {name: frac_a * getattr(pure_a, name) + frac_b * getattr(pure_b, name)
              for name in _NUMERIC_FIELDS}
    ds, scg = values["ds_fraction"], values["scg_fraction"]
    return SampleSpec(sample_id=f"ds{ds * 100:g}_scg{scg * 100:g}", **values)

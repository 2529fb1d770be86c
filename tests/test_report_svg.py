import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrokin.errors import InputError
from pyrokin.kinetics import AnalysisTable, KineticEstimate
from pyrokin.report import (
    analysis_from_csv,
    analysis_to_csv,
    analysis_to_text,
    ea_plot_series,
    history_to_csv,
    leaderboard_to_csv,
    metrics_to_text,
    predictions_from_csv,
    predictions_to_csv,
)
from pyrokin.seqmodel.metrics import metrics_from_arrays
from pyrokin.svgplot import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    _axis_range,
    emit_svg,
)


# every chart's title, x-axis and y-axis labels
LABELS = ("chart", "x", "y")


def small_table():
    ests = []
    for method in ("friedman", "kas", "fwo"):
        for alpha in (0.1, 0.2):
            ests.append(
                KineticEstimate(method, alpha, 150e3 + alpha * 1e4, 1e13, 0.999)
            )
    return AnalysisTable("sample", tuple(ests), (0.1, 0.2))


class TestReport:
    def test_analysis_csv_round_trip(self):
        table = small_table()
        again = analysis_from_csv(analysis_to_csv(table))
        assert len(again.estimates) == len(table.estimates)
        for a, b in zip(again.estimates, table.estimates):
            assert a.method == b.method
            assert a.ea == pytest.approx(b.ea, rel=1e-12)
            assert a.a == pytest.approx(b.a, rel=1e-12)

    def test_text_table_mirrors_layout(self):
        text = analysis_to_text(small_table())
        assert "Friedman model" in text and "KAS model" in text and "FWO model" in text
        assert "Ea(kJ/mol)" in text
        assert text.strip().splitlines()[-1].startswith("   Avg")

    def test_text_table_levels_on_the_hundredths_keep_two_decimals(self):
        lines = analysis_to_text(small_table()).splitlines()
        assert [line[:9] for line in lines[3:5]] == ["  0.10 | ", "  0.20 | "]

    def test_text_table_average_value(self):
        text = analysis_to_text(small_table())
        # mean of 151.0 and 152.0 kJ/mol
        assert "151.50" in text.splitlines()[-1]

    def test_plot_series_per_method(self):
        series = ea_plot_series(small_table())
        assert [name for name, _, _ in series] == ["Friedman", "KAS", "FWO"]
        assert all(len(xs) == 2 for _, xs, _ in series)

    def test_predictions_round_trip(self):
        T = np.array([100.0, 150.0, 200.0])
        a = np.array([99.0, 80.0, 60.0])
        p = np.array([98.5, 81.0, 59.0])
        T2, a2, p2 = predictions_from_csv(predictions_to_csv(T, a, p))
        assert np.array_equal(T, T2) and np.array_equal(a, a2) and np.array_equal(p, p2)

    def test_metrics_text_four_decimals(self):
        m = metrics_from_arrays([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        text = metrics_to_text(m)
        assert "R^2  = 1.0000" in text

    def test_history_and_leaderboard_headers(self):
        from pyrokin.seqmodel.search import TrialResult
        from pyrokin.seqmodel.training import EpochRecord, TrainConfig

        hist = history_to_csv([EpochRecord(1, 0.5, 0.6)])
        assert hist.splitlines()[0] == "epoch,train_loss,val_loss"
        board = leaderboard_to_csv(
            [TrialResult(0, TrainConfig(), 0.123)]
        )
        assert board.splitlines()[0].startswith("rank,trial,val_loss")
        assert ",adam," in board.splitlines()[1]


class TestSvg:
    def test_two_point_series_has_exactly_one_polyline(self):
        svg = emit_svg([("line", [0.0, 1.0], [0.0, 1.0])], *LABELS)
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_identical_input_identical_bytes(self):
        series = [("a", [0.0, 0.5, 1.0], [1.0, 0.4, 0.2])]
        assert emit_svg(series, *LABELS) == emit_svg(series, *LABELS)

    def test_legend_carries_series_names(self):
        svg = emit_svg(
            [
                ("actual", [0.0, 1.0], [1.0, 0.5]),
                ("predicted", [0.0, 1.0], [0.9, 0.55]),
            ],
            *LABELS,
        )
        assert ">actual</text>" in svg
        assert ">predicted</text>" in svg
        assert svg.count("<polyline") == 2

    def test_no_external_references(self):
        svg = emit_svg([("a", [0.0, 1.0], [0.0, 1.0])], *LABELS)
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            emit_svg([], *LABELS)
        with pytest.raises(InputError):
            emit_svg([("one-point", [1.0], [1.0])], *LABELS)

    def test_title_and_axis_labels_are_escaped_text(self):
        svg = emit_svg([("a", [0.0, 1.0], [0.0, 1.0])], "A & B", "x < 1", "y > 0")
        for text in (">A &amp; B</text>", ">x &lt; 1</text>", ">y &gt; 0</text>"):
            assert svg.count(text) == 1, text

    def test_constant_series_still_renders(self):
        svg = emit_svg([("flat", [0.0, 1.0], [3.0, 3.0])], *LABELS)
        assert svg.count("<polyline") == 1


def reference_points(series):
    """Each polyline's points attribute, formatted one point at a time with
    an f-string: the reference emit_svg's array formatting must match."""
    x_lo, x_hi = _axis_range([x for _, xs, _ in series for x in xs])
    y_lo, y_hi = _axis_range([y for _, _, ys in series for y in ys])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
            for _, xs, ys in series]


FLOATS = st.floats(-1e12, 1e12, allow_nan=False)
INTS = st.integers(-10**9, 10**9)
SVG_VALUES = {
    "float": FLOATS,
    "int": INTS,
    "np.float64": FLOATS.map(np.float64),
    "np.int64": INTS.map(np.int64),
}
SVG_VALUES["mixed"] = st.one_of(*SVG_VALUES.values())


@pytest.mark.parametrize("kind", SVG_VALUES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_polyline_points_match_the_per_point_reference(kind, data):
    values = SVG_VALUES[kind]
    series = []
    for k in range(data.draw(st.integers(1, 3))):
        size = data.draw(st.integers(2, 60))
        xs = data.draw(st.lists(values, min_size=size, max_size=size))
        ys = data.draw(st.lists(values, min_size=size, max_size=size))
        series.append((f"s{k}", xs, ys))
    svg = emit_svg(series, *LABELS)
    assert re.findall(r'points="([^"]*)"', svg) == reference_points(series)


"""The one CSV dialect: `csv_text` writes it, `read_csv` reads it back."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrokin.cli import main
from pyrokin.constants import KELVIN_OFFSET
from pyrokin.errors import InputError, ParseError
from pyrokin.kinetics import AnalysisTable, KineticEstimate
from pyrokin.report import (
    ANALYSIS_CSV_HEADER,
    EA_PLOT_CSV_HEADER,
    HISTORY_CSV_HEADER,
    LEADERBOARD_CSV_HEADER,
    METRICS_CSV_HEADER,
    PREDICTIONS_CSV_HEADER,
    THERMO_CSV_HEADER,
    analysis_from_csv,
    analysis_to_csv,
    ea_plot_csv,
    history_to_csv,
    leaderboard_to_csv,
    metrics_to_csv,
    predictions_from_csv,
    predictions_to_csv,
    thermo_to_csv,
)
from pyrokin.seqmodel.features import MODEL2, build_features
from pyrokin.seqmodel.metrics import EvalMetrics
from pyrokin.seqmodel.search import TrialResult
from pyrokin.seqmodel.training import EpochRecord, TrainConfig
from pyrokin.tga_io import (
    CSV_HEADER_2COL,
    CSV_HEADER_3COL,
    DATE_SEEDS,
    csv_text,
    curve_to_csv,
    load_curve,
    _bad_row,
    read_csv,
    spec_to_sidecar,
)
from pyrokin.thermo import thermo_profile

# awkward doubles: repr needs all 17 digits, subnormal, huge, negative zero
AWKWARD = (1 / 3, 0.1 + 0.2, 5e-324, 1.7976931348623157e308, -0.0, 123456789.123456789)


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_columns(table, want):
    assert sorted(table) == sorted(want)
    for name, values in want.items():
        if values and isinstance(values[0], str):
            assert table[name] == values
        else:
            assert_bitwise(table[name], values)


# ------------------------------------------------------------ read-back of every writer


def written_curve(single_step_curves, tmp_path):
    curve = single_step_curves[1]
    return curve_to_csv(curve), CSV_HEADER_3COL, (), {
        "time_s": curve.time_s.tolist(),
        "temperature_c": (curve.temperature_k - KELVIN_OFFSET).tolist(),
        "mass_pct": (curve.mass_fraction * 100.0).tolist(),
    }


def written_analysis(analysis, tmp_path):
    ests = analysis.estimates
    return analysis_to_csv(analysis), ANALYSIS_CSV_HEADER, ("method",), {
        "alpha": [e.alpha for e in ests],
        "method": [e.method for e in ests],
        "ea_kj_mol": [e.ea / 1000.0 for e in ests],
        "a_per_s": [e.a for e in ests],
        "r_squared": [e.r_squared for e in ests],
    }


def written_ea_plot(analysis, tmp_path):
    ests = analysis.estimates
    return ea_plot_csv(analysis), EA_PLOT_CSV_HEADER, ("method",), {
        "alpha": [e.alpha for e in ests],
        "method": [e.method for e in ests],
        "ea_kj_mol": [e.ea / 1000.0 for e in ests],
    }


def written_thermo(analysis, tmp_path):
    profile = thermo_profile(analysis, t_m=625.0)
    triples = [(e, q, v) for e in profile
               for q, v in (("dH", e.delta_h / 1000.0), ("dG", e.delta_g / 1000.0),
                            ("dS", e.delta_s))]
    return thermo_to_csv(profile), THERMO_CSV_HEADER, ("method", "quantity"), {
        "alpha": [e.alpha for e, _, _ in triples],
        "method": [e.method for e, _, _ in triples],
        "quantity": [q for _, q, _ in triples],
        "value": [v for _, _, v in triples],
    }


def written_history(_, tmp_path):
    history = [EpochRecord(k + 1, v, AWKWARD[-1 - k]) for k, v in enumerate(AWKWARD)]
    return history_to_csv(history), HISTORY_CSV_HEADER, (), {
        "epoch": [r.epoch for r in history],
        "train_loss": [r.train_loss for r in history],
        "val_loss": [r.val_loss for r in history],
    }


def written_leaderboard(_, tmp_path):
    board = [TrialResult(3, TrainConfig(learning_rate=1 / 3, dropout=0.25), 2.5e-7),
             TrialResult(0, TrainConfig(activation="relu", optimizer="sgd"), 0.1 + 0.2)]
    fields = LEADERBOARD_CSV_HEADER.split(",")[3:]
    want = {name: [getattr(r.config, name) for r in board] for name in fields}
    want.update(rank=[1, 2], trial=[3, 0], val_loss=[2.5e-7, 0.1 + 0.2])
    return leaderboard_to_csv(board), LEADERBOARD_CSV_HEADER, ("activation", "optimizer"), want


def written_predictions(_, tmp_path):
    T = np.array(AWKWARD)
    a = T[::-1] / 3.0
    p = np.linspace(0.1, 0.7, len(T), dtype=np.float32)  # widened to float64 on the way out
    return predictions_to_csv(T, a, p), PREDICTIONS_CSV_HEADER, (), {
        "temperature_c": T.tolist(),
        "actual_mass_pct": a.tolist(),
        "predicted_mass_pct": p.astype(float).tolist(),
    }


def written_metrics(_, tmp_path):
    m = EvalMetrics(*AWKWARD[:4])
    return metrics_to_csv(m), METRICS_CSV_HEADER, (), {
        "mae": [m.mae], "mse": [m.mse], "rmse": [m.rmse], "r_squared": [m.r_squared],
    }


def written_features(single_step_curves, tmp_path):
    curve = single_step_curves[0]
    path = tmp_path / "c.csv"
    path.write_text(curve_to_csv(curve))
    path.with_suffix(".json").write_text(spec_to_sidecar(curve.spec, curve.heating_rate_beta))
    assert main(["features", str(path), "--mode", MODEL2, "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "features.csv").read_text()
    loaded = load_curve(path.read_text(), curve.spec, curve.heating_rate_beta)
    header = text.split("\n", 1)[0]
    table = np.column_stack([build_features(loaded, MODEL2), loaded.mass_fraction * 100.0])
    want = dict(zip(header.split(",")[1:], table.T.tolist()))
    want["curve_id"] = [f"{curve.spec.sample_id}@{curve.heating_rate_beta:g}"] * len(table)
    return text, header, ("curve_id",), want


WRITERS = {
    "curve_to_csv": (written_curve, "single_step_curves"),
    "analysis_to_csv": (written_analysis, "single_step_analysis"),
    "ea_plot_csv": (written_ea_plot, "single_step_analysis"),
    "thermo_to_csv": (written_thermo, "single_step_analysis"),
    "history_to_csv": (written_history, None),
    "leaderboard_to_csv": (written_leaderboard, None),
    "predictions_to_csv": (written_predictions, None),
    "metrics_to_csv": (written_metrics, None),
    "features": (written_features, "single_step_curves"),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_every_writer_reads_back_bitwise(writer, request, tmp_path):
    make, fixture = WRITERS[writer]
    text, header, text_columns, want = make(
        request.getfixturevalue(fixture) if fixture else None, tmp_path)
    assert text.startswith(header + "\n") and text.endswith("\n")
    table = read_csv(text, (header,), text_columns)
    assert len(text.splitlines()) - 1 == len(next(iter(want.values())))
    assert_columns(table, want)


# ------------------------------------------------------------ the dialect itself


class TestCsvText:
    def test_cells_are_str_of_python_values(self):
        text = csv_text("a,b,c", [(1, "kas", 0.1), (-2, "fwo", 1e-7)])
        assert text == "a,b,c\n1,kas,0.1\n-2,fwo,1e-07\n"

    def test_no_rows_is_the_header_line(self):
        assert csv_text("a,b", []) == "a,b\n"


class TestReadCsv:
    def test_header_matches_without_case_or_spaces(self):
        table = read_csv(" Alpha , METHOD,value \n0.5, kas ,2\n", ("alpha,method,value",),
                         ("method",))
        assert table["method"] == ["kas"]
        assert_bitwise(table["alpha"], [0.5])

    def test_header_only_gives_empty_columns(self):
        table = read_csv("x,name\n", ("x,name",), ("name",))
        assert table["x"].shape == (0,) and table["name"] == []

    def test_second_header_variant(self):
        table = read_csv("temperature_c,mass_pct\n30,100\n", (CSV_HEADER_3COL, CSV_HEADER_2COL))
        assert sorted(table) == ["mass_pct", "temperature_c"]

    @pytest.mark.parametrize("rows, message", [
        ("1,2\n3\n", "line 4: expected 2 columns, got 1"),
        ("1,2\n3,4,5\n", "line 4: expected 2 columns, got 3"),
        ("1\n3\n", "line 3: expected 2 columns, got 1"),
        ("1,2\n3,x\n", "line 4: cannot parse y value 'x'"),
        ("1,2\n3,\n", "line 4: cannot parse y value ''"),
        ("1,2\ninf,4\n", "line 4: non-finite x value 'inf'"),
        ("1,2\n3,NaN\n", "line 4: non-finite y value 'NaN'"),
        ("1,2\n3,1e999\n", "line 4: non-finite y value '1e999'"),
    ])
    def test_bad_row_names_its_physical_line(self, rows, message):
        with pytest.raises(ParseError, match=message):
            read_csv("\nx,y\n" + rows, ("x,y",))

    def test_bad_header_names_its_physical_line(self):
        with pytest.raises(ParseError, match="line 3: unrecognized header 'x,z'"):
            read_csv("\n  \nx,z\n1,2\n", ("x,y",))

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"])
    def test_no_rows_is_input_error(self, text):
        with pytest.raises(InputError, match="empty"):
            read_csv(text, ("x,y",))


# ------------------------------------------------------------ the report readers


def small_table_csv():
    ests = tuple(KineticEstimate(m, 0.1, 150e3, 1e13, 0.999) for m in ("friedman", "kas", "fwo"))
    return analysis_to_csv(AnalysisTable("s", ests, (0.1,)))


REPORT_READERS = {
    "analysis_from_csv": (analysis_from_csv, small_table_csv),
    "predictions_from_csv": (predictions_from_csv,
                             lambda: predictions_to_csv([100.0, 150.0], [99.0, 80.0],
                                                        [98.0, 81.0])),
}


@pytest.mark.parametrize("reader", REPORT_READERS)
def test_report_reader_names_the_physical_line(reader):
    read, good = REPORT_READERS[reader]
    header, first, *_ = good().splitlines()
    bad = ",".join(["x"] * len(first.split(",")))
    with pytest.raises(ParseError, match="line 5"):
        read("\n".join([header, "", first, "", bad]) + "\n")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("reader", REPORT_READERS)
def test_report_reader_rejects_non_finite_cells(reader, cell):
    read, good = REPORT_READERS[reader]
    header, first, *rest = good().splitlines()
    cells = first.split(",")
    cells[-1] = cell
    with pytest.raises(ParseError, match=f"line 2: non-finite .* '{cell}'"):
        read("\n".join([header, ",".join(cells), *rest]) + "\n")


@pytest.mark.parametrize("reader", REPORT_READERS)
def test_report_reader_header_is_as_tolerant_as_load_curve(reader):
    read, good = REPORT_READERS[reader]
    text = good()
    header, body = text.split("\n", 1)
    loose = "  " + ", ".join(name.upper() for name in header.split(",")) + " "
    assert repr(read(loose + "\n" + body)) == repr(read(text))


def test_thermo_on_kinetics_whose_ea_overflows_in_j_mol_exits_2(tmp_path, capsys):
    # 1e306 kJ/mol is finite, but 1e309 J/mol is not: dH would read inf, dS nan
    kinetics = tmp_path / "kinetics.csv"
    kinetics.write_text(ANALYSIS_CSV_HEADER + "\n0.1,kas,1e306,1e13,0.99\n")
    rc = main(["thermo", "--kinetics", str(kinetics), "--tm", "625.0",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "ea_kj_mol value 1e+306 overflows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_thermo_on_kinetics_with_unknown_method_exits_2(tmp_path, capsys):
    kinetics = tmp_path / "kinetics.csv"
    kinetics.write_text(small_table_csv().replace(",kas,", ",foo,"))
    rc = main(["thermo", "--kinetics", str(kinetics), "--tm", "625.0",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown method 'foo'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_thermo_on_kinetics_with_nan_exits_2(tmp_path, capsys):
    kinetics = tmp_path / "kinetics.csv"
    kinetics.write_text(small_table_csv().replace("150.0", "nan", 1))
    rc = main(["thermo", "--kinetics", str(kinetics), "--tm", "625.0",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "line 2: non-finite ea_kj_mol value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "thermo.csv").exists()


# ------------------------------------------------------------ malformed input properties


READERS = {
    "load_curve": (lambda text: load_curve(text, DATE_SEEDS, 10.0),
                   (CSV_HEADER_3COL, CSV_HEADER_2COL)),
    "analysis_from_csv": (analysis_from_csv, (ANALYSIS_CSV_HEADER,)),
    "predictions_from_csv": (predictions_from_csv, (PREDICTIONS_CSV_HEADER,)),
}

NUMBERS = st.floats(allow_nan=True, allow_infinity=True).map(repr)
CELLS = st.one_of(
    NUMBERS,
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", " ", "kas", "nan", "-inf", "1e999", "1_0", "0x1p3", " 7 "]),
    st.text(st.characters(exclude_characters=",\n"), max_size=6),
)


def reads_or_rejects(read, text):
    try:
        read(text)
    except InputError:
        pass


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=300))
def test_arbitrary_text_reads_or_raises_input_error(reader, text):
    reads_or_rejects(READERS[reader][0], text)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_cells_under_a_valid_header(reader, data):
    read, headers = READERS[reader]
    header = data.draw(st.sampled_from(headers))
    width = len(header.split(","))
    row = st.one_of(st.lists(CELLS, min_size=width, max_size=width),
                    st.lists(CELLS, max_size=width + 2),
                    st.lists(NUMBERS, min_size=width, max_size=width))
    rows = data.draw(st.lists(row, max_size=14))
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\n\n", "\n \t\n"]))
    reads_or_rejects(read, newline.join([header, *(",".join(r) for r in rows)]) + newline)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                       max_size=20))
def test_finite_floats_round_trip_bitwise(values):
    table = read_csv(csv_text("a,b,c", values), ("a,b,c",))
    for k, name in enumerate("abc"):
        assert_bitwise(table[name], [v[k] for v in values])


def reference_read_csv(data_stream, headers, text_columns=()):
    """The row-by-row reader that ``read_csv`` replaced, kept as its reference:
    one split per row and a transpose before the float conversion."""
    text = data_stream if isinstance(data_stream, str) else data_stream.read()
    lines = text.split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise InputError("empty input: no CSV rows found")
    found = [cell.strip().lower() for cell in rows[0].split(",")]
    names = next((h.split(",") for h in headers if h.lower().split(",") == found), None)
    if names is None:
        expected = " or ".join(map(repr, headers))
        raise ParseError(f"unrecognized header {rows[0].strip()!r}; expected {expected}",
                         line=lines.index(rows[0]) + 1)
    numeric = [k for k, name in enumerate(names) if name not in text_columns]
    cells = [row.split(",") for row in rows[1:]]
    try:
        columns = list(zip(*cells, strict=True)) if cells else [()] * len(names)
        values = np.array([columns[k] for k in numeric], dtype=float)
        valid = len(columns) == len(names) and bool(np.isfinite(values).all())
    except (ValueError, IndexError):
        valid = False
    if not valid:
        raise _bad_row(lines, lines.index(rows[0]) + 1, names, numeric)
    table = {names[k]: column for k, column in zip(numeric, values)}
    for name in text_columns:
        table[name] = [cell.strip() for cell in columns[names.index(name)]]
    return table


def read_outcome(read, text, headers, text_columns):
    """What a reader makes of the text: its columns (floats as bytes, so that
    equality is bitwise) or its error's type, message and line."""
    try:
        table = read(text, headers, text_columns)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return {name: column if isinstance(column, list) else (column.dtype, column.tobytes())
            for name, column in table.items()}


ROW_CELLS = st.one_of(CELLS, st.sampled_from(["\r", "1\r", "\n", "1,2", ",", "1 , 2"]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_read_csv_matches_the_row_by_row_reference(data):
    width = data.draw(st.integers(1, 4))
    names = [f"c{k}" for k in range(width)]
    text_columns = tuple(data.draw(st.sets(st.sampled_from(names), max_size=2)))
    headers = (",".join(names), "c0,c1,c2,c3,c4")
    row = st.one_of(st.lists(ROW_CELLS, min_size=width, max_size=width),
                    st.lists(ROW_CELLS, max_size=width + 2),
                    st.lists(NUMBERS, min_size=width, max_size=width))
    lines = [data.draw(st.sampled_from([*headers, " C0 ", "x"])),
             *(",".join(r) for r in data.draw(st.lists(row, max_size=12)))]
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\n\n", "\n \t\n"]))
    text = data.draw(st.sampled_from(["", newline])) + newline.join(lines)
    assert (read_outcome(read_csv, text, headers, text_columns)
            == read_outcome(reference_read_csv, text, headers, text_columns))


@pytest.mark.parametrize("text", [
    "c0,c1\n1,2,3\n4\n",          # widths 3 and 1: as many cells as two good rows
    "c0,c1\n1,2\n3\n4,5,6\n",
    "c0,c1\n\n1_0, 2\r\n\u0661,-0.0\n",
    "c0,c1\n1,2\n3,4\n",
    "c0,c1\n",
])
def test_read_csv_matches_the_reference_on_misaligned_rows(text):
    for text_columns in ((), ("c1",)):
        got = read_outcome(read_csv, text, ("c0,c1",), text_columns)
        assert got == read_outcome(reference_read_csv, text, ("c0,c1",), text_columns)

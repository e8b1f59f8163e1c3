from __future__ import annotations

import contextlib
import csv
import io
import shutil
from dataclasses import FrozenInstanceError, dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultcast import cli
from faultcast.classifier import load_classifier, save_classifier
from faultcast.errors import (
    DataError,
    DimensionMismatch,
    FaultcastError,
    IoError,
    MalformedKpiId,
    MissingValue,
    SchemaError,
)
from faultcast.kpi import (
    TIMESTAMP_COLUMN,
    KpiDescriptor,
    KpiId,
    Matrix,
    NormalizationStats,
    TimeSeriesDataset,
    Vector,
    _fast_rows,
    fit_normalization,
    from_json,
    load_dataset,
    load_descriptors,
    parse_kpi_id,
    to_json,
    write_dataset,
)
from faultcast.ranker import load_report

from helpers import make_classifier, unit_baseline, zero_model

ID_PART = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_."),
    min_size=1,
    max_size=12,
)


def test_parse_kpi_id_round_trip():
    kpi = parse_kpi_id("pressure@tank-1")
    assert kpi == KpiId(metric="pressure", node="tank-1")
    assert str(kpi) == "pressure@tank-1"


@pytest.mark.parametrize("text", ["no-separator", "a@b@c", "@node", "metric@", "@"])
def test_parse_kpi_id_rejects_malformed(text):
    with pytest.raises(MalformedKpiId):
        parse_kpi_id(text)


def test_kpi_id_constructor_rejects_embedded_at():
    with pytest.raises(MalformedKpiId):
        KpiId(metric="a@b", node="n")
    with pytest.raises(MalformedKpiId):
        KpiId(metric="m", node="")


@given(metric=ID_PART, node=ID_PART)
def test_kpi_id_text_round_trip(metric, node):
    kpi = KpiId(metric=metric, node=node)
    assert parse_kpi_id(str(kpi)) == kpi


def test_kpi_id_ordering_is_lexicographic():
    a = KpiId(metric="load", node="c1")
    b = KpiId(metric="load", node="c2")
    c = KpiId(metric="temp", node="c1")
    assert sorted([c, b, a]) == [a, b, c]


def test_dataset_validates_timestamps_and_values():
    kpis = [parse_kpi_id("x@n")]
    with pytest.raises(SchemaError):
        TimeSeriesDataset(timestamps=[0, 0], kpis=kpis, values=[[1.0], [2.0]])
    with pytest.raises(SchemaError):
        TimeSeriesDataset(timestamps=[0, 1], kpis=kpis, values=[[1.0], [np.nan]])
    with pytest.raises(DimensionMismatch):
        TimeSeriesDataset(timestamps=[0], kpis=kpis, values=[[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        TimeSeriesDataset(timestamps=[0, 1], kpis=kpis, values=[[1.0]])
    with pytest.raises(SchemaError):
        TimeSeriesDataset(timestamps=[0], kpis=[], values=np.zeros((1, 0)))


def test_dataset_counts_rows_and_kpis():
    kpis = [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    ds = TimeSeriesDataset(timestamps=[0, 1, 2], kpis=kpis, values=np.zeros((3, 2)))
    assert ds.n_rows == 3 and ds.n_kpis == 2


def test_load_dataset_happy_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("timestamp,a@n,b@n\n0,1.5,2\n5,-3.25,4e2\n", encoding="utf-8")
    ds = load_dataset(path)
    assert [str(k) for k in ds.kpis] == ["a@n", "b@n"]
    np.testing.assert_array_equal(ds.timestamps, [0, 5])
    np.testing.assert_array_equal(ds.values, [[1.5, 2.0], [-3.25, 400.0]])


def test_load_dataset_forward_fill_copies_previous_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("timestamp,a@n\n0,1.0\n1,\n2,3.0\n", encoding="utf-8")
    ds = load_dataset(path, missing_policy="forward_fill")
    np.testing.assert_array_equal(ds.values[:, 0], [1.0, 1.0, 3.0])


def test_load_dataset_missing_cell_policies(tmp_path):
    first_row_hole = tmp_path / "first.csv"
    first_row_hole.write_text("timestamp,a@n\n0,\n", encoding="utf-8")
    with pytest.raises(MissingValue):
        load_dataset(first_row_hole, missing_policy="forward_fill")

    hole = tmp_path / "hole.csv"
    hole.write_text("timestamp,a@n\n0,1.0\n1,\n", encoding="utf-8")
    with pytest.raises(MissingValue):
        load_dataset(hole, missing_policy="reject")
    with pytest.raises(ValueError):
        load_dataset(hole, missing_policy="bogus")


@pytest.mark.parametrize(
    "body",
    [
        "time,a@n\n0,1\n",  # wrong first header cell
        "timestamp\n0\n",  # no KPI columns
        "timestamp,a@n,a@n\n0,1,2\n",  # duplicate columns
        "timestamp,a@n\n0,1,2\n",  # ragged row
        "timestamp,a@n\nzero,1\n",  # non-integer timestamp
        "timestamp,a@n\n0,abc\n",  # non-numeric value
        "timestamp,a@n\n0,inf\n",  # non-finite value
        "",  # empty file
    ],
)
def test_load_dataset_schema_errors(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_load_dataset_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_dataset(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ("0,1\n9223372036854775808,2", SchemaError, "row 3: timestamp '9223372036854775808' does not fit in 64 bits"),
        ("-9223372036854775809,1", SchemaError, "row 2: timestamp '-9223372036854775809' does not fit in 64 bits"),
        ("0,1\nzero,2", SchemaError, "row 3: timestamp 'zero' is not an integer"),
        ("0,1\n ,2", MissingValue, "row 3: empty timestamp cell"),
        ("0,1\n5,2\n5,3", SchemaError, "row 4: timestamp 5 is not after 5"),
        ("0,1\n5,2\n\n4,3", SchemaError, "row 5: timestamp 4 is not after 5"),
    ],
)
def test_timestamp_errors_name_the_file_and_row(rows, error, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"timestamp,a@n\n{rows}\n", encoding="utf-8")
    with pytest.raises(error) as caught:
        load_dataset(path)
    assert str(caught.value) == f"{path}: {message}"


def test_timestamps_load_across_the_int64_range(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("timestamp,a@n\n-9223372036854775808,1\n9223372036854775807,2\n", encoding="utf-8")
    np.testing.assert_array_equal(load_dataset(path).timestamps, [-(2**63), 2**63 - 1])


# Differential fuzzer: a valid dataset, mutated, must load from numpy's C
# reader exactly as from the per-cell loop alone (the fast reader switched
# off), to the bit, or fail there with the same error class and message.

HEADER = ["timestamp", "a@n", "b@n", "c@m"]
VALUE_CELLS = ["abc", "nan", "inf", "-Infinity", "1e500", "", " ", "1_000", "\u0661\u0662"]
VALUE_CELLS += [" 2.5\t", '"2.5"', "#", "2.5#x", "0x10", "+.5"]
TIMESTAMP_CELLS = ["12.0", str(2**63), str(-(2**63) - 1), str(2**63 - 1), "1_0", "\u0661", " 7 ", '"7"', "", "x"]
FLOAT_FORMATS = [repr, "{:.17g}".format, "{:.3e}".format, "{:f}".format]


@st.composite
def _rows(draw, min_rows: int = 2) -> list[list[str]]:
    """Header and data rows of a valid dataset, as CSV cells."""
    n_rows = draw(st.integers(min_rows, min_rows + 6))
    start = draw(st.integers(-(2**62), 2**62))
    steps = draw(st.lists(st.integers(1, 1000), min_size=n_rows, max_size=n_rows))
    timestamps = [start + sum(steps[:i]) for i in range(n_rows)]
    numbers = st.floats(min_value=-1e300, max_value=1e300, width=64)  # finite in every format
    write = draw(st.sampled_from(FLOAT_FORMATS))
    cells = draw(st.lists(numbers, min_size=3 * n_rows, max_size=3 * n_rows))
    return [list(HEADER)] + [[str(t), *map(write, cells[3 * i : 3 * i + 3])] for i, t in enumerate(timestamps)]


def _a_row(rows, draw) -> int:
    return draw(st.integers(1, len(rows) - 1))


def _edit_header(rows, draw) -> None:
    column = draw(st.integers(0, len(rows[0]) - 1))
    if draw(st.booleans()):
        del rows[0][column]
    else:
        rows[0].insert(column, rows[0][column])


def _edit_value(rows, draw) -> None:
    row = rows[_a_row(rows, draw)]
    if len(row) > 1:
        row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(VALUE_CELLS))


def _edit_timestamp(rows, draw) -> None:
    rows[_a_row(rows, draw)][0] = draw(st.sampled_from(TIMESTAMP_CELLS))


def _repeat_or_reverse_timestamp(rows, draw) -> None:
    row = draw(st.integers(2, len(rows) - 1))
    with contextlib.suppress(ValueError):
        rows[row][0] = str(int(rows[row - 1][0]) - draw(st.integers(0, 2)))


def _blank_line(rows, draw) -> None:
    rows.insert(_a_row(rows, draw), [draw(st.sampled_from(["", " ", "\t"]))])


def _trailing_comma(rows, draw) -> None:
    rows[draw(st.integers(0, len(rows) - 1))].append("")


MUTATIONS = [_edit_header, _edit_value, _edit_timestamp, _repeat_or_reverse_timestamp, _blank_line, _trailing_comma]


@st.composite
def _mutated_csv(draw, min_rows: int = 2) -> bytes:
    rows = draw(_rows(min_rows))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(rows, draw)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    data = ending.join(",".join(row) for row in rows).encode("utf-8") + draw(st.sampled_from([b"", ending.encode()]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"])) + data[at:]
    return data


def _outcome(path, missing_policy: str) -> tuple:
    try:
        dataset = load_dataset(path, missing_policy)
    except FaultcastError as exc:
        return type(exc), str(exc)
    timestamps, values = dataset.timestamps, dataset.values
    layout = (timestamps.dtype, timestamps.flags.c_contiguous, values.dtype, values.shape, values.flags.c_contiguous)
    return layout, timestamps.tobytes(), values.tobytes(), dataset.kpis


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv-fuzz")


@settings(max_examples=400)
@given(data=_mutated_csv(), missing_policy=st.sampled_from(["forward_fill", "reject"]))
def test_load_dataset_equals_the_per_cell_loop(scratch, data, missing_policy):
    path = scratch / "data.csv"
    path.write_bytes(data)
    fast = _outcome(path, missing_policy)
    with mock.patch("faultcast.kpi._fast_rows", return_value=None):
        assert fast == _outcome(path, missing_policy)


@st.composite
def _table_near_the_field_limit(draw) -> tuple[list[str], str]:
    """A header and a CSV body in which up to two cells are padded to about csv's field limit."""
    rows = draw(_rows())
    for _ in range(draw(st.integers(0, 2))):
        row = rows[_a_row(rows, draw)]
        column = draw(st.integers(0, len(row) - 1))
        width = csv.field_size_limit() + draw(st.integers(-200, 2))  # the line, or only the cell, past the limit
        row[column] = row[column].rjust(width, draw(st.sampled_from(" 0")))
    return rows[0], "".join(",".join(row) + "\n" for row in rows[1:])


@given(table=_table_near_the_field_limit())
@example(table=(["timestamp", "a@n"], "0,1.5\n1,0." + "0" * 131072 + "1\n"))  # a 131075-character cell
@example(table=(["timestamp", "a@n"], "0" * 5000 + "5,1.5\n"))  # past int's 4300-digit limit
def test_both_dataset_paths_load_or_refuse_a_body_alike(scratch, table):
    header, body = table
    path = scratch / "limit.csv"
    outcomes = []
    for first_kpi in (header[1], f'"{header[1]}"'):  # a quote sends every row to the per-cell loop
        path.write_text(",".join([header[0], first_kpi, *header[2:]]) + "\n" + body, encoding="utf-8")
        outcomes.append(_outcome(path, "forward_fill"))
    assert outcomes[0] == outcomes[1]


@given(rows=_rows())
def test_the_fast_reader_reads_a_plain_dataset(rows):
    text = "\n".join(",".join(row) for row in rows) + "\n"
    timestamps, values = _fast_rows(text, len(HEADER) - 1)
    assert timestamps.tolist() == [int(row[0]) for row in rows[1:]]
    assert values.tobytes() == np.array([[float(cell) for cell in row[1:]] for row in rows[1:]]).tobytes()


@pytest.fixture(scope="module")
def cli_model(scratch):
    kpis = [parse_kpi_id(cell) for cell in HEADER[1:]]
    path = scratch / "model.json"
    save_classifier(make_classifier(zero_model(len(kpis)), unit_baseline(len(kpis)), kpis), path)
    return path


def _run_cli(argv) -> tuple[int, list[str]]:
    """The exit code and the stdout lines of one run; stderr must be empty or one line."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2, err.getvalue()
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("command", ["train", "detect", "rank", "tune", "evaluate"])
@settings(max_examples=40)
@given(data=_mutated_csv(min_rows=40))
def test_cli_reads_a_mutated_dataset_or_exits_two_with_one_line(command, scratch, cli_model, data):
    """A model that ``train`` writes loads back, and ``detect`` reads the same CSV with it.

    A report that ``rank`` writes loads back, and ``detect`` writes one
    verdict row per row that ``load_dataset`` reads.

    ``tune`` and ``evaluate`` that succeed write their curve file and print the
    elbow line just before the paths of the files they wrote.
    """
    path = scratch / "cli.csv"
    path.write_bytes(data)
    reports, scenarios = scratch / "reports", scratch / "scenarios"
    shutil.rmtree(reports, ignore_errors=True)
    shutil.rmtree(scenarios, ignore_errors=True)
    scenarios.mkdir()
    shutil.copy(path, scenarios / "cli.csv")
    model = ["--model", str(cli_model)]
    argv = {
        "train": ["--data", str(path), "--out", str(scratch / "out"), "--training.epochs", "1"],
        "detect": ["--data", str(path), "--out", str(scratch / "out"), *model],
        "rank": ["--data", str(path), "--out", str(scratch / "out"), *model],
        "tune": ["--data", str(path), "--paths.report_dir", str(reports), *model],
        "evaluate": ["--scenarios", str(scenarios), "--out-dir", str(reports), *model],
    }[command]
    code, out = _run_cli([command, *argv])
    if code == 0 and command == "train":
        trained = str(scratch / "out")
        load_classifier(trained)
        _run_cli(["detect", "--data", str(path), "--model", trained, "--out", str(scratch / "report")])
    if code == 0 and command == "rank":
        load_report(scratch / "out")
    if code == 0 and command == "detect":
        with open(scratch / "out", encoding="utf-8") as verdicts:
            header, *rows = verdicts.read().splitlines()
        assert header == "timestamp,state_error,threshold,anomalous"
        assert [int(row.split(",")[0]) for row in rows] == load_dataset(path).timestamps.tolist()
    if code == 0 and command in ("tune", "evaluate"):
        written = 1 if command == "tune" else 2
        assert out[-1 - written].startswith("elbow: sigma="), out
        assert out[-1].startswith("curve: "), out
        with open(out[-1].removeprefix("curve: "), encoding="utf-8") as curve:
            assert curve.readline() == "sigma,total_fp\n"


@given(
    values=st.lists(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, width=64),
            min_size=2,
            max_size=2,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_dataset_csv_round_trip_is_exact(tmp_path_factory, values):
    """17 significant digits reproduce every float64 exactly."""
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    kpis = [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    ds = TimeSeriesDataset(
        timestamps=np.arange(len(values)), kpis=kpis, values=np.asarray(values)
    )
    write_dataset(ds, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.values, ds.values)
    np.testing.assert_array_equal(loaded.timestamps, ds.timestamps)
    assert loaded.kpis == ds.kpis


def _reference_dataset_csv(dataset: TimeSeriesDataset) -> str:
    """The dataset as ``csv.writer`` writes it, one cell per value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([TIMESTAMP_COLUMN, *(str(k) for k in dataset.kpis)])
    for ts, row in zip(dataset.timestamps, dataset.values):
        writer.writerow([int(ts), *(f"{v:.17g}" for v in row)])
    return buffer.getvalue()


@given(
    columns=st.integers(1, 5),
    timestamps=st.sets(st.integers(-(2**63), 2**63 - 1), max_size=6).map(sorted),
    data=st.data(),
)
def test_write_dataset_writes_the_bytes_of_csv_writer(tmp_path_factory, columns, timestamps, data):
    value = st.one_of(
        st.sampled_from([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e16, 0.1]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    rows = st.lists(value, min_size=columns, max_size=columns)
    values = data.draw(st.lists(rows, min_size=len(timestamps), max_size=len(timestamps)))
    kpis = [parse_kpi_id(f"m{i}@n") for i in range(columns)]
    dataset = TimeSeriesDataset(timestamps, kpis, np.reshape(values, (len(timestamps), columns)))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_dataset(dataset, path)
    assert path.read_bytes() == _reference_dataset_csv(dataset).encode("utf-8")


def test_write_dataset_unwritable_path_is_io_error(tmp_path):
    ds = TimeSeriesDataset(timestamps=[0], kpis=[parse_kpi_id("a@n")], values=[[1.0]])
    with pytest.raises(IoError):
        write_dataset(ds, tmp_path / "missing-dir" / "data.csv")


def test_normalization_round_trip():
    stats = NormalizationStats(mean=np.array([1.0, -2.0]), std=np.array([2.0, 0.5]))
    raw = np.array([[3.0, -1.0], [1.0, -2.0]])
    normalized = stats.transform(raw)
    np.testing.assert_allclose(normalized, [[1.0, 2.0], [0.0, 0.0]])
    np.testing.assert_allclose(normalized * stats.effective_std + stats.mean, raw)


def test_normalization_constant_column_uses_unit_scale():
    stats = NormalizationStats(mean=np.array([5.0]), std=np.array([0.0]))
    np.testing.assert_array_equal(stats.transform(np.array([[7.0]])), [[2.0]])
    # the measured std is preserved, only the effective scale is substituted
    assert stats.std[0] == 0.0 and stats.effective_std[0] == 1.0


def test_normalization_stats_cannot_change_under_their_cached_scale():
    stats = NormalizationStats(mean=np.zeros(2), std=np.array([0.0, 2.0]))
    with pytest.raises(FrozenInstanceError):
        stats.std = np.ones(2)
    for array in (stats.mean, stats.std, stats.effective_std):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0
    std = np.array([0.0, 2.0])
    NormalizationStats(mean=np.zeros(2), std=std)
    std[0] = 3.0  # the caller's array stays writable: the stats hold a copy
    np.testing.assert_array_equal(stats.transform(np.array([1.0, 1.0])), [1.0, 0.5])


def test_normalization_validation():
    with pytest.raises(DataError):
        NormalizationStats(mean=np.zeros(2), std=np.array([1.0, -0.1]))
    with pytest.raises(DimensionMismatch):
        NormalizationStats(mean=np.zeros(2), std=np.zeros(3))
    stats = NormalizationStats(mean=np.zeros(2), std=np.ones(2))
    with pytest.raises(DimensionMismatch):
        stats.transform(np.zeros((4, 3)))


def test_fit_normalization_uses_population_std():
    kpis = [parse_kpi_id("a@n")]
    ds = TimeSeriesDataset(
        timestamps=[0, 1, 2, 3], kpis=kpis, values=[[1.0], [2.0], [3.0], [4.0]]
    )
    stats = fit_normalization(ds)
    assert stats.mean[0] == pytest.approx(2.5)
    assert stats.std[0] == pytest.approx(np.std([1.0, 2.0, 3.0, 4.0], ddof=0))


@pytest.mark.parametrize(
    "column",
    [
        np.linspace(-1e200, 1e200, 300),  # the squared deviations overflow
        np.repeat([1.7e308, -1.7e308], 150),  # the sum overflows both ways: inf - inf
    ],
)
def test_fit_normalization_names_a_column_whose_std_overflows(column):
    kpis = [parse_kpi_id("a@n"), parse_kpi_id("b@n")]
    values = np.column_stack([np.ones(300), column])
    ds = TimeSeriesDataset(timestamps=np.arange(300), kpis=kpis, values=values)
    with pytest.raises(DataError, match=r"^KPI b@n: standard deviation overflows float64$"):
        fit_normalization(ds)


def test_normalization_transform_inverse_round_trip():
    kpis = [parse_kpi_id("a@n")]
    ds = TimeSeriesDataset(timestamps=[0, 1], kpis=kpis, values=[[2.0], [4.0]])
    stats = fit_normalization(ds)
    normalized = stats.transform(ds.values)
    np.testing.assert_allclose(normalized, [[-1.0], [1.0]])
    np.testing.assert_allclose(normalized * stats.effective_std + stats.mean, ds.values)


def test_load_descriptors(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text(
        "kpi,description,unit\n"
        "pressure@tank-1,tank pressure of the service tank,bar\n"
        "load@engine-1,engine load,\n",
        encoding="utf-8",
    )
    table = load_descriptors(path)
    tank = table[parse_kpi_id("pressure@tank-1")]
    assert tank == KpiDescriptor(
        kpi=parse_kpi_id("pressure@tank-1"),
        description="tank pressure of the service tank",
        unit="bar",
    )
    assert table[parse_kpi_id("load@engine-1")].unit is None


def test_load_descriptors_without_unit_column(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text("kpi,description\na@n,alpha reading\n", encoding="utf-8")
    table = load_descriptors(path)
    assert table[parse_kpi_id("a@n")].description == "alpha reading"


def test_load_descriptors_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,description\na@n,x\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_descriptors(bad)
    bad.write_text("kpi,description\na@n,x\nb@n\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="row 3 has 1 cell"):
        load_descriptors(bad)
    with pytest.raises(IoError):
        load_descriptors(tmp_path / "absent.csv")


def test_load_descriptors_refuses_a_kpi_named_twice(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text("kpi,description\na@n,first text\nb@n,other\n a@n ,second text\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_descriptors(path)
    assert str(info.value) == f"{path}: row 4: duplicate KPI a@n"


@pytest.mark.parametrize(
    "loader, text, where",
    [
        (load_dataset, "timestamp,a@n,bad\n0,1,2\n", "row 1: expected exactly one '@'"),
        (load_dataset, "timestamp, @n\n0,1\n", "row 1: empty metric"),
        (load_descriptors, "kpi,description\na@n,x\n\nb@n@m,y\n", "row 4: expected exactly one"),
        (load_descriptors, "kpi,description,unit\na@,x,bar\n", "row 2: empty node"),
    ],
)
def test_a_malformed_kpi_id_names_its_file_and_row(loader, text, where, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedKpiId) as caught:
        loader(path)
    assert str(caught.value).startswith(f"{path}: {where}")


@dataclass(frozen=True)
class _Sample:
    kpi: KpiId = field(metadata={"json": "id"})
    weights: dict[KpiId, float]
    counts: tuple[int, ...]
    note: str | None


SAMPLE = _Sample(
    kpi=KpiId("a", "n"), weights={KpiId("b", "n"): 0.5}, counts=(1, 2), note=None
)
SAMPLE_JSON = {"id": "a@n", "weights": {"b@n": 0.5}, "counts": [1, 2], "note": None}


def test_codec_round_trips_a_dataclass():
    assert to_json(SAMPLE) == SAMPLE_JSON
    assert from_json(SAMPLE_JSON, _Sample, "sample") == SAMPLE
    with_note = {**SAMPLE_JSON, "note": "checked"}
    assert from_json(with_note, _Sample, "sample").note == "checked"


def test_codec_reads_an_integer_as_a_float():
    loaded = from_json({**SAMPLE_JSON, "weights": {"b@n": 1}}, _Sample, "sample")
    assert type(loaded.weights[KpiId("b", "n")]) is float


@pytest.mark.parametrize(
    "edit, fragment",
    [
        ({"note": "DROP"}, "sample is missing key 'note'"),
        ({"extra": 1}, "unknown sample field: extra"),
        ({"counts": [1.0]}, r"sample field counts\[0\] must be an integer"),
        ({"counts": [True]}, "must be an integer"),
        ({"counts": "1,2"}, "sample field counts must be an array"),
        ({"weights": {"b@n": True}}, "sample field weights.b@n must be a number"),
        ({"weights": {"b@n": "0.5"}}, "must be a number"),
        ({"weights": [0.5]}, "sample field weights must be an object"),
        ({"id": 5}, "sample KPI id is not a string: id is 5"),
        ({"note": 5}, "sample field note must be a string"),
    ],
)
def test_codec_refuses_what_its_type_hints_do_not_allow(edit, fragment):
    payload = {**SAMPLE_JSON, **edit}
    payload = {k: v for k, v in payload.items() if v != "DROP"}
    with pytest.raises(SchemaError, match=fragment):
        from_json(payload, _Sample, "sample")


def test_codec_reports_a_malformed_kpi_id():
    with pytest.raises(MalformedKpiId):
        from_json({**SAMPLE_JSON, "weights": {"b": 0.5}}, _Sample, "sample")


def test_codec_writes_arrays_and_lists_and_reads_them_back():
    weights = [np.array([[1.0, -0.0], [2.5, 3.0]]), np.array([[0.5]])]
    assert to_json(weights) == [[[1.0, -0.0], [2.5, 3.0]], [[0.5]]]
    loaded = from_json(to_json(weights), list[Matrix], "sample")
    assert type(loaded) is list
    for read, written in zip(loaded, weights):
        assert read.dtype == np.float64
        assert read.tobytes() == written.tobytes()
    assert from_json([1, 2], Vector, "sample").tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "hint, payload",
    [
        pytest.param(Vector, 0.5, id="Vector 0.5"),
        pytest.param(Vector, [[0.5]], id="Vector [[0.5]]"),
        pytest.param(Vector, [0.5, True], id="Vector [0.5, True]"),
        pytest.param(Vector, ["0.5"], id='Vector ["0.5"]'),
        pytest.param(Vector, [0.5, None], id="Vector [0.5, None]"),
        pytest.param(Vector, [float("inf")], id='Vector [float("inf")]'),
        pytest.param(Vector, [float("nan")], id='Vector [float("nan")]'),
        pytest.param(Vector, [10**400], id="Vector [10**400]"),
        pytest.param(Matrix, [0.5], id="Matrix [0.5]"),
        pytest.param(Matrix, [], id="Matrix []"),
        pytest.param(Matrix, [[0.5], [0.5, 0.5]], id="Matrix [[0.5], [0.5, 0.5]]"),
        pytest.param(Matrix, [[0.5], 0.5], id="Matrix [[0.5], 0.5]"),
        pytest.param(Matrix, [[[0.5]]], id="Matrix [[[0.5]]]"),
    ],
)
def test_codec_reads_an_array_only_of_finite_numbers_in_its_dimensions(hint, payload):
    with pytest.raises(SchemaError, match=r"sample field x must be a \d-D array of finite numbers"):
        from_json(payload, hint, "sample", "x")

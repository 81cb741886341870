import csv
import io
import logging
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from crnn_forecast import data as data_module
from crnn_forecast.data import (CorrelatedSet, DataError, Normalizer, SyntheticConfig,
                                TimeSeries, Windows, generate_synthetic, ingest_csv,
                                make_uncorrelated, pearson, segment, split, stack_samples,
                                train_val_split, write_csv)


def make_set(n_series=2, length=100, seed=0):
    rng = np.random.default_rng(seed)
    return CorrelatedSet(tuple(
        TimeSeries(f"s{i}", rng.uniform(1.0, 9.0, length)) for i in range(n_series)))


class TestTimeSeries:
    def test_rejects_missing_values(self):
        with pytest.raises(DataError):
            TimeSeries("x", [1.0, float("nan"), 3.0])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            TimeSeries("x", [])

    def test_keeps_a_private_copy_of_the_callers_array(self):
        a = np.arange(5.0)
        series = TimeSeries("a", a)
        assert a.flags.writeable
        a[2] = 99.0
        assert series.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not series.values.flags.writeable


class TestCorrelatedSet:
    def test_alignment_enforced(self):
        a = TimeSeries("a", [1.0, 2.0])
        b = TimeSeries("b", [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            CorrelatedSet((a, b))

    def test_target_is_first(self):
        cset = make_set(3)
        assert cset.target.id == "s0"
        assert cset.num_series == 3

    def test_sliced_and_replaced_rows_are_read_only_and_c_contiguous(self):
        cset = make_set(3, 50)
        sliced = cset.slice_time(5, 20)
        assert all(np.shares_memory(a.values, b.values)  # views: nothing copied
                   for a, b in zip(sliced.series, cset.series))
        replaced = cset.with_values(np.asfortranarray(cset.values_matrix() * 2.0))
        for result in (sliced, replaced, replaced.slice_time(1, 9)):
            assert all(not s.values.flags.writeable and s.values.flags.c_contiguous
                       for s in result.series)
        assert sliced.values_matrix().tolist() == cset.values_matrix()[:, 5:20].tolist()

    def test_with_values_keeps_a_private_copy_of_the_callers_matrix(self):
        cset = make_set(2, 10)
        matrix = cset.values_matrix() + 1.0
        replaced = cset.with_values(matrix)
        matrix[:] = -1.0
        assert replaced.values_matrix().tolist() == (cset.values_matrix() + 1.0).tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_replacement_names_the_first_bad_series(self, bad):
        cset = make_set(3, 10)
        matrix = cset.values_matrix()
        matrix[2, 1] = bad
        matrix[1, 7] = bad
        with pytest.raises(DataError) as info:
            cset.with_values(matrix)
        assert str(info.value) == "series 's1' has missing or non-finite values"

    def test_take(self):
        cset = make_set(3)
        assert cset.take(1).num_series == 1
        assert cset.take(1).target.id == "s0"
        with pytest.raises(DataError):
            cset.take(4)


class TestSplit:
    def test_default_fraction(self):
        train, test = split(make_set(length=100))
        assert train.length == 84 and test.length == 16

    def test_floor_arithmetic(self):
        train, test = split(make_set(length=50))
        assert train.length == 42 and test.length == 8

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ValueError):
            split(make_set(), train_frac=1.0)
        with pytest.raises(ValueError):
            split(make_set(), train_frac=0.0)

    def test_chronological_no_shuffle(self):
        cset = make_set(length=50)
        train, test = split(cset)
        full = cset.series[0].values
        assert np.array_equal(train.series[0].values, full[:42])
        assert np.array_equal(test.series[0].values, full[42:])


class TestSegment:
    def test_window_count(self):
        cset = make_set(length=10)
        samples = segment(cset, input_length=3, horizon=2)
        assert len(samples) == 6

    def test_boundary_single_window(self):
        cset = make_set(length=5)
        samples = segment(cset, input_length=3, horizon=2)
        assert len(samples) == 1
        assert samples[0].offset == 0

    def test_too_short_yields_empty_with_warning(self, caplog):
        cset = make_set(length=4)
        with caplog.at_level(logging.WARNING):
            samples = segment(cset, input_length=3, horizon=2)
        assert len(samples) == 0
        assert any("shorter" in r.message for r in caplog.records)

    def test_inputs_pair_with_following_targets(self):
        cset = make_set(length=12)
        m = cset.values_matrix()
        for s in segment(cset, input_length=4, horizon=3):
            a = s.offset
            assert np.array_equal(s.input.array, m[:, a:a + 4])
            assert np.array_equal(s.target, m[0, a + 4:a + 7])

    def test_stride(self):
        cset = make_set(length=20)
        samples = segment(cset, input_length=4, horizon=2, stride=6)
        assert [s.offset for s in samples] == [0, 6, 12]

    def test_coverage_at_stride_one(self):
        cset = make_set(length=15)
        samples = segment(cset, input_length=4, horizon=2)
        covered = set()
        for s in samples:
            covered.update(range(s.offset, s.offset + 6))
        assert covered == set(range(15))

    @given(st.integers(7, 60), st.integers(1, 6), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, length, l, p):
        cset = make_set(length=length, seed=1)
        samples = segment(cset, input_length=l, horizon=p)
        expected = max(0, length - l - p + 1)
        assert len(samples) == expected


def sorted_split(samples, val_fraction):
    """train_val_split as it was before windows came in time order: sort by
    offset, then carve off the last fraction."""
    ordered = sorted(samples, key=lambda s: s.offset)
    n_val = int(len(ordered) * val_fraction)
    if n_val == 0:
        return list(ordered), []
    return ordered[:-n_val], ordered[-n_val:]


class TestSegmentProperties:
    @given(st.integers(1, 4), st.integers(1, 60), st.integers(1, 8), st.integers(1, 5),
           st.integers(1, 7), st.floats(0.0, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_windows_are_read_only_views_of_the_matrix(self, n, length, l, p, stride,
                                                       val_fraction):
        cset = make_set(n, length, seed=length)
        m = cset.values_matrix()
        windows = segment(cset, l, p, stride)
        assert windows.offsets.tolist() == list(range(0, length - l - p + 1, stride))
        assert windows.x.shape == (len(windows), n, l)
        assert windows.y.shape == (len(windows), p)
        assert not windows.x.flags.writeable and not windows.y.flags.writeable
        for i, o in enumerate(windows.offsets.tolist()):
            assert np.array_equal(windows.x[i], m[:, o:o + l])
            assert np.array_equal(windows.y[i], m[0, o + l:o + l + p])
            sample = windows[i]
            assert sample.offset == o
            assert np.array_equal(sample.input.array, windows.x[i])
            assert np.array_equal(sample.target, windows.y[i])

        tr, val = train_val_split(windows, val_fraction)
        assert isinstance(tr, Windows) and isinstance(val, Windows)
        ref_tr, ref_val = sorted_split(list(windows)[::-1], val_fraction)
        for got, ref in ((tr, ref_tr), (val, ref_val)):
            assert got.offsets.tolist() == [s.offset for s in ref]
            for g, r in zip(got, ref):
                assert np.array_equal(g.input.array, r.input.array)
                assert np.array_equal(g.target, r.target)


class TestTrainValSplit:
    def test_chronological_carveout(self):
        cset = make_set(length=30)
        samples = segment(cset, 4, 2)
        tr, val = train_val_split(samples, 0.2)
        assert len(tr) + len(val) == len(samples)
        assert max(s.offset for s in tr) < min(s.offset for s in val)

    def test_tiny_sample_lists(self):
        cset = make_set(length=6)
        samples = segment(cset, 4, 2)
        tr, val = train_val_split(samples, 0.15)
        assert len(tr) == 1 and len(val) == 0


class TestNormalizer:
    def test_round_trip_identity(self):
        train, _ = split(make_set(length=100))
        norm = Normalizer.fit(train)
        values = train.series[0].values
        again = norm.inverse_target(norm.transform(train).series[0].values)
        assert np.max(np.abs(again - values)) < 1e-12

    def test_training_values_land_in_unit_interval(self):
        train, _ = split(make_set(length=100))
        norm = Normalizer.fit(train)
        m = norm.transform(train).values_matrix()
        assert m.min() >= 0.0 and m.max() <= 1.0

    def test_test_values_may_exceed_unit_interval(self):
        values = np.concatenate([np.linspace(1, 2, 84), np.linspace(3, 4, 16)])
        cset = CorrelatedSet((TimeSeries("t", values),))
        train, test = split(cset)
        norm = Normalizer.fit(train)
        assert norm.transform(test).values_matrix().max() > 1.0

    def test_constant_series_stays_invertible(self):
        cset = CorrelatedSet((TimeSeries("c", np.full(50, 7.0)),))
        norm = Normalizer.fit(cset)
        v = norm.transform(CorrelatedSet((TimeSeries("c", np.array([7.0, 8.0])),)))
        assert np.allclose(norm.inverse_target(v.target.values), [7.0, 8.0])

    def test_statistics_come_from_train_only(self):
        values = np.concatenate([np.linspace(0, 1, 84), np.full(16, 100.0)])
        cset = CorrelatedSet((TimeSeries("t", values),))
        train, _ = split(cset)
        norm = Normalizer.fit(train)
        assert norm.maxs[0] <= 1.0

    def test_tensor_round_trip(self):
        train, _ = split(make_set(length=60))
        norm = Normalizer.fit(train)
        again = Normalizer.from_tensors(norm.tensors())
        assert np.array_equal(again.mins, norm.mins)
        assert np.array_equal(again.maxs, norm.maxs)

    def test_constant_series_statistics_load(self):
        norm = Normalizer.from_tensors({"norm.min": np.array([7.0, 0.0]),
                                        "norm.max": np.array([7.0, 2.0])})
        assert norm.spans.tolist() == [1.0, 2.0]
        assert norm.inverse_target(np.array([0.5])).tolist() == [7.5]


class TestLeakage:
    @pytest.mark.parametrize("seed", range(10))
    def test_test_windows_follow_train_windows(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(60, 200))
        l = int(rng.integers(2, 8))
        p = int(rng.integers(1, 5))
        cset = make_set(length=length, seed=seed)
        train, test = split(cset)
        train_windows = segment(train, l, p)
        test_windows = segment(test, l, p)
        if not train_windows or not test_windows:
            return
        max_train = max(w.offset for w in train_windows)
        min_test = train.length + min(w.offset for w in test_windows)
        assert max_train < min_test


class TestCsv:
    def test_three_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        cset = ingest_csv(path)
        assert cset.num_series == 3
        assert cset.target.id == "a"
        assert cset.target.values.tolist() == [1.0, 4.0, 7.0]

    def test_headerless_numeric_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        cset = ingest_csv(path)
        assert cset.num_series == 2
        assert cset.series[1].id == "col1"

    def test_blank_cell_cites_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,\n5,6\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(path)

    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("text,line", [("a,b\n\n\n1,2\n3,x\n", 5),
                                           ('a,b\n"1\n",2\n3,x\n', 4)])
    def test_bad_row_is_named_by_the_file_line_it_starts_on(self, tmp_path, text, line):
        # blank lines and a quoted line break each take a file line
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == f"{path}: row {line} column 1 is not numeric: 'x'"

    def test_headerless_file_behind_a_byte_order_mark_keeps_every_row(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with the UTF-8 BOM
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2.0\n3,4\n")
        cset = ingest_csv(path)
        assert [s.id for s in cset.series] == ["col0", "col1"]
        assert cset.values_matrix().tolist() == [[1.5, 3.0], [2.0, 4.0]]

    @pytest.mark.parametrize("header", [b"date,a,b", b'date,"a",b', b'"date",a,b'],
                             ids=["quote-free", "quoted", "quoted-first-cell"])
    def test_header_behind_a_byte_order_mark_resolves_by_name(self, tmp_path, header):
        raw = b"\xef\xbb\xbf" + header + b"\n0,1,2\n1,3,4\n"
        assert (data_module._quote_free_lines(raw[3:].decode()) is None) == (b'"' in header)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        cset = ingest_csv(path, timestamp="date", target="b")
        assert [s.id for s in cset.series] == ["b", "a"]
        assert cset.values_matrix().tolist() == [[2.0, 4.0], [1.0, 3.0]]

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(path)

    def test_non_uniform_timestamps_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,a\n0,1\n1,2\n3,3\n")
        with pytest.raises(DataError, match="uniform"):
            ingest_csv(path, timestamp="t")

    @pytest.mark.parametrize("stamps", [["0", "inf", "inf"], ["inf", "inf"], ["0", "-inf", "1"],
                                        ["nan", "1", "2"], ["inf"]])
    def test_non_finite_timestamps_are_a_data_error_naming_the_column(self, tmp_path, stamps):
        # two inf stamps once let np.diff's inf - inf warning out before any DataError
        path = tmp_path / "d.csv"
        path.write_text("a,t\n" + "".join(f"{i},{t}\n" for i, t in enumerate(stamps)))
        with pytest.raises(DataError) as info:
            ingest_csv(path, timestamp="t")
        assert str(info.value) == f"{path}: timestamp column 1 holds a non-finite value"

    def test_uniform_timestamps_are_checked_and_not_read_as_a_series(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,a,b\n10,1,2\n12,3,4\n14,5,6\n")
        cset = ingest_csv(path, timestamp="t")
        assert [s.id for s in cset.series] == ["a", "b"]  # timestamp column excluded
        assert cset.target.values.tolist() == [1.0, 3.0, 5.0]

    def test_column_selection_by_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        cset = ingest_csv(path, columns=["c", "a"])
        assert cset.target.id == "c"
        assert cset.target.values.tolist() == [3.0, 6.0]

    @pytest.mark.parametrize("columns", [["b", "b"], ["1", "b"], ["a", "b", "a"]])
    def test_column_selected_twice_rejected(self, tmp_path, columns):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        twice = columns[-1]
        index = "abc".index(twice)
        with pytest.raises(DataError) as info:
            ingest_csv(path, columns=columns)
        assert str(info.value) == f"{path}: column {index} ({twice}) is selected twice"

    @pytest.mark.parametrize("layout", [dict(columns=["t", "a"]), dict(columns=["a", "0"]),
                                        dict(columns=["a"], target="t")])
    def test_timestamp_column_selected_as_a_series_rejected(self, tmp_path, layout):
        path = tmp_path / "d.csv"
        path.write_text("t,a\n0,1\n1,2\n")
        with pytest.raises(DataError, match="column 0 is the timestamp column"):
            ingest_csv(path, timestamp="t", **layout)

    @pytest.mark.parametrize("layout", [dict(columns=["a", "b"]), dict(columns=["b"], target="a"),
                                        dict(timestamp="a")])
    def test_name_heading_two_columns_rejected(self, tmp_path, layout):
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError) as info:
            ingest_csv(path, **layout)
        assert str(info.value) == f"{path}: the name 'a' heads columns 0, 1; select one by index"

    def test_columns_under_a_repeated_name_read_by_index_or_all(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,a,b\n1,2,3\n4,5,6\n")
        assert [s.values.tolist() for s in ingest_csv(path, columns=["1", "b"]).series] == [
            [2.0, 5.0], [3.0, 6.0]]
        assert [s.id for s in ingest_csv(path).series] == ["a", "a", "b"]

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="nope"):
            ingest_csv(path, columns=["nope"])

    @pytest.mark.parametrize("layout, names", [
        (dict(columns=["a", "b"], target="1"), ["a", "b"]),
        (dict(columns=["1", "2"], target="a"), ["a", "b"]),
        (dict(columns=[1, 2], target=2), ["b", "a"]),
        (dict(timestamp="t", target="1"), ["a", "b", "c"]),
        (dict(timestamp="t", target="c"), ["c", "a", "b"]),
        (dict(columns=["a", "b"], timestamp="t", target="1"), ["a", "b"]),
        (dict(columns=["a", "b"], target="3"), ["c", "a", "b"]),
        (dict(target="b"), ["b", "t", "a", "c"]),
    ])
    def test_target_is_a_file_column_moved_to_the_front(self, tmp_path, layout, names):
        # an integer target counts file columns, as --columns does, and a
        # target already listed is moved, not read twice
        path = tmp_path / "d.csv"
        path.write_text("t,a,b,c\n0,10,20,30\n1,11,21,31\n")
        cset = ingest_csv(path, **layout)
        assert [s.id for s in cset.series] == names
        header = ["t", "a", "b", "c"]
        for s in cset.series:
            assert s.values.tolist() == [header.index(s.id) * 10.0 + k for k in (0, 1)]

    @pytest.mark.parametrize("layout, message", [
        (dict(target="nope"), "no column named 'nope'"),
        (dict(target="4"), "column index 4 outside row width 4"),
        (dict(timestamp="t", target="0"), "target column 0 is the timestamp column"),
    ])
    def test_bad_target_is_data_error(self, tmp_path, layout, message):
        path = tmp_path / "d.csv"
        path.write_text("t,a,b,c\n0,10,20,30\n1,11,21,31\n")
        with pytest.raises(DataError, match=message):
            ingest_csv(path, **layout)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(tmp_path / "absent.csv")

    def test_write_read_round_trip(self, tmp_path):
        cset = make_set(2, 40, seed=5)
        path = tmp_path / "out.csv"
        write_csv(cset, path)
        again = ingest_csv(path)
        assert np.array_equal(again.values_matrix(), cset.values_matrix())


    def test_header_shorter_than_the_rows_is_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(DataError, match="no name for column 2"):
            ingest_csv(path)

    @pytest.mark.parametrize("content", [b"a,b\n\xff,2\n",
                                         b'a,b\n1,"' + b"9" * 200_000 + b'"\n'],
                             ids=["not-utf8", "field-over-csv-limit"])
    def test_unreadable_text_is_data_error(self, tmp_path, content):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv(path)

    def test_series_rows_are_c_contiguous(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,a,b\n0,1,2\n1,3,4\n2,5,6\n")
        cset = ingest_csv(path, columns=["b", "a"], timestamp="t")
        assert [s.values.tolist() for s in cset.series] == [[2.0, 4.0, 6.0], [1.0, 3.0, 5.0]]
        assert all(s.values.flags.c_contiguous for s in cset.series)


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_row_error(path, rows: list[list[str]]) -> str | None:
    """The DataError message a cell-by-cell reading of ``rows``, written to
    path after a header, gives, or None if all are valid. A row is named by
    the file line it starts on, as csv.reader counts the lines it reads."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lines = []
        for _ in range(1 + len(rows)):
            lines.append(reader.line_num + 1)
            next(reader)
    data = [(line, r) for line, r in zip(lines[1:], rows) if any(cell.strip() for cell in r)]
    if not data:
        return f"{path}: file holds no data rows"
    width = len(data[0][1])
    for line, row in data:
        if len(row) != width:
            return f"{path}: row {line} has {len(row)} cells, expected {width}"
        for idx, cell in enumerate(row):
            if not cell.strip():
                return f"{path}: row {line} has a blank cell in column {idx}"
            if not _parses(cell):
                return f"{path}: row {line} column {idx} is not numeric: {cell.strip()!r}"
    return None


def _write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: not _parses(name))
ODD_CELLS = [" 1.5 ", "\t2\n", "nan", "-inf", "1_0", "", "  ", "0x10", "1e", "1e5",
             "\u0661\u0662", "1__0", "+.5", "1e400", "-0"]
ROW_CELLS = st.one_of(FINITE.map(repr), FINITE.map(repr),
                      st.sampled_from(["", " ", "x", "1e", "0x10", "1__0", " 7 ",
                                       "1\n", "\r\n2", "x\ny", "\n"]))
_TMP_PATH_OK = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                        deadline=None)
CSV_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             1e16, 1e-5, 0.1, 123456789012345680.0]
# header names that csv.writer quotes
ODD_NAMES = ["a,b", 'say "x"', '"', "x y", "line\nbreak"]


class TestCsvProperties:
    @_TMP_PATH_OK
    @given(data=st.data())
    def test_write_csv_then_ingest_csv_is_bit_exact(self, tmp_path, data):
        n = data.draw(st.integers(1, 4))
        matrix = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 30))),
                                  elements=FINITE))
        names = data.draw(st.lists(NAMES, min_size=n, max_size=n))
        cset = CorrelatedSet(tuple(TimeSeries(names[i], matrix[i]) for i in range(n)))
        path = tmp_path / "d.csv"
        write_csv(cset, path)
        again = ingest_csv(path)
        assert [s.id for s in again.series] == names
        assert again.values_matrix().tobytes() == matrix.tobytes()

    @settings(_TMP_PATH_OK, max_examples=50)
    @given(n=st.integers(1, 4),
           length=st.one_of(st.integers(1, 40), st.sampled_from([4095, 4096, 4097])),
           seed=st.integers(0, 2 ** 32 - 1),
           cells=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4096),
                                    st.one_of(st.sampled_from(CSV_EDGES), FINITE)),
                          max_size=12),
           names=st.lists(st.one_of(NAMES, st.sampled_from(ODD_NAMES)),
                          min_size=4, max_size=4))
    @example(n=2, length=4097, seed=0, cells=[(i % 2, 4096 - i, v)
                                              for i, v in enumerate(CSV_EDGES)],
             names=["a,b", 'say "x"', "c", "d"])
    def test_write_csv_writes_the_reference_writers_bytes(self, tmp_path, n, length, seed,
                                                          cells, names):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, length)) * 10.0 ** rng.integers(-30, 30, (n, length))
        for i, t, value in cells:
            matrix[i % n, t % length] = value
        cset = CorrelatedSet(tuple(TimeSeries(names[i], matrix[i]) for i in range(n)))
        reference_write_csv(cset, tmp_path / "want.csv")
        write_csv(cset, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @_TMP_PATH_OK
    @given(cell=st.one_of(st.text(max_size=12), st.sampled_from(ODD_CELLS)))
    @example(cell="0\x1f")  # str.strip() drops \x1f, float() does not
    def test_a_cell_is_accepted_exactly_when_float_accepts_it(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        _write_rows(path, [["a", "b"], ["1", cell]])
        if not _parses(cell):
            with pytest.raises(DataError) as info:
                ingest_csv(path)
            assert str(info.value) == _first_row_error(path, [["1", cell]])
        elif not math.isfinite(float(cell)):
            with pytest.raises(DataError, match="non-finite"):
                ingest_csv(path)
        else:
            values = ingest_csv(path).series[1].values
            assert values.tobytes() == np.float64(float(cell)).tobytes()

    @_TMP_PATH_OK
    @given(rows=st.lists(st.lists(ROW_CELLS, min_size=1, max_size=4), min_size=1, max_size=6))
    @example(rows=[["1", "2"], ["3"], ["x", "4"]])
    @example(rows=[["1", "2"], [" ", ""], ["5", " "]])
    @example(rows=[[], [], ["1", "2"], ["3", "x"]])  # blank lines: the error cites line 5
    def test_malformed_rows_raise_the_first_bad_rows_error(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        _write_rows(path, [["h0", "h1", "h2", "h3"], *rows])
        expected = _first_row_error(path, rows)
        if expected is None:
            data = [[float(c) for c in r] for r in rows if any(c.strip() for c in r)]
            assert np.array_equal(ingest_csv(path).values_matrix(), np.array(data).T)
        else:
            with pytest.raises(DataError) as info:
                ingest_csv(path)
            assert str(info.value) == expected

    @_TMP_PATH_OK
    @given(stamps=st.lists(st.one_of(st.integers(0, 9).map(str), st.sampled_from(["", "t"])),
                           min_size=1, max_size=5))
    def test_timestamp_column_errors_cite_the_first_bad_row(self, tmp_path, stamps):
        path = tmp_path / "d.csv"
        _write_rows(path, [["t", "a"], *[[t, "1"] for t in stamps]])
        bad = next((line for line, t in enumerate(stamps, 2) if not _parses(t)), None)
        if bad is None:
            try:
                ingest_csv(path, timestamp="t")
            except DataError as exc:
                assert "uniformly spaced" in str(exc)
        else:
            with pytest.raises(DataError) as info:
                ingest_csv(path, timestamp="t")
            assert str(info.value) == f"{path}: row {bad} has a non-numeric timestamp"


def _reader_records(text: str) -> list[list[str]]:
    """The records csv.reader cuts from text, read as ingest_csv's csv path reads it."""
    return list(csv.reader(io.StringIO(text, newline="")))


# Quote-free text: digits, commas, every line break csv.reader splits at, and
# characters str.splitlines would split at but csv.reader keeps in a cell.
SPLIT_CHARS = "09.-ex ,\t\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff"
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


# The parts of quote-free text, drawn from SPLIT_CHARS: cells, names, and
# blank lines, which hold only spaces, only commas or both.
CELL_CHARS = SPLIT_CHARS.translate({ord(c): None for c in ",\r\n"})
NUMBER = st.from_regex(r"-?[09]{1,3}(\.[09]{0,2})?(e-?[09])?", fullmatch=True)
LOOSE_CELL = st.one_of(NUMBER, NUMBER, NUMBER, st.text(CELL_CHARS, max_size=3))
BLANK_LINE = st.one_of(st.just(""), st.text(" \t", min_size=1, max_size=2),
                       st.sampled_from(SPLITLINES_ONLY),
                       st.lists(st.text(" \t", max_size=1), min_size=2, max_size=4).map(",".join))
HEADER_NAME = st.from_regex(r"[ex][09ex]?", fullmatch=True)


@st.composite
def quote_free_files(draw):
    """Quote-free CSV text, a header line maybe, rows (some ragged) and blank
    lines, each ended by \\n, \\r or \\r\\n; and an ingest_csv selection for it."""
    width = draw(st.integers(1, 3))
    names = draw(st.lists(HEADER_NAME, min_size=width, max_size=width))
    row = st.lists(LOOSE_CELL, min_size=width, max_size=width).map(",".join)
    ragged = st.lists(LOOSE_CELL, min_size=1, max_size=width + 1).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, row, ragged, BLANK_LINE, BLANK_LINE),
                          min_size=2, max_size=7))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(2, len(lines)))), ",".join(names))
    text = "".join(line + draw(st.sampled_from(["\n", "\r", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    spec = st.one_of(st.integers(0, width - 1), st.integers(-1, width).map(str),
                     st.sampled_from(names))
    maybe = st.one_of(st.none(), st.none(), spec)
    return text, dict(columns=draw(st.just([]) | st.lists(spec, max_size=width)),
                      timestamp=draw(maybe), target=draw(maybe))


def _ingest_outcome(path, layout):
    """The names and value bits ingest_csv reads from path, or its DataError text."""
    try:
        cset = ingest_csv(path, **layout)
    except DataError as exc:
        return str(exc)
    return [s.id for s in cset.series], cset.values_matrix().tobytes()


class TestSplitRecords:
    @_TMP_PATH_OK
    @given(case=quote_free_files(), bom=st.booleans())
    @example(case=("e,x\r\r\n9,0\r \t\r,\n, ,\r\n0.9,-9e-0\r", {}), bom=True)
    @example(case=("9,0\n,\n0,9\n", {}), bom=False)
    @example(case=("9,0\n\n9\n0,9,0\n", {}), bom=False)
    @example(case=("e,x\n9\x0b0,9\n", {}), bom=False)
    @example(case=("e,x,ex\r9,0,9\r0,9,90\r", dict(columns=["ex", "1"], timestamp="e",
                                                    target="x")), bom=True)
    def test_ingest_csv_reads_quote_free_text_as_csv_reader_cuts_it(self, tmp_path, case, bom):
        # the oracle: the records csv.reader cuts from what ingest_csv decodes,
        # every cell quoted, so that ingest_csv reads them through csv.reader
        text, layout = case
        raw = ("\ufeff" if bom else "") + text
        path = tmp_path / "d.csv"
        path.write_bytes(raw.encode())
        got = _ingest_outcome(path, layout)
        quoted = io.StringIO()
        csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(
            _reader_records(raw.removeprefix("\ufeff")))
        path.write_bytes((raw[:len(raw) - len(text)] + quoted.getvalue()).encode())
        assert got == _ingest_outcome(path, layout)

    def test_blank_holds_a_comma_and_every_character_str_strip_strips(self):
        spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
        assert set(data_module._BLANK) == spaces | {","}

    @given(text=st.text(alphabet=SPLIT_CHARS, max_size=60), bom=st.booleans())
    @example(text="a,b\r\n1,2\r\n", bom=False)
    @example(text="a,b\r1,2\r\r3,4", bom=False)
    @example(text="a,b\n\n\n1,2\n", bom=True)
    @example(text="a,b\n1\x0b,2\u2028\n3\x0c,4", bom=False)
    @example(text="", bom=False)
    @example(text="\r\n", bom=False)
    def test_quote_free_text_splits_as_csv_reader_reads_it(self, text, bom):
        # ingest_csv drops one leading mark; one left in the text is a character
        text = ("\ufeff" if bom else "") + text
        lines = data_module._quote_free_lines(text)
        # a splitlines-only separator sends the text to csv.reader; nothing else does
        assert (lines is None) == any(c in text for c in SPLITLINES_ONLY)
        if lines is not None:
            assert [line.split(",") if line else [] for line in lines] == _reader_records(text)

    # csv.reader accepts a NUL from Python 3.11 on
    NUL_ERROR = ("{path}: row 2 column 1 is not numeric: '2\\x00'" if sys.version_info >= (3, 11)
                 else "cannot read {path}: line contains NUL")

    @pytest.mark.parametrize("raw, message", [
        (b"a,b\n1,2\x00\n3,4\n", NUL_ERROR),
        (b"a,b\n1," + b"9" * (csv.field_size_limit() + 1) + b"\n",
         "cannot read {path}: field larger than field limit (%d)" % csv.field_size_limit()),
    ], ids=["nul", "field-over-csv-limit"])
    def test_other_input_gets_csv_readers_error(self, tmp_path, raw, message):
        assert data_module._quote_free_lines(raw.decode()) is None
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == message.format(path=path)

    def test_quoted_cells_take_the_csv_reader_path(self, tmp_path):
        raw = b'a,"b"\r\n"1","2"\r\n3,"4\n"\r\n'
        assert data_module._quote_free_lines(raw.decode()) is None
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        cset = ingest_csv(path)
        assert [s.id for s in cset.series] == ["a", "b"]
        assert cset.values_matrix().tolist() == [[1.0, 3.0], [2.0, 4.0]]


class TestDecodeErrors:
    """Bytes that are not UTF-8 are named by their offset in the file, on
    either record path, past the first 8 KiB and behind a byte-order mark."""

    HEADERS = {"quote-free": b"a,b\n", "quoted": b'a,"b"\n'}
    # a bad sequence, ending the file, and the error it gets at file offset i
    BAD = {"invalid-start": (b"\xff", "byte 0xff in position {i}: invalid start byte"),
           "truncated": (b"\xe2\x82", "bytes in position {i}-{j}: unexpected end of data")}

    def check(self, tmp_path, raw, bad):
        sequence, reason = bad
        i = len(raw) - len(sequence)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == (f"cannot read {path}: 'utf-8' codec can't decode "
                                   + reason.format(i=i, j=i + 1))

    @pytest.mark.parametrize("bad", BAD.values(), ids=list(BAD))
    @pytest.mark.parametrize("header", HEADERS.values(), ids=list(HEADERS))
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-mark", "mark"])
    def test_bad_bytes_in_the_first_row_are_named_by_their_file_offset(self, tmp_path,
                                                                       header, bom, bad):
        self.check(tmp_path, bom + header + b"1," + bad[0], bad)

    @pytest.mark.parametrize("bad", BAD.values(), ids=list(BAD))
    @pytest.mark.parametrize("header", HEADERS.values(), ids=list(HEADERS))
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-mark", "mark"])
    def test_bad_bytes_past_the_first_8_kib_are_named_by_their_file_offset(self, tmp_path,
                                                                           header, bom, bad):
        raw = bom + header + b"1.25,2.5\n" * 2500 + b"3," + bad[0]
        assert len(raw) > 20000
        self.check(tmp_path, raw, bad)


class TestMakeUncorrelated:
    def test_matched_length_and_moments(self):
        ref = generate_synthetic(SyntheticConfig(length=500, seed=3)).target
        sur = make_uncorrelated(ref, seed=1)
        assert len(sur) == len(ref)
        assert abs(sur.values.mean() - ref.values.mean()) < 1e-9
        assert abs(sur.values.std() - ref.values.std()) < 1e-9

    def test_low_correlation(self):
        ref = generate_synthetic(SyntheticConfig(length=800, seed=4)).target
        for seed in range(5):
            sur = make_uncorrelated(ref, seed=seed)
            assert abs(pearson(sur.values, ref.values)) < 0.1

    def test_gives_up_after_the_attempt_budget(self, monkeypatch):
        # every surrogate of a two-value series is it or its mirror, |r| = 1
        draws = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(data_module, "SURROGATE_ATTEMPTS", 3)
        monkeypatch.setattr(data_module.np.random, "default_rng",
                            lambda seed: draws.append(seed) or real_rng(seed))
        with pytest.raises(DataError, match="uncorrelated surrogate"):
            make_uncorrelated(TimeSeries("c", np.array([0.0, 1.0])), seed=2)
        assert draws == [(2, 0), (2, 1), (2, 2)]

    @pytest.mark.parametrize("values", [np.ones(40), np.full(7, 0.1), np.array([3.0])])
    def test_constant_reference_refused_before_any_draw(self, monkeypatch, values):
        def no_draw(seed):
            raise AssertionError("a surrogate was drawn")

        monkeypatch.setattr(data_module.np.random, "default_rng", no_draw)
        with pytest.raises(DataError, match="series 'c' is constant"):
            make_uncorrelated(TimeSeries("c", values), seed=2)

    def test_deterministic(self):
        ref = generate_synthetic(SyntheticConfig(length=300, seed=5)).target
        a = make_uncorrelated(ref, seed=9)
        b = make_uncorrelated(ref, seed=9)
        assert np.array_equal(a.values, b.values)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic(SyntheticConfig(seed=2, length=400))
        b = generate_synthetic(SyntheticConfig(seed=2, length=400))
        assert np.array_equal(a.values_matrix(), b.values_matrix())

    def test_target_first_driver_second(self):
        cset = generate_synthetic(SyntheticConfig(length=100))
        assert [s.id for s in cset.series] == ["target", "driver"]

    def test_driver_leads_target(self):
        cfg = SyntheticConfig(length=1000, lag=5, noise=0.05, seed=6)
        cset = generate_synthetic(cfg)
        target = cset.series[0].values
        driver = cset.series[1].values
        # target at t+lag equals driver at t up to observation noise
        diff = target[cfg.lag:] - driver[:-cfg.lag]
        assert np.std(diff) < 3 * cfg.noise
        # and the lagged correlation beats the instantaneous one
        lagged = pearson(target[cfg.lag:], driver[:-cfg.lag])
        instant = pearson(target, driver)
        assert lagged > instant

    def test_independent_kind_is_uncorrelated(self):
        cset = generate_synthetic(SyntheticConfig(kind="independent",
                                                  length=2000, seed=7))
        assert abs(pearson(cset.series[0].values, cset.series[1].values)) < 0.3

    def test_values_stay_positive_for_mape(self):
        cset = generate_synthetic(SyntheticConfig(length=3000, seed=8))
        assert cset.values_matrix().min() > 0.5

    @pytest.mark.parametrize("period", [0, -3])
    def test_period_not_positive_rejected(self, period):
        with pytest.raises(ValueError, match="season_period"):
            SyntheticConfig(season_period=period)

    @pytest.mark.parametrize("name", ["noise", "base", "season_amplitude",
                                      "stoch_amplitude", "ar_coeff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SyntheticConfig(**{name: value})

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            SyntheticConfig(seed=seed)

    @pytest.mark.parametrize("noise", [-0.01, -1e-300, -5.0])
    def test_negative_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise must be >= 0"):
            SyntheticConfig(noise=noise)

    @pytest.mark.parametrize("kind", ["lagged", "independent"])
    @pytest.mark.parametrize("ar", [5.0, -5.0, 1.2])
    def test_diverging_ar_coeff_rejected(self, kind, ar):
        with pytest.raises(ValueError, match="ar_coeff"):
            generate_synthetic(SyntheticConfig(kind=kind, ar_coeff=ar, length=5000))

    @pytest.mark.parametrize("ar, length", [(1.0, 2000), (-1.0, 2000), (5.0, 300)])
    def test_large_ar_coeff_with_finite_values_accepted(self, ar, length):
        cset = generate_synthetic(SyntheticConfig(ar_coeff=ar, length=length))
        assert np.isfinite(cset.values_matrix()).all()

    def test_zero_noise_and_negative_stochastic_amplitude_accepted(self):
        cset = generate_synthetic(SyntheticConfig(noise=0.0, stoch_amplitude=-0.5, length=50))
        assert cset.length == 50


def reference_latent_signal(cfg: SyntheticConfig, rng: np.random.Generator, n: int,
                            period_scale: float = 1.0) -> np.ndarray:
    """The AR(1) loop over numpy scalars that ``data._latent_signal`` must
    equal bit for bit."""
    t = np.arange(n, dtype=np.float64)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    period = cfg.season_period * period_scale
    season = cfg.season_amplitude * np.sin(2.0 * np.pi * t / period + phase)
    innovations = rng.normal(0.0, 1.0, size=n)
    ar = np.empty(n)
    scale = cfg.stoch_amplitude * np.sqrt(max(1.0 - cfg.ar_coeff ** 2, 1e-12))
    ar[0] = cfg.stoch_amplitude * innovations[0]
    for i in range(1, n):
        ar[i] = cfg.ar_coeff * ar[i - 1] + scale * innovations[i]
    return cfg.base + season + ar


def reference_write_csv(cset: CorrelatedSet, path) -> None:
    """The row-by-row, cell-by-cell CSV writer that ``write_csv`` must equal
    byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.id for s in cset.series])
        matrix = cset.values_matrix()
        for t in range(cset.length):
            writer.writerow(["%.17g" % v for v in matrix[:, t]])


DIVERGES = "diverges"


def _synthetic_outcome(cfg: SyntheticConfig) -> bytes | str:
    """The set's bits, or DIVERGES where the AR(1) signal overflows: the
    reference loop's values then fail the set's finiteness check, and
    ``_latent_signal`` raises a ValueError naming ``ar_coeff``."""
    try:
        return generate_synthetic(cfg).values_matrix().tobytes()
    except DataError:
        return DIVERGES
    except ValueError as exc:
        assert "ar_coeff" in str(exc)
        return DIVERGES


def _latent_bits(latent, cfg: SyntheticConfig, n: int, period_scale: float) -> bytes | str:
    try:
        values = latent(cfg, np.random.default_rng(cfg.seed), n, period_scale)
    except ValueError as exc:
        assert "ar_coeff" in str(exc)
        return DIVERGES
    return values.tobytes() if np.isfinite(values).all() else DIVERGES


AR_EDGES = [0.0, 1.0, -1.0, 0.9999, -0.9999]


class TestSyntheticBits:
    """``generate_synthetic`` gives the bits of the numpy-scalar AR(1) loop,
    across the block size, for stable coefficients, and fails where that
    loop's values overflow."""

    @given(kind=st.sampled_from(["lagged", "independent"]), length=st.integers(2, 10000),
           lag=st.integers(0, 10),
           ar=st.one_of(st.sampled_from(AR_EDGES), st.floats(-1.2, 1.2)),
           stoch=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="lagged", length=4096, lag=0, ar=0.0, stoch=0.7, seed=0)
    @example(kind="lagged", length=4096, lag=1, ar=1.0, stoch=0.7, seed=1)
    @example(kind="independent", length=4097, lag=0, ar=-1.0, stoch=-0.7, seed=2)
    @example(kind="lagged", length=8190, lag=3, ar=0.9999, stoch=0.0, seed=3)
    @example(kind="independent", length=10000, lag=0, ar=-0.9999, stoch=1.5, seed=4)
    @example(kind="lagged", length=9000, lag=10, ar=1.2, stoch=0.7, seed=5)
    @settings(max_examples=60, deadline=None)
    def test_generate_synthetic_gives_the_reference_loops_bits(self, kind, length, lag, ar,
                                                               stoch, seed):
        cfg = SyntheticConfig(kind=kind, length=length, lag=lag, ar_coeff=ar,
                              stoch_amplitude=stoch, seed=seed)
        with mock.patch.object(data_module, "_latent_signal", reference_latent_signal), \
                np.errstate(over="ignore"):
            want = _synthetic_outcome(cfg)
            want_latent = [_latent_bits(reference_latent_signal, cfg, length + lag, scale)
                           for scale in (1.0, 1.618)]
        assert _synthetic_outcome(cfg) == want
        # the latent signal itself
        assert [_latent_bits(data_module._latent_signal, cfg, length + lag, scale)
                for scale in (1.0, 1.618)] == want_latent


class TestStack:
    def test_shapes(self):
        samples = segment(make_set(length=20), 4, 2)
        x, y = stack_samples(samples)
        assert x.shape == (len(samples), 2, 4)
        assert y.shape == (len(samples), 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_samples([])
        with pytest.raises(ValueError):
            stack_samples(segment(make_set(length=4), 4, 2))

    @pytest.mark.parametrize("n, length, l, p, stride", [
        (2, 20, 4, 2, 1), (3, 41, 5, 3, 4), (1, 7, 5, 2, 1), (2, 6, 4, 2, 1)])
    def test_windows_stack_into_contiguous_copies(self, n, length, l, p, stride):
        windows = segment(make_set(n, length), l, p, stride)
        x, y = stack_samples(windows)
        for got, view in ((x, windows.x), (y, windows.y)):
            assert got.flags.c_contiguous and got.flags.writeable
            assert not np.shares_memory(got, view)
            assert got.dtype == np.float64
            assert got.tobytes() == np.stack(list(view)).tobytes()

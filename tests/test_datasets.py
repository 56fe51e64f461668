import csv
import io
import math
import time
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as stn

from driftscope.chronology import ChronologyMode, build_split_plan
from driftscope import datasets
from driftscope.cli import main
from driftscope.datasets import (
    _DATE_FORMATS,
    BUILTIN_NAMES,
    MISSING_TOKENS,
    DataError,
    DatasetDescriptor,
    ProjectRecord,
    SynthConfig,
    builtin_descriptor,
    csv_text,
    load_dataset,
    synth_descriptor,
    synthesize,
    _finite_floats,
    _iso_days,
    _parse_completion,
    _parse_date,
    _whole_completions,
)
from driftscope.kernels import Granularity
from driftscope.stats import LOG, ModelFormula, Term, weighted_least_squares, build_design_matrix


class TestBuiltinDescriptors:
    def test_names(self):
        assert BUILTIN_NAMES == ("desharnais", "kitchenham", "maxwell", "nasa93", "xbc")

    def test_desharnais_expected_rows(self):
        assert builtin_descriptor("desharnais").expected_rows == 77

    def test_kitchenham_client_filter(self):
        d = builtin_descriptor("kitchenham")
        assert d.expected_rows == 105
        assert {"column": "Client.code", "equals": "2"} in d.filters
        assert d.chronology is ChronologyMode.DATE_FILTERED_TEST

    def test_xbc_overrides(self):
        d = builtin_descriptor("xbc")
        assert d.overrides == (7, 10, 12, 13, 14)
        assert d.granularity is Granularity.MONTHLY

    def test_nasa93_formula_and_eaf(self):
        d = builtin_descriptor("nasa93")
        assert "eaf" in d.derived_products
        assert len(d.derived_products["eaf"]) == 15
        assert d.formula.describe() == "ln(effort) = ln(kloc) + ln(eaf) + mode"

    def test_unknown_name(self):
        with pytest.raises(DataError):
            builtin_descriptor("isbsg")

    def test_json_round_trip(self):
        for name in BUILTIN_NAMES:
            d = builtin_descriptor(name)
            assert DatasetDescriptor.from_json(d.to_json()) == d


DESHARNAIS_LIKE_CSV = """Project,YearEnd,TeamExp,ManagerExp,PointsAjust,Language,Effort
1,85,2,4,120,1,4000
2,85,3,2,80,2,2500
3,86,-1,3,200,1,7000
4,86,4,4,150,3,5100
5,87,1,1,90,2,3300
"""


class TestLoadDataset:
    def _descriptor(self, **kw):
        base = builtin_descriptor("desharnais")
        defaults = dict(
            name=base.name,
            granularity=base.granularity,
            chronology=base.chronology,
            columns=base.columns,
            formula=base.formula,
            filters=base.filters,
            expected_rows=4,
        )
        defaults.update(kw)
        return DatasetDescriptor(**defaults)

    def test_filter_drops_missing_rows(self):
        ds = load_dataset(self._descriptor(), DESHARNAIS_LIKE_CSV)
        assert len(ds.records) == 4
        assert all(r.id != "3" for r in ds.records)

    def test_expected_rows_mismatch(self):
        with pytest.raises(DataError, match="expected 5 rows"):
            load_dataset(self._descriptor(expected_rows=5), DESHARNAIS_LIKE_CSV)

    def test_missing_column_named_in_error(self):
        bad = DESHARNAIS_LIKE_CSV.replace("PointsAjust", "Points")
        with pytest.raises(DataError, match="PointsAjust"):
            load_dataset(self._descriptor(), bad)

    def test_duplicate_id(self):
        bad = DESHARNAIS_LIKE_CSV.replace("2,85,3", "1,85,3")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(self._descriptor(), bad)

    def test_records_sorted_chronologically(self):
        ds = load_dataset(self._descriptor(), DESHARNAIS_LIKE_CSV)
        years = [r.completion for r in ds.records]
        assert years == sorted(years)

    def test_non_numeric_value(self):
        bad = DESHARNAIS_LIKE_CSV.replace("4000", "lots")
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset(self._descriptor(), bad)

    @pytest.mark.parametrize("start, days, completion", [
        ("1994-06-01", "100", date(1994, 9, 9)),
        ("1994-01-01", "0", date(1994, 1, 1)),
        ("31/12/1994", "1", date(1995, 1, 1)),
        ("28/02/1996", "1", date(1996, 2, 29)),
        ("1994-01-01", "-1", "negative duration '-1' for '1'"),
    ], ids=["iso start", "zero duration", "year rollover", "leap day", "negative duration"])
    def test_completion_from_start_plus_duration(self, start, days, completion):
        csv_text = (
            "Project,Actual.start.date,Actual.duration,"
            "Adjusted.function.points,Project.type,Actual.effort,Client.code\n"
            f"1,{start},{days},120,D,900,2\n"
            "2,1994-08-01,60,80,P,500,2\n"
            "3,1995-01-15,30,60,D,400,6\n"
        )
        d = builtin_descriptor("kitchenham")
        d = DatasetDescriptor(
            name=d.name, granularity=d.granularity, chronology=d.chronology,
            columns=d.columns, formula=d.formula, filters=d.filters,
            expected_rows=2,
        )
        if isinstance(completion, str):  # an input error naming the record
            with pytest.raises(DataError) as exc:
                load_dataset(d, csv_text)
            assert str(exc.value) == completion
            return
        ds = load_dataset(d, csv_text)
        assert ds.records[0].completion == completion
        assert ds.records[1].completion == date(1994, 9, 30)


TABLE_CSV = """id,done,start,days,size,kind,effort,m1,m2,client
p1,1990,,,10,a,100,1.0,1.1,2
p2,,1990-01-01,30,20,b,200,0.9,1.0,2
p3,1991,,,30,a,300,1.2,0.8,7
"""


def _table_descriptor(**kw):
    fields = dict(
        name="t",
        granularity=Granularity.YEARLY,
        chronology=ChronologyMode.YEAR_ACCUMULATE,
        columns={"id": "id", "completion": "done", "start": "start", "duration": "days"},
        formula=ModelFormula(
            response="effort",
            terms=(
                Term("size", transform=LOG),
                Term("kind", kind="categorical", reference="a"),
                Term("eaf", transform=LOG),
            ),
        ),
        derived_products={"eaf": ["m1", "m2"]},
        filters=({"column": "client", "equals": "2"},),
    )
    fields.update(kw)
    return DatasetDescriptor(**fields)


# (edit of TABLE_CSV as old -> new, descriptor fields, the whole message)
LOADER_ERRORS = {
    "missing bound column": (
        (",size,", ",sz,"), {}, "CSV is missing bound columns: size"),
    "missing value": (
        (",,10,", ",,NA,"), {}, "missing value in column 'size' for 'p1'"),
    "non-numeric value": (
        (",,10,", ",,ten,"), {}, "non-numeric value 'ten' in column 'size' for 'p1'"),
    "non-numeric duration": (
        (",30,", ",a month,"), {}, "non-numeric duration 'a month' for 'p2'"),
    "infinite duration": (
        (",30,", ",inf,"), {}, "non-numeric duration 'inf' for 'p2'"),
    "negative duration": (
        (",30,", ",-5,"), {}, "negative duration '-5' for 'p2'"),
    "completion year out of range": (
        ("p1,1990,", "p1,0,"), {}, "completion year '0' for 'p1' is outside 1..9999"),
    "completion year past 9999": (
        ("p1,1990,", "p1,10000,"), {}, "completion year '10000' for 'p1' is outside 1..9999"),
    "fractional completion year": (
        ("p1,1990,", "p1,1990.0,"), {}, "unparseable date '1990.0' in column 'done'"),
    "completion past the last date": (
        (",30,", ",3e6,"), {}, "record 'p2' completes after 9999-12-31"),
    "non-finite value": (
        (",,10,", ",,1e400,"), {}, "non-finite value '1e400' in column 'size' for 'p1'"),
    "field over the csv size limit": (
        (",,10,", ',,"' + "1" * 200_000 + '",'), {},
        "line 2: field larger than field limit (131072)"),
    "non-numeric derived multiplier": (
        (",1.0,1.1,", ",x,1.1,"), {},
        "non-numeric multiplier for derived column 'eaf' in 'p1'"),
    "duplicate id": (
        ("p2,", "p1,"), {}, "duplicate project id 'p1'"),
    "unparseable start date": (
        ("1990-01-01", "1990-13-01"), {},
        "unparseable date '1990-13-01' in column 'start'"),
    "unparseable completion": (
        ("p1,1990,", "p1,199O,"), {}, "unparseable date '199O' in column 'done'"),
    "no completion": (
        ("1990-01-01", ""), {},
        "record 'p2' has no completion date and no start+duration"),
    "monthly completion without a date": (
        None,
        {"granularity": Granularity.MONTHLY, "chronology": ChronologyMode.REMAINDER_TEST},
        "record 'p1': monthly chronology needs full completion dates"),
    "expected-row mismatch": (
        None, {"expected_rows": 3}, "t: expected 3 rows after filtering, got 2"),
    "short row": (
        ("p3,1991,,,30,a,300,1.2,0.8,7", "p3,1991,,,30"), {},
        "record 'p3' (line 4) has 5 of the header's 10 fields"),
    "short row without an id": (
        ("p3,1991,,,30,a,300,1.2,0.8,7", ",1991"), {},
        "line 4 has 2 of the header's 10 fields"),
    "short row in a filter column": (
        ("0.8,7\n", "0.8\n"), {},
        "record 'p3' (line 4) has 9 of the header's 10 fields"),
    "no header": (
        (TABLE_CSV, "\n"), {}, "CSV has no header row"),
    "no records left": (
        None, {"filters": ({"column": "client", "equals": "9"},)},
        "t: no records left after filtering"),
    "unrecognized filter": (
        None, {"filters": ({"column": "client", "above": 1},)},
        "unrecognized filter: {'column': 'client', 'above': 1}"),
    "filter with two tests": (
        None, {"filters": ({"column": "client", "equals": "1", "exclude": []},)},
        "unrecognized filter: {'column': 'client', 'equals': '1', 'exclude': []}"),
}


class TestLoaderErrors:
    def test_table_csv_loads(self):
        ds = load_dataset(_table_descriptor(), TABLE_CSV)
        assert [r.id for r in ds.records] == ["p1", "p2"]
        p1, p2 = ds.records
        assert p1.completion == 1990
        assert p1.attributes == {"size": 10.0, "kind": "a", "effort": 100.0, "eaf": 1.0 * 1.1}
        assert (p2.start, p2.completion) == (date(1990, 1, 1), date(1990, 1, 31))

    def test_records_view(self):
        ds = load_dataset(_table_descriptor(), TABLE_CSV)
        records = ds.records
        assert len(records) == 2
        assert records[-1] == records[1] and records[:1] == (records[0],)
        with pytest.raises(IndexError):
            records[2]

    def test_exclude_drops_missing_values_too(self):
        text = TABLE_CSV.replace("300,1.2,0.8,7", "300,1.2,0.8,NA")
        for exclude, kept in (([], ["p1", "p2"]), (["2"], []), (["7"], ["p1", "p2"])):
            descriptor = _table_descriptor(filters=({"column": "client", "exclude": exclude},))
            if kept:
                assert list(load_dataset(descriptor, text).ids) == kept
            else:
                with pytest.raises(DataError, match="no records left"):
                    load_dataset(descriptor, text)

    def test_blank_lines_are_skipped(self):
        text = TABLE_CSV.replace("\np2,", "\n\n\np2,")
        assert load_dataset(_table_descriptor(), text) == load_dataset(
            _table_descriptor(), TABLE_CSV)

    def test_one_byte_order_mark_is_not_part_of_the_header(self):
        marked = load_dataset(_table_descriptor(), "\ufeff" + TABLE_CSV)
        assert marked == load_dataset(_table_descriptor(), TABLE_CSV)
        # a second is: the first column is then "\ufeffid"
        with pytest.raises(DataError, match="missing bound columns: id$"):
            load_dataset(_table_descriptor(), "\ufeff\ufeff" + TABLE_CSV)

    @pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
    def test_message(self, case):
        edit, fields, message = LOADER_ERRORS[case]
        text = TABLE_CSV
        if edit is not None:
            assert edit[0] in text
            text = text.replace(edit[0], edit[1], 1)
        with pytest.raises(DataError) as exc:
            load_dataset(_table_descriptor(**fields), text)
        assert str(exc.value) == message


def _read_record_by_record(descriptor, rows):
    """The records of ``rows`` (dicts of TABLE_CSV's columns), read one
    record at a time by the per-value parsers, or the error that reading
    raises first."""
    seen = set()
    records = []
    for row in rows:
        rid = row["id"].strip()
        try:
            if rid in seen:
                raise DataError(f"duplicate project id {rid!r}")
            seen.add(rid)
            start = _parse_date(row["start"], "start") if row["start"].strip() else None
            duration = None
            if row["days"].strip():
                try:
                    duration = int(round(float(row["days"])))
                except (ValueError, OverflowError):
                    raise DataError(f"non-numeric duration {row['days']!r} for {rid!r}") from None
            text = row["done"].strip()
            if text:
                completion = _parse_completion(text, "done", rid)
            elif start is None or duration is None:
                raise DataError(f"record {rid!r} has no completion date and no start+duration")
            elif duration < 0:
                raise DataError(f"negative duration {row['days']!r} for {rid!r}")
            else:
                try:
                    completion = start + timedelta(days=duration)
                except OverflowError:
                    raise DataError(f"record {rid!r} completes after 9999-12-31") from None
            if descriptor.granularity is Granularity.MONTHLY and not isinstance(completion, date):
                raise DataError(f"record {rid!r}: monthly chronology needs full completion dates")
            attributes = {}
            for col in ("effort", "size", "kind"):
                value = row[col].strip()
                if value in MISSING_TOKENS:
                    raise DataError(f"missing value in column {col!r} for {rid!r}")
                if col != "kind":
                    try:
                        value = float(value)
                    except ValueError:
                        raise DataError(
                            f"non-numeric value {value!r} in column {col!r} for {rid!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"non-finite value {row[col].strip()!r} in column {col!r} for {rid!r}"
                        )
                attributes[col] = value
            try:
                eaf = math.prod([float(row["m1"]), float(row["m2"])])
            except ValueError:
                raise DataError(
                    f"non-numeric multiplier for derived column 'eaf' in {rid!r}"
                ) from None
            if not math.isfinite(eaf):
                raise DataError(f"non-finite product for derived column 'eaf' in {rid!r}")
            attributes["eaf"] = eaf
        except DataError as exc:
            return exc
        records.append(ProjectRecord(rid, completion, attributes, start))
    return tuple(records)


def _key(completion, granularity):
    """A completion's period by the per-record formula: its year, or its
    absolute month."""
    if not isinstance(completion, date):
        return completion
    if granularity is Granularity.YEARLY:
        return completion.year
    return completion.year * 12 + completion.month - 1


def _cells(*fixed):
    return stn.one_of(stn.sampled_from(fixed), stn.text(max_size=4))


_NUMBER_TEXTS = _cells(
    "1", "2.5", " 7 ", "+5", "-3", "1_994", "1__2", "١٢", "１２", "0x10", "1e5", "1e400",
    "-1e400", "nan", "inf", "-inf", "Infinity", "NA", "?", "", "ten", "1e", "1e-320", "12\x00",
)
_DATE_TEXTS = _cells(
    "", "1999", "2001", "85", "1_994", "+1994", " 1994 ", "١٩٩٤", "199O", "2001-03-04",
    "2001-02-29", "2000-02-29", "0000-01-01", "9999-12-31", "2001-1-5", " 2001-03-04 ",
    "２００１-０１-０５", "+001-01-01", "-001-01-01", "04/03/2001", "04/03/01", "04-Mar-01",
    "12345678901234567890", "NaT", "2001-W01-1", "20010304", "0", "-1994", "9999", "10000",
)
# ISO-shaped texts, most of them dates numpy reads
_ISO_LIKE = stn.one_of(
    stn.just(""),
    stn.dates().map(date.isoformat),
    stn.sampled_from(["0000-01-01", "2001-02-29", "2001-00-10", "٢٠٠١-٠١-٠٥", "２００１-０１-０５",
                      "+001-01-01", "-001-01-01", "2001-1-05 ", "NaT", "2001-01-0x"]),
    stn.text("0123456789-+٠ T", min_size=10, max_size=10),
)
# Cell texts for each TABLE_CSV column, hostile ones included
_TABLE_CELLS = {
    "id": _cells("a", "b", "c", "a\x00", " a", "b "),
    "done": _DATE_TEXTS,
    "start": _DATE_TEXTS,
    "days": _cells(
        "", "30", "30.5", "0.5", "-0.4", "-5", "1e12", "3e6", " 12 ", "nan", "x", "0\x1f",
    ),
    "size": _NUMBER_TEXTS,
    "kind": _cells("a", "b", "", "NA", " a "),
    "effort": _NUMBER_TEXTS,
    "m1": _NUMBER_TEXTS,
    "m2": _cells("1.1", "0.9", "1e200", "1e308", "inf", "x", ""),
}
_DAYS = stn.dates(date(1990, 1, 1), date(1995, 12, 31))


@stn.composite
def _table_rows(draw):
    """Valid TABLE_CSV rows with up to three cells replaced by any text
    of their column, so most examples test one conversion at a time."""
    ids = draw(stn.lists(
        stn.sampled_from(["a", "b", "c", "d", "e", "a\x00", " f", "g "]),
        min_size=1, max_size=6, unique_by=str.strip,
    ))
    rows = [
        {
            "id": rid,
            "done": draw(stn.one_of(
                _DAYS.map(date.isoformat), stn.integers(1990, 1995).map(str), stn.just(""),
            )),
            "start": draw(stn.one_of(
                stn.just(""), _DAYS.map(date.isoformat),
                _DAYS.map(lambda d: d.strftime("%d/%m/%Y")),
            )),
            "days": draw(stn.one_of(stn.just(""), stn.integers(0, 400).map(str))),
            "size": repr(draw(stn.floats(0.1, 1e6))),
            "kind": draw(stn.sampled_from("ab")),
            "effort": repr(draw(stn.floats(0.1, 1e6))),
            "m1": repr(draw(stn.floats(0.5, 2.0))),
            "m2": repr(draw(stn.floats(0.5, 2.0))),
        }
        for rid in ids
    ]
    for _ in range(draw(stn.integers(0, 3))):
        column = draw(stn.sampled_from(sorted(_TABLE_CELLS)))
        draw(stn.sampled_from(rows))[column] = draw(_TABLE_CELLS[column])
    return rows


def _row(rid, **cells):
    """A valid TABLE_CSV row with ``cells`` replaced."""
    row = {"id": rid, "done": "1990", "start": "", "days": "", "size": "1.0",
           "kind": "a", "effort": "1.0", "m1": "1.0", "m2": "1.0"}
    return {**row, **cells}


class TestColumnarConversions:
    """Whole-column conversions accept and reject exactly what the
    per-value parsers do, record by record, with the same error."""

    @settings(max_examples=300, deadline=None)
    @given(_table_rows(), stn.sampled_from(Granularity))
    # str.strip removes \x1f, which float() refuses
    @example([_row("a", days="0\x1f")], Granularity.YEARLY)
    # two refusals compete: the earlier record's, then its first check
    @example([_row("a", m1="x"), _row("b", start="1990-13-01")], Granularity.YEARLY)
    @example([_row("a", days="x", size="ten")], Granularity.YEARLY)
    @example([_row("a", done=""), _row("b"), _row("a")], Granularity.YEARLY)
    @example(
        [_row("a"), _row("b", done="1990-02-03", size="NA")], Granularity.MONTHLY,
    )
    def test_match_the_record_by_record_reading(self, rows, granularity):
        descriptor = _table_descriptor(filters=(), granularity=granularity)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_TABLE_CELLS)
        for row in rows:
            writer.writerow([row[c] for c in _TABLE_CELLS])
        expected = _read_record_by_record(descriptor, rows)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as exc:
                load_dataset(descriptor, buf.getvalue())
            assert str(exc.value) == str(expected)
        else:
            ds = load_dataset(descriptor, buf.getvalue())
            assert tuple(ds.records) == expected
            assert ds.keys.tolist() == [_key(r.completion, granularity) for r in expected]

    @settings(max_examples=300)
    @given(stn.lists(_ISO_LIKE, min_size=1, max_size=4))
    def test_iso_days_read_what_parse_date_reads(self, texts):
        days = _iso_days(texts)
        if days is not None:
            assert days.tolist() == [_parse_date(t, "c") if t else None for t in texts]

    @settings(max_examples=300)
    @given(stn.lists(_NUMBER_TEXTS.map(str.strip), min_size=1, max_size=4))
    def test_finite_floats_read_what_float_reads(self, texts):
        def finite(text):
            try:
                return math.isfinite(float(text))
            except ValueError:
                return False

        values = _finite_floats(texts)
        if all(map(finite, texts)):
            assert [v.hex() for v in values.tolist()] == [float(t).hex() for t in texts]
        else:
            assert values is None

    @settings(max_examples=300)
    @given(stn.lists(_DATE_TEXTS.map(str.strip), min_size=1, max_size=4))
    def test_year_columns_read_what_int_reads(self, texts):
        parsed = _whole_completions(texts)
        if parsed is not None and parsed[1] is not None:
            assert parsed[1].tolist() == [int(t) for t in texts]
            assert all(1 <= y <= 9999 for y in parsed[1].tolist())  # the years a date holds


def _edited_synth_csv(tmp_path, edits):
    """A synth CSV (id,year,effort,size) with ``edits``, a map from a
    data row's index to its new fields, and its descriptor path."""
    dataset = synthesize(SynthConfig(seed=3, n_projects=40, n_periods=4))
    data = tmp_path / "synth.csv"
    data.write_bytes(csv_text(dataset).encode("utf-8"))
    descriptor = tmp_path / "synth.descriptor.json"
    descriptor.write_text(dataset.descriptor.to_json())
    header, *rows = data.read_text().splitlines()
    for i, fields in edits.items():
        rows[i] = ",".join(fields(rows[i].split(",")))
    data.write_text("\n".join([header, *rows]) + "\n")
    return data, descriptor


class TestConversionEdges:
    """Inputs where numpy alone reads differently from the per-value
    parsers, pinned to what those parsers do."""

    def test_year_zero_is_an_unparseable_date(self, tmp_path, capsys):
        # numpy reads 0000-01-01; date.fromisoformat does not
        data, desc = _edited_synth_csv(tmp_path, {0: lambda f: [f[0], "0000-01-01", *f[2:]]})
        assert main(["validate", "--descriptor", str(desc), "--data", str(data)]) == 2
        assert capsys.readouterr().err == (
            "driftscope: unparseable date '0000-01-01' in column 'year'\n"
        )

    def test_twenty_digit_year_is_a_year(self, tmp_path, capsys):
        # int() reads it; it is a year no date holds, refused at load
        year = "12345678901234567890"
        data, desc = _edited_synth_csv(tmp_path, {0: lambda f: [f[0], year, *f[2:]]})
        out = tmp_path / "out"
        assert main(["sweep", "--descriptor", str(desc), "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"driftscope: completion year {year!r} for 'p0000' is outside 1..9999\n"
        )
        assert not out.exists()

    def test_ids_differing_by_a_trailing_nul_are_distinct(self, tmp_path):
        # a numpy str array would read "p0001\x00" as "p0001"
        data, desc = _edited_synth_csv(tmp_path, {
            0: lambda f: ["p0001\x00", *f[1:]],
            1: lambda f: ["p0001", *f[1:]],
        })
        descriptor = DatasetDescriptor.from_json(desc.read_text())
        ds = load_dataset(descriptor, data.read_bytes().decode("utf-8"))
        assert [r.id for r in ds.records[:2]] == ["p0001\x00", "p0001"]
        plan = build_split_plan(ds)
        assert plan.splits[-1].train_ids[:2] == ("p0001", "p0001\x00")  # one period

    def test_values_both_readings_accept(self, tmp_path):
        data, desc = _edited_synth_csv(tmp_path, {
            0: lambda f: [f[0], "2_000", " +1_5.5 ", f[3]],
            1: lambda f: [f[0], "+2000", "١٢", " ７ "],
            2: lambda f: [f[0], " 2001 ", "1e2", "+0.5"],
        })
        descriptor = DatasetDescriptor.from_json(desc.read_text())
        ds = load_dataset(descriptor, data.read_bytes().decode("utf-8"))
        got = [(r.completion, r.attributes["effort"]) for r in ds.records[:3]]
        assert got == [(2000, 15.5), (2000, 12.0), (2001, 100.0)]
        assert ds.records[1].attributes["size"] == 7.0
        assert ds.keys[:3].tolist() == [2000, 2000, 2001]


class TestRecordReading:
    """The loader reads a column one value at a time only where its
    whole-column conversion refuses it, which valid input meets only in
    day-first dates and mixed completions, and that reading is linear
    in the records."""

    @pytest.mark.parametrize("name", [*BUILTIN_NAMES, "synth"])
    def test_valid_input_never_reaches_it(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("valid input was read one value at a time")

        for parser in ("_parse_duration", "_parse_attribute", "_parse_product"):
            monkeypatch.setattr(datasets, parser, refuse)
        if name == "synth":
            dataset = synthesize(SynthConfig(seed=1))
            descriptor, text = dataset.descriptor, csv_text(dataset)
        else:  # day-first kitchenham, maxwell's years and start dates, ISO xbc
            descriptor = builtin_descriptor(name)
            data = Path(__file__).parent / "golden" / f"{name}_seed1" / "data.csv"
            text = data.read_bytes().decode("utf-8")
        assert len(load_dataset(descriptor, text).ids) == descriptor.expected_rows

    def test_an_error_in_the_last_of_many_records(self):
        dataset = synthesize(SynthConfig(seed=1, n_projects=20_000, n_periods=20))
        header, *rows = csv_text(dataset).splitlines()
        fields = rows[-1].split(",")
        fields[header.split(",").index("size")] = "ten"
        text = "\n".join([header, *rows[:-1], ",".join(fields)]) + "\n"
        began = time.perf_counter()
        with pytest.raises(DataError) as exc:
            load_dataset(dataset.descriptor, text)
        # well under a second read linearly; tens of seconds read quadratically
        assert time.perf_counter() - began < 10
        assert str(exc.value) == "non-numeric value 'ten' in column 'size' for 'p19999'"


_TEXT = stn.text(
    stn.characters(min_codepoint=32, max_codepoint=0x24F, blacklist_characters="\x7f"),
    min_size=1, max_size=8,
).map(str.strip).filter(lambda s: s and s not in MISSING_TOKENS)


@stn.composite
def _datasets(draw):
    """A dataset loaded from CSV text, and each row's completion: an int
    year or a date."""
    granularity = draw(stn.sampled_from(Granularity))
    if granularity is Granularity.MONTHLY:
        completion = stn.dates(date(1990, 1, 1), date(1992, 12, 31))
    else:  # year-only, full dates, or both in one file
        completion = draw(stn.sampled_from([
            stn.integers(1985, 1990),
            stn.dates(date(1985, 1, 1), date(1990, 12, 31)),
            stn.one_of(stn.integers(1985, 1990), stn.dates(date(1985, 1, 1), date(1990, 12, 31))),
        ]))
    # few periods for many records, so ids collide within a period
    periods = draw(stn.lists(completion, min_size=1, max_size=3))
    ids = draw(stn.lists(_TEXT, min_size=1, max_size=12, unique=True))
    finite = stn.floats(allow_nan=False, allow_infinity=False, width=64)
    rows = [
        (rid, draw(stn.sampled_from(periods)), draw(finite), draw(_TEXT), draw(finite))
        for rid in ids
    ]
    descriptor = DatasetDescriptor(
        name="roundtrip",
        granularity=granularity,
        chronology=ChronologyMode.YEAR_ACCUMULATE,
        columns={"id": "id", "completion": "done"},
        formula=ModelFormula(
            response="effort",
            terms=(Term("size"), Term("kind", kind="categorical", reference="a")),
        ),
    )
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["id", "done", "size", "kind", "effort"])
    writer.writerows(rows)
    return load_dataset(descriptor, text.getvalue()), [row[1] for row in rows]


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_datasets())
    def test_write_then_load_gives_the_sorted_records(self, case):
        """The loader keeps the written order; only the split plan sorts."""
        dataset, completions = case
        # the loader's columnar period keys are the per-record formula's
        g = dataset.descriptor.granularity
        assert dataset.keys.tolist() == [_key(c, g) for c in completions]
        assert np.isnat(dataset.done).tolist() == [not isinstance(c, date) for c in completions]
        assert load_dataset(dataset.descriptor, csv_text(dataset)) == dataset


def _strptime_date(text):
    """The strptime loop over every format, written out: the reference."""
    text = text.strip()
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def _date_texts():
    digits = stn.text("0123456789", min_size=1, max_size=5)
    some = stn.text(min_size=0, max_size=3)
    parts = stn.tuples(digits, stn.sampled_from("-/ ٠"), digits, stn.sampled_from("-/"), digits)
    return stn.one_of(
        # valid dates, in every format the loader reads
        stn.builds(
            lambda d, fmt: d.strftime(fmt),
            stn.dates(date(1000, 1, 1), date(9999, 12, 31)),
            stn.sampled_from(_DATE_FORMATS),
        ),
        # ISO-shaped text: out-of-range fields, no zero padding, odd separators
        parts.map("".join),
        stn.builds(lambda a, t, b: a + t + b, some, stn.dates().map(date.isoformat), some),
        stn.sampled_from(["2001-02-29", "0000-01-01", "2001-1-5", " 2001-01-05 ",
                          "2001-01-05\n", "２００１-０１-０５", "٢٠٠١-٠١-٠٥",
                          "20010105", "2001-W01-1", "2001-01-5 ", "2001-+1-05"]),
    )


class TestParseDate:
    @settings(max_examples=500)
    @given(_date_texts())
    def test_matches_the_strptime_loop(self, text):
        expected = _strptime_date(text)
        if expected is None:
            with pytest.raises(DataError, match="unparseable date"):
                _parse_date(text, "c")
        else:
            assert _parse_date(text, "c") == expected

    def test_iso_date(self):
        assert _parse_date("2003-02-13", "c") == date(2003, 2, 13)
        with pytest.raises(DataError):
            _parse_date("2003-02-30", "c")


class TestSynthesize:
    def test_same_seed_identical(self):
        a = synthesize(SynthConfig(seed=99))
        b = synthesize(SynthConfig(seed=99))
        assert a == b

    def test_different_seed_differs(self):
        assert synthesize(SynthConfig(seed=1)) != synthesize(SynthConfig(seed=2))

    def test_noiseless_process_is_exactly_recoverable(self):
        config = SynthConfig(seed=4, noise_sd=0.0, intercept=1.5, slope=0.8)
        ds = synthesize(config)
        design = build_design_matrix(ds.attributes, ds.descriptor.formula)
        coefficients = weighted_least_squares(design, [1.0] * len(ds.records))
        assert coefficients == pytest.approx([1.5, 0.8], abs=1e-9)

    def test_every_period_populated(self):
        ds = synthesize(SynthConfig(seed=7, n_periods=8))
        assert len({r.completion for r in ds.records}) == 8

    def test_infeasible_config(self):
        with pytest.raises(ValueError):
            synthesize(SynthConfig(n_projects=4, n_periods=2))

    def test_round_trips_through_csv(self):
        config = SynthConfig(seed=12)
        ds = synthesize(config)
        assert ds.descriptor == synth_descriptor(config)
        assert load_dataset(ds.descriptor, csv_text(ds)) == ds

    def test_config_json_round_trip(self):
        config = SynthConfig(seed=5, intercept_drift=0.25)
        assert SynthConfig.from_json(config.to_json()) == config

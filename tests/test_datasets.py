import math
import tempfile
from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as stn

from driftscope.chronology import ChronologyMode
from driftscope.datasets import (
    _DATE_FORMATS,
    BUILTIN_NAMES,
    MISSING_TOKENS,
    DataError,
    Dataset,
    DatasetDescriptor,
    ProjectRecord,
    SynthConfig,
    builtin_descriptor,
    load_dataset,
    synth_descriptor,
    synthesize,
    write_csv,
    _parse_date,
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

    def test_every_source_kind_gives_the_same_dataset(self, tmp_path):
        path = tmp_path / "desharnais.csv"
        path.write_text(DESHARNAIS_LIKE_CSV, encoding="utf-8")
        descriptor = self._descriptor()
        expected = load_dataset(descriptor, DESHARNAIS_LIKE_CSV)
        assert load_dataset(descriptor, path) == expected
        assert load_dataset(descriptor, str(path)) == expected
        with open(path, newline="", encoding="utf-8") as fh:
            assert load_dataset(descriptor, fh) == expected
            assert not fh.closed  # the caller's file stays open
        assert len(expected.records) == 4

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

    def test_completion_from_start_plus_duration(self):
        csv_text = (
            "Project,Actual.start.date,Actual.duration,"
            "Adjusted.function.points,Project.type,Actual.effort,Client.code\n"
            "1,1994-06-01,100,120,D,900,2\n"
            "2,1994-08-01,60,80,P,500,2\n"
            "3,1995-01-15,30,60,D,400,6\n"
        )
        d = builtin_descriptor("kitchenham")
        d = DatasetDescriptor(
            name=d.name, granularity=d.granularity, chronology=d.chronology,
            columns=d.columns, formula=d.formula, filters=d.filters,
            expected_rows=2,
        )
        ds = load_dataset(d, csv_text)
        assert ds.records[0].completion == date(1994, 9, 9)
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
}


class TestLoaderErrors:
    def test_table_csv_loads(self):
        ds = load_dataset(_table_descriptor(), TABLE_CSV)
        assert [r.id for r in ds.records] == ["p1", "p2"]
        p1, p2 = ds.records
        assert p1.completion == 1990
        assert p1.attributes == {"size": 10.0, "kind": "a", "effort": 100.0, "eaf": 1.0 * 1.1}
        assert (p2.start, p2.completion) == (date(1990, 1, 1), date(1990, 1, 31))

    def test_blank_lines_are_skipped(self):
        text = TABLE_CSV.replace("\np2,", "\n\n\np2,")
        assert load_dataset(_table_descriptor(), text) == load_dataset(
            _table_descriptor(), TABLE_CSV)

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


_TEXT = stn.text(
    stn.characters(min_codepoint=32, max_codepoint=0x24F, blacklist_characters="\x7f"),
    min_size=1, max_size=8,
).map(str.strip).filter(lambda s: s and s not in MISSING_TOKENS)


@stn.composite
def _datasets(draw):
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
    finite = stn.floats(allow_nan=False, width=64)
    records = tuple(
        ProjectRecord(
            id=rid,
            completion=draw(stn.sampled_from(periods)),
            attributes={"size": draw(finite), "kind": draw(_TEXT), "effort": draw(finite)},
        )
        for rid in ids
    )
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
    return Dataset(descriptor, records)


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_datasets())
    def test_write_then_load_gives_the_sorted_records(self, dataset):
        """The loader keeps the written order; only the split plan sorts."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            write_csv(dataset, path)
            loaded = load_dataset(dataset.descriptor, path)
        assert loaded == dataset
        assert [type(r.completion) for r in loaded.records] == [
            type(r.completion) for r in dataset.records
        ]


def _strptime_date(text):
    """The date loop alone, without the ISO fast path: the reference."""
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
        rows = [r.attributes for r in ds.records]
        design = build_design_matrix(rows, ds.descriptor.formula)
        model = weighted_least_squares(design, [1.0] * len(rows))
        assert model.coefficients == pytest.approx([1.5, 0.8], abs=1e-9)

    def test_every_period_populated(self):
        ds = synthesize(SynthConfig(seed=7, n_periods=8))
        assert len({r.completion for r in ds.records}) == 8

    def test_infeasible_config(self):
        with pytest.raises(ValueError):
            synthesize(SynthConfig(n_projects=4, n_periods=2))

    def test_round_trips_through_csv(self, tmp_path):
        config = SynthConfig(seed=12)
        ds = synthesize(config)
        assert ds.descriptor == synth_descriptor(config)
        path = tmp_path / "synth.csv"
        write_csv(ds, path)
        assert load_dataset(ds.descriptor, str(path)) == ds

    def test_config_json_round_trip(self):
        config = SynthConfig(seed=5, intercept_drift=0.25)
        assert SynthConfig.from_json(config.to_json()) == config

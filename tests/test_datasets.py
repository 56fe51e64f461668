import math
from datetime import date, datetime

import pytest
from hypothesis import given, settings, strategies as stn

from driftscope.chronology import ChronologyMode
from driftscope.datasets import (
    _DATE_FORMATS,
    BUILTIN_NAMES,
    DataError,
    DatasetDescriptor,
    SynthConfig,
    builtin_descriptor,
    load_dataset,
    synth_descriptor,
    synthesize,
    write_csv,
    _parse_date,
)
from driftscope.kernels import Granularity
from driftscope.stats import weighted_least_squares, build_design_matrix


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
        design = build_design_matrix(rows, ds.formula)
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
        descriptor = synth_descriptor(config)
        path = tmp_path / "synth.csv"
        write_csv(ds, descriptor, path)
        reloaded = load_dataset(descriptor, str(path))
        assert [r.id for r in reloaded.records] == [r.id for r in ds.records]
        for a, b in zip(reloaded.records, ds.records):
            assert a.completion == b.completion
            assert a.attributes["size"] == b.attributes["size"]
            assert a.attributes["effort"] == b.attributes["effort"]

    def test_config_json_round_trip(self):
        config = SynthConfig(seed=5, intercept_drift=0.25)
        assert SynthConfig.from_json(config.to_json()) == config

from datetime import date

import pytest
from hypothesis import given, strategies as stn

from driftscope.chronology import (
    ChronologyMode,
    SplitError,
    build_split_plan,
    completion_date,
    well_formed_min,
)
from driftscope.datasets import Dataset, DatasetDescriptor, ProjectRecord
from driftscope.kernels import Granularity, period_key
from driftscope.stats import LOG, ModelFormula, Term, build_design_matrix


def _formula(*terms):
    return ModelFormula(response="effort", terms=terms)


def _plan(records, granularity, mode, formula, overrides=None):
    """The split plan of ``records`` under a descriptor of that shape."""
    descriptor = DatasetDescriptor(
        name="t", granularity=granularity, chronology=mode, columns={"id": "id"},
        formula=formula, overrides=None if overrides is None else tuple(overrides),
    )
    return build_split_plan(Dataset.from_records(descriptor, records))


def _columns(records):
    """The records' attributes, one list per attribute."""
    return {name: [r.attributes[name] for r in records] for name in records[0].attributes}


ONE_TERM = _formula(Term("size", transform=LOG))


def _yearly(spec):
    """spec: list of (year, n_projects)."""
    records = []
    i = 0
    for year, n in spec:
        for _ in range(n):
            records.append(
                ProjectRecord(
                    id=f"r{i:03d}",
                    completion=year,
                    attributes={"size": 10.0 + i, "effort": 100.0 + i},
                )
            )
            i += 1
    return records


def _monthly(n=16, start=(1999, 10)):
    """Two records a month from ``start``."""
    records = []
    y, m = start
    for i in range(n):
        records.append(
            ProjectRecord(
                id=f"m{i:02d}",
                completion=date(y, m, 1 + (i % 27)),
                attributes={"org_effort": 50.0 + i, "total_effort": 60.0 + i},
            )
        )
        if i % 2:
            m += 1
            if m > 12:
                m, y = 1, y + 1
    return records


@stn.composite
def _categorical_rows(draw):
    """Columns, a numeric and a categorical one, and a formula whose
    categorical term may declare its levels; the reference level may be
    absent from the values, and declared levels may miss some of them."""
    values = draw(stn.lists(stn.sampled_from("abcd"), min_size=1, max_size=12))
    reference = draw(stn.sampled_from("abcd"))
    levels = draw(stn.none() | stn.lists(stn.sampled_from("abcde"), unique=True).map(tuple))
    n = len(values)
    columns = {"effort": [1.0 + i for i in range(n)], "size": [2.0 + i for i in range(n)], "lang": values}
    formula = _formula(
        Term("size", transform=LOG),
        Term("lang", kind="categorical", reference=reference, levels=levels),
    )
    return formula, columns


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestWellFormedMin:
    def test_single_numeric_term(self):
        assert well_formed_min(ONE_TERM, {}) == 3

    def test_three_numeric_terms(self):
        assert well_formed_min(_formula(Term("a"), Term("b"), Term("c")), {}) == 5

    def test_dummy_columns_count_separately(self):
        f = _formula(
            Term("size", transform=LOG),
            Term("lang", kind="categorical", reference="1", levels=("1", "2", "3")),
        )
        assert well_formed_min(f, {"lang": ["2"]}) == 5

    def test_undeclared_levels_resolved_from_data(self):
        f = _formula(Term("lang", kind="categorical", reference="1"))
        assert well_formed_min(f, {"lang": ["1", "2", "3", "1"]}) == 4

    @given(_categorical_rows())
    def test_counts_the_design_columns(self, case):
        formula, columns = case
        wmin = _outcome(well_formed_min, formula, columns)
        design = _outcome(build_design_matrix, columns, formula)
        if isinstance(design, str):
            assert wmin == design  # the same error from both
        else:
            assert wmin == 1 + design.n_columns


class TestCompletionDate:
    def test_zero_duration(self):
        assert completion_date(date(1994, 1, 1), 0) == date(1994, 1, 1)

    def test_year_rollover(self):
        assert completion_date(date(1994, 12, 31), 1) == date(1995, 1, 1)

    def test_leap_year(self):
        assert completion_date(date(1996, 2, 28), 1) == date(1996, 2, 29)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            completion_date(date(1994, 1, 1), -1)


def _check_invariants(plan, records, formula):
    wmin = well_formed_min(formula, _columns(records))
    all_ids = {r.id for r in records}
    prev_train = None
    for split in plan.splits:
        train = set(split.train_ids)
        test = set(split.test_ids)
        assert train and not train & test
        assert len(train) >= wmin
        if test:
            assert len(test) >= 2
            assert max(split.train_indices) <= min(split.test_indices)
        if prev_train is not None:
            assert prev_train < train
        prev_train = train
    final = plan.splits[-1]
    assert not final.test_ids
    assert set(final.train_ids) == all_ids


class TestYearAccumulate:
    def test_basic_plan(self):
        records = _yearly([(1979, 3), (1980, 4), (1982, 2), (1983, 5)])
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, ONE_TERM
        )
        _check_invariants(plan, records, ONE_TERM)
        # empty 1981 is skipped: training through 1980 tests 1982
        assert len(plan.splits) == 4
        second = plan.splits[1]
        assert len(second.train_ids) == 7
        assert second.target == 4.0  # 1982 with oldest year 1979

    def test_first_training_accumulates_to_minimum(self):
        f = _formula(Term("a"), Term("b"), Term("c"))  # needs 5
        records = _yearly([(1990, 2), (1991, 2), (1992, 3), (1993, 2)])
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, f
        )
        assert len(plan.splits[0].train_ids) == 7  # 1990+1991 too small, add 1992

    def test_singleton_test_year_merges_forward(self):
        records = _yearly([(1990, 4), (1991, 1), (1992, 3)])
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, ONE_TERM
        )
        # 1991 has one project: no evaluation, but it joins later training
        assert len(plan.splits) == 2
        assert len(plan.splits[0].train_ids) == 5
        assert set(plan.splits[0].test_ids) == {r.id for r in records if r.completion == 1992}

    def test_too_few_records(self):
        with pytest.raises(SplitError):
            _plan(
                _yearly([(1990, 2)]),
                Granularity.YEARLY,
                ChronologyMode.YEAR_ACCUMULATE,
                ONE_TERM,
            )

    def test_deterministic_serialization(self):
        records = _yearly([(1979, 3), (1980, 4), (1982, 2), (1983, 5)])
        a = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, ONE_TERM
        )
        b = _plan(
            list(reversed(records)),
            Granularity.YEARLY,
            ChronologyMode.YEAR_ACCUMULATE,
            ONE_TERM,
        )
        assert a.to_rows() == b.to_rows()


class TestDateFilteredTest:
    def _dated(self, spec):
        """spec: (year, month, day, start_year, start_month, start_day)."""
        records = []
        for i, (y, m, d, sy, sm, sd) in enumerate(spec):
            records.append(
                ProjectRecord(
                    id=f"d{i:03d}",
                    completion=date(y, m, d),
                    start=date(sy, sm, sd),
                    attributes={"size": 20.0 + i, "effort": 300.0 + i},
                )
            )
        return records

    def test_test_set_filtered_by_start_date(self):
        records = self._dated(
            [
                (1994, 6, 1, 1994, 1, 1),
                (1994, 8, 1, 1994, 2, 1),
                (1994, 11, 30, 1994, 3, 1),
                # started before the last 1994 completion: excluded from test
                (1995, 3, 1, 1994, 10, 1),
                (1995, 5, 1, 1994, 12, 15),
                (1995, 8, 1, 1995, 1, 10),
                (1996, 2, 1, 1995, 9, 1),
                (1996, 6, 1, 1995, 10, 1),
            ]
        )
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.DATE_FILTERED_TEST, ONE_TERM
        )
        first = plan.splits[0]
        assert set(first.test_ids) == {"d004", "d005"}

    def test_subset_of_year_accumulate_tests(self):
        records = self._dated(
            [
                (1994, 6, 1, 1994, 1, 1),
                (1994, 8, 1, 1994, 2, 1),
                (1994, 11, 30, 1994, 3, 1),
                (1995, 3, 1, 1994, 10, 1),
                (1995, 5, 1, 1994, 12, 15),
                (1995, 8, 1, 1995, 1, 10),
                (1996, 2, 1, 1995, 9, 1),
                (1996, 6, 1, 1995, 10, 1),
            ]
        )
        filtered = _plan(
            records, Granularity.YEARLY, ChronologyMode.DATE_FILTERED_TEST, ONE_TERM
        )
        plain = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, ONE_TERM
        )
        plain_tests = {min(s.test_indices): set(s.test_ids) for s in plain.splits if s.test_ids}
        for s in filtered.splits:
            if s.test_ids:
                assert set(s.test_ids) <= plain_tests[min(s.test_indices)]

    def test_start_on_last_training_completion_is_excluded(self):
        # A test project must start strictly after the last training
        # project completed.
        records = self._dated(
            [
                (1994, 6, 1, 1994, 1, 1),
                (1994, 8, 1, 1994, 2, 1),
                (1994, 11, 30, 1994, 3, 1),
                (1995, 3, 1, 1994, 11, 30),  # starts the day training ends
                (1995, 5, 1, 1994, 12, 1),
                (1995, 8, 1, 1995, 1, 10),
            ]
        )
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.DATE_FILTERED_TEST, ONE_TERM
        )
        assert plan.splits[0].test_ids == ("d004", "d005")

    def test_year_only_completions_end_their_year(self):
        # Integer completion years, as maxwell publishes them, end on 31
        # December: a project tests after a training set that completed
        # in year Y only if it started after Y.
        spec = [  # (completion year, start year, start month)
            (1994, 1994, 1), (1994, 1994, 3), (1994, 1994, 5),
            (1995, 1994, 9), (1995, 1995, 1), (1995, 1995, 2),
            (1996, 1995, 6), (1996, 1996, 4), (1996, 1996, 5),
        ]
        records = [
            ProjectRecord(
                id=f"y{i:03d}",
                completion=year,
                start=date(sy, sm, 1),
                attributes={"size": 20.0 + i, "effort": 300.0 + i},
            )
            for i, (year, sy, sm) in enumerate(spec)
        ]
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.DATE_FILTERED_TEST, ONE_TERM
        )
        assert plan.splits[0].train_ids == ("y000", "y001", "y002")
        assert plan.splits[0].test_ids == ("y004", "y005")
        assert plan.splits[1].test_ids == ("y007", "y008")


class TestRemainderTest:
    def test_overrides_produce_expected_splits(self):
        records = _monthly()
        f = ModelFormula(response="total_effort", terms=(Term("org_effort", transform=LOG),))
        plan = _plan(
            records,
            Granularity.MONTHLY,
            ChronologyMode.REMAINDER_TEST,
            f,
            overrides=[7, 10, 12, 13, 14],
        )
        sizes = [len(s.train_ids) for s in plan.splits]
        assert sizes == [7, 10, 12, 13, 14, 16]
        for s in plan.splits[:-1]:
            assert set(s.train_ids) | set(s.test_ids) == {r.id for r in records}

    def test_without_overrides_each_split_is_well_formed(self):
        records = _monthly()
        f = ModelFormula(response="total_effort", terms=(Term("org_effort", transform=LOG),))
        plan = _plan(
            records, Granularity.MONTHLY, ChronologyMode.REMAINDER_TEST, f
        )
        _check_invariants(plan, records, f)
        for s in plan.splits[:-1]:
            # remainder = everything not in training
            assert set(s.train_ids) | set(s.test_ids) == {r.id for r in records}

    def test_override_below_minimum_rejected(self):
        records = _monthly()
        f = ModelFormula(response="total_effort", terms=(Term("org_effort", transform=LOG),))
        with pytest.raises(SplitError):
            _plan(
                records,
                Granularity.MONTHLY,
                ChronologyMode.REMAINDER_TEST,
                f,
                overrides=[2, 10],
            )


class TestTargetPeriod:
    def test_test_bearing_split(self):
        records = _yearly([(1990, 4), (1992, 3)])
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, ONE_TERM
        )
        assert plan.splits[0].target == 3.0

    def test_all_data_split_is_one_increment_past(self):
        records = _yearly([(1990, 4), (1992, 3)])
        plan = _plan(
            records, Granularity.YEARLY, ChronologyMode.YEAR_ACCUMULATE, ONE_TERM
        )
        assert plan.splits[-1].target == 4.0

    def test_monthly_increment(self):
        f = ModelFormula(response="total_effort", terms=(Term("org_effort", transform=LOG),))
        plan = _plan(
            _monthly(), Granularity.MONTHLY, ChronologyMode.REMAINDER_TEST, f
        )
        # eight months, 1999-10 .. 2000-05, at indices 0.1 .. 0.8
        assert plan.splits[0].target == min(plan.splits[0].test_indices)
        assert plan.splits[-1].target == 0.9


_COMPLETION = {
    Granularity.YEARLY: stn.one_of(
        stn.integers(1980, 1990), stn.dates(date(1980, 1, 1), date(1990, 12, 31))
    ),
    Granularity.MONTHLY: stn.dates(date(1980, 1, 1), date(1982, 12, 31)),
}


@stn.composite
def _records(draw):
    granularity = draw(stn.sampled_from(Granularity))
    completions = draw(stn.lists(_COMPLETION[granularity], min_size=8, max_size=40))
    return granularity, [
        ProjectRecord(
            id=f"r{draw(stn.integers(0, 99)):02d}-{i}",
            completion=c,
            attributes={"size": 10.0 + i, "effort": 100.0 + i},
        )
        for i, c in enumerate(completions)
    ]


def _per_record_indices(completions, granularity):
    """Each record's own period index, from its year or absolute month."""
    if granularity is Granularity.YEARLY:
        years = [c.year if isinstance(c, date) else c for c in completions]
        return [float(1 + y - min(years)) for y in years]
    months = [c.year * 12 + c.month - 1 for c in completions]
    return [round(0.1 * (1 + m - min(months)), 10) for m in months]


class TestPlanOrder:
    @given(_records())
    def test_records_sorted_by_period_then_id_with_their_indices(self, case):
        granularity, records = case
        plan = _plan(
            records, granularity, ChronologyMode.REMAINDER_TEST, ONE_TERM,
            overrides=[len(records) - 2],
        )
        expected = sorted(records, key=lambda r: (period_key(r.completion, granularity), r.id))
        assert [records[i] for i in plan.order] == expected
        assert plan.splits[-1].train_ids == tuple(r.id for r in expected)
        assert [x.hex() for x in plan.indices.tolist()] == [
            x.hex() for x in _per_record_indices([r.completion for r in expected], granularity)
        ]

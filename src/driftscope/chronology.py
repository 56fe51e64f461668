# Sequential-accumulation split plans: training sets grow by whole
# completion periods, each followed by a chronologically later test set.
# Three variants cover the datasets supported here:
#   YEAR_ACCUMULATE  - test = next project-bearing completion year
#   DATE_FILTERED_TEST - as above, but test projects must have started
#                        after the last training project completed
#   REMAINDER_TEST   - monthly accumulation, test = everything left over

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from enum import Enum
from itertools import accumulate

import numpy as np

from .kernels import Granularity, period_index, period_key
from .stats import ModelFormula, dummy_levels

__all__ = [
    "ChronologyMode",
    "Split",
    "SplitPlan",
    "SplitError",
    "well_formed_min",
    "completion_date",
    "build_split_plan",
]


class ChronologyMode(Enum):
    YEAR_ACCUMULATE = "year_accumulate"
    DATE_FILTERED_TEST = "date_filtered_test"
    REMAINDER_TEST = "remainder_test"


class SplitError(ValueError):
    """No admissible split plan for the given data and formula."""


def well_formed_min(formula: ModelFormula, rows) -> int:
    """Minimum training size over ``rows`` (one mapping per record): two
    plus the number of explanatory design columns, counting each dummy
    indicator ``dummy_levels`` gives a categorical term separately."""
    rows = list(rows)
    n_columns = 0
    for term in formula.terms:
        if term.kind == "numeric":
            n_columns += 1
        else:
            n_columns += len(dummy_levels(term, [str(r[term.column]) for r in rows]))
    return 2 + n_columns


def completion_date(start: date, duration_days: int) -> date:
    """Project completion: start advanced by its duration in days."""
    if duration_days < 0:
        raise ValueError(f"negative duration: {duration_days}")
    if isinstance(start, datetime):
        start = start.date()
    return start + timedelta(days=duration_days)


@dataclass(frozen=True, eq=False)
class Split:
    """One split as row positions in its plan's record order: training is
    the first ``stop`` records, testing the records at ``test_rows``.

    ``plan_records`` and ``plan_indices`` are the plan's sorted records
    and their period indices, shared by every split of the plan.
    """

    ordinal: int
    stop: int
    test_rows: np.ndarray
    target: float
    train_span: float
    plan_records: tuple = field(repr=False)
    plan_indices: np.ndarray = field(repr=False)

    @property
    def train_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.plan_records[: self.stop])

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(self.plan_records[i].id for i in self.test_rows.tolist())

    @property
    def train_indices(self) -> tuple[float, ...]:
        return tuple(self.plan_indices[: self.stop].tolist())

    @property
    def test_indices(self) -> tuple[float, ...]:
        return tuple(self.plan_indices[self.test_rows].tolist())

    @property
    def is_final(self) -> bool:
        return not self.test_rows.size


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Splits over ``records``, sorted by completion period then id, with
    ``indices`` holding each record's period index."""

    mode: ChronologyMode
    granularity: Granularity
    records: tuple
    indices: np.ndarray
    splits: tuple[Split, ...]

    def to_rows(self) -> list[dict]:
        """Stable tabular form for serialization and golden-file tests."""
        return [
            {
                "ordinal": s.ordinal,
                "train": ",".join(s.train_ids),
                "test": ",".join(s.test_ids),
                "target": s.target,
                "span": s.train_span,
            }
            for s in self.splits
        ]


def _completion_as_date(record) -> date:
    """Completion as a date; a year-only completion is read as the last
    day of that year."""
    c = record.completion
    if isinstance(c, datetime):
        return c.date()
    if isinstance(c, date):
        return c
    return date(int(c), 12, 31)


def build_split_plan(
    records,
    granularity: Granularity,
    mode: ChronologyMode,
    formula: ModelFormula,
    overrides=None,
) -> SplitPlan:
    """Construct the accumulation plan, ordering ``records`` (in any
    order) by completion period, then id.

    Every training set is a prefix of the sorted records.  Splits whose
    test set would hold fewer than two projects (the relative error is
    undefined on singletons) are merged forward: their period still joins
    the next training set but yields no evaluation.  The final split
    always trains on everything and carries no test set.
    """
    records = list(records)
    if not records:
        raise SplitError("empty dataset")
    # (period, id, position): ties keep the given order, as a stable sort would
    keyed = sorted(
        zip(
            [period_key(r.completion, granularity) for r in records],
            [str(r.id) for r in records],
            range(len(records)),
        )
    )
    records = tuple(records[i] for _, _, i in keyed)
    periods = [p for p, _, _ in keyed]
    wmin = well_formed_min(formula, [r.attributes for r in records])
    # bounds[g] is the position of the first record of period g; the last
    # entry is the record count
    bounds = [0] + [i for i in range(1, len(periods)) if periods[i] != periods[i - 1]]
    bounds.append(len(records))
    # one index per period, repeated over its records
    indices = np.repeat(
        [period_index(periods[b], periods[0], granularity) for b in bounds[:-1]],
        np.diff(bounds),
    )
    indices.setflags(write=False)  # shared by every split of the plan

    if overrides is not None:
        stops = _override_stops(overrides, bounds, mode, wmin)
    else:
        stops = bounds[_warm_up(bounds, wmin):-1]
    # last_done[i]: the latest completion among the first i + 1 records
    last_done = (
        list(accumulate(map(_completion_as_date, records), max))
        if mode is ChronologyMode.DATE_FILTERED_TEST
        else None
    )
    splits = []

    def add(stop, test_rows):
        splits.append(
            _make_split(len(splits) + 1, stop, test_rows, records, indices, granularity)
        )

    for stop in stops:
        test_rows = _test_rows(stop, records, bounds, mode, last_done)
        if test_rows.size >= 2:
            add(stop, test_rows)
    add(len(records), np.arange(0))
    return SplitPlan(
        mode=mode,
        granularity=granularity,
        records=records,
        indices=indices,
        splits=tuple(splits),
    )


def _test_rows(stop, records, bounds, mode, last_done) -> np.ndarray:
    """Positions of the test records after a training prefix of ``stop``
    records: the rest of the data, or the next completion period, kept
    under ``DATE_FILTERED_TEST`` only if started after training ended."""
    if mode is ChronologyMode.REMAINDER_TEST:
        return np.arange(stop, len(records))
    end = bounds[bisect_right(bounds, stop)]
    if last_done is None:
        return np.arange(stop, end)
    return np.array(
        [
            i
            for i in range(stop, end)
            if records[i].start is not None and records[i].start > last_done[stop - 1]
        ],
        dtype=np.intp,
    )


def _make_split(ordinal, stop, test_rows, records, indices, granularity) -> Split:
    test_rows.setflags(write=False)
    target = (
        float(indices[test_rows].min())
        if test_rows.size
        else round(float(indices[stop - 1]) + granularity.increment, 10)
    )
    return Split(
        ordinal=ordinal,
        stop=stop,
        test_rows=test_rows,
        target=target,
        train_span=round(float(indices[stop - 1] - indices[0]), 10),
        plan_records=records,
        plan_indices=indices,
    )


def _warm_up(bounds, wmin) -> int:
    """Number of leading periods the first training set takes: the fewest
    whose records reach ``wmin``."""
    for g, stop in enumerate(bounds):
        if stop >= wmin:
            return g
    raise SplitError(f"only {bounds[-1]} records; a well-formed model needs {wmin}")


def _override_stops(overrides, bounds, mode, wmin) -> list[int]:
    """Validated training sizes; outside remainder tests each must end a
    completion period."""
    sizes = list(overrides)
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise SplitError(f"override sizes must be strictly increasing: {sizes}")
    n_records = bounds[-1]
    for n in sizes:
        if n < wmin:
            raise SplitError(
                f"override training size {n} below well-formed minimum {wmin}"
            )
        if n >= n_records:
            raise SplitError(
                f"override training size {n} leaves no test records "
                f"(dataset has {n_records})"
            )
        if mode is not ChronologyMode.REMAINDER_TEST and n not in bounds:
            raise SplitError(f"override size {n} cuts a completion period in half")
    return sizes

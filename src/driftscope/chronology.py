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
from enum import Enum

import numpy as np

from .kernels import Granularity, period_index
from .stats import ModelFormula, dummy_levels

__all__ = [
    "ChronologyMode",
    "Split",
    "SplitPlan",
    "SplitError",
    "well_formed_min",
    "build_split_plan",
]


class ChronologyMode(Enum):
    YEAR_ACCUMULATE = "year_accumulate"
    DATE_FILTERED_TEST = "date_filtered_test"
    REMAINDER_TEST = "remainder_test"


class SplitError(ValueError):
    """No admissible split plan for the given data and formula."""


def well_formed_min(formula: ModelFormula, columns) -> int:
    """Minimum training size over records whose categorical terms' values
    ``columns`` holds (a column name to a sequence of strings): two plus
    the number of explanatory design columns, counting each dummy
    indicator ``dummy_levels`` gives a categorical term separately."""
    n_columns = 0
    for term in formula.terms:
        if term.kind == "numeric":
            n_columns += 1
        else:
            n_columns += len(dummy_levels(term, columns[term.column]))
    return 2 + n_columns


@dataclass(frozen=True, eq=False)
class Split:
    """One split as row positions in its plan's record order: training is
    the first ``stop`` records, testing the records at ``test_rows``, an
    ascending read-only array: a view of one array of the plan's
    positions where the test set is contiguous.

    ``plan_ids`` are the plan's sorted record ids, shared by every split
    of the plan.
    """

    ordinal: int
    stop: int
    test_rows: np.ndarray
    target: float
    train_span: float
    plan_ids: np.ndarray = field(repr=False)

    @property
    def train_ids(self) -> tuple[str, ...]:
        return tuple(self.plan_ids[: self.stop])

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(self.plan_ids[self.test_rows])

    @property
    def is_final(self) -> bool:
        return not self.test_rows.size


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Splits over a dataset's records sorted by completion period then
    id: ``order`` holds their dataset rows, ``indices`` their period
    indices and ``starts`` the run table, ascending from 0: a run starts
    at every period bound and every split's stop but the last one."""

    granularity: Granularity
    order: np.ndarray
    indices: np.ndarray
    splits: tuple[Split, ...]
    starts: tuple[int, ...]


def _year_ends(years: np.ndarray) -> np.ndarray:
    """The last day of each year (in 1..9999), the date a year-only
    completion is read as."""
    return (years - 1969).astype("datetime64[Y]").astype("datetime64[D]") - 1


def build_split_plan(dataset) -> SplitPlan:
    """Construct the accumulation plan of a ``Dataset`` (its records in
    any order) under its descriptor's granularity, chronology, formula
    and overrides, ordering the records by completion period, then id.

    Every training set is a prefix of the sorted records.  Splits whose
    test set would hold fewer than two projects (the relative error is
    undefined on singletons) are merged forward: their period still joins
    the next training set but yields no evaluation.  The final split
    always trains on everything and carries no test set.
    """
    descriptor = dataset.descriptor
    granularity, mode = descriptor.granularity, descriptor.chronology
    n = len(dataset.ids)
    if not n:
        raise SplitError("empty dataset")
    # by key, then id; records with equal keys and ids keep their order.
    # Two stable sorts give np.lexsort((ids, keys)) without comparing the
    # object-dtype ids through numpy, which is slower than Python's sort
    # on ids in random order.
    by_id = np.fromiter(sorted(range(n), key=dataset.ids.tolist().__getitem__), np.intp, n)
    order = by_id[np.argsort(dataset.keys[by_id], kind="stable")]
    keys, ids = dataset.keys[order], dataset.ids[order]
    categorical = [t.column for t in descriptor.formula.terms if t.kind == "categorical"]
    wmin = well_formed_min(
        descriptor.formula, {c: dataset.attributes[c][order] for c in categorical}
    )
    # bounds[g] is the position of the first record of period g; the last
    # entry is the record count
    bounds = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), n]
    periods = keys[bounds[:-1]].tolist()
    # one index per period, repeated over its records
    indices = np.repeat(
        [period_index(k, periods[0], granularity) for k in periods], np.diff(bounds)
    )
    indices.setflags(write=False)
    ids.setflags(write=False)  # shared by every split of the plan

    if descriptor.overrides is not None:
        stops = _override_stops(descriptor.overrides, bounds, mode, wmin)
    else:
        stops = bounds[_warm_up(bounds, wmin):-1]
    start = last_done = None
    if mode is ChronologyMode.DATE_FILTERED_TEST:
        # last_done[i]: the latest completion among the first i + 1 records
        done = dataset.done[order]
        year_only = np.isnat(done)
        done[year_only] = _year_ends(keys[year_only])
        last_done = np.maximum.accumulate(done)
        start = dataset.start[order]
    # contiguous test sets are read-only views of one array of positions
    positions = np.arange(n)
    positions.setflags(write=False)
    tests = (_test_rows(stop, positions, bounds, mode, start, last_done) for stop in stops)
    kept = [(stop, test_rows) for stop, test_rows in zip(stops, tests) if test_rows.size >= 2]
    return SplitPlan(
        granularity=granularity,
        order=order,
        indices=indices,
        splits=tuple(
            _make_split(ordinal, stop, test_rows, ids, indices, granularity)
            for ordinal, (stop, test_rows) in enumerate([*kept, (n, positions[n:])], 1)
        ),
        starts=tuple(sorted({*bounds[:-1], *(stop for stop, _ in kept)})),
    )


def _test_rows(stop, positions, bounds, mode, start, last_done) -> np.ndarray:
    """The test records after a training prefix of ``stop`` records, as
    a range of ``positions``, those of all records: the rest of the
    data, or the next completion period, kept under
    ``DATE_FILTERED_TEST`` only if started after training ended (a
    record without a start never is)."""
    if mode is ChronologyMode.REMAINDER_TEST:
        return positions[stop:]
    end = bounds[bisect_right(bounds, stop)]
    rows = positions[stop:end]
    if last_done is None:
        return rows
    return rows[start[stop:end] > last_done[stop - 1]]


def _make_split(ordinal, stop, test_rows, ids, indices, granularity) -> Split:
    test_rows.setflags(write=False)
    # plan indices never decrease and test rows ascend: the first is the
    # oldest
    target = (
        float(indices[test_rows[0]])
        if test_rows.size
        else round(float(indices[stop - 1]) + granularity.increment, 10)
    )
    return Split(
        ordinal=ordinal,
        stop=stop,
        test_rows=test_rows,
        target=target,
        train_span=round(float(indices[stop - 1] - indices[0]), 10),
        plan_ids=ids,
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

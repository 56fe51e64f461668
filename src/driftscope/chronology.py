# Sequential-accumulation split plans: training sets grow by whole
# completion periods, each followed by a chronologically later test set.
# Three variants cover the datasets supported here:
#   YEAR_ACCUMULATE  - test = next project-bearing completion year
#   DATE_FILTERED_TEST - as above, but test projects must have started
#                        after the last training project completed
#   REMAINDER_TEST   - monthly accumulation, test = everything left over

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta
from enum import Enum

from .kernels import Granularity, assign_period_indices
from .stats import ModelFormula

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


def well_formed_min(formula: ModelFormula) -> int:
    """Minimum training size: two plus the number of explanatory design
    columns, counting each dummy indicator separately.

    Categorical terms without a declared level set count as a single
    column; resolve levels from data first for an exact answer.
    """
    n_columns = 0
    for term in formula.terms:
        if term.kind == "numeric":
            n_columns += 1
        elif term.levels is not None:
            n_columns += len([l for l in term.levels if l != term.reference])
        else:
            n_columns += 1
    return 2 + n_columns


def resolve_levels(formula: ModelFormula, rows) -> ModelFormula:
    """Fill in categorical level sets from observed data where they were
    not declared up front."""
    rows = list(rows)
    new_terms = []
    changed = False
    for term in formula.terms:
        if term.kind == "categorical" and term.levels is None:
            observed = sorted({str(r[term.column]) for r in rows})
            if term.reference not in observed:
                raise ValueError(
                    f"reference level {term.reference!r} absent from "
                    f"column {term.column!r}"
                )
            new_terms.append(
                type(term)(
                    column=term.column,
                    kind=term.kind,
                    transform=term.transform,
                    reference=term.reference,
                    levels=tuple(observed),
                )
            )
            changed = True
        else:
            new_terms.append(term)
    if not changed:
        return formula
    return ModelFormula(
        response=formula.response,
        terms=tuple(new_terms),
        response_transform=formula.response_transform,
    )


def completion_date(start: date, duration_days: int) -> date:
    """Project completion: start advanced by its duration in days."""
    if duration_days < 0:
        raise ValueError(f"negative duration: {duration_days}")
    if isinstance(start, datetime):
        start = start.date()
    return start + timedelta(days=duration_days)


@dataclass(frozen=True)
class Split:
    ordinal: int
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    train_indices: tuple[float, ...]
    test_indices: tuple[float, ...]
    target: float
    train_span: float

    @property
    def is_final(self) -> bool:
        return not self.test_ids


@dataclass(frozen=True)
class SplitPlan:
    mode: ChronologyMode
    granularity: Granularity
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


def _period_key(record, granularity: Granularity):
    c = record.completion
    if granularity is Granularity.YEARLY:
        return c.year if isinstance(c, (date, datetime)) else int(c)
    if not isinstance(c, (date, datetime)):
        raise SplitError(f"record {record.id!r} has no monthly completion date")
    return c.year * 12 + c.month - 1


def _completion_as_date(record) -> date:
    """Completion as a date; a year-only completion is read as the last
    day of that year."""
    c = record.completion
    if isinstance(c, datetime):
        return c.date()
    if isinstance(c, date):
        return c
    return date(int(c), 12, 31)


def _make_split(ordinal, train, test, index_of, granularity) -> Split:
    train_idx = tuple(index_of[r.id] for r in train)
    test_idx = tuple(index_of[r.id] for r in test)
    target = (
        min(test_idx)
        if test_idx
        else round(max(train_idx) + granularity.increment, 10)
    )
    return Split(
        ordinal=ordinal,
        train_ids=tuple(r.id for r in train),
        test_ids=tuple(r.id for r in test),
        train_indices=train_idx,
        test_indices=test_idx,
        target=target,
        train_span=round(max(train_idx) - min(train_idx), 10),
    )


def build_split_plan(
    records,
    granularity: Granularity,
    mode: ChronologyMode,
    formula: ModelFormula,
    overrides=None,
) -> SplitPlan:
    """Construct the accumulation plan over chronologically sorted records.

    Splits whose test set would hold fewer than two projects (the
    relative error is undefined on singletons) are merged forward: their
    period still joins the next training set but yields no evaluation.
    The final split always trains on everything and carries no test set.
    """
    records = sorted(records, key=lambda r: (_period_key(r, granularity), str(r.id)))
    if not records:
        raise SplitError("empty dataset")
    formula = resolve_levels(formula, [r.attributes for r in records])
    wmin = well_formed_min(formula)
    indices = assign_period_indices([r.completion for r in records], granularity)
    index_of = {r.id: idx for r, idx in zip(records, indices)}

    if overrides is not None:
        splits = _overridden_splits(records, granularity, mode, wmin, index_of, overrides)
    elif mode is ChronologyMode.REMAINDER_TEST:
        splits = _remainder_splits(records, granularity, wmin, index_of)
    else:
        splits = _accumulation_splits(records, granularity, mode, wmin, index_of)

    return SplitPlan(mode=mode, granularity=granularity, splits=tuple(splits))


def _grouped(records, granularity):
    groups: dict[int, list] = {}
    for r in records:
        groups.setdefault(_period_key(r, granularity), []).append(r)
    return [groups[k] for k in sorted(groups)]


def _accumulation_splits(records, granularity, mode, wmin, index_of):
    groups = _grouped(records, granularity)
    train: list = []
    gi = 0
    while gi < len(groups) and len(train) < wmin:
        train.extend(groups[gi])
        gi += 1
    if len(train) < wmin:
        raise SplitError(
            f"only {len(train)} records; a well-formed model needs {wmin}"
        )
    splits = []
    ordinal = 1
    while gi < len(groups):
        candidates = groups[gi]
        if mode is ChronologyMode.DATE_FILTERED_TEST:
            last_done = max(_completion_as_date(r) for r in train)
            test = [
                r
                for r in candidates
                if r.start is not None and r.start > last_done
            ]
        else:
            test = list(candidates)
        if len(test) >= 2:
            splits.append(_make_split(ordinal, train, test, index_of, granularity))
            ordinal += 1
        train = train + candidates
        gi += 1
    splits.append(_make_split(ordinal, train, [], index_of, granularity))
    return splits


def _remainder_splits(records, granularity, wmin, index_of):
    groups = _grouped(records, granularity)
    train: list = []
    gi = 0
    while gi < len(groups) and len(train) < wmin:
        train.extend(groups[gi])
        gi += 1
    if len(train) < wmin:
        raise SplitError(
            f"only {len(train)} records; a well-formed model needs {wmin}"
        )
    splits = []
    ordinal = 1
    while gi < len(groups):
        remainder = [r for g in groups[gi:] for r in g]
        if len(remainder) >= 2:
            splits.append(_make_split(ordinal, train, remainder, index_of, granularity))
            ordinal += 1
        train = train + groups[gi]
        gi += 1
    splits.append(_make_split(ordinal, train, [], index_of, granularity))
    return splits


def _overridden_splits(records, granularity, mode, wmin, index_of, overrides):
    sizes = list(overrides)
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise SplitError(f"override sizes must be strictly increasing: {sizes}")
    splits = []
    ordinal = 1
    for n in sizes:
        if n < wmin:
            raise SplitError(
                f"override training size {n} below well-formed minimum {wmin}"
            )
        if n >= len(records):
            raise SplitError(
                f"override training size {n} leaves no test records "
                f"(dataset has {len(records)})"
            )
        train = records[:n]
        rest = records[n:]
        if mode is ChronologyMode.REMAINDER_TEST:
            test = rest
        else:
            if _period_key(train[-1], granularity) == _period_key(rest[0], granularity):
                raise SplitError(
                    f"override size {n} cuts a completion period in half"
                )
            next_key = _period_key(rest[0], granularity)
            test = [r for r in rest if _period_key(r, granularity) == next_key]
            if mode is ChronologyMode.DATE_FILTERED_TEST:
                last_done = max(_completion_as_date(r) for r in train)
                test = [r for r in test if r.start is not None and r.start > last_done]
        if len(test) < 2:
            continue
        splits.append(_make_split(ordinal, train, test, index_of, granularity))
        ordinal += 1
    splits.append(_make_split(ordinal, list(records), [], index_of, granularity))
    return splits

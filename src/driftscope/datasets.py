# Dataset descriptors and ingestion.  A descriptor declares where the
# chronology and model attributes live in a CSV, how rows are filtered,
# and which regression formula applies; built-in descriptors cover the
# NASA93, Desharnais, Kitchenham, Maxwell and XBC schemas.  The XBC data
# itself is proprietary, so a seeded synthetic generator with
# controllable process drift stands in for validation work.

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from itertools import compress

import numpy as np

from .chronology import ChronologyMode
from .kernels import Granularity, period_keys
from .stats import IDENTITY, LOG, ModelFormula, Term

__all__ = [
    "DataError",
    "ProjectRecord",
    "Dataset",
    "DatasetDescriptor",
    "SynthConfig",
    "builtin_descriptor",
    "BUILTIN_NAMES",
    "load_dataset",
    "csv_text",
    "synth_descriptor",
    "synthesize",
]

MISSING_TOKENS = {"", "?", "NA", "na", "null", "NULL"}


class DataError(ValueError):
    """Input data violates its descriptor."""


@dataclass(frozen=True)
class ProjectRecord:
    id: str
    completion: object  # int year or datetime.date
    attributes: dict
    start: date | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """A descriptor's records as columns, in the order its CSV held them;
    the split plan decides their chronological order.

    Row i of every array is record i: ``ids`` holds its id (a str),
    ``keys`` its completion period (``kernels.period_keys``), ``done`` its
    completion day (NaT for a year-only completion) and ``start`` its
    start day (NaT if none).  ``attributes`` holds one float64 array per
    numeric or derived attribute and one str array per categorical one.
    """

    descriptor: DatasetDescriptor
    ids: np.ndarray
    keys: np.ndarray
    done: np.ndarray
    start: np.ndarray
    attributes: dict

    @property
    def records(self) -> "_Records":
        """The rows as ``ProjectRecord``s, each built on request."""
        return _Records(self)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.descriptor == other.descriptor
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.done, other.done, equal_nan=True)
            and np.array_equal(self.start, other.start, equal_nan=True)
            and self.attributes.keys() == other.attributes.keys()
            and all(np.array_equal(v, other.attributes[k]) for k, v in self.attributes.items())
        )


class _Records(Sequence):
    """A dataset's rows as ``ProjectRecord``s, built one at a time."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return len(self._dataset.ids)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return tuple(self[j] for j in i)
        d = self._dataset
        done, start = d.done[i], d.start[i]
        return ProjectRecord(
            id=d.ids[i],
            completion=int(d.keys[i]) if np.isnat(done) else done.item(),
            attributes={name: values.item(i) for name, values in d.attributes.items()},
            start=None if np.isnat(start) else start.item(),
        )


# --- descriptors -----------------------------------------------------------


def _json_object(text: str, what: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


@dataclass(frozen=True)
class DatasetDescriptor:
    """Declarative bridge from a raw CSV to a fittable dataset."""

    name: str
    granularity: Granularity
    chronology: ChronologyMode
    columns: dict  # keys: id, completion, start, duration (all optional but id)
    formula: ModelFormula
    filters: tuple[dict, ...] = ()
    derived_products: dict = field(default_factory=dict)
    overrides: tuple[int, ...] | None = None
    expected_rows: int | None = None

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "granularity": self.granularity.value,
            "chronology": self.chronology.value,
            "columns": self.columns,
            "filters": list(self.filters),
            "formula": {
                "response": self.formula.response,
                "response_transform": self.formula.response_transform,
                "terms": [
                    {
                        "column": t.column,
                        "kind": t.kind,
                        "transform": t.transform,
                        "reference": t.reference,
                        "levels": list(t.levels) if t.levels else None,
                    }
                    for t in self.formula.terms
                ],
            },
            "derived_products": self.derived_products,
            "overrides": list(self.overrides) if self.overrides else None,
            "expected_rows": self.expected_rows,
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "DatasetDescriptor":
        """The descriptor a JSON object gives.  Each field must have its
        JSON type; an optional one may also be null or absent.  An
        unknown key is refused at every level."""
        doc = _json_object(text, "descriptor")
        try:
            _known(doc, [x.name for x in fields(DatasetDescriptor)])
            columns = _field(doc, "columns", "an object")
            _known(columns, ("id", "completion", "start", "duration"), "columns.")
            for key in ("id", *columns):
                _field(columns, key, "a string", where="columns.")
            filters = _field(doc, "filters", "a list of objects", [])
            for i, filt in enumerate(filters):
                w = f"filters[{i}]."
                _known(filt, ("column", "equals", "exclude"), w)
                _field(filt, "column", "a string", where=w)
                if ("equals" in filt) == ("exclude" in filt):
                    raise DataError(
                        f"descriptor key {w[:-1]!r} needs exactly one of 'equals' and 'exclude'"
                    )
                if "equals" in filt:
                    _field(filt, "equals", "a string", where=w)
                else:
                    _field(filt, "exclude", "a list of strings", where=w)
            derived = _field(doc, "derived_products", "an object", {})
            for name in derived:
                _field(derived, name, "a list of strings", where="derived_products.")
            f = _field(doc, "formula", "an object")
            _known(f, ("response", "response_transform", "terms"), "formula.")
            terms = []
            for i, t in enumerate(_field(f, "terms", "a list of objects", where="formula.")):
                w = f"formula.terms[{i}]."
                _known(t, [x.name for x in fields(Term)], w)
                terms.append(Term(
                    column=_field(t, "column", "a string", where=w),
                    kind=_field(t, "kind", "a string", "numeric", w),
                    transform=_field(t, "transform", "a string", IDENTITY, w),
                    reference=_field(t, "reference", "a string", None, w),
                    levels=tuple(_field(t, "levels", "a list of strings", (), w)) or None,
                ))
            return DatasetDescriptor(
                name=_field(doc, "name", "a string"),
                granularity=Granularity(_field(doc, "granularity", "a string")),
                chronology=ChronologyMode(_field(doc, "chronology", "a string")),
                columns=columns,
                formula=ModelFormula(
                    response=_field(f, "response", "a string", where="formula."),
                    response_transform=_field(f, "response_transform", "a string", LOG, "formula."),
                    terms=tuple(terms),
                ),
                filters=tuple(filters),
                derived_products=derived,
                overrides=tuple(_field(doc, "overrides", "a list of integers", ())) or None,
                expected_rows=_field(doc, "expected_rows", "an integer", None),
            )
        except DataError:
            raise
        except ValueError as exc:  # an unknown value, such as a granularity
            raise DataError(f"bad descriptor: {exc}") from None


def _known(doc: dict, keys, where: str = "") -> None:
    """Refuse a key of ``doc`` not in ``keys``, named ``where + key``."""
    if unknown := [repr(where + key) for key in doc if key not in keys]:
        raise DataError(f"unknown descriptor keys: {', '.join(unknown)}")


# The JSON type a descriptor field may have, by its name in errors; JSON
# reads a number with a fraction as a float, and true as a bool
_JSON_TYPES = {
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    "an object": lambda v: type(v) is dict,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
    "a list of objects": lambda v: type(v) is list and all(type(x) is dict for x in v),
}


def _field(doc: dict, key: str, kind: str, default=..., where: str = ""):
    """``doc[key]``, named ``where + key`` in errors, if it has the JSON
    type ``kind``, a ``_JSON_TYPES`` name; ``default`` if it is null or
    absent and has one (``...`` marks a required key)."""
    value = doc.get(key)
    if value is None and default is not ...:
        return default
    if key not in doc:
        raise DataError(f"descriptor is missing key {key!r}")
    if not _JSON_TYPES[kind](value):
        raise DataError(f"descriptor key {where + key!r} must be {kind}, got {value!r}")
    return value


_EM_COLUMNS = [
    "rely", "data", "cplx", "time", "stor", "virt", "turn", "acap",
    "aexp", "pcap", "vexp", "lexp", "modp", "tool", "sced",
]


def _nasa93() -> DatasetDescriptor:
    # Fitted form: the log-linear image of the COCOMO81 effort equation,
    # with the effort-adjustment factor entering as ln(eaf) and the
    # development mode dummy-coded against Organic.
    return DatasetDescriptor(
        name="nasa93",
        granularity=Granularity.YEARLY,
        chronology=ChronologyMode.YEAR_ACCUMULATE,
        columns={"id": "recordnumber", "completion": "year"},
        formula=ModelFormula(
            response="effort",
            terms=(
                Term("kloc", transform=LOG),
                Term("eaf", transform=LOG),
                Term(
                    "mode",
                    kind="categorical",
                    reference="organic",
                    levels=("organic", "semidetached", "embedded"),
                ),
            ),
        ),
        derived_products={"eaf": _EM_COLUMNS},
        expected_rows=93,
    )


def _desharnais() -> DatasetDescriptor:
    # Four records carry missing (-1) experience values and are dropped,
    # leaving the conventional 77-project subset.
    return DatasetDescriptor(
        name="desharnais",
        granularity=Granularity.YEARLY,
        chronology=ChronologyMode.YEAR_ACCUMULATE,
        columns={"id": "Project", "completion": "YearEnd"},
        formula=ModelFormula(
            response="Effort",
            terms=(
                Term("PointsAjust", transform=LOG),
                Term(
                    "Language",
                    kind="categorical",
                    reference="1",
                    levels=("1", "2", "3"),
                ),
            ),
        ),
        filters=(
            {"column": "TeamExp", "exclude": ["-1"]},
            {"column": "ManagerExp", "exclude": ["-1"]},
        ),
        expected_rows=77,
    )


def _kitchenham() -> DatasetDescriptor:
    return DatasetDescriptor(
        name="kitchenham",
        granularity=Granularity.YEARLY,
        chronology=ChronologyMode.DATE_FILTERED_TEST,
        columns={
            "id": "Project",
            "start": "Actual.start.date",
            "duration": "Actual.duration",
        },
        formula=ModelFormula(
            response="Actual.effort",
            terms=(
                Term("Adjusted.function.points", transform=LOG),
                Term("Project.type", kind="categorical", reference="D"),
            ),
        ),
        filters=({"column": "Client.code", "equals": "2"},),
        expected_rows=105,
    )


def _maxwell() -> DatasetDescriptor:
    return DatasetDescriptor(
        name="maxwell",
        granularity=Granularity.YEARLY,
        chronology=ChronologyMode.DATE_FILTERED_TEST,
        columns={"id": "id", "completion": "Year", "start": "Start_date"},
        formula=ModelFormula(
            response="Effort",
            terms=(
                Term("Size", transform=LOG),
                Term("T08"),
                Term("T09"),
            ),
        ),
        expected_rows=62,
    )


def _xbc() -> DatasetDescriptor:
    return DatasetDescriptor(
        name="xbc",
        granularity=Granularity.MONTHLY,
        chronology=ChronologyMode.REMAINDER_TEST,
        columns={"id": "id", "completion": "completion_date"},
        formula=ModelFormula(
            response="total_effort",
            terms=(Term("org_effort", transform=LOG),),
        ),
        overrides=(7, 10, 12, 13, 14),
        expected_rows=16,
    )


_BUILTINS = {
    "nasa93": _nasa93,
    "desharnais": _desharnais,
    "kitchenham": _kitchenham,
    "maxwell": _maxwell,
    "xbc": _xbc,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_descriptor(name: str) -> DatasetDescriptor:
    try:
        return _BUILTINS[name.lower()]()
    except KeyError:
        raise DataError(
            f"unknown descriptor {name!r}; built-ins are {', '.join(BUILTIN_NAMES)}"
        ) from None


# --- CSV loading -----------------------------------------------------------

_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y", "%d/%m/%y", "%d-%b-%y", "%d-%b-%Y")


def _parse_date(text: str, column: str) -> date:
    text = text.strip()
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise DataError(f"unparseable date {text!r} in column {column!r}")


def _parse_completion(text: str, column: str, rid: str):
    """A stripped, non-empty completion value of record ``rid``: an int
    year in 1..9999, the years a date holds, or a date."""
    try:
        year = int(text)
    except ValueError:
        return _parse_date(text, column)
    if not 1 <= year <= 9999:
        raise DataError(f"completion year {text!r} for {rid!r} is outside 1..9999")
    return year


def _formula_columns(descriptor: DatasetDescriptor) -> dict:
    """Each formula column the CSV holds (a derived one it does not),
    mapped to whether it is numeric."""
    categorical = {t.column for t in descriptor.formula.terms if t.kind == "categorical"}
    return {
        c: c not in categorical
        for c in descriptor.formula.columns
        if c not in descriptor.derived_products
    }


def _filter_test(filt: dict):
    """The test a filter applies to a stripped cell value."""
    if filt.keys() == {"column", "equals"}:
        equals = filt["equals"]
        return lambda value: value == equals
    if filt.keys() == {"column", "exclude"}:
        excluded = set(filt["exclude"]) | MISSING_TOKENS
        return lambda value: value not in excluded
    raise DataError(f"unrecognized filter: {filt}")


_NAT = np.datetime64("NaT", "D")
# The first and last days ``datetime.date`` can hold.
_FIRST_DAY = np.datetime64("0001-01-01")
_LAST_DAY = np.datetime64("9999-12-31")
_ISO_DATES = re.compile(r"(?:\d{4}-\d\d-\d\d)*", re.ASCII)


def _iso_days(texts) -> np.ndarray | None:
    """Stripped texts as datetime64 days, blank ones NaT, if every other
    text is a zero-padded ISO date that ``_parse_date`` reads; else None.
    numpy reads the same dates plus year 0, which is checked for."""
    dated = list(filter(None, texts))
    if not dated:
        return np.full(len(texts), _NAT)
    if set(map(len, dated)) <= {10} and _ISO_DATES.fullmatch("".join(dated)):
        try:
            days = np.array(texts, dtype="datetime64[D]")
        except ValueError:  # a month or day out of range
            return None
        if not (days < _FIRST_DAY).any():
            return days
    return None


def _finite_floats(texts) -> np.ndarray | None:
    """Texts as floats, each read as ``float`` reads it, or None if one is
    not a finite number."""
    try:
        values = np.array(texts, dtype=float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _whole_days(texts) -> np.ndarray | None:
    """Duration texts as whole days: NaN where a text is blank once
    stripped, and each other text as ``round(float(text))`` reads it,
    unstripped (``str.strip`` removes the separators U+001C to U+001F,
    which ``float`` refuses); None if one is not finite."""
    filled = list(map(bool, map(str.strip, texts)))
    values = _finite_floats(list(compress(texts, filled)))
    if values is None:
        return None
    days = np.full(len(texts), np.nan)
    days[np.array(filled, dtype=bool)] = np.rint(values)
    return days


def _whole_completions(texts):
    """Stripped completion texts as (days, years) when all are ISO dates
    or blank (years None), or all are years in 1..9999; else None."""
    days = _iso_days(texts)
    if days is not None:
        return days, None
    try:
        years = list(map(int, texts))
    except ValueError:
        return None
    if not (1 <= min(years) and max(years) <= 9999):
        return None
    return np.full(len(texts), _NAT), np.array(years, dtype=np.int64)


def _finite_product(factors, n: int) -> np.ndarray | None:
    """The product of ``n`` rows of factor columns taken left to right,
    rounded at each step as ``math.prod`` rounds; None if a factor is not
    a number or a product is not finite."""
    product = np.ones(n)
    for texts in factors:
        values = _finite_floats(texts)
        if values is None:
            return None
        with np.errstate(over="ignore"):  # checked below
            product *= values
    return product if np.isfinite(product).all() else None


def _days(texts, column: str | None) -> np.ndarray | None:
    """Stripped date texts as datetime64 days, blank ones NaT, each read
    as ``_parse_date`` reads it (a column of zero-padded ISO dates in one
    pass); None if a non-blank text is not a date."""
    days = _iso_days(texts)
    if days is not None:
        return days
    try:
        return np.array(
            [_parse_date(t, column) if t else None for t in texts], dtype="datetime64[D]"
        )
    except DataError:
        return None


def _completions(texts, column: str | None, ids):
    """Stripped completion texts as (days, years), each read as
    ``_parse_completion`` reads it for its record in ``ids``: ``days`` is
    NaT for a year or a blank, ``years`` holds each year, 0 elsewhere, and
    may be None when no text is a year; None if a non-blank text is
    neither a year nor a date."""
    parsed = _whole_completions(texts)
    if parsed is not None:
        return parsed
    try:
        values = [_parse_completion(t, column, rid) if t else None for t, rid in zip(texts, ids)]
    except DataError:
        return None
    return (
        np.array([v if isinstance(v, date) else None for v in values], dtype="datetime64[D]"),
        np.array([v if isinstance(v, int) else 0 for v in values], dtype=np.int64),
    )


def _whole_attribute(texts, numeric: bool) -> np.ndarray | None:
    """A formula column's stripped texts as finite floats for a numeric
    column, as an object array of the texts for a categorical one; None
    if a value is missing, not a number or not finite."""
    if numeric:  # every missing token fails float()
        return _finite_floats(texts)
    return np.array(texts, dtype=object) if MISSING_TOKENS.isdisjoint(texts) else None


def _derived_days(days, blank, start, duration) -> np.ndarray | None:
    """``days`` with each ``blank`` row's completion filled in as its
    start plus its duration; None if a blank row has no start or no
    duration, a negative duration, or completes after the last day
    ``datetime.date`` holds."""
    # a NaT start casts to the smallest int64, and isnat covers it
    late = duration > (_LAST_DAY - start).astype(np.int64)
    if (blank & (np.isnat(start) | np.isnan(duration) | (duration < 0) | late)).any():
        return None
    days[blank] = start[blank] + duration[blank].astype(np.int64)
    return days


def _first_error(descriptor: DatasetDescriptor, raw) -> DataError:
    """The error that reading the kept records one at a time raises
    first, checking each record's id, start, duration, completion,
    formula values and derived values in turn.  ``raw(column)`` gives a
    bound column's texts as read, and blank ones for an unbound column."""
    cols = descriptor.columns
    ids, starts, durations, dones = (
        raw(cols.get(key)) for key in ("id", "start", "duration", "completion")
    )
    formula = _formula_columns(descriptor).items()
    seen = set()
    for i, rid in enumerate(map(str.strip, ids)):
        try:
            if rid in seen:
                raise DataError(f"duplicate project id {rid!r}")
            seen.add(rid)
            start = _parse_date(starts[i], cols.get("start")) if starts[i].strip() else None
            duration = None
            if durations[i].strip():
                try:
                    duration = round(float(durations[i]))
                except (ValueError, OverflowError):  # text, nan or inf
                    raise DataError(
                        f"non-numeric duration {durations[i]!r} for {rid!r}"
                    ) from None
            done = start
            if dones[i].strip():
                done = _parse_completion(dones[i].strip(), cols.get("completion"), rid)
            elif start is None or duration is None:
                raise DataError(f"record {rid!r} has no completion date and no start+duration")
            elif duration < 0:
                raise DataError(f"negative duration {durations[i]!r} for {rid!r}")
            elif duration > (date.max - start).days:
                raise DataError(f"record {rid!r} completes after {date.max}")
            if descriptor.granularity is Granularity.MONTHLY and not isinstance(done, date):
                raise DataError(f"record {rid!r}: monthly chronology needs full completion dates")
            for col, numeric in formula:
                text = raw(col)[i].strip()
                if text in MISSING_TOKENS:
                    raise DataError(f"missing value in column {col!r} for {rid!r}")
                try:
                    value = float(text) if numeric else 0.0  # a category is any text
                except ValueError:
                    raise DataError(
                        f"non-numeric value {text!r} in column {col!r} for {rid!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"non-finite value {text!r} in column {col!r} for {rid!r}")
            for name, sources in descriptor.derived_products.items():
                try:
                    value = math.prod([float(raw(s)[i]) for s in sources])
                except ValueError:
                    raise DataError(
                        f"non-numeric multiplier for derived column {name!r} in {rid!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(f"non-finite product for derived column {name!r} in {rid!r}")
        except DataError as exc:
            return exc
    raise AssertionError("a column reader refused a column whose every record reads")


def load_dataset(descriptor: DatasetDescriptor, text: str) -> Dataset:
    """Parse, filter and validate CSV text into a Dataset, keeping the
    rows in file order.  Line endings are read as ``csv`` reads them from
    a file opened with ``newline=""``.

    Bound columns are read by their position in the header, resolved
    once; a repeated header name reads its last column.  Blank lines are
    skipped, and a row too short to hold every bound column is an error.
    Each bound column is read whole.  Invalid input raises the error that
    reading the records one at a time raises first, checking a record's
    id, start, duration, completion, formula values and derived values in
    turn; that reading runs only when a column is refused.
    """
    cols = descriptor.columns
    formula = _formula_columns(descriptor)
    needed = [
        *filter(None, map(cols.get, ("id", "completion", "start", "duration"))),
        *formula,
        *sorted({s for sources in descriptor.derived_products.values() for s in sources}),
        *(f["column"] for f in descriptor.filters),
    ]
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if not header:
            raise DataError("CSV has no header row")
        at = {name: i for i, name in enumerate(header)}
        missing = [c for c in needed if c not in at]
        if missing:
            raise DataError(f"CSV is missing bound columns: {', '.join(missing)}")
        id_at = at[cols["id"]]
        width = 1 + max(at[c] for c in needed)
        filters = [(at[f["column"]], _filter_test(f)) for f in descriptor.filters]
        kept = []
        for row in reader:
            if len(row) < width:
                if not row:
                    continue  # a blank line
                line = reader.line_num
                rid = row[id_at].strip() if id_at < len(row) else ""
                where = f"record {rid!r} (line {line})" if rid else f"line {line}"
                raise DataError(
                    f"{where} has {len(row)} of the header's {len(header)} fields"
                )
            if not filters or all(test(row[i].strip()) for i, test in filters):
                kept.append(row)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"line {reader.line_num}: {exc}") from None
    if descriptor.expected_rows is not None and len(kept) != descriptor.expected_rows:
        raise DataError(
            f"{descriptor.name}: expected {descriptor.expected_rows} rows "
            f"after filtering, got {len(kept)}"
        )
    if not kept:
        raise DataError(f"{descriptor.name}: no records left after filtering")

    # One tuple of texts per CSV column; each reader gives None for a
    # column it refuses
    n = len(kept)
    texts = list(zip(*kept))

    def raw(column):
        return texts[at[column]] if column else ("",) * n

    def stripped(column):
        return list(map(str.strip, raw(column)))

    ids = stripped(cols["id"])
    start = _days(stripped(cols.get("start")), cols.get("start"))
    duration = _whole_days(raw(cols.get("duration")))
    done_texts = stripped(cols.get("completion"))
    parsed = _completions(done_texts, cols.get("completion"), ids)
    attributes = {c: _whole_attribute(stripped(c), numeric) for c, numeric in formula.items()}
    for name, sources in descriptor.derived_products.items():
        attributes[name] = _finite_product([raw(s) for s in sources], n)
    days = None
    if len(set(ids)) == n and all(v is not None for v in (start, duration, parsed)):
        blank = np.array([not t for t in done_texts], dtype=bool)
        days = _derived_days(parsed[0], blank, start, duration)
    if (
        days is None
        or (descriptor.granularity is Granularity.MONTHLY and np.isnat(days).any())
        or any(v is None for v in attributes.values())
    ):
        raise _first_error(descriptor, raw)

    return Dataset(
        descriptor,
        ids=np.array(ids, dtype=object),
        keys=period_keys(days, parsed[1], descriptor.granularity),
        done=days,
        start=start,
        attributes=attributes,
    )


def csv_text(dataset: Dataset) -> str:
    """A dataset as CSV text in its descriptor's schema: a date as ISO
    text, a year-only completion as its year, a value as ``str`` writes
    it."""
    descriptor = dataset.descriptor
    cols = descriptor.columns
    formula_cols = list(_formula_columns(descriptor))
    header, columns = [cols["id"]], [dataset.ids]
    if cols.get("completion"):
        year_only = np.isnat(dataset.done)
        texts = np.datetime_as_string(dataset.done).astype(object)
        texts[year_only] = dataset.keys[year_only].astype(str)
        header.append(cols["completion"])
        columns.append(texts)
    header += formula_cols
    columns += [map(str, dataset.attributes[c].tolist()) for c in formula_cols]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


# --- synthetic datasets ----------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Seeded log-linear effort generator with optional per-period drift
    in the intercept and slope (all-zero drift is a stationary process)."""

    n_projects: int = 120
    n_periods: int = 8
    seed: int = 0
    intercept: float = 1.0
    slope: float = 1.0
    intercept_drift: float = 0.0
    slope_drift: float = 0.0
    noise_sd: float = 0.1
    size_lo: float = 10.0
    size_hi: float = 1000.0

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.noise_sd < 0:
            raise DataError(f"negative noise sd: {self.noise_sd}")
        if self.n_periods < 2:
            raise DataError("need at least 2 periods")
        minimum = 2 * (2 + len(synth_descriptor(self).formula.terms))
        if self.n_projects < minimum:
            raise DataError(
                f"need at least {minimum} projects for a usable plan, "
                f"got {self.n_projects}"
            )
        if self.n_periods > self.n_projects:
            raise DataError(
                f"n_periods {self.n_periods} exceeds n_projects {self.n_projects}: "
                "every period needs a project"
            )
        if not (0 < self.size_lo < self.size_hi):
            raise DataError("need 0 < size_lo < size_hi")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)

    @staticmethod
    def from_json(text: str) -> "SynthConfig":
        doc = _json_object(text, "synth config")
        types = {f.name: f.type for f in fields(SynthConfig)}  # "int" or "float"
        unknown = sorted(set(doc) - set(types))
        if unknown:
            raise DataError(f"unknown synth config keys: {', '.join(unknown)}")
        for key, value in doc.items():  # JSON's true is a bool, not an int
            if type(value) not in ((int,) if types[key] == "int" else (int, float)):
                raise DataError(f"synth config key {key!r} must be {types[key]}, got {value!r}")
        return SynthConfig(**doc)


def synth_descriptor(config: SynthConfig) -> DatasetDescriptor:
    """Descriptor matching the generator's CSV output."""
    return DatasetDescriptor(
        name="synthetic",
        granularity=Granularity.YEARLY,
        chronology=ChronologyMode.YEAR_ACCUMULATE,
        columns={"id": "id", "completion": "year"},
        formula=ModelFormula(
            response="effort",
            terms=(Term("size", transform=LOG),),
        ),
        expected_rows=config.n_projects,
    )


def synthesize(config: SynthConfig) -> Dataset:
    """Deterministically generate a drifting (or stationary) log-linear
    effort dataset: ln(effort) = b0(p) + b1(p) * ln(size) + noise."""
    descriptor = synth_descriptor(config)
    rng = np.random.default_rng(config.seed)
    # Every period gets at least one project; the rest land at random.
    periods = np.sort(np.concatenate([
        np.arange(config.n_periods),
        rng.integers(0, config.n_periods, config.n_projects - config.n_periods),
    ]))
    sizes = np.exp(
        rng.uniform(
            math.log(config.size_lo), math.log(config.size_hi), config.n_projects
        )
    )
    noise = (
        rng.normal(0.0, config.noise_sd, config.n_projects)
        if config.noise_sd > 0
        else np.zeros(config.n_projects)
    )
    # Python floats per record, summed as b0 + b1 * ln(size) + noise: the
    # golden fixtures hold these bits
    effort = [
        math.exp(
            config.intercept + p * config.intercept_drift
            + (config.slope + p * config.slope_drift) * math.log(size)
            + eps
        )
        for p, size, eps in zip(periods.tolist(), sizes.tolist(), noise.tolist())
    ]
    done = np.full(config.n_projects, _NAT)
    return Dataset(
        descriptor,
        ids=np.array([f"p{i:04d}" for i in range(config.n_projects)], dtype=object),
        keys=period_keys(done, 2000 + periods, descriptor.granularity),
        done=done,
        start=done.copy(),
        attributes={"size": sizes, "effort": np.array(effort)},
    )

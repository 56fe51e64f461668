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
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from functools import partial
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


def _parse_duration(text: str, rid: str) -> float:
    """A duration text of record ``rid`` as ``round(float(text))`` reads
    it, unstripped; NaN if it is blank once stripped."""
    if not text.strip():
        return math.nan
    try:
        return round(float(text))
    except (ValueError, OverflowError):  # text, nan or inf
        raise DataError(f"non-numeric duration {text!r} for {rid!r}") from None


def _parse_attribute(text: str, rid: str, column: str, numeric: bool):
    """A stripped formula value of record ``rid``: a finite float in a
    numeric column, any text but a missing token in a categorical one."""
    if text in MISSING_TOKENS:
        raise DataError(f"missing value in column {column!r} for {rid!r}")
    if not numeric:
        return text
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric value {text!r} in column {column!r} for {rid!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r} in column {column!r} for {rid!r}")
    return value


def _parse_product(texts, rid: str, name: str) -> float:
    """The product of record ``rid``'s factor texts for the derived
    column ``name``, as ``math.prod`` gives it."""
    try:
        value = math.prod(map(float, texts))
    except ValueError:
        raise DataError(f"non-numeric multiplier for derived column {name!r} in {rid!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite product for derived column {name!r} in {rid!r}")
    return value


def _formula_columns(descriptor: DatasetDescriptor) -> dict:
    """Each formula column the CSV holds (a derived one it does not),
    mapped to whether it is numeric."""
    categorical = {t.column for t in descriptor.formula.terms if t.kind == "categorical"}
    return {
        c: c not in categorical
        for c in descriptor.formula.columns
        if c not in descriptor.derived_products
    }


def _bound_columns(descriptor: DatasetDescriptor) -> list:
    """The CSV columns a descriptor reads: id, completion, start and
    duration, the formula columns the CSV holds, the sources of derived
    products and the filter columns."""
    cols = descriptor.columns
    return [
        *filter(None, map(cols.get, ("id", "completion", "start", "duration"))),
        *_formula_columns(descriptor),
        *sorted({s for sources in descriptor.derived_products.values() for s in sources}),
        *(f["column"] for f in descriptor.filters),
    ]


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


def _completion_arrays(values):
    """Completions read one at a time (a date, a year or None) as (days,
    years), NaT in ``days`` where ``years`` holds a year, else 0."""
    return (
        np.array([v if isinstance(v, date) else None for v in values], dtype="datetime64[D]"),
        np.array([v if isinstance(v, int) else 0 for v in values], dtype=np.int64),
    )


def _finite_product(rows) -> np.ndarray | None:
    """The product of each row's factor texts taken left to right,
    rounded at each step as ``math.prod`` rounds; None if a factor is not
    a finite number or a product is not finite."""
    factors = _finite_floats(rows)
    if factors is None:
        return None
    product = np.ones(len(rows))
    with np.errstate(over="ignore"):  # checked below
        for values in factors.T:
            product *= values
    return product if np.isfinite(product).all() else None


def _whole_attribute(texts, numeric: bool) -> np.ndarray | None:
    """A formula column's stripped texts as finite floats for a numeric
    column, as an object array of the texts for a categorical one; None
    if a value is missing, not a number or not finite."""
    if numeric:  # every missing token fails float()
        return _finite_floats(texts)
    return np.array(texts, dtype=object) if MISSING_TOKENS.isdisjoint(texts) else None


def load_dataset(descriptor: DatasetDescriptor, text: str) -> Dataset:
    """Parse, filter and validate CSV text into a Dataset, keeping the
    rows in file order.  Line endings are read as ``csv`` reads them from
    a file opened with ``newline=""``, and one leading byte-order mark
    (U+FEFF) is not part of the header.

    Bound columns are read by their position in the header, resolved
    once; a repeated header name reads its last column.  Blank lines are
    skipped, and a row too short to hold every bound column is an error.
    Each bound column is read whole, and value by value only when that
    refuses it, up to its first refused record.  The checks run in a
    record's reading order: id, start, duration, completion, monthly
    completions, formula values and derived values, each only over the
    records before the earliest refused so far.  So invalid input raises
    the earliest bad record's first failing check, the error a reading
    of one record at a time raises first.
    """
    cols = descriptor.columns
    formula = _formula_columns(descriptor)
    needed = _bound_columns(descriptor)
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
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

    # One tuple of texts per CSV column.  ``limit`` is the earliest row
    # refused so far, with its ``error``; each check reads the rows before it.
    texts = list(zip(*kept))
    limit, error = len(kept), None

    def column(name, strip=True):
        """A column's texts before ``limit``; blank ones if it is unbound."""
        values = texts[at[name]][:limit] if name else ("",) * limit
        return list(map(str.strip, values)) if strip else values

    ids = column(cols["id"])

    def read(values, whole, parse, gather):
        """``whole(values)``, a column converted at once.  Where that
        refuses, ``parse(value, id)`` is the rule: ``gather`` of what it
        gives one value at a time, up to the first it refuses, whose row
        becomes ``limit``."""
        nonlocal limit, error
        converted = whole(values)
        if converted is not None:
            return converted
        converted = []
        for i, (value, rid) in enumerate(zip(values, ids)):
            try:
                converted.append(parse(value, rid))
            except DataError as exc:
                limit, error = i, exc
                break
        return gather(converted)

    if len(set(ids)) < limit:  # the first id an earlier record has
        seen = set()
        limit = next(i for i, rid in enumerate(ids) if rid in seen or seen.add(rid))
        error = DataError(f"duplicate project id {ids[limit]!r}")
    start_col, done_col = cols.get("start"), cols.get("completion")
    start = read(
        column(start_col), _iso_days,
        lambda t, rid: _parse_date(t, start_col) if t else None,
        partial(np.array, dtype="datetime64[D]"),
    )
    durations = column(cols.get("duration"), strip=False)
    duration = read(durations, _whole_days, _parse_duration, partial(np.array, dtype=float))
    done_texts = column(done_col)
    days, years = read(
        done_texts, _whole_completions,
        lambda t, rid: _parse_completion(t, done_col, rid) if t else None,
        _completion_arrays,
    )
    # A blank completion is its start plus its duration
    start, duration, days = start[:limit], duration[:limit], days[:limit]
    blank = np.array([not t for t in done_texts[:limit]], dtype=bool)
    unknown = np.isnat(start) | np.isnan(duration)
    # a NaT start casts to the smallest int64, and unknown covers it
    late = duration > (_LAST_DAY - start).astype(np.int64)
    refused = blank & (unknown | (duration < 0) | late)
    if refused.any():
        limit = int(refused.argmax())
        rid = ids[limit]
        if unknown[limit]:
            error = DataError(f"record {rid!r} has no completion date and no start+duration")
        elif duration[limit] < 0:
            error = DataError(f"negative duration {durations[limit]!r} for {rid!r}")
        else:
            error = DataError(f"record {rid!r} completes after {date.max}")
        blank &= ~refused
    days[blank] = start[blank] + duration[blank].astype(np.int64)
    if descriptor.granularity is Granularity.MONTHLY and np.isnat(days[:limit]).any():
        limit = int(np.isnat(days[:limit]).argmax())
        error = DataError(f"record {ids[limit]!r}: monthly chronology needs full completion dates")
    attributes = {
        c: read(
            column(c), partial(_whole_attribute, numeric=numeric),
            partial(_parse_attribute, column=c, numeric=numeric),
            partial(np.array, dtype=float if numeric else object),
        )
        for c, numeric in formula.items()
    }
    for name, sources in descriptor.derived_products.items():
        # a product of no factors is 1
        rows = list(zip(*(column(s, strip=False) for s in sources))) or [()] * limit
        attributes[name] = read(
            rows, _finite_product, partial(_parse_product, name=name),
            partial(np.array, dtype=float),
        )
    if error is not None:
        raise error
    return Dataset(
        descriptor,
        ids=np.array(ids, dtype=object),
        keys=period_keys(days, years, descriptor.granularity),
        done=days,
        start=start,
        attributes=attributes,
    )


def csv_text(dataset: Dataset) -> str:
    """A dataset as CSV text that ``load_dataset`` reads back equal.  It
    writes the id and completion columns and the formula columns that are
    not derived products: a date as ISO text, a year-only completion as
    its year, a value as ``str`` writes it.  It writes no start,
    duration, derived product source or filter column, so a descriptor
    that reads any of these raises ``ValueError`` naming them."""
    descriptor = dataset.descriptor
    cols = descriptor.columns
    formula_cols = list(_formula_columns(descriptor))
    written = {cols["id"], cols.get("completion"), *formula_cols}
    if unwritable := [c for c in _bound_columns(descriptor) if c not in written]:
        raise ValueError(
            f"{descriptor.name}: csv_text cannot write bound columns: {', '.join(unwritable)}"
        )
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
        for f in fields(self):  # NaN, infinities and ints past the float range
            if f.type == "float" and not abs(value := getattr(self, f.name)) <= sys.float_info.max:
                raise DataError(
                    f"synth config key {f.name!r} must be a finite float, got {value!r}"
                )
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        if self.noise_sd < 0:
            raise DataError(f"negative noise sd: {self.noise_sd}")
        if self.n_periods < 2:
            raise DataError("need at least 2 periods")
        if self.n_periods > 8000:  # period p completes in year 2000 + p
            raise DataError(f"at most 8000 periods (years 2000..9999), got {self.n_periods}")
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
    ids = [f"p{i:04d}" for i in range(config.n_projects)]
    effort = []
    for rid, p, size, eps in zip(ids, periods.tolist(), sizes.tolist(), noise.tolist()):
        try:
            e = math.exp(
                config.intercept + p * config.intercept_drift
                + (config.slope + p * config.slope_drift) * math.log(size)
                + eps
            )
        except OverflowError:
            e = math.inf
        if not 0 < e < math.inf:  # the loader or the sweep would refuse it
            raise DataError(f"synthetic effort {e!r} for {rid!r} is not finite and positive")
        effort.append(e)
    done = np.full(config.n_projects, _NAT)
    return Dataset(
        descriptor,
        ids=np.array(ids, dtype=object),
        keys=period_keys(done, 2000 + periods, descriptor.granularity),
        done=done,
        start=done.copy(),
        attributes={"size": sizes, "effort": np.array(effort)},
    )

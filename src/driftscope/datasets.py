# Dataset descriptors and ingestion.  A descriptor declares where the
# chronology and model attributes live in a CSV, how rows are filtered,
# and which regression formula applies; built-in descriptors cover the
# NASA93, Desharnais, Kitchenham, Maxwell and XBC schemas.  The XBC data
# itself is proprietary, so a seeded synthetic generator with
# controllable process drift stands in for validation work.

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import date, datetime

import numpy as np

from .chronology import ChronologyMode, completion_date
from .kernels import Granularity, period_key
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
    "write_csv",
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
    ``keys`` its completion period (``kernels.period_key``), ``done`` its
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
        same_records = tuple(self.records) == tuple(other.records)
        return self.descriptor == other.descriptor and same_records

    @classmethod
    def from_records(cls, descriptor: DatasetDescriptor, records) -> "Dataset":
        """The dataset of ``records``, taking their attributes as the first
        one names them; a categorical term's attribute holds strings."""
        records = tuple(records)
        categorical = {
            t.column for t in descriptor.formula.terms if t.kind == "categorical"
        }
        names = records[0].attributes if records else ()
        return cls(
            descriptor,
            ids=np.array([r.id for r in records], dtype=object),
            keys=_int_array(
                [period_key(r.completion, descriptor.granularity) for r in records]
            ),
            done=np.array(
                [r.completion if isinstance(r.completion, date) else None for r in records],
                dtype="datetime64[D]",
            ),
            start=np.array([r.start for r in records], dtype="datetime64[D]"),
            attributes={
                name: np.array(
                    [r.attributes[name] for r in records],
                    dtype=object if name in categorical else float,
                )
                for name in names
            },
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


def _int_array(values) -> np.ndarray:
    """Python ints as int64, or as objects if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


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
        doc = _json_object(text, "descriptor")
        try:
            f = doc["formula"]
            formula = ModelFormula(
                response=f["response"],
                response_transform=f.get("response_transform", LOG),
                terms=tuple(
                    Term(
                        column=t["column"],
                        kind=t.get("kind", "numeric"),
                        transform=t.get("transform", IDENTITY),
                        reference=t.get("reference"),
                        levels=tuple(t["levels"]) if t.get("levels") else None,
                    )
                    for t in f["terms"]
                ),
            )
            return DatasetDescriptor(
                name=doc["name"],
                granularity=Granularity(doc["granularity"]),
                chronology=ChronologyMode(doc["chronology"]),
                columns=doc["columns"],
                formula=formula,
                filters=tuple(doc.get("filters") or ()),
                derived_products=doc.get("derived_products") or {},
                overrides=tuple(doc["overrides"]) if doc.get("overrides") else None,
                expected_rows=doc.get("expected_rows"),
            )
        except KeyError as exc:
            raise DataError(f"descriptor is missing key {exc.args[0]!r}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"bad descriptor: {exc}") from None


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
    # Fast path for zero-padded ISO dates, which strptime's first format
    # reads the same way.  The shape check keeps out the other forms
    # fromisoformat takes (20010105, 2001-W01-1); anything else goes to
    # the strptime loop.
    if len(text) == 10 and text[4] == text[7] == "-":
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise DataError(f"unparseable date {text!r} in column {column!r}")


def _parse_completion(text: str, column: str):
    """A stripped, non-empty completion value: an int year or a date.
    ISO-shaped text goes straight to the date parser, since ``int`` can
    never read it."""
    if not (len(text) == 10 and text[4] == text[7] == "-"):
        try:
            return int(text)
        except ValueError:
            pass
    return _parse_date(text, column)


def _filter_test(filt: dict):
    """The test a filter applies to a stripped cell value."""
    if "equals" in filt:
        return str(filt["equals"]).__eq__
    if "exclude" in filt:
        excluded = {str(v) for v in filt["exclude"]} | MISSING_TOKENS
        return lambda value: value not in excluded
    if filt.get("not_missing"):
        return lambda value: value not in MISSING_TOKENS
    raise DataError(f"unrecognized filter: {filt}")


def _text_stream(source):
    """A context manager giving a text stream over ``source``: a file
    object as it is (left open), CSV text, or a path to open."""
    if hasattr(source, "read"):
        return contextlib.nullcontext(source)
    if isinstance(source, str) and "\n" in source:
        return io.StringIO(source)
    return open(source, newline="", encoding="utf-8")


_NAT = np.datetime64("NaT", "D")
# The first and last days ``datetime.date`` can hold.
_FIRST_DAY = np.datetime64("0001-01-01")
_LAST_DAY = np.datetime64("9999-12-31")
_ISO_DATES = re.compile(r"(?:\d{4}-\d\d-\d\d)*", re.ASCII)


def _convert(whole, each, n: int, errors: list):
    """A column converted by ``whole()`` in one pass or, where that gives
    None, value by value by ``each(i)``, which raises the error a
    record-by-record reading raises for record i.  The first such error
    joins ``errors`` as (i, error), and the values from i on are None."""
    values = whole()
    if values is not None:
        return values
    values = [None] * n
    for i in range(n):
        try:
            values[i] = each(i)
        except ValueError as exc:  # DataError included
            errors.append((i, exc))
            break
    return values


def _iso_days(texts) -> np.ndarray | None:
    """Stripped texts as datetime64 days, blank ones NaT, if every other
    text is a zero-padded ISO date that ``date.fromisoformat`` reads; else
    None.  numpy reads the same dates plus year 0, which is checked for."""
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
    """Stripped durations as whole days, rounded half to even as ``round``
    rounds, NaN where blank; None if a non-blank one is not finite."""
    values = _finite_floats(list(filter(None, texts)))
    if values is None:
        return None
    days = np.full(len(texts), np.nan)
    days[np.array(list(map(bool, texts)), dtype=bool)] = np.rint(values)
    return days


def _whole_completions(texts):
    """Stripped completion texts as (days, years) when all are ISO dates
    or blank, or all are ints; else None."""
    days = _iso_days(texts)
    if days is not None:
        return days, None
    try:
        return np.full(len(texts), _NAT), _int_array(list(map(int, texts)))
    except ValueError:
        return None


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


def _whole_attribute(texts, numeric: bool):
    """A formula column's stripped texts as finite floats for a numeric
    column, as they are for a categorical one; None if a value is
    missing, not a number or not finite."""
    if numeric:  # every missing token fails float()
        return _finite_floats(texts)
    return texts if MISSING_TOKENS.isdisjoint(texts) else None


def _attribute(text: str, column: str, numeric: bool, rid: str):
    """One stripped formula value, checked as a record-by-record reading
    checks it: a finite float for a numeric column, else the text."""
    if text in MISSING_TOKENS:
        raise DataError(f"missing value in column {column!r} for {rid!r}")
    if not numeric:
        return text
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"non-numeric value {text!r} in column {column!r} for {rid!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r} in column {column!r} for {rid!r}")
    return value


def _product(name: str, factors, rid: str) -> float:
    """One derived value from its raw factor texts, checked as a
    record-by-record reading checks it."""
    try:
        value = math.prod([float(f) for f in factors])
    except ValueError:
        raise DataError(
            f"non-numeric multiplier for derived column {name!r} in {rid!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite product for derived column {name!r} in {rid!r}")
    return value


def load_dataset(descriptor: DatasetDescriptor, source) -> Dataset:
    """Parse, filter and validate a CSV into a Dataset, keeping the rows
    in file order.  ``source`` is a path, a file object or CSV text.

    Bound columns are read by their position in the header, resolved
    once; a repeated header name reads its last column.  Blank lines are
    skipped, and a row too short to hold every bound column is an error.
    Each column is converted in one pass; invalid input raises the error
    a record-by-record reading would raise first.
    """
    cols = descriptor.columns
    derived_sources = {s for srcs in descriptor.derived_products.values() for s in srcs}
    formula_cols = [
        c
        for c in descriptor.formula.columns
        if c not in descriptor.derived_products
    ]
    needed = [cols["id"]]
    for key in ("completion", "start", "duration"):
        if cols.get(key):
            needed.append(cols[key])
    needed += formula_cols + sorted(derived_sources)
    for f in descriptor.filters:
        needed.append(f["column"])
    with _text_stream(source) as stream:
        reader = csv.reader(stream)
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

    # One tuple of raw texts per CSV column, converted column by column in
    # the order one record's checks run: id, start, duration, completion,
    # formula columns, derived columns.
    n = len(kept)
    texts = list(zip(*kept))
    errors: list = []

    def raw(column):
        return texts[at[column]] if column else ("",) * n

    def stripped(column):
        return list(map(str.strip, texts[at[column]])) if column else [""] * n

    ids = stripped(cols["id"])
    seen = set()

    def new_id(i):
        if ids[i] in seen:
            raise DataError(f"duplicate project id {ids[i]!r}")
        seen.add(ids[i])

    _convert(lambda: ids if len(set(ids)) == n else None, new_id, n, errors)

    start_col = cols.get("start")
    start_texts = stripped(start_col)
    start = np.asarray(_convert(
        lambda: _iso_days(start_texts),
        lambda i: _parse_date(start_texts[i], start_col) if start_texts[i] else None,
        n, errors,
    ), dtype="datetime64[D]")

    duration_col = cols.get("duration")
    duration_raw, duration_texts = raw(duration_col), stripped(duration_col)

    def duration(i):
        if not duration_texts[i]:
            return None
        try:
            return round(float(duration_raw[i]))
        except (ValueError, OverflowError):  # text, nan or inf
            raise DataError(
                f"non-numeric duration {duration_raw[i]!r} for {ids[i]!r}"
            ) from None

    duration = np.asarray(
        _convert(lambda: _whole_days(duration_texts), duration, n, errors), dtype=float
    )

    done_col = cols.get("completion")
    done_texts = stripped(done_col)
    parsed = _convert(
        lambda: _whole_completions(done_texts),
        lambda i: _parse_completion(done_texts[i], done_col) if done_texts[i] else None,
        n, errors,
    )
    if isinstance(parsed, tuple):
        days, years = parsed
    else:  # read value by value: dates, years and blanks
        days = np.array([v if isinstance(v, date) else None for v in parsed], dtype="datetime64[D]")
        years = _int_array([v if isinstance(v, int) else 0 for v in parsed])
    dated = np.array(list(map(bool, done_texts)), dtype=bool)

    def derive_all():
        blank = ~dated
        begun, offsets = start[blank], duration[blank]
        if np.isnat(begun).any() or not (
            (offsets >= 0) & (offsets <= (_LAST_DAY - begun).astype(float))
        ).all():
            return None
        derived = days.copy()
        derived[blank] = begun + offsets.astype(np.int64)
        return derived

    def derive(i):  # a blank completion is its start plus its duration
        if dated[i]:
            return days[i]
        if np.isnat(start[i]) or np.isnan(duration[i]):
            raise DataError(f"record {ids[i]!r} has no completion date and no start+duration")
        try:
            return completion_date(start[i].item(), int(duration[i]))
        except OverflowError:
            raise DataError(f"record {ids[i]!r} completes after {_LAST_DAY}") from None

    days = np.asarray(_convert(derive_all, derive, n, errors), dtype="datetime64[D]")
    year_only = dated & np.isnat(days)
    monthly = descriptor.granularity is Granularity.MONTHLY
    if monthly and year_only.any():
        i = int(np.argmax(year_only))
        errors.append((i, DataError(
            f"record {ids[i]!r}: monthly chronology needs full completion dates"
        )))

    categorical = {
        t.column for t in descriptor.formula.terms if t.kind == "categorical"
    }
    attributes = {}
    for col in formula_cols:
        values = stripped(col)
        numeric = col not in categorical
        attributes[col] = np.asarray(_convert(
            lambda: _whole_attribute(values, numeric),
            lambda i: _attribute(values[i], col, numeric, ids[i]),
            n, errors,
        ), dtype=float if numeric else object)
    for name, sources in descriptor.derived_products.items():
        factors = [raw(s) for s in sources]
        attributes[name] = np.asarray(_convert(
            lambda: _finite_product(factors, n),
            lambda i: _product(name, [f[i] for f in factors], ids[i]),
            n, errors,
        ), dtype=float)
    if errors:
        raise min(errors, key=lambda e: e[0])[1]  # the first of the earliest row's

    if monthly:  # absolute month numbers, as kernels.period_key counts them
        keys = days.astype("datetime64[M]").astype(np.int64) + 1970 * 12
    else:
        keys = days.astype("datetime64[Y]").astype(np.int64) + 1970
        if years is not None:
            keys = np.where(year_only, years, keys)
    return Dataset(
        descriptor,
        ids=np.array(ids, dtype=object),
        keys=keys,
        done=days,
        start=start,
        attributes=attributes,
    )


def write_csv(dataset: Dataset, path) -> None:
    """Serialize a dataset back to its descriptor's CSV schema."""
    descriptor = dataset.descriptor
    cols = descriptor.columns
    formula_cols = [
        c for c in descriptor.formula.columns if c not in descriptor.derived_products
    ]
    fieldnames = [cols["id"]]
    if cols.get("completion"):
        fieldnames.append(cols["completion"])
    fieldnames += formula_cols
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for r in dataset.records:
            row = {cols["id"]: r.id}
            if cols.get("completion"):
                c = r.completion
                row[cols["completion"]] = (
                    c.isoformat() if isinstance(c, date) else str(c)
                )
            for col in formula_cols:
                v = r.attributes[col]
                row[col] = repr(v) if isinstance(v, float) else str(v)
            writer.writerow(row)


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
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.noise_sd < 0:
            raise ValueError(f"negative noise sd: {self.noise_sd}")
        if self.n_periods < 2:
            raise ValueError("need at least 2 periods")
        if not (0 < self.size_lo < self.size_hi):
            raise ValueError("need 0 < size_lo < size_hi")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)

    @staticmethod
    def from_json(text: str) -> "SynthConfig":
        doc = _json_object(text, "synth config")
        types = {f.name: f.type for f in fields(SynthConfig)}  # "int" or "float"
        unknown = sorted(set(doc) - set(types))
        if unknown:
            raise DataError(f"unknown synth config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            allowed = int if types[key] == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise DataError(
                    f"synth config key {key!r} must be {types[key]}, got {value!r}"
                )
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
    minimum = 2 * (2 + len(descriptor.formula.terms))
    if config.n_projects < minimum:
        raise ValueError(
            f"need at least {minimum} projects for a usable plan, "
            f"got {config.n_projects}"
        )
    rng = np.random.default_rng(config.seed)
    # Every period gets at least one project; the rest land at random.
    periods = list(range(config.n_periods))
    periods += list(
        rng.integers(0, config.n_periods, config.n_projects - config.n_periods)
    )
    periods.sort()
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
    records = []
    for i, (p, size, eps) in enumerate(zip(periods, sizes, noise)):
        b0 = config.intercept + p * config.intercept_drift
        b1 = config.slope + p * config.slope_drift
        effort = math.exp(b0 + b1 * math.log(size) + eps)
        records.append(
            ProjectRecord(
                id=f"p{i:04d}",
                completion=2000 + int(p),
                attributes={"size": float(size), "effort": effort},
            )
        )
    return Dataset.from_records(descriptor, records)

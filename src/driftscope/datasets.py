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
from dataclasses import dataclass, field, fields
from datetime import date, datetime

import numpy as np

from .chronology import ChronologyMode, completion_date
from .kernels import Granularity
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


@dataclass(frozen=True)
class Dataset:
    """A descriptor's records, in the order its CSV held them; the split
    plan decides their chronological order."""

    descriptor: DatasetDescriptor
    records: tuple[ProjectRecord, ...]


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


def load_dataset(descriptor: DatasetDescriptor, source) -> Dataset:
    """Parse, filter and validate a CSV into a Dataset, keeping the rows
    in file order.  ``source`` is a path, a file object or CSV text.

    Bound columns are read by their position in the header, resolved
    once; a repeated header name reads its last column.  Blank lines are
    skipped, and a row too short to hold every bound column is an error.
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

    start_col, duration_col, done_col = (
        cols.get("start"), cols.get("duration"), cols.get("completion")
    )
    start_at = at[start_col] if start_col else None
    duration_at = at[duration_col] if duration_col else None
    done_at = at[done_col] if done_col else None
    monthly = descriptor.granularity is Granularity.MONTHLY
    categorical = {
        t.column for t in descriptor.formula.terms if t.kind == "categorical"
    }
    values = [(col, at[col], col not in categorical) for col in formula_cols]
    derived = [
        (name, [at[s] for s in sources])
        for name, sources in descriptor.derived_products.items()
    ]
    records = []
    seen_ids = set()
    for row in kept:
        rid = row[id_at].strip()
        if rid in seen_ids:
            raise DataError(f"duplicate project id {rid!r}")
        seen_ids.add(rid)

        start = None
        duration = None
        if start_at is not None and row[start_at].strip():
            start = _parse_date(row[start_at], start_col)
        if duration_at is not None and row[duration_at].strip():
            try:
                duration = int(round(float(row[duration_at])))
            except (ValueError, OverflowError):  # text, nan or inf
                raise DataError(
                    f"non-numeric duration {row[duration_at]!r} for {rid!r}"
                ) from None

        text = row[done_at].strip() if done_at is not None else ""
        if text:
            completion = _parse_completion(text, done_col)
        elif start is not None and duration is not None:
            completion = completion_date(start, duration)
        else:
            raise DataError(
                f"record {rid!r} has no completion date and no start+duration"
            )
        if monthly and not isinstance(completion, date):
            raise DataError(
                f"record {rid!r}: monthly chronology needs full completion dates"
            )

        attributes: dict = {}
        for col, i, numeric in values:
            value = row[i].strip()
            if value in MISSING_TOKENS:
                raise DataError(f"missing value in column {col!r} for {rid!r}")
            if numeric:
                try:
                    value = float(value)
                except ValueError:
                    raise DataError(
                        f"non-numeric value {value!r} in column {col!r} for {rid!r}"
                    ) from None
            attributes[col] = value
        for name, positions in derived:
            try:
                factors = [float(row[i]) for i in positions]
            except ValueError:
                raise DataError(
                    f"non-numeric multiplier for derived column {name!r} in {rid!r}"
                ) from None
            attributes[name] = math.prod(factors)

        records.append(ProjectRecord(rid, completion, attributes, start))
    if not records:
        raise DataError(f"{descriptor.name}: no records left after filtering")
    return Dataset(descriptor, tuple(records))


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
    return Dataset(descriptor, tuple(records))

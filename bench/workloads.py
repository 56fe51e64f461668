"""Seeded inputs for the benchmark's workloads.

Each builder writes CSV (and, where no builtin fits, descriptor JSON)
files into a work directory and returns the sweeps of one round, each
with the reference spec its outputs are checked against.  The same seed
gives byte-identical files.  Only the generated files reach the program.

Record counts per period are fixed, so every seed asks the program for
the same amount of work; the seed draws the values.  Categorical levels
recur in every period, as the published datasets' levels recur through
their histories, and values keep the published types (an integer
``Year`` for maxwell, two-digit ``YearEnd`` for desharnais, day-first
dates for kitchenham).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from reference import Model, Rec, Spec

# A change is developed against DEV_SEED and its claim confirmed on
# CONFIRM_SEED, a seed not used while the change was written.
DEV_SEED = 1
CONFIRM_SEED = 2

WORKLOADS = {
    "promise-batch": {
        "why": "The paper's real traffic: five builtin descriptors, 16-105 projects and "
               "thousands of cells each, so fixed per-cell overhead dominates.",
        "stresses": "stats (relative_error, weighted_least_squares, predict), analysis "
                    "per-cell path, cli text writing; the only workload with date-filtered "
                    "and override chronologies, dummy coding, derived products and date parsing",
        "bypasses": "kernel weights are a smaller share; load, plan and design under 1%",
    },
    "long-history": {
        "why": "The ROADMAP baseline: 1000 projects over 20 yearly periods, 5200 cells, "
               "the per-record regime.",
        "stresses": "kernels.weights_for_target (about 55-60%), relative_error, WLS; "
                    "batching per split acts here",
        "bypasses": "load, plan and design under 1%, so design slicing does nothing here",
    },
    "tall-monthly": {
        "why": "Few cells, many splits, large test sets: 5040 monthly projects over 10 "
               "years, remainder tests, Gaussian kernel, grid 1:100:99 (120 splits, 240 cells).",
        "stresses": "stats.build_design_matrix (largest input cost), datasets.load_dataset, "
                    "chronology.build_split_plan; design slicing acts here",
        "bypasses": "per-cell overhead: only two bandwidths per split",
    },
}


@dataclass(frozen=True)
class Case:
    """One sweep of a round: the descriptor and data it reads, the options
    it adds to the program's defaults, and the spec its outputs are
    checked against."""

    label: str
    descriptor: str
    data: str
    spec: Spec
    options: tuple[str, ...] = ()

    @property
    def argv(self) -> tuple[str, ...]:
        """Sweep arguments without --out.  Epsilon and theta are spelled
        out because the output check applies the spec's values."""
        return ("sweep", "--descriptor", self.descriptor, "--data", self.data,
                "--epsilon", str(self.spec.epsilon), "--theta", str(self.spec.theta),
                *self.options)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _loguniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _levels_in_period(rng, levels, p, n: int) -> list[str]:
    """Every level once, the rest drawn at the data's proportions."""
    drawn = list(levels) + [str(v) for v in rng.choice(levels, n - len(levels), p=p)]
    rng.shuffle(drawn)
    return drawn


def _ids(rng, n: int, fmt="{}") -> list[str]:
    return [fmt.format(i + 1) for i in rng.permutation(n)]


def _descriptor_json(name, granularity, chronology, columns, response, terms, expected_rows) -> str:
    return json.dumps({
        "name": name,
        "granularity": granularity,
        "chronology": chronology,
        "columns": columns,
        "filters": [],
        "formula": {
            "response": response,
            "response_transform": "log",
            "terms": [{"column": c, "kind": "numeric", "transform": "log",
                       "reference": None, "levels": None} for c in terms],
        },
        "derived_products": {},
        "overrides": None,
        "expected_rows": expected_rows,
    }, indent=2) + "\n"


# --- promise-batch ------------------------------------------------------------

# COCOMO81 multiplier tables, in the column order of the nasa93 file.
_EM_TABLES = {
    "rely": (0.75, 0.88, 1.00, 1.15, 1.40),
    "data": (0.94, 1.00, 1.08, 1.16),
    "cplx": (0.70, 0.85, 1.00, 1.15, 1.30, 1.65),
    "time": (1.00, 1.11, 1.30, 1.66),
    "stor": (1.00, 1.06, 1.21, 1.56),
    "virt": (0.87, 1.00, 1.15, 1.30),
    "turn": (0.87, 1.00, 1.07, 1.15),
    "acap": (1.46, 1.19, 1.00, 0.86, 0.71),
    "aexp": (1.29, 1.13, 1.00, 0.91, 0.82),
    "pcap": (1.42, 1.17, 1.00, 0.86, 0.70),
    "vexp": (1.21, 1.10, 1.00, 0.90),
    "lexp": (1.14, 1.07, 1.00, 0.95),
    "modp": (1.24, 1.10, 1.00, 0.91, 0.82),
    "tool": (1.24, 1.10, 1.00, 0.91, 0.83),
    "sced": (1.23, 1.08, 1.00, 1.04, 1.10),
}
_COCOMO = {"organic": (3.2, 1.05), "semidetached": (3.0, 1.12), "embedded": (2.8, 1.20)}


def _nasa93(seed: int, work: Path) -> Case:
    rng = _rng(seed, 1)
    counts = (6, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 7, 7)  # 1971..1987, 93 projects
    ids = _ids(rng, sum(counts))
    header = ["recordnumber", "projectname", "cat2", "forg", "center", "year", "mode",
              *_EM_TABLES, "kloc", "effort"]
    rows, recs = [], []
    for p, n in enumerate(counts):
        year = 1971 + p
        for mode in _levels_in_period(rng, tuple(_COCOMO), (0.3, 0.45, 0.25), n):
            rid = ids[len(rows)]
            ems = [float(rng.choice(t)) for t in _EM_TABLES.values()]
            kloc = round(_loguniform(rng, 2.0, 500.0), 1)
            eaf = math.prod(ems)
            a, b = _COCOMO[mode]
            effort = round(a * kloc**b * eaf * math.exp(rng.normal(0.02 * p, 0.35)), 1)
            rows.append([rid, str(rng.choice(["de", "erb", "gal", "X", "hst", "slp", "spl", "Y"])),
                         str(rng.choice(["avionics", "missionplanning", "science", "simulation",
                                         "utility", "monitor_control", "datacapture"])),
                         str(rng.choice(["f", "g"])), int(rng.integers(1, 7)), year, mode,
                         *[f"{v:.2f}" for v in ems], f"{kloc:.1f}", f"{effort:.1f}"])
            recs.append(Rec(rid, year, None, None,
                            {"effort": effort, "kloc": kloc, "eaf": eaf, "mode": mode}))
    path = work / "nasa93.csv"
    _write_csv(path, header, rows)
    model = Model("effort", True, (("kloc", True), ("eaf", True)),
                  (("mode", "organic", ("organic", "semidetached", "embedded")),))
    return Case("nasa93", "nasa93", str(path), Spec("nasa93", False, "accumulate", model, tuple(recs)))


def _desharnais(seed: int, work: Path) -> Case:
    rng = _rng(seed, 2)
    counts = (9, 10, 11, 12, 13, 13, 13)  # YearEnd 82..88, 81 projects
    ids = _ids(rng, sum(counts))
    # Four projects carry a missing (-1) experience value and are filtered
    # out, leaving the 77-project subset; they never hold a period's only
    # instance of a language.
    candidates = [sum(counts[:p]) + i for p in range(2, len(counts)) for i in range(3, counts[p])]
    invalid = set(int(i) for i in rng.choice(candidates, 4, replace=False))
    header = ["Project", "TeamExp", "ManagerExp", "YearEnd", "Length", "Effort", "Transactions",
              "Entities", "PointsNonAdjust", "Adjustment", "PointsAjust", "Language"]
    rows, recs = [], []
    for p, n in enumerate(counts):
        year = 82 + p
        for lang in _levels_in_period(rng, ("1", "2", "3"), (0.55, 0.33, 0.12), n):
            pos = len(rows)
            trans, ent = int(rng.integers(9, 887)), int(rng.integers(7, 388))
            adjustment = int(rng.integers(5, 53))
            points = round((trans + ent) * (0.65 + 0.01 * adjustment))
            effort = round(math.exp(2.6 + math.log(points) + {"1": 0.0, "2": -0.2, "3": -0.6}[lang]
                                    + rng.normal(0.0, 0.45)))
            team, manager = int(rng.integers(0, 5)), int(rng.integers(0, 8))
            if pos in invalid:
                team, manager = (-1, manager) if pos % 2 else (team, -1)
            rows.append([ids[pos], team, manager, year, int(rng.integers(1, 40)), effort, trans,
                         ent, trans + ent, adjustment, points, lang])
            if pos not in invalid:
                recs.append(Rec(ids[pos], year, None, None,
                                {"Effort": float(effort), "PointsAjust": float(points), "Language": lang}))
    path = work / "desharnais.csv"
    _write_csv(path, header, rows)
    model = Model("Effort", True, (("PointsAjust", True),), (("Language", "1", ("1", "2", "3")),))
    return Case("desharnais", "desharnais", str(path),
                Spec("desharnais", False, "accumulate", model, tuple(recs)))


def _kitchenham(seed: int, work: Path) -> Case:
    rng = _rng(seed, 3)
    counts = (12, 16, 18, 20, 20, 19)  # client-2 completions 1994..1999, 105 projects
    others = 40  # projects of other clients, filtered out by the descriptor
    ids = _ids(rng, sum(counts) + others)
    header = ["Project", "Client.code", "Project.type", "Actual.start.date", "Actual.duration",
              "Actual.effort", "Adjusted.function.points", "Estimated.completion.date",
              "First.estimate", "First.estimate.method"]
    rows, recs = [], []

    def project(year, kind, client, same_year):
        if same_year:
            start = date(year, 1, 1) + timedelta(days=int(rng.integers(0, 300)))
            duration = int(rng.integers(20, (date(year, 12, 31) - start).days + 1))
        else:  # started the year before, completed in this one
            start = date(year - 1, 1, 1) + timedelta(days=int(rng.integers(150, 365)))
            to_new_year = (date(year, 1, 1) - start).days
            duration = int(rng.integers(to_new_year, to_new_year + 200))
        afp = round(_loguniform(rng, 15.0, 18000.0))
        effort = round(math.exp(1.5 + 0.9 * math.log(afp) + {"D": 0.0, "E": -0.3, "M": -0.5}[kind]
                                + rng.normal(0.0, 0.5)))
        estimate = round(effort * math.exp(rng.normal(0.0, 0.3)))
        done = start + timedelta(days=duration)
        estimated_done = done + timedelta(days=int(rng.integers(-60, 61)))
        rid = ids[len(rows)]
        rows.append([rid, client, kind, start.strftime("%d/%m/%Y"), duration, effort, afp,
                     estimated_done.strftime("%d/%m/%Y"), estimate,
                     str(rng.choice(["A", "C", "D", "EO", "W"]))])
        return Rec(rid, done.year, done, start,
                   {"Actual.effort": float(effort), "Adjusted.function.points": float(afp),
                    "Project.type": kind})

    for p, n in enumerate(counts):
        kinds = _levels_in_period(rng, ("D", "E", "M"), (0.6, 0.25, 0.15), n)
        for i, kind in enumerate(kinds):
            # At least three projects a year start and end within it, so
            # each year offers a date-filtered test set.
            recs.append(project(1994 + p, kind, "2", i < 3 or rng.random() < 0.75))
    for _ in range(others):
        project(int(rng.integers(1994, 2000)), str(rng.choice(["D", "E", "M"])),
                str(rng.choice(["1", "3", "4", "5", "6"])), rng.random() < 0.75)
    order = rng.permutation(len(rows))  # client-2 rows are not grouped in the file
    path = work / "kitchenham.csv"
    _write_csv(path, header, [rows[i] for i in order])
    model = Model("Actual.effort", True, (("Adjusted.function.points", True),),
                  (("Project.type", "D", None),))
    return Case("kitchenham", "kitchenham", str(path),
                Spec("kitchenham", False, "date_filtered", model, tuple(recs)))


def _maxwell(seed: int, work: Path) -> Case:
    rng = _rng(seed, 4)
    counts = (4, 5, 6, 7, 8, 8, 8, 8, 8)  # Year 1985..1993, 62 projects
    ids = _ids(rng, sum(counts))
    factors = [f"T{i:02d}" for i in range(1, 16)]
    header = ["id", "Year", "App", "Har", "Dba", "Ifc", "Source", "Telonuse", "Nlan", *factors,
              "Duration", "Size", "Time", "Effort", "Start_date"]
    rows, recs = [], []
    for p, n in enumerate(counts):
        year = 1985 + p
        for i in range(n):
            rid = ids[len(rows)]
            t = [int(v) for v in rng.integers(1, 6, 15)]
            size = round(_loguniform(rng, 48.0, 3643.0))
            effort = round(math.exp(2.2 + math.log(size) + 0.15 * t[7] - 0.1 * t[8]
                                    + rng.normal(0.0, 0.5)))
            duration = int(rng.integers(4, 40))  # months
            start = (date(year, 1, 1) if i < 2 or rng.random() < 0.6 else date(year - 1, 1, 1)) \
                + timedelta(days=int(rng.integers(0, 300)))
            rows.append([rid, year, int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                         int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                         int(rng.integers(0, 2)), int(rng.integers(1, 5)), *t, duration, size,
                         year - 1984, effort, start.isoformat()])
            recs.append(Rec(rid, year, None, start,
                            {"Effort": float(effort), "Size": float(size),
                             "T08": float(t[7]), "T09": float(t[8])}))
    path = work / "maxwell.csv"
    _write_csv(path, header, rows)
    model = Model("Effort", True, (("Size", True), ("T08", False), ("T09", False)))
    return Case("maxwell", "maxwell", str(path),
                Spec("maxwell", False, "date_filtered", model, tuple(recs)))


def _xbc(seed: int, work: Path) -> Case:
    rng = _rng(seed, 5)
    months = sorted(int(m) for m in rng.choice(36, 16, replace=False))  # 2003..2005
    ids = _ids(rng, 16, "X{:02d}")
    rows, recs = [], []
    for i, m in enumerate(months):
        done = date(2003 + m // 12, m % 12 + 1, int(rng.integers(1, 29)))
        org = round(_loguniform(rng, 100.0, 5000.0), 1)
        total = round(math.exp(0.5 + 0.95 * math.log(org) + rng.normal(0.0, 0.15)), 1)
        rows.append([ids[i], done.isoformat(), total, org])
        recs.append(Rec(ids[i], done.year * 12 + done.month - 1, done, None,
                        {"total_effort": total, "org_effort": org}))
    path = work / "xbc.csv"
    _write_csv(path, ["id", "completion_date", "total_effort", "org_effort"], rows)
    model = Model("total_effort", True, (("org_effort", True),))
    return Case("xbc", "xbc", str(path),
                Spec("xbc", True, "remainder", model, tuple(recs), overrides=(7, 10, 12, 13, 14)))


# --- long-history and tall-monthly ---------------------------------------------


def _yearly_synthetic(seed: int, work: Path, name: str, per_year: int, years: int) -> Case:
    """The ``driftscope synth`` shape: ln(effort) = 1 + 0.05 p + ln(size) + noise."""
    rng = _rng(seed, 6)
    rows, recs = [], []
    for p in range(years):
        for _ in range(per_year):
            rid = f"p{len(rows):04d}"
            size = float(f"{_loguniform(rng, 10.0, 1000.0):.6f}")
            effort = float(f"{math.exp(1.0 + 0.05 * p + math.log(size) + rng.normal(0.0, 0.1)):.6f}")
            rows.append([rid, 2000 + p, f"{size:.6f}", f"{effort:.6f}"])
            recs.append(Rec(rid, 2000 + p, None, None, {"size": size, "effort": effort}))
    path = work / f"{name}.csv"
    _write_csv(path, ["id", "year", "size", "effort"], rows)
    descriptor = work / f"{name}.descriptor.json"
    descriptor.write_text(_descriptor_json(
        "synthetic", "yearly", "year_accumulate", {"id": "id", "completion": "year"},
        "effort", ["size"], len(rows)), encoding="utf-8")
    model = Model("effort", True, (("size", True),))
    return Case(name, str(descriptor), str(path),
                Spec("synthetic", False, "accumulate", model, tuple(recs)))


def _tall_monthly(seed: int, work: Path) -> Case:
    rng = _rng(seed, 7)
    per_month, months = 42, 120  # 2010-01 .. 2019-12
    ids = _ids(rng, per_month * months, "t{:05d}")
    rows, recs = [], []
    for m in range(months):
        for _ in range(per_month):
            rid = ids[len(rows)]
            done = date(2010 + m // 12, m % 12 + 1, int(rng.integers(1, 29)))
            org = round(_loguniform(rng, 100.0, 5000.0), 1)
            total = round(math.exp(0.5 + 0.95 * math.log(org) + 0.002 * m + rng.normal(0.0, 0.2)), 1)
            rows.append([rid, done.isoformat(), total, org])
            recs.append(Rec(rid, done.year * 12 + done.month - 1, done, None,
                            {"total_effort": total, "org_effort": org}))
    path = work / "tall-monthly.csv"
    _write_csv(path, ["id", "completion_date", "total_effort", "org_effort"], rows)
    # The xbc builtin with its overrides cleared and the row count set.
    descriptor = work / "tall-monthly.descriptor.json"
    descriptor.write_text(_descriptor_json(
        "xbc", "monthly", "remainder_test", {"id": "id", "completion": "completion_date"},
        "total_effort", ["org_effort"], len(rows)), encoding="utf-8")
    model = Model("total_effort", True, (("org_effort", True),))
    return Case("tall-monthly", str(descriptor), str(path),
                Spec("xbc", True, "remainder", model, tuple(recs)),
                ("--kernels", "gaussian", "--grid", "1:100:99"))


def build(workload: str, seed: int, work: Path) -> list[Case]:
    """Write the workload's inputs into ``work``; return one round of sweeps."""
    if workload == "promise-batch":
        return [f(seed, work) for f in (_nasa93, _desharnais, _kitchenham, _maxwell, _xbc)]
    if workload == "long-history":
        return [_yearly_synthetic(seed, work, "long-history", 50, 20)]
    if workload == "tall-monthly":
        return [_tall_monthly(seed, work)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(work: Path) -> tuple[str, ...]:
    """A tiny sweep that loads every lazily imported path before timing."""
    case = _yearly_synthetic(0, work, "warmup", 10, 4)
    return case.argv + ("--grid", "1:5:1")

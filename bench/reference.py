"""Output check for one sweep, written without importing driftscope.

The benchmark knows every record it generated, so it rebuilds the split
plan, the design matrices, the kernel weights and both least-squares fits
from the method's definitions, and compares them with what the sweep
wrote:

* ``curves.csv`` holds as many rows as the sweep reported cells;
* for a seeded sample of cells, all four relative errors (REs) agree with
  a recomputation (kernel formula, ``np.linalg.lstsq`` on the
  sqrt(w)-scaled design, variance-ratio RE) within ``RE_RTOL``;
* every ``verdicts.json`` entry equals the convergence-plus-horizon rule
  applied to ``curves.csv``.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

# Relative tolerance on recomputed REs.  Both sides solve the same
# least-squares problem; the margin covers a different summation order in
# the weights, the eaf product and the variance, amplified by the
# ill-conditioned small-bandwidth Gaussian fits.
RE_RTOL = 1e-7
RE_ATOL = 1e-12
SAMPLED_CELLS = 12


@dataclass(frozen=True)
class Model:
    response: str
    log_response: bool
    numeric: tuple[tuple[str, bool], ...]  # (column, log-transformed)
    # (column, reference level, declared levels or None = all observed)
    categorical: tuple[tuple[str, str, tuple[str, ...] | None], ...] = ()


@dataclass(frozen=True)
class Rec:
    id: str
    key: int  # completion year, or absolute month (year * 12 + month - 1)
    done: date | None  # full completion date; None for a year-only record
    start: date | None
    values: dict  # column -> float, or str for a categorical column


@dataclass(frozen=True)
class Spec:
    dataset: str
    monthly: bool
    mode: str  # "accumulate" | "date_filtered" | "remainder"
    model: Model
    records: tuple[Rec, ...]
    overrides: tuple[int, ...] | None = None
    epsilon: float = 0.05
    theta: float = 0.01


@dataclass(frozen=True)
class RefSplit:
    train: tuple[Rec, ...]
    test: tuple[Rec, ...]
    train_idx: np.ndarray
    target: float
    span: float


# --- plan and design --------------------------------------------------------


def _levels(spec: Spec) -> list[tuple[str, str, tuple[str, ...]]]:
    out = []
    for column, ref, declared in spec.model.categorical:
        levels = declared or tuple(sorted({r.values[column] for r in spec.records}))
        out.append((column, ref, tuple(l for l in levels if l != ref)))
    return out


def _done(rec: Rec) -> date:
    # A year-only completion is read as the last day of that year.
    return rec.done or date(rec.key, 12, 31)


def plan(spec: Spec) -> list[RefSplit]:
    """Training sets grow by whole periods; each split tests on later
    records (the next period, or everything left), and splits whose test
    set holds fewer than two records are merged forward.  The last split
    trains on everything."""
    recs = sorted(spec.records, key=lambda r: (r.key, r.id))
    oldest = recs[0].key
    step = 0.1 if spec.monthly else 1.0

    def index(r):
        return round(step * (1 + r.key - oldest), 10)

    wmin = 2 + len(spec.model.numeric) + sum(len(l) for _, _, l in _levels(spec))

    def make(train, test):
        idx = np.array([index(r) for r in train])
        target = min(index(r) for r in test) if test else round(idx.max() + step, 10)
        return RefSplit(tuple(train), tuple(test), idx, target,
                        round(float(idx.max() - idx.min()), 10))

    splits = []
    if spec.overrides is not None:
        if spec.mode != "remainder":
            raise ValueError("overrides are modelled for remainder tests only")
        for n in spec.overrides:
            if len(recs) - n >= 2:
                splits.append(make(recs[:n], recs[n:]))
        return splits + [make(recs, [])]

    groups = defaultdict(list)
    for r in recs:
        groups[r.key].append(r)
    groups = [groups[k] for k in sorted(groups)]
    gi, train = 0, []
    while gi < len(groups) and len(train) < wmin:
        train += groups[gi]
        gi += 1
    for g in range(gi, len(groups)):
        if spec.mode == "remainder":
            test = [r for grp in groups[g:] for r in grp]
        elif spec.mode == "date_filtered":
            last_done = max(_done(r) for r in train)
            test = [r for r in groups[g] if r.start is not None and r.start > last_done]
        else:
            test = groups[g]
        if len(test) >= 2:
            splits.append(make(train, test))
        train = train + groups[g]
    return splits + [make(train, [])]


def design(spec: Spec, recs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intercept-first design, transformed response and raw response."""
    model = spec.model
    levels = _levels(spec)
    rows = []
    for r in recs:
        row = [1.0]
        for column, log in model.numeric:
            v = r.values[column]
            row.append(math.log(v) if log else v)
        for column, _, non_ref in levels:
            row += [1.0 if r.values[column] == level else 0.0 for level in non_ref]
        rows.append(row)
    actual = np.array([r.values[model.response] for r in recs])
    y = np.log(actual) if model.log_response else actual
    return np.array(rows), y, actual


def kernel(kind: str, lags: np.ndarray) -> np.ndarray:
    if kind == "gaussian":
        return np.exp(-0.5 * lags * lags)
    if kind == "epanechnikov":
        return 1.0 - lags * lags
    if kind == "triangular":
        return 1.0 - lags
    if kind == "uniform":
        return np.ones_like(lags)
    raise ValueError(f"unknown kernel {kind!r}")


def horizon(kind: str, bandwidth: float, theta: float) -> float:
    if kind == "gaussian":
        return bandwidth * math.sqrt(-2.0 * math.log(theta))
    if kind == "epanechnikov":
        return bandwidth * math.sqrt(1.0 - theta)
    if kind == "triangular":
        return bandwidth * (1.0 - theta)
    return math.inf


def cell_res(spec: Spec, split: RefSplit, kind: str, bandwidth: float) -> tuple:
    """(re_train_nu, re_test_nu, re_train_u, re_test_u); test REs are None
    on the final split."""
    x, y, actual = design(spec, split.train)
    test = design(spec, split.test) if split.test else None

    def re(coef, xm, a):
        fitted = xm @ coef
        pred = np.exp(fitted) if spec.model.log_response else fitted
        return float(np.var(a - pred, ddof=1) / np.var(a, ddof=1))

    out = []
    for w in (kernel(kind, (split.target - split.train_idx) / bandwidth),
              np.ones(len(split.train))):
        sw = np.sqrt(w)
        coef = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)[0]
        out.append(re(coef, x, actual))
        out.append(re(coef, test[0], test[2]) if test else None)
    return tuple(out)


# --- the check --------------------------------------------------------------


def _f(text: str) -> float | None:
    return float(text) if text != "" else None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= RE_ATOL + RE_RTOL * abs(b)


def _verdict(curve, kind: str, span: float, eps: float, theta: float) -> dict:
    uniform = curve[0][2]
    tolerance = eps * max(1.0, uniform)
    b_star = None
    for b, re, _ in curve:
        if abs(re - uniform) <= tolerance:
            b_star = b if b_star is None else b_star
        else:
            b_star = None
    if b_star is None:
        return {"classification": "non_stationary", "bandwidth": None,
                "horizon": None, "span": span}
    h = horizon(kind, b_star, theta)
    if b_star == curve[0][0]:
        cls = "near_stationary"
    else:
        cls = "stationary" if h <= span else "non_stationary"
    return {"classification": cls, "bandwidth": b_star, "horizon": h, "span": span}


def check(spec: Spec, out_dir: Path, reported_cells: int | None, rng) -> tuple[list[str], dict]:
    """Problems found in one sweep's outputs (empty when correct), and
    figures about the check itself."""
    problems: list[str] = []
    with open(out_dir / "curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if reported_cells != len(rows):
        problems.append(f"curves.csv has {len(rows)} rows, sweep reported {reported_cells} cells")
    splits = plan(spec)
    by_split = defaultdict(list)
    for row in rows:
        by_split[(int(row["split"]), row["kernel"])].append(row)
    if {s for s, _ in by_split} != set(range(1, len(splits) + 1)):
        problems.append(f"curves.csv splits {sorted({s for s, _ in by_split})} "
                        f"differ from the reference plan's 1..{len(splits)}")
        return problems, {}

    for row in rows:
        final = int(row["split"]) == len(splits)
        if row["dataset"] != spec.dataset or final != (row["re_test_nu"] == ""):
            problems.append(f"malformed curves row {row}")
            break

    picks = rng.choice(len(rows), min(SAMPLED_CELLS, len(rows)) - 1, replace=False)
    sample = [rows[0]] + [rows[i] for i in picks]
    worst = 0.0
    for row in sample:
        split = splits[int(row["split"]) - 1]
        got = tuple(_f(row[c]) for c in ("re_train_nu", "re_test_nu", "re_train_u", "re_test_u"))
        want = cell_res(spec, split, row["kernel"], float(row["bandwidth"]))
        for g, w in zip(got, want):
            if g is not None and w is not None:
                worst = max(worst, abs(g - w) / max(abs(w), RE_ATOL))
        if not all(_close(g, w) for g, w in zip(got, want)):
            problems.append(f"cell split {row['split']} {row['kernel']} b={row['bandwidth']}: "
                            f"REs {got} != reference {want}")

    doc = json.loads((out_dir / "verdicts.json").read_text(encoding="utf-8"))
    verdicts = doc["verdicts"]
    if set(verdicts) != {f"{s}:{k}" for s, k in by_split}:
        problems.append(f"verdict keys {sorted(verdicts)} do not match curves.csv")
    classes = defaultdict(set)
    step = 0.1 if spec.monthly else 1.0
    for (s, kind), cells in by_split.items():
        curve = sorted((float(c["bandwidth"]), float(c["re_train_nu"]), float(c["re_train_u"]))
                       for c in cells)
        want = _verdict(curve, kind, max(splits[s - 1].span, step), spec.epsilon, spec.theta)
        got = verdicts.get(f"{s}:{kind}", {})
        if kind != "uniform":
            classes[s].add(want["classification"])
        same = all(
            got.get(k) == want[k] if k in ("classification", "bandwidth")
            else _close(got.get(k), want[k])
            for k in want
        )
        if not same:
            problems.append(f"verdict {s}:{kind} is {got}, rule gives {want}")
    weighted = {k for _, k in by_split if k != "uniform"}
    agreement = (sum(len(c) == 1 for c in classes.values()) / len(classes)
                 if len(weighted) >= 2 else None)
    if not _close(doc.get("kernel_agreement"), agreement):
        problems.append(f"kernel_agreement {doc.get('kernel_agreement')} != {agreement}")
    return problems, {"cells_recomputed": len(sample), "worst_re_rel_diff": worst}

"""Golden outputs of the bandwidth sweep on synthetic datasets.

The files under ``tests/golden/`` were generated from the command line,
with the default kernels (gaussian, epanechnikov, triangular):

    echo '{"seed": 42}' > seed42.json
    echo '{"seed": 7, "intercept_drift": 0.3}' > seed7_drift.json
    driftscope synth --config seed42.json --out seed42.csv
    driftscope sweep --descriptor seed42.descriptor.json --data seed42.csv \
        --grid 1:100:9 --out tests/golden/synth_seed42
    driftscope synth --config seed7_drift.json --out seed7_drift.csv
    driftscope sweep --descriptor seed7_drift.descriptor.json \
        --data seed7_drift.csv --grid 1:100:9 --out tests/golden/synth_seed7_drift

(``manifest.json`` holds a timestamp and is not kept.)  The stationary
seed-42 data gives only ``near_stationary`` verdicts; the drifting seed-7
data gives both ``near_stationary`` and ``non_stationary`` ones.  Any
change to the sweep must reproduce every relative error within
``RE_ATOL`` and every verdict exactly.

The ``*_seed1`` directories pin the shapes of the five builtin
descriptors: dummy coding and a derived product (nasa93, desharnais),
``DATE_FILTERED_TEST`` with day-first and year-only dates (kitchenham,
maxwell), and monthly ``REMAINDER_TEST`` with split overrides (xbc).
Their ``data.csv`` files are the benchmark's seed-1 inputs, written by
``workloads.build("promise-batch", 1, work)`` in ``bench/workloads.py``;
each was swept with its builtin descriptor:

    driftscope sweep --descriptor nasa93 --data nasa93_seed1/data.csv \
        --grid 1:100:9 --out tests/golden/nasa93_seed1

These designs have up to five columns and training sets as small as six
records, so their relative errors are held to ``SHAPES_RE_ATOL``, not
``RE_ATOL``.  Measured when the one-fit-per-cell ``lstsq`` solve gave way
to the batched Gram solve: the fixtures' relative errors moved by at most
7.8e-13 (nasa93), but the same nasa93 input on the default grid 1:100:1
moved by 1.09e-12, so 1e-12 does not hold for this shape.

Each fixture directory also holds ``plan.json``: the split plan of its
dataset as ``SplitPlan.to_rows()`` plus every split's ``target``,
``train_span``, ``train_indices`` and ``test_indices``.  The plans cover
the four plan shapes: year accumulation (the synthetic data, nasa93,
desharnais), date-filtered tests (kitchenham, maxwell), remainder tests
(xbc without its overrides, ``xbc_seed1/plan_remainder.json``) and split
overrides (xbc).  They were written by ``_plan_doc`` below, before splits
became row ranges of one design, and must not change:

    json.dump(_plan_doc(_plan(case)), fh, indent=1)
"""

import csv
import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from driftscope.chronology import ChronologyMode, build_split_plan
from driftscope.cli import main
from driftscope.datasets import SynthConfig, builtin_descriptor, load_dataset, synthesize

GOLDEN = Path(__file__).parent / "golden"
RE_ATOL = 1e-12
SHAPES_RE_ATOL = 1e-10
RE_COLUMNS = ("re_train_nu", "re_test_nu", "re_train_u", "re_test_u")

CASES = {
    "synth_seed42": {"seed": 42},
    "synth_seed7_drift": {"seed": 7, "intercept_drift": 0.3},
}
SHAPES = ("nasa93", "desharnais", "kitchenham", "maxwell", "xbc")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module", params=sorted(CASES))
def sweep(request, tmp_path_factory):
    name = request.param
    work = tmp_path_factory.mktemp(name)
    config = work / "config.json"
    config.write_text(json.dumps(CASES[name]))
    data = work / "data.csv"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    out = work / "out"
    assert main([
        "sweep", "--descriptor", str(data.with_suffix(".descriptor.json")),
        "--data", str(data), "--grid", "1:100:9", "--out", str(out),
    ]) == 0
    return GOLDEN / name, out


@pytest.fixture(scope="module", params=SHAPES)
def shape_sweep(request, tmp_path_factory):
    golden = GOLDEN / f"{request.param}_seed1"
    out = tmp_path_factory.mktemp(request.param) / "out"
    assert main([
        "sweep", "--descriptor", request.param, "--data", str(golden / "data.csv"),
        "--grid", "1:100:9", "--out", str(out),
    ]) == 0
    return golden, out


def _assert_curves_match(golden, out, atol):
    expected, actual = _rows(golden / "curves.csv"), _rows(out / "curves.csv")
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        for key in ("dataset", "split", "kernel", "bandwidth"):
            assert got[key] == want[key]
        for key in RE_COLUMNS:
            if want[key] == "":
                assert got[key] == ""
            else:
                assert math.isclose(
                    float(got[key]), float(want[key]), rel_tol=0.0, abs_tol=atol
                ), (want["split"], want["kernel"], want["bandwidth"], key)


def _assert_verdicts_match(golden, out):
    expected = json.loads((golden / "verdicts.json").read_text())
    actual = json.loads((out / "verdicts.json").read_text())
    assert actual == expected


def test_curves_match_golden(sweep):
    golden, out = sweep
    assert len(_rows(golden / "curves.csv")) == 272
    _assert_curves_match(golden, out, RE_ATOL)


def test_verdicts_match_golden(sweep):
    _assert_verdicts_match(*sweep)


def test_shape_curves_match_golden(shape_sweep):
    _assert_curves_match(*shape_sweep, SHAPES_RE_ATOL)


def test_shape_verdicts_match_golden(shape_sweep):
    _assert_verdicts_match(*shape_sweep)


def test_row_order_does_not_matter(shape_sweep, tmp_path):
    """A seeded shuffle of the data rows gives the same bytes: the split
    plan alone orders the records."""
    golden, out = shape_sweep
    header, *rows = (golden / "data.csv").read_text(encoding="utf-8").splitlines()
    in_file_order = list(rows)
    random.Random(golden.name).shuffle(rows)
    assert rows != in_file_order
    shuffled = tmp_path / "data.csv"
    shuffled.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    again = tmp_path / "out"
    assert main([
        "sweep", "--descriptor", golden.name.split("_")[0], "--data", str(shuffled),
        "--grid", "1:100:9", "--out", str(again),
    ]) == 0
    for name in ("curves.csv", "verdicts.json"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_drifting_fixture_covers_both_verdicts():
    doc = json.loads((GOLDEN / "synth_seed7_drift" / "verdicts.json").read_text())
    calls = {v["classification"] for v in doc["verdicts"].values()}
    assert calls == {"near_stationary", "non_stationary"}


PLANS = (*sorted(CASES), *(f"{s}_seed1" for s in SHAPES), "xbc_seed1/remainder")


def _plan(case):
    if case in CASES:
        ds = synthesize(SynthConfig(**CASES[case]))
    else:
        name = case.split("_")[0]
        ds = load_dataset(builtin_descriptor(name), GOLDEN / f"{name}_seed1" / "data.csv")
    if case.endswith("/remainder"):
        ds = dataclasses.replace(
            ds, descriptor=dataclasses.replace(ds.descriptor, overrides=None)
        )
    return build_split_plan(ds)


def _plan_doc(plan):
    return {
        "rows": plan.to_rows(),
        "splits": [
            {
                "ordinal": s.ordinal,
                "target": s.target,
                "train_span": s.train_span,
                "train_indices": list(s.train_indices),
                "test_indices": list(s.test_indices),
            }
            for s in plan.splits
        ],
    }


def _plan_path(case):
    if case.endswith("/remainder"):
        return GOLDEN / case.replace("/remainder", "") / "plan_remainder.json"
    return GOLDEN / case / "plan.json"


@pytest.mark.parametrize("case", PLANS)
def test_plan_matches_golden(case):
    plan = _plan(case)
    assert _plan_doc(plan) == json.loads(_plan_path(case).read_text())
    for s in plan.splits:
        assert type(s.train_ids) is tuple and type(s.test_ids) is tuple
        assert type(s.train_indices) is tuple and type(s.test_indices) is tuple
        assert type(s.target) is float and type(s.train_span) is float


def test_plan_shapes_are_covered():
    assert {_plan(case).mode for case in PLANS} == set(ChronologyMode)
    assert builtin_descriptor("xbc").overrides  # the override shape

"""Every golden fixture's sweep against an independent reference.

``bench/reference.py`` re-implements the split plan, the design, the
kernels, one ``np.linalg.lstsq`` fit per cell and the verdict rule without
importing driftscope.  The benchmark checks a sample of cells with it;
here every cell and every verdict of the seven fixtures the golden tests
sweep is checked, within the reference's ``RE_RTOL``.

Limits of the reference, and so of this check: it models split overrides
only for remainder tests, and it dummy-codes a categorical term with the
levels of all records, as driftscope does.
"""

import importlib.util
import json
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from driftscope.chronology import ChronologyMode
from driftscope.cli import main
from driftscope.datasets import DatasetDescriptor, builtin_descriptor, load_dataset
from driftscope.kernels import Granularity
from driftscope.stats import LOG

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SYNTH = {
    "synth_seed42": {"seed": 42},
    "synth_seed7_drift": {"seed": 7, "intercept_drift": 0.3},
}
SHAPES = ("nasa93", "desharnais", "kitchenham", "maxwell", "xbc")
MODES = {
    ChronologyMode.YEAR_ACCUMULATE: "accumulate",
    ChronologyMode.DATE_FILTERED_TEST: "date_filtered",
    ChronologyMode.REMAINDER_TEST: "remainder",
}
RE_COLUMNS = ("re_train_nu", "re_test_nu", "re_train_u", "re_test_u")


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("bench_reference", ROOT / "bench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve names through it
    spec.loader.exec_module(module)
    return module


def _spec(reference, dataset):
    """The reference's view of a dataset: its records with their calendar
    period keys, read from the records view, and its model."""
    d = dataset.descriptor
    terms = d.formula.terms
    model = reference.Model(
        response=d.formula.response,
        log_response=d.formula.response_transform == LOG,
        numeric=tuple((t.column, t.transform == LOG) for t in terms if t.kind == "numeric"),
        categorical=tuple(
            (t.column, t.reference, t.levels) for t in terms if t.kind == "categorical"
        ),
    )
    monthly = d.granularity is Granularity.MONTHLY

    def key(c):
        if not isinstance(c, date):
            return c
        return c.year * 12 + c.month - 1 if monthly else c.year

    records = tuple(
        reference.Rec(
            id=r.id,
            key=key(r.completion),
            done=r.completion if isinstance(r.completion, date) else None,
            start=r.start,
            values=r.attributes,
        )
        for r in dataset.records
    )
    return reference.Spec(
        dataset=d.name, monthly=monthly, mode=MODES[d.chronology], model=model,
        records=records, overrides=d.overrides,
    )


def _sweep(name, work):
    """The fixture's descriptor, data file and sweep arguments."""
    if name in SYNTH:
        config = work / "config.json"
        config.write_text(json.dumps(SYNTH[name]))
        data = work / "data.csv"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        path = data.with_suffix(".descriptor.json")
        return DatasetDescriptor.from_json(path.read_text()), data, str(path)
    shape = name.split("_")[0]
    return builtin_descriptor(shape), GOLDEN / name / "data.csv", shape


@pytest.mark.parametrize("name", [*SYNTH, *(f"{s}_seed1" for s in SHAPES)])
def test_every_cell_and_verdict_matches_the_reference(reference, name, tmp_path, capsys):
    descriptor, data, argument = _sweep(name, tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([
        "sweep", "--descriptor", argument, "--data", str(data), "--grid", "1:100:9",
        "--out", str(out),
    ]) == 0
    cells = int(capsys.readouterr().out.split(" cells -> ")[0].rsplit(" ", 1)[1])
    spec = _spec(reference, load_dataset(descriptor, data.read_bytes().decode("utf-8")))

    # plan, row count, verdicts and kernel agreement, and a sample of cells
    problems, _ = reference.check(spec, out, cells, np.random.default_rng(0))
    assert problems == []

    # every cell
    splits = reference.plan(spec)
    wrong = []
    with (out / "curves.csv").open(newline="", encoding="utf-8") as fh:
        for row in reference.csv.DictReader(fh):
            got = tuple(reference._f(row[c]) for c in RE_COLUMNS)
            want = reference.cell_res(
                spec, splits[int(row["split"]) - 1], row["kernel"], float(row["bandwidth"])
            )
            if not all(reference._close(g, w) for g, w in zip(got, want)):
                wrong.append((row["split"], row["kernel"], row["bandwidth"], got, want))
    assert wrong == []

"""The benchmark's tracer against the sweep.

``bench/spans.py`` wraps named functions where the sweep looks them up.
A function the sweep stops calling leaves its traced metric at 0, which
makes the benchmark's output malformed; so every span must record calls.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from driftscope import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture()
def tracer_cls():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer, module.TARGETS


def test_every_span_is_called(tracer_cls, tmp_path):
    Tracer, targets = tracer_cls
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 21, "n_projects": 60, "n_periods": 6}))
    data = tmp_path / "synth.csv"
    assert cli.main(["synth", "--config", str(config), "--out", str(data)]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main([
            "sweep", "--descriptor", str(data.with_suffix(".descriptor.json")),
            "--data", str(data), "--out", str(tmp_path / "out"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == []
    (layers,) = tracer.rounds()
    for _, _, span, _ in targets:
        assert layers[f"{span}.calls"] > 0, span
    # one stacked fit per split: the uniform row and every kernel's rows
    splits = layers["chronology.splits"]
    assert layers["stats.weighted_least_squares.calls"] == splits
    # one design per sweep, one row per record; splits take row ranges of it
    assert layers["stats.build_design_matrix.calls"] == 1
    records = layers["datasets.load_dataset.rows"]
    assert records == 60
    assert layers["stats.build_design_matrix.rows"] == records
    # the bench reads cells and verdicts off the returned objects: one cell
    # per curves.csv data row, one verdict per (split, kernel)
    with open(tmp_path / "out" / "curves.csv", newline="") as fh:
        rows = len(fh.read().splitlines()) - 1
    assert layers["analysis.cells"] == rows > 0
    assert layers["analysis.verdicts"] == splits * 3


def test_every_span_is_called_on_a_monthly_remainder_sweep(tracer_cls, tmp_path):
    """The monthly path: ISO completion dates, month period keys and
    remainder tests, on the xbc golden input."""
    Tracer, targets = tracer_cls
    data = Path(__file__).resolve().parent / "golden" / "xbc_seed1" / "data.csv"
    with open(data, newline="", encoding="utf-8") as fh:
        n_records = len(fh.read().splitlines()) - 1
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main([
            "sweep", "--descriptor", "xbc", "--data", str(data),
            "--grid", "1:100:9", "--out", str(tmp_path / "out"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == []
    (layers,) = tracer.rounds()
    for _, _, span, _ in targets:
        assert layers[f"{span}.calls"] > 0, span
    assert layers["datasets.load_dataset.rows"] == n_records == 16
    assert layers["stats.build_design_matrix.rows"] == n_records
    assert layers["chronology.test_rows"] > 0

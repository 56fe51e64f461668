import csv
import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from driftscope.analysis import (
    AnalysisConfig,
    Curve,
    SweepResult,
    detect_convergence,
    run_sweep,
)
from driftscope.chronology import Split, SplitPlan
from driftscope.cli import CURVE_COLUMNS, _curves_text, _grid_text, main, read_curves
from driftscope.datasets import (
    DataError,
    DatasetDescriptor,
    SynthConfig,
    builtin_descriptor,
    csv_text,
    load_dataset,
    synth_descriptor,
    synthesize,
)
from driftscope.kernels import Granularity, KernelKind

from test_analysis import _assert_same_curves

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def synth_csv(tmp_path):
    config = SynthConfig(seed=21, n_projects=60, n_periods=6)
    dataset = synthesize(config)
    data = tmp_path / "synth.csv"
    desc = tmp_path / "synth.descriptor.json"
    data.write_bytes(csv_text(dataset).encode("utf-8"))
    desc.write_text(dataset.descriptor.to_json())
    return data, desc


class TestDescribe:
    def test_builtin_maxwell_shows_formula(self, capsys):
        assert main(["describe", "maxwell"]) == 0
        out = capsys.readouterr().out
        assert "T08" in out and "T09" in out
        assert "ln(Effort) = ln(Size) + T08 + T09" in out
        # the first values of the default grid above a 16-period span
        assert "epanechnikov >= 17\n" in out and "triangular >= 17\n" in out

    def test_descriptor_file(self, synth_csv, capsys):
        _, desc = synth_csv
        assert main(["describe", str(desc)]) == 0
        assert "ln(effort) = ln(size)" in capsys.readouterr().out

    def test_unknown_descriptor(self, capsys):
        assert main(["describe", "isbsg"]) == 2

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d.pop("formula"), "'formula'"),
            (lambda d: d["formula"]["terms"][0].pop("column"), "'column'"),
            (lambda d: d.update(granularity="weekly"), "'weekly'"),
            (lambda d: d["formula"]["terms"][0].update(kind="ordinal"), "'ordinal'"),
            (lambda d: d.update(formula=["effort"]), "descriptor key 'formula' must be an object"),
        ],
        ids=["no-formula", "term-without-column", "weekly", "term-kind", "formula-list"],
    )
    def test_malformed_descriptor_is_a_validation_error(self, tmp_path, capsys, edit, named):
        doc = json.loads(synth_descriptor(SynthConfig()).to_json())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["describe", str(path)]) == 2
        assert named in capsys.readouterr().err


def _set(*path_and_value):
    """An edit of a descriptor document: the value at a path of keys."""
    *path, key, value = path_and_value

    def edit(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value

    return edit


# (edit of the synth descriptor, the whole message)
MISTYPED_DESCRIPTOR = {
    "fractional-override": (
        _set("overrides", [30.5, 60]),
        "descriptor key 'overrides' must be a list of integers, got [30.5, 60]"),
    "string-overrides": (
        _set("overrides", ["30", "60"]),
        "descriptor key 'overrides' must be a list of integers, got ['30', '60']"),
    "bool-override": (
        _set("overrides", [True, 60]),
        "descriptor key 'overrides' must be a list of integers, got [True, 60]"),
    "string-expected-rows": (
        _set("expected_rows", "60"),
        "descriptor key 'expected_rows' must be an integer, got '60'"),
    "columns-list": (
        _set("columns", ["id"]), "descriptor key 'columns' must be an object, got ['id']"),
    "null-column": (
        _set("columns", "id", None), "descriptor key 'columns.id' must be a string, got None"),
    "no-id-column": (
        _set("columns", {"completion": "year"}), "descriptor is missing key 'id'"),
    "filters-object": (
        _set("filters", {"column": "size"}),
        "descriptor key 'filters' must be a list of objects, got {'column': 'size'}"),
    "filters-of-strings": (
        _set("filters", ["x"]), "descriptor key 'filters' must be a list of objects, got ['x']"),
    "filter-exclude-number": (
        _set("filters", [{"column": "size", "exclude": 5}]),
        "descriptor key 'filters[0].exclude' must be a list of strings, got 5"),
    "filter-without-column": (
        _set("filters", [{"equals": "2"}]), "descriptor is missing key 'column'"),
    "derived-number": (
        _set("derived_products", {"x": 5}),
        "descriptor key 'derived_products.x' must be a list of strings, got 5"),
    "numeric-response": (
        _set("formula", "response", 5), "descriptor key 'formula.response' must be a string, got 5"),
    "terms-object": (
        _set("formula", "terms", {"column": "size"}),
        "descriptor key 'formula.terms' must be a list of objects, got {'column': 'size'}"),
    "string-levels": (
        _set("formula", "terms", 0, "levels", "abc"),
        "descriptor key 'formula.terms[0].levels' must be a list of strings, got 'abc'"),
    "numeric-reference": (
        _set("formula", "terms", 0, "reference", 1),
        "descriptor key 'formula.terms[0].reference' must be a string, got 1"),
    "null-name": (_set("name", None), "descriptor key 'name' must be a string, got None"),
    "null-exclude": (
        _set("filters", [{"column": "size", "exclude": None}]),
        "descriptor key 'filters[0].exclude' must be a list of strings, got None"),
    # filter values are compared with cell text, so they must be text
    "filter-equals-null": (
        _set("filters", [{"column": "size", "equals": None}]),
        "descriptor key 'filters[0].equals' must be a string, got None"),
    "filter-equals-number": (
        _set("filters", [{"column": "size", "equals": 2}]),
        "descriptor key 'filters[0].equals' must be a string, got 2"),
    "filter-exclude-null": (
        _set("filters", [{"column": "size", "exclude": [None]}]),
        "descriptor key 'filters[0].exclude' must be a list of strings, got [None]"),
    # misspelt keys would silently switch their checks off
    "unknown-key": (_set("expected_row", 119), "unknown descriptor keys: 'expected_row'"),
    "unknown-keys": (
        _set("filter", [{"column": "size", "equals": "0"}]),
        "unknown descriptor keys: 'filter'"),
    "unknown-column-key": (
        _set("columns", "completon", "year"), "unknown descriptor keys: 'columns.completon'"),
    "unknown-formula-key": (
        _set("formula", "respones", "effort"), "unknown descriptor keys: 'formula.respones'"),
    "unknown-term-key": (
        _set("formula", "terms", 0, "transfrom", "log"),
        "unknown descriptor keys: 'formula.terms[0].transfrom'"),
    "unknown-filter-key": (
        _set("filters", [{"column": "size", "not_missing": True}]),
        "unknown descriptor keys: 'filters[0].not_missing'"),
    "filter-equals-and-exclude": (
        _set("filters", [{"column": "size", "equals": "0", "exclude": []}]),
        "descriptor key 'filters[0]' needs exactly one of 'equals' and 'exclude'"),
    "filter-without-test": (
        _set("filters", [{"column": "size"}]),
        "descriptor key 'filters[0]' needs exactly one of 'equals' and 'exclude'"),
}


class TestDescriptorFieldTypes:
    @pytest.mark.parametrize("case", sorted(MISTYPED_DESCRIPTOR))
    def test_mistyped_field_names_its_key(self, synth_csv, tmp_path, capsys, case):
        edit, message = MISTYPED_DESCRIPTOR[case]
        data, desc = synth_csv
        doc = json.loads(desc.read_text())
        edit(doc)
        desc.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["sweep", "--descriptor", str(desc), "--data", str(data), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"driftscope: {message}\n"
        assert not out.exists()

    def test_a_null_optional_field_is_an_absent_one(self, synth_csv):
        _, desc = synth_csv
        doc = json.loads(desc.read_text())
        doc.update(filters=None, derived_products=None, overrides=None, expected_rows=None)
        doc["formula"]["response_transform"] = None
        doc["formula"]["terms"][0].update(kind=None, transform=None, reference=None, levels=None)
        null = json.dumps(doc)
        absent = json.dumps(json.loads(
            null, object_hook=lambda d: {k: v for k, v in d.items() if v is not None}
        ))
        assert "null" not in absent
        assert DatasetDescriptor.from_json(null) == DatasetDescriptor.from_json(absent)


class TestValidate:
    def test_valid_data(self, synth_csv, capsys):
        data, desc = synth_csv
        assert main(["validate", "--descriptor", str(desc), "--data", str(data)]) == 0
        assert "60 records" in capsys.readouterr().out

    def test_row_count_mismatch(self, synth_csv, tmp_path, capsys):
        data, desc = synth_csv
        lines = data.read_text().splitlines()
        truncated = tmp_path / "short.csv"
        truncated.write_text("\n".join(lines[:-2]) + "\n")
        assert main(["validate", "--descriptor", str(desc), "--data", str(truncated)]) == 2

    def test_short_row_is_a_validation_error(self, synth_csv, tmp_path, capsys):
        data, desc = synth_csv
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]  # drop the row's last field
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--descriptor", str(desc), "--data", str(short)]) == 2
        rid = lines[3].split(",")[0]
        assert f"record {rid!r} (line 4) has 3 of the header's 4 fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,period_line",
        [
            ("maxwell", "maxwell: 62 records, 1985 .. 1993"),  # year-only
            ("kitchenham", "kitchenham: 105 records, 1994 .. 1999"),  # dated, yearly
            ("xbc", "xbc: 16 records, 2003-02 .. 2005-09"),  # dated, monthly
        ],
    )
    def test_prints_first_and_last_period(self, capsys, name, period_line):
        data = GOLDEN / f"{name}_seed1" / "data.csv"
        assert main(["validate", "--descriptor", name, "--data", str(data)]) == 0
        assert capsys.readouterr().out == period_line + "\n"


class TestSweep:
    def _run(self, synth_csv, tmp_path, *extra):
        data, desc = synth_csv
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                "--out", str(out), *extra,
            ]
        )
        return code, out

    def test_writes_curves_verdicts_manifest(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        assert (out / "curves.csv").exists()
        assert (out / "verdicts.json").exists()
        assert (out / "manifest.json").exists()
        with open(out / "curves.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "dataset", "split", "kernel", "bandwidth",
            "re_train_nu", "re_test_nu", "re_train_u", "re_test_u",
        ]

    def test_curves_round_trip_exactly(self, synth_csv, tmp_path):
        from driftscope.analysis import run_sweep
        from driftscope.datasets import load_dataset, DatasetDescriptor
        from driftscope.kernels import KernelKind

        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian,triangular")
        assert code == 0
        curves = read_curves(out / "curves.csv")
        data, desc = synth_csv
        descriptor = DatasetDescriptor.from_json(desc.read_text())
        kernels = (KernelKind.GAUSSIAN, KernelKind.TRIANGULAR)
        result = run_sweep(load_dataset(descriptor, data.read_bytes().decode("utf-8")), kernels)
        _assert_same_curves(curves, result.curves)  # kernels in the file's order

    def test_saved_curves_read_to_the_same_convergence(self, synth_csv, tmp_path):
        data, desc = synth_csv
        dataset = load_dataset(DatasetDescriptor.from_json(desc.read_text()), data.read_text())
        result = run_sweep(dataset, (KernelKind.TRIANGULAR, KernelKind.GAUSSIAN))
        curves = tmp_path / "curves.csv"
        curves.write_text(_curves_text(result), newline="")
        saved = read_curves(curves)
        _assert_same_curves(saved, result.curves)
        epsilon = result.config.epsilon
        for kind, curve in result.curves.items():
            points = detect_convergence(curve, epsilon)
            assert len(points) == len(result.plan.splits)
            assert detect_convergence(saved[kind], epsilon) == points

    @staticmethod
    def _late_level_sweep(synth_csv, tmp_path, *extra):
        """A Gaussian sweep with a categorical term whose second level is
        first seen in the last year, so that its dummy column is all zero
        on split 1's training rows: a singular design."""
        data, desc = synth_csv
        rows = list(csv.reader(io.StringIO(data.read_text())))
        last = max(row[1] for row in rows[1:])  # the year column
        rows[0].append("mode")
        for row in rows[1:]:
            row.append("late" if row[1] == last else "early")
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        descriptor = json.loads(desc.read_text())
        descriptor["formula"]["terms"].append(
            {"column": "mode", "kind": "categorical", "reference": "early"}
        )
        desc.write_text(json.dumps(descriptor))
        return main([
            "sweep", "--descriptor", str(desc), "--data", str(data),
            "--kernels", "gaussian", "--out", str(tmp_path / "out"), *extra,
        ])

    def test_failed_cell_exits_3_with_coordinates(self, synth_csv, tmp_path, capsys):
        assert self._late_level_sweep(synth_csv, tmp_path) == 3
        assert capsys.readouterr().err.strip() == (
            "driftscope: [split 1, kernel gaussian, bandwidth 1] singular design"
        )
        assert not (tmp_path / "out").exists()

    def test_failed_cell_names_its_bandwidth_exactly(self, synth_csv, tmp_path, capsys):
        # no bandwidth of this grid reads 1 to six significant digits
        grid = "1.0000001:1.0000009:0.0000001"
        assert self._late_level_sweep(synth_csv, tmp_path, "--grid", grid) == 3
        assert capsys.readouterr().err.strip() == (
            "driftscope: [split 1, kernel gaussian, bandwidth 1.0000001] singular design"
        )

    def test_unbuildable_design_exits_3_before_any_split(self, synth_csv, tmp_path, capsys):
        # The design is built once, before any split runs, so a value the
        # log transform rejects is reported without split coordinates,
        # even when only the final all-data split trains on its record.
        data, _ = synth_csv
        lines = data.read_text().splitlines()
        fields = lines[-1].split(",")
        lines[-1] = ",".join([*fields[:3], "0"])  # the last record's size
        data.write_text("\n".join(lines) + "\n")
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            "driftscope: cannot log-transform nonpositive size=0.0"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_is_a_validation_error(self, synth_csv, tmp_path, capsys, value):
        data, _ = synth_csv
        lines = data.read_text().splitlines()
        fields = lines[3].split(",")
        lines[3] = ",".join([*fields[:2], value, fields[3]])  # the record's effort
        data.write_text("\n".join(lines) + "\n")
        code, out = self._run(synth_csv, tmp_path)
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"driftscope: non-finite value {value!r} in column 'effort' for {fields[0]!r}"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "factors", [("inf",), ("nan",), ("1e200", "1e200")], ids=["inf", "nan", "overflow"]
    )
    def test_non_finite_eaf_is_a_validation_error(self, tmp_path, capsys, factors):
        header, *rows = (GOLDEN / "nasa93_seed1" / "data.csv").read_text().splitlines()
        at = header.split(",").index("rely")
        fields = rows[5].split(",")
        fields[at:at + len(factors)] = factors
        rows[5] = ",".join(fields)
        data = tmp_path / "nasa93.csv"
        data.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        assert main(["sweep", "--descriptor", "nasa93", "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"driftscope: non-finite product for derived column 'eaf' in {fields[0]!r}"
        )
        assert not out.exists()

    def test_custom_grid_honored(self, synth_csv, tmp_path):
        code, out = self._run(
            synth_csv, tmp_path, "--kernels", "epanechnikov", "--grid", "17:100:1"
        )
        assert code == 0
        bandwidths = {b for c in read_curves(out / "curves.csv").values() for b in c.bandwidths}
        assert min(bandwidths) == 17 and max(bandwidths) == 100

    def test_finite_support_grid_keeps_its_first_value_above_the_span(self, tmp_path):
        # 22 periods: the all-data split's target lies 22 past the oldest
        # record, and 22.0000000001 is the first grid value above that
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"seed": 3, "n_periods": 22, "n_projects": 200}))
        data = tmp_path / "synth.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        out = tmp_path / "out"
        assert main([
            "sweep", "--descriptor", str(data.with_suffix(".descriptor.json")),
            "--data", str(data), "--kernels", "triangular",
            "--grid", "21.9999999999:22.000000001:2.0001e-10", "--out", str(out),
        ]) == 0
        assert {c.bandwidths for c in read_curves(out / "curves.csv").values()} == {
            (22.0000000001, 22.0000000003, 22.0000000005, 22.0000000007, 22.0000000009)
        }

    def test_all_data_split_has_empty_test_fields(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        with open(out / "curves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        final = rows[-1]["split"]
        for row in rows:
            empty = [row[c] == "" for c in ("re_test_nu", "re_test_u")]
            assert empty == [row["split"] == final] * 2
        [curve] = read_curves(out / "curves.csv").values()
        assert len(curve.re_test_u) == int(final)
        assert np.isnan(curve.re_test_nu[-1]).all() and np.isnan(curve.re_test_u[-1])

    def test_verdicts_keyed_by_split_and_kernel(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian,triangular")
        doc = json.loads((out / "verdicts.json").read_text())
        keys = set(doc["verdicts"])
        assert any(k.endswith(":gaussian") for k in keys)
        assert any(k.endswith(":triangular") for k in keys)
        for entry in doc["verdicts"].values():
            assert entry["classification"] in (
                "stationary", "near_stationary", "non_stationary"
            )

    def test_verdicts_are_strict_json(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "triangular,gaussian")
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((out / "verdicts.json").read_text(), parse_constant=reject)
        assert doc["verdicts"]
        for entry in doc["verdicts"].values():
            # a horizon is null only where no bandwidth converged
            assert (entry["bandwidth"] is None) == (entry["horizon"] is None)

    def test_manifest_digest_is_sha256_of_data(self, synth_csv, tmp_path):
        data, _ = synth_csv
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digest"] == hashlib.sha256(data.read_bytes()).hexdigest()

    def test_byte_order_mark_is_not_part_of_the_header(self, synth_csv, tmp_path, capsys):
        data, desc = synth_csv
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
        assert main(["validate", "--descriptor", str(desc), "--data", str(data)]) == 0
        plain = capsys.readouterr()
        assert main(["validate", "--descriptor", str(desc), "--data", str(marked)]) == 0
        assert capsys.readouterr() == plain
        outs = []
        for path in (data, marked):
            out = tmp_path / path.stem
            assert main([
                "sweep", "--descriptor", str(desc), "--data", str(path),
                "--grid", "1:20:1", "--out", str(out),
            ]) == 0
            outs.append(out)
        for name in ("curves.csv", "verdicts.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # the digest is of the file's bytes, the mark included
        manifest = json.loads((outs[1] / "manifest.json").read_text())
        assert manifest["input_digest"] == hashlib.sha256(marked.read_bytes()).hexdigest()

    def test_manifest_without_overrides(self, synth_csv, tmp_path):
        _, desc = synth_csv
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["overrides"] is None
        assert manifest["config"]["kernels"] == ["gaussian"]
        expected = DatasetDescriptor.from_json(desc.read_text()).to_json()
        assert manifest["descriptor_digest"] == hashlib.sha256(expected.encode()).hexdigest()

    def test_default_config_is_the_analysis_default(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        default = AnalysisConfig()
        assert (config["epsilon"], config["theta"]) == (default.epsilon, default.theta)
        assert [float(v) for v in config["grid"].split(":")] == [
            default.grid_lo, default.grid_hi, default.grid_step
        ]

    def test_manifest_grid_is_exact(self, synth_csv, tmp_path):
        grid = "1:20:0.1234567"
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian", "--grid", grid)
        assert code == 0
        recorded = json.loads((out / "manifest.json").read_text())["config"]["grid"]
        assert recorded == grid
        assert [float(v) for v in recorded.split(":")] == [1.0, 20.0, 0.1234567]
        [curve, *_] = read_curves(out / "curves.csv").values()
        assert curve.bandwidths[1] == 1.1234567
        assert _grid_text(AnalysisConfig()) == "1:100:1"

    def test_manifest_records_the_overrides_that_ran(self, tmp_path):
        data = GOLDEN / "xbc_seed1" / "data.csv"
        manifests = []
        for extra in ((), ("--overrides", "7,10")):
            out = tmp_path / f"out{len(extra)}"
            assert main([
                "sweep", "--descriptor", "xbc", "--data", str(data), "--kernels", "gaussian",
                "--grid", "1:100:99", "--out", str(out), *extra,
            ]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        builtin, given = manifests
        assert builtin["config"]["overrides"] == [7, 10, 12, 13, 14]
        assert given["config"]["overrides"] == [7, 10]
        digest = hashlib.sha256(builtin_descriptor("xbc").to_json().encode()).hexdigest()
        assert builtin["descriptor_digest"] == digest != given["descriptor_digest"]

    def test_unknown_kernel_is_usage_error(self, synth_csv, tmp_path):
        code, _ = self._run(synth_csv, tmp_path, "--kernels", "cauchy")
        assert code == 1

    def test_missing_data_file(self, synth_csv, tmp_path):
        _, desc = synth_csv
        code = main(
            [
                "sweep", "--descriptor", str(desc),
                "--data", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_infeasible_grid_is_compute_error(self, synth_csv, tmp_path, capsys):
        code, out = self._run(
            synth_csv, tmp_path, "--kernels", "triangular", "--grid", "1:3:1"
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "driftscope: empty grid: triangular kernel needs a bandwidth above 6, "
            "grid 1:3:1 tops out at 3\n"
        )
        assert not out.exists()

    def test_a_monthly_span_is_named_exactly(self, tmp_path, capsys):
        code = main([
            "sweep", "--descriptor", "xbc", "--data", str(GOLDEN / "xbc_seed1" / "data.csv"),
            "--grid", "1:3:1", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "driftscope: empty grid: epanechnikov kernel needs a bandwidth above 3.2, "
            "grid 1:3:1 tops out at 3\n"
        )


def _reference_curves_text(result) -> str:
    """curves.csv as one csv.writer row per sweep cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CURVE_COLUMNS)
    for c in result.cells:
        writer.writerow(
            [
                result.dataset,
                c.split,
                c.kernel.value,
                repr(c.bandwidth),
                repr(c.re_train_nu),
                "" if c.re_test_nu is None else repr(c.re_test_nu),
                repr(c.re_train_u),
                "" if c.re_test_u is None else repr(c.re_test_u),
            ]
        )
    return buf.getvalue()


def _hand_built_result(name: str) -> SweepResult:
    gaussian, epanechnikov = KernelKind.GAUSSIAN, KernelKind.EPANECHNIKOV
    g, e = (0.5, 1.0, 1.5, 2.0), (3.0,)  # the epanechnikov grid has one value
    nan = float("nan")
    curves = {
        gaussian: Curve(
            g,
            np.array([[0.1 + 0.2, 1 / 3, 2.5e-17, 12345.678901234567], [0.25, 0.125, 2.0, 3e-08]]),
            np.array([[1.0, 0.5, 1e-05, 7.0], [nan] * 4]),  # the all-data split: NaN
            np.array([0.7, 0.4]),
            np.array([1e300, nan]),
        ),
        epanechnikov: Curve(
            e, np.array([[0.7], [0.4]]), np.array([[1e300], [nan]]),
            np.array([0.7, 0.4]), np.array([1e300, nan]),
        ),
    }
    # two splits of four records: the first tests on the last two, and the
    # second is the all-data split
    ids = np.array(["p1", "p2", "p3", "p4"])
    splits = (
        Split(1, 2, np.array([2, 3]), 1.0, 1.0, ids),
        Split(2, 4, np.array([], dtype=np.intp), 2.0, 2.0, ids),
    )
    plan = SplitPlan(Granularity.YEARLY, np.arange(4), np.array([0, 0, 1, 1]), splits, (0, 2))
    return SweepResult(dataset=name, config=AnalysisConfig(), plan=plan, curves=curves)


class TestCurvesText:
    @pytest.mark.parametrize("name", ['a,"b"', "plain", "two\nlines", "", " pad "])
    def test_bytes_match_a_csv_writer(self, name):
        result = _hand_built_result(name)
        assert _curves_text(result) == _reference_curves_text(result)

    def test_bytes_match_a_csv_writer_on_a_sweep(self, synth_csv):
        data, desc = synth_csv
        text = data.read_bytes().decode("utf-8")
        dataset = load_dataset(DatasetDescriptor.from_json(desc.read_text()), text)
        result = run_sweep(
            dataset, (KernelKind.GAUSSIAN, KernelKind.EPANECHNIKOV), AnalysisConfig(grid_step=7.0)
        )
        text = _curves_text(result)
        assert text == _reference_curves_text(result)
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
        assert len(rows) == len(result.cells)
        # every number is a plain float repr, not np.float64(...)
        assert all(repr(float(field)) == field for row in rows for field in row[3:] if field)


class TestPlot:
    def test_writes_svg(self, synth_csv, tmp_path):
        data, desc = synth_csv
        out = tmp_path / "out"
        main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                "--kernels", "gaussian", "--out", str(out),
            ]
        )
        svg = tmp_path / "chart.svg"
        code = main(
            [
                "plot", "--curves", str(out / "curves.csv"),
                "--split", "1", "--kernel", "gaussian", "--out", str(svg),
            ]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        for label in ("train", "test", "train global", "test global"):
            assert f">{label}</text>" in text

    def test_all_data_split_has_two_curves(self, synth_csv, tmp_path):
        data, desc = synth_csv
        out = tmp_path / "out"
        main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                "--kernels", "gaussian", "--out", str(out),
            ]
        )
        final = len(read_curves(out / "curves.csv")[KernelKind.GAUSSIAN].re_train_u)
        svg = tmp_path / "final.svg"
        main(
            [
                "plot", "--curves", str(out / "curves.csv"),
                "--split", str(final), "--kernel", "gaussian", "--out", str(svg),
            ]
        )
        text = svg.read_text()
        assert text.count("<polyline") == 2

    def test_uniform_kernel_is_a_usage_error(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text(_curves_text(_hand_built_result("d")), newline="")
        svg = tmp_path / "x.svg"
        code = main([
            "plot", "--curves", str(curves), "--split", "1", "--kernel", "uniform",
            "--out", str(svg),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "driftscope: unknown kernel 'uniform'; "
            "choose from gaussian, epanechnikov, triangular\n"
        )
        assert not svg.exists()

    @staticmethod
    def _non_finite(field, at):
        """The hand-built result with the gaussian curve's ``field`` not
        finite at ``at``: NaN for a bandwidth, inf for a relative error."""
        result = _hand_built_result("d")
        curve = result.curves[KernelKind.GAUSSIAN]
        if field == "bandwidths":
            bandwidths = list(curve.bandwidths)
            bandwidths[at] = float("nan")
            curve = dataclasses.replace(curve, bandwidths=tuple(bandwidths))
        else:
            getattr(curve, field)[at] = float("inf")
        return dataclasses.replace(result, curves={**result.curves, KernelKind.GAUSSIAN: curve})

    @pytest.mark.parametrize(
        "field,at,refused,drawn",
        [
            # the final split draws no test values
            ("re_test_nu", (0, 1), [1], [2]),
            ("re_train_nu", (1, 3), [2], [1]),
            ("re_test_u", 0, [1], [2]),
            ("bandwidths", 0, [1, 2], []),
        ],
        ids=["inf-test-re", "inf-train-re", "inf-test-u", "nan-bandwidth"],
    )
    def test_non_finite_slice_is_refused(self, tmp_path, capsys, field, at, refused, drawn):
        result = self._non_finite(field, at)
        curves = tmp_path / "curves.csv"
        curves.write_text(_curves_text(result), newline="")
        # the file reads back exactly, non-finite value and all
        _assert_same_curves(read_curves(curves), result.curves)
        for split in refused:
            svg = tmp_path / f"refused{split}.svg"
            code = main([
                "plot", "--curves", str(curves), "--split", str(split), "--kernel", "gaussian",
                "--out", str(svg),
            ])
            assert code == 2
            assert capsys.readouterr().err == (
                f"driftscope: split {split}, kernel gaussian in {curves} holds a non-finite "
                f"bandwidth or relative error, which cannot be plotted\n"
            )
            assert not svg.exists()
        # the other slices draw as before
        for split, kernel in [(s, "gaussian") for s in drawn] + [(1, "epanechnikov")]:
            svg = tmp_path / f"drawn{split}{kernel}.svg"
            code = main([
                "plot", "--curves", str(curves), "--split", str(split), "--kernel", kernel,
                "--out", str(svg),
            ])
            assert code == 0
            assert "nan" not in svg.read_text() and "inf" not in svg.read_text()

    def test_missing_slice(self, synth_csv, tmp_path):
        data, desc = synth_csv
        out = tmp_path / "out"
        main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                "--kernels", "gaussian", "--out", str(out),
            ]
        )
        code = main(
            [
                "plot", "--curves", str(out / "curves.csv"),
                "--split", "999", "--kernel", "gaussian",
                "--out", str(tmp_path / "x.svg"),
            ]
        )
        assert code == 2


class TestReadCurves:
    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda row: row.replace(",0.5,", ",abc,", 1), "'abc'"),
            (lambda row: row.replace("gaussian", "cosine"), "'cosine' is not a valid"),
            (lambda row: row.rsplit(",", 3)[0], "line 2"),  # a short row
            (lambda row: row + ",EXTRA", "9 fields, the header has 8"),
            # the uniform model is a curve's re_*_u columns, not a kernel
            (lambda row: row.replace("gaussian", "uniform"), "'uniform' is not a valid"),
        ],
        ids=["non-numeric", "unknown-kernel", "short-row", "extra-field", "uniform-kernel"],
    )
    def test_malformed_row_is_a_validation_error(self, tmp_path, capsys, edit, named):
        lines = _curves_text(_hand_built_result("d")).split("\r\n")
        lines[1] = edit(lines[1])
        curves = tmp_path / "curves.csv"
        curves.write_text("\r\n".join(lines), newline="")
        with pytest.raises(DataError, match="line 2"):
            read_curves(curves)
        svg = tmp_path / "x.svg"
        code = main([
            "plot", "--curves", str(curves), "--split", "1", "--kernel", "gaussian",
            "--out", str(svg),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{curves}, line 2: " in err and named in err
        assert not svg.exists()


    @pytest.mark.parametrize(
        "line,edit,message",
        [
            (2, lambda f: f[:5] + ["", *f[6:]],
             "re_test_nu and re_test_u must both be given or both be empty"),
            (3, lambda f: f[:6] + ["0.8", f[7]],
             "re_train_u and re_test_u differ from those of the first row of split 1, "
             "kernel gaussian"),
            (3, lambda f: f[:5] + ["", f[6], ""],
             "re_train_u and re_test_u differ from those of the first row of split 1, "
             "kernel gaussian"),
            # each kernel's splits run 1, 2, ... in order
            (7, lambda f: [f[0], "3", *f[2:]], "split 3 of kernel gaussian is out of order"),
            (10, lambda f: [f[0], "1", *f[2:]], "split 1 of kernel gaussian is out of order"),
            (7, lambda f: f[:3] + ["0.75", *f[4:]],
             "split 2 of kernel gaussian has other bandwidths than split 1"),
            # test fields on every split but the last
            (11, lambda f: f[:5] + ["0.9", f[6], "0.8"],
             "split 2 of kernel epanechnikov is the last, so its test fields must be empty"),
            (6, lambda f: f[:5] + ["", f[6], ""],
             "split 1 of kernel epanechnikov is not the last, so its test fields must be given"),
        ],
        ids=[
            "one-test-field", "train-u-differs", "test-fields-dropped", "split-skipped",
            "split-returns", "other-bandwidths", "last-split-tested", "split-untested",
        ],
    )
    def test_rows_of_one_curve_must_agree(self, tmp_path, capsys, line, edit, message):
        lines = _curves_text(_hand_built_result("d")).split("\r\n")
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        curves = tmp_path / "curves.csv"
        curves.write_text("\r\n".join(lines), newline="")
        with pytest.raises(DataError) as exc:
            read_curves(curves)
        assert str(exc.value) == f"{curves}, line {line}: {message}"
        code = main([
            "plot", "--curves", str(curves), "--split", "1", "--kernel", "gaussian",
            "--out", str(tmp_path / "x.svg"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"driftscope: {exc.value}\n"

    def test_hand_built_curves_round_trip(self, tmp_path):
        result = _hand_built_result("d")
        curves = tmp_path / "curves.csv"
        curves.write_text(_curves_text(result), newline="")
        _assert_same_curves(read_curves(curves), result.curves)


class TestSynth:
    def test_same_seed_same_digest(self, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["synth", "--seed", "5", "--out", str(path)]) == 0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_writes_matching_descriptor(self, tmp_path):
        path = tmp_path / "s.csv"
        main(["synth", "--seed", "5", "--out", str(path)])
        desc = path.with_suffix(".descriptor.json")
        assert desc.exists()
        assert main(["validate", "--descriptor", str(desc), "--data", str(path)]) == 0

    @pytest.mark.parametrize(
        "config,named",
        [({"bogus": 1, "seed": 2, "zeta": 0}, "bogus, zeta"), ([1, 2], "JSON object")],
        ids=["unknown-keys", "list"],
    )
    def test_malformed_config_is_a_validation_error(self, tmp_path, capsys, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,code,named",
        [
            ({"n_projects": "abc"}, 2, "synth config key 'n_projects' must be int, got 'abc'"),
            ({"n_projects": 100.5}, 2, "synth config key 'n_projects' must be int, got 100.5"),
            ({"n_periods": True}, 2, "synth config key 'n_periods' must be int, got True"),
            ({"noise_sd": "0.1"}, 2, "synth config key 'noise_sd' must be float, got '0.1'"),
            ({"slope": False}, 2, "synth config key 'slope' must be float, got False"),
            ({"seed": None}, 2, "synth config key 'seed' must be int, got None"),
            ({"seed": -1}, 2, "seed must be non-negative, got -1"),
        ],
        ids=["str-int", "float-int", "bool-int", "str-float", "bool-float", "null", "negative-seed"],
    )
    def test_mistyped_config(self, tmp_path, capsys, config, code, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == code
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_int_is_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"slope": 2, "noise_sd": 0}))
        out = tmp_path / "s.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert SynthConfig.from_json(cfg.read_text()) == SynthConfig(slope=2.0, noise_sd=0.0)

    def test_infeasible_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_projects": 4, "n_periods": 2}))
        code = main(
            ["synth", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "config,named",
        [
            ({"n_projects": 8, "n_periods": 10}, "n_periods 10 exceeds n_projects 8"),
            ({"n_periods": 1}, "need at least 2 periods"),
            ({"noise_sd": -0.5}, "negative noise sd: -0.5"),
            ({"size_lo": 50, "size_hi": 5}, "need 0 < size_lo < size_hi"),
        ],
    )
    def test_out_of_range_config_is_an_input_error(self, tmp_path, capsys, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_a_failed_write_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        def replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "synth" / "synth.csv"
        assert main(["synth", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"driftscope: cannot replace {out}\n"
        assert list(out.parent.iterdir()) == []  # no CSV, no temporary file


def _write_every_file(tmp_path) -> dict:
    """Run synth, sweep and plot into ``tmp_path``; the mode of each file
    they write, by name."""
    data, out, svg = tmp_path / "synth.csv", tmp_path / "out", tmp_path / "split1.svg"
    desc = data.with_suffix(".descriptor.json")
    assert main(["synth", "--seed", "3", "--out", str(data)]) == 0
    assert main([
        "sweep", "--descriptor", str(desc), "--data", str(data),
        "--grid", "1:20:1", "--kernels", "gaussian", "--out", str(out),
    ]) == 0
    assert main([
        "plot", "--curves", str(out / "curves.csv"), "--split", "1",
        "--kernel", "gaussian", "--out", str(svg),
    ]) == 0
    written = [data, desc, svg, *(out / n for n in ("curves.csv", "verdicts.json", "manifest.json"))]
    assert not list(tmp_path.rglob(".*"))  # no temporary file is left
    return {p.name: oct(p.stat().st_mode & 0o777) for p in written}


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_take_the_umask_mode(tmp_path, umask):
    """Every file synth, sweep and plot write has the mode ``open`` would
    give it, 0o666 less the umask."""
    old = os.umask(umask)
    try:
        modes = _write_every_file(tmp_path)
    finally:
        os.umask(old)
    assert modes == dict.fromkeys(modes, oct(0o666 & ~umask))


def test_writes_never_touch_the_process_umask(tmp_path, monkeypatch):
    """Files are created with the umask applied by the kernel, never by
    setting the process-wide umask, which would race with any other
    thread's file creation."""
    umask = 0o027
    old = os.umask(umask)

    def forbidden(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", forbidden)
    try:
        modes = _write_every_file(tmp_path)
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert modes == dict.fromkeys(modes, oct(0o666 & ~umask))


class TestUndecodableInput:
    """A file that is not UTF-8, or a JSON input that is not JSON, is an
    input error (exit 2) naming the file, though ``UnicodeDecodeError``
    and ``json.JSONDecodeError`` are ``ValueError``s, which a computation
    failure raises."""

    @pytest.fixture()
    def latin1_csv(self, synth_csv, tmp_path):
        data, desc = synth_csv
        lines = data.read_bytes().split(b"\n")
        lines[1] = b"\xe9" + lines[1]  # "é" in Latin-1
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"\n".join(lines))
        return bad, desc

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_data_file(self, latin1_csv, tmp_path, capsys, command):
        data, desc = latin1_csv
        out = tmp_path / "out"
        argv = [command, "--descriptor", str(desc), "--data", str(data)]
        assert main(argv + ["--out", str(out)] if command == "sweep" else argv) == 2
        assert capsys.readouterr().err.startswith(
            f"driftscope: {data}: 'utf-8' codec can't decode byte 0xe9"
        )
        assert not out.exists()

    # a descriptor's bytes spoilt, and the error that follows its path
    BAD_DESCRIPTORS = [
        (lambda good: b"\xff" + good, "'utf-8' codec can't decode byte 0xff"),
        (lambda good: good[: good.index(b":") + 1], "Expecting value: line 2 column 10 (char 11)"),
        # a data CSV may start with a byte-order mark; a descriptor may not
        (lambda good: b"\xef\xbb\xbf" + good, "Unexpected UTF-8 BOM"),
    ]

    def test_descriptor_file(self, synth_csv, tmp_path, capsys):
        _, desc = synth_csv
        bad = tmp_path / "bad.descriptor.json"
        for spoil, error in self.BAD_DESCRIPTORS:
            bad.write_bytes(spoil(desc.read_bytes()))
            assert main(["describe", str(bad)]) == 2
            assert capsys.readouterr().err.startswith(f"driftscope: {bad}: {error}")

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_descriptor_file_of_a_run(self, synth_csv, tmp_path, capsys, command):
        data, desc = synth_csv
        bad = tmp_path / "bad.descriptor.json"
        out = tmp_path / "out"
        argv = [command, "--descriptor", str(bad), "--data", str(data)]
        for spoil, error in self.BAD_DESCRIPTORS:
            bad.write_bytes(spoil(desc.read_bytes()))
            assert main(argv + ["--out", str(out)] if command == "sweep" else argv) == 2
            assert capsys.readouterr().err.startswith(f"driftscope: {bad}: {error}")
            assert not out.exists()

    def test_curves_file(self, synth_csv, tmp_path, capsys):
        data, desc = synth_csv
        out = tmp_path / "out"
        assert main(["sweep", "--descriptor", str(desc), "--data", str(data),
                     "--kernels", "gaussian", "--grid", "1:5:1", "--out", str(out)]) == 0
        curves = out / "curves.csv"
        curves.write_bytes(curves.read_bytes().replace(b"gaussian", b"gau\xdfian", 1))
        svg = tmp_path / "split1.svg"
        code = main(["plot", "--curves", str(curves), "--split", "1",
                     "--kernel", "gaussian", "--out", str(svg)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"driftscope: {curves}: 'utf-8' codec can't decode byte 0xdf"
        )
        assert not svg.exists()

    def test_synth_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        out = tmp_path / "synth.csv"
        for text, error in [
            (b'{"seed": 1, "name": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
            (b'{"seed": ', "Expecting value: line 1 column 10 (char 9)"),
        ]:
            cfg.write_bytes(text)
            assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"driftscope: {cfg}: {error}")
            assert not out.exists()


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_bad_grid(self, synth_csv, tmp_path):
        data, desc = synth_csv
        code = main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                "--grid", "banana", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "option,value,named",
        [
            ("--grid", "1:10:0", "positive step"),
            ("--grid", "0:10:1", "positive lower bound"),
            ("--grid", "10:1:1", "empty"),
            # bounds that differ past six significant digits read apart
            ("--grid", "0.1234567:0.1234566:1", "is empty: lo exceeds hi"),
            ("--grid", "nan:10:1", "non-finite"),
            ("--grid", "1:inf:1", "non-finite"),
            ("--epsilon", "2", "got 2.0"),
            ("--theta", "0", "got 0.0"),
            ("--kernels", "gaussian,triangular,Gaussian", "kernel 'gaussian' given twice"),
            # the uniform model is every curve's re_*_u columns, not a kernel
            ("--kernels", "gaussian,uniform",
             "unknown kernel 'uniform'; choose from gaussian, epanechnikov, triangular"),
            ("--grid", "1:2:1e-10", "needs a step of at least 2e-10"),
        ],
    )
    def test_bad_sweep_parameter(self, synth_csv, tmp_path, capsys, option, value, named):
        data, desc = synth_csv
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                option, value, "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and (option != "--grid" or value in err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,kernel,grid",
        [
            # 40 duplicated (split, kernel, bandwidth) rows
            ({"seed": 3}, "gaussian", "1:1.0000000004:4e-11"),
            # a triangular bandwidth of exactly the 22-period span
            ({"n_projects": 120, "n_periods": 22, "seed": 0}, "triangular",
             "21.999999999799996:22.000000000200007:4.0001e-11"),
        ],
        ids=["duplicate-bandwidths", "bandwidth-on-the-span"],
    )
    def test_grid_finer_than_its_rounding(self, tmp_path, capsys, config, kernel, grid):
        # grid values are rounded to 10 decimals
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        data = tmp_path / "synth.csv"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([
            "sweep", "--descriptor", str(data.with_suffix(".descriptor.json")),
            "--data", str(data), "--kernels", kernel, "--grid", grid, "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"driftscope: bad --grid: grid {grid} needs a step of at least 2e-10\n"
        )
        assert not out.exists()

    def test_grid_above_ceiling(self, synth_csv, tmp_path, capsys):
        data, desc = synth_csv
        out = tmp_path / "out"
        code = main(
            [
                "sweep", "--descriptor", str(desc), "--data", str(data),
                "--grid", "1:100001:1", "--out", str(out),
            ]
        )
        assert code == 1
        assert "more than 100000 bandwidths" in capsys.readouterr().err
        assert not out.exists()

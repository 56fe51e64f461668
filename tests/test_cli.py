import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from driftscope.analysis import AnalysisConfig, Curve, SweepResult, run_sweep
from driftscope.cli import CURVE_COLUMNS, _curves_text, main, read_curves
from driftscope.datasets import (
    DataError,
    DatasetDescriptor,
    SynthConfig,
    builtin_descriptor,
    load_dataset,
    synth_descriptor,
    synthesize,
    write_csv,
)
from driftscope.kernels import KernelKind

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def synth_csv(tmp_path):
    config = SynthConfig(seed=21, n_projects=60, n_periods=6)
    dataset = synthesize(config)
    data = tmp_path / "synth.csv"
    desc = tmp_path / "synth.descriptor.json"
    write_csv(dataset, data)
    desc.write_text(dataset.descriptor.to_json())
    return data, desc


class TestDescribe:
    def test_builtin_maxwell_shows_formula(self, capsys):
        assert main(["describe", "maxwell"]) == 0
        out = capsys.readouterr().out
        assert "T08" in out and "T09" in out
        assert "ln(Effort) = ln(Size) + T08 + T09" in out

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
            (lambda d: d.update(formula=["effort"]), "bad descriptor"),
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

        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        cells = read_curves(out / "curves.csv")
        data, desc = synth_csv
        descriptor = DatasetDescriptor.from_json(desc.read_text())
        result = run_sweep(load_dataset(descriptor, str(data)), (KernelKind.GAUSSIAN,))
        assert tuple(cells) == result.cells

    def test_uniform_kernel_rows_coincide(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "uniform")
        assert code == 0
        for cell in read_curves(out / "curves.csv"):
            assert cell.re_train_nu == cell.re_train_u
            assert cell.re_test_nu == cell.re_test_u

    def test_failed_cell_exits_3_with_coordinates(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_projects": 200, "n_periods": 39, "seed": 0}))
        data = tmp_path / "long.csv"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        code = main([
            "sweep", "--descriptor", str(data.with_suffix(".descriptor.json")),
            "--data", str(data), "--kernels", "gaussian", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert capsys.readouterr().err.strip() == (
            "driftscope: [split 39, kernel gaussian, bandwidth 1] "
            "weights must be strictly positive"
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
        bandwidths = {c.bandwidth for c in read_curves(out / "curves.csv")}
        assert min(bandwidths) == 17 and max(bandwidths) == 100

    def test_all_data_split_has_empty_test_fields(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        cells = read_curves(out / "curves.csv")
        final = max(c.split for c in cells)
        assert all(
            c.re_test_nu is None and c.re_test_u is None
            for c in cells
            if c.split == final
        )

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

    def test_uniform_verdicts_are_strict_json(self, synth_csv, tmp_path):
        code, out = self._run(synth_csv, tmp_path, "--kernels", "uniform,gaussian")
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((out / "verdicts.json").read_text(), parse_constant=reject)
        uniform = [v for k, v in doc["verdicts"].items() if k.endswith(":uniform")]
        assert uniform
        for entry in uniform:
            assert entry["bandwidth"] is not None and entry["horizon"] is None

    def test_manifest_digest_is_sha256_of_data(self, synth_csv, tmp_path):
        data, _ = synth_csv
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_digest"] == hashlib.sha256(data.read_bytes()).hexdigest()

    def test_manifest_without_overrides(self, synth_csv, tmp_path):
        _, desc = synth_csv
        code, out = self._run(synth_csv, tmp_path, "--kernels", "gaussian")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["overrides"] is None
        assert manifest["config"]["kernels"] == ["gaussian"]
        expected = DatasetDescriptor.from_json(desc.read_text()).to_json()
        assert manifest["descriptor_digest"] == hashlib.sha256(expected.encode()).hexdigest()

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

    def test_infeasible_grid_is_compute_error(self, synth_csv, tmp_path):
        code, _ = self._run(
            synth_csv, tmp_path, "--kernels", "triangular", "--grid", "1:3:1"
        )
        assert code == 3


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
    gaussian, uniform = KernelKind.GAUSSIAN, KernelKind.UNIFORM
    g, u = (0.5, 1.0, 1.5, 2.0), (3.0,)  # the uniform grid has one value
    curves = [
        Curve(1, gaussian, g, [0.1 + 0.2, 1 / 3, 2.5e-17, 12345.678901234567],
              [1.0, 0.5, 1e-05, 7.0], 0.7, 1e300),
        Curve(1, uniform, u, [0.7], [1e300], 0.7, 1e300),
        # the all-data split: empty test fields
        Curve(2, gaussian, g, [0.25, 0.125, 2.0, 3e-08], None, 0.4, None),
        Curve(2, uniform, u, [0.4], None, 0.4, None),
    ]
    return SweepResult(
        dataset=name,
        config=AnalysisConfig(),
        grids={gaussian: g, uniform: u},
        plan=None,
        curves={(c.split, c.kernel): c for c in curves},
    )


class TestCurvesText:
    @pytest.mark.parametrize("name", ['a,"b"', "plain", "two\nlines", "", " pad "])
    def test_bytes_match_a_csv_writer(self, name):
        result = _hand_built_result(name)
        assert _curves_text(result) == _reference_curves_text(result)

    def test_bytes_match_a_csv_writer_on_a_sweep(self, synth_csv):
        data, desc = synth_csv
        dataset = load_dataset(DatasetDescriptor.from_json(desc.read_text()), str(data))
        result = run_sweep(
            dataset, (KernelKind.GAUSSIAN, KernelKind.UNIFORM), AnalysisConfig(grid_step=7.0)
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
        cells = read_curves(out / "curves.csv")
        final = max(c.split for c in cells)
        svg = tmp_path / "final.svg"
        main(
            [
                "plot", "--curves", str(out / "curves.csv"),
                "--split", str(final), "--kernel", "gaussian", "--out", str(svg),
            ]
        )
        text = svg.read_text()
        assert text.count("<polyline") == 2

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
        ],
        ids=["non-numeric", "unknown-kernel", "short-row", "extra-field"],
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
            ({"seed": -1}, 3, "seed must be non-negative, got -1"),
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
        assert code == 3


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
            ("--grid", "nan:10:1", "non-finite"),
            ("--grid", "1:inf:1", "non-finite"),
            ("--epsilon", "2", "got 2.0"),
            ("--theta", "0", "got 0.0"),
            ("--kernels", "gaussian,triangular,Gaussian", "kernel 'gaussian' given twice"),
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

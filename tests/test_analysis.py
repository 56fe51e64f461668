import math
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings, strategies as stn

from driftscope import analysis, stats
from driftscope.analysis import (
    AnalysisConfig,
    Classification,
    ConvergencePoint,
    SweepError,
    detect_convergence,
    run_sweep,
    stationarity_verdict,
    summarize,
)
from driftscope.chronology import (
    ChronologyMode,
    SplitError,
    build_split_plan,
    well_formed_min,
)
from driftscope.datasets import Dataset, DatasetDescriptor, ProjectRecord, SynthConfig, synthesize
from driftscope.kernels import Granularity, KernelKind
from driftscope.stats import LOG, ModelFormula, Term, build_design_matrix

from test_oracle import _datasets

ALL_KERNELS = (
    KernelKind.GAUSSIAN,
    KernelKind.EPANECHNIKOV,
    KernelKind.TRIANGULAR,
)


@pytest.fixture(scope="module")
def stationary_dataset():
    return synthesize(SynthConfig(seed=42))


@pytest.fixture(scope="module")
def stationary_sweep(stationary_dataset):
    return run_sweep(stationary_dataset, ALL_KERNELS, AnalysisConfig())


def _columns(records):
    """The records' attributes, one list per attribute."""
    return {name: [r.attributes[name] for r in records] for name in records[0].attributes}


class TestFitCell:
    """Single cells of ``run_sweep`` curves on one-value grids."""

    def test_uniform_kernel_curves_coincide(self, stationary_dataset):
        config = AnalysisConfig(grid_lo=10.0, grid_hi=10.0)
        curve = run_sweep(stationary_dataset, (KernelKind.UNIFORM,), config).curve(
            1, KernelKind.UNIFORM
        )
        assert curve.re_train_nu == [curve.re_train_u]
        assert curve.re_test_nu == [curve.re_test_u]

    def test_noiseless_data_gives_zero_res(self):
        ds = synthesize(SynthConfig(seed=3, noise_sd=0.0))
        config = AnalysisConfig(grid_lo=5.0, grid_hi=5.0)
        curve = run_sweep(ds, (KernelKind.GAUSSIAN,), config).curve(1, KernelKind.GAUSSIAN)
        assert curve.re_train_nu == [pytest.approx(0.0, abs=1e-12)]
        assert curve.re_test_nu == [pytest.approx(0.0, abs=1e-12)]
        assert curve.re_train_u == pytest.approx(0.0, abs=1e-12)

    def test_all_data_split_has_no_test_res(self, stationary_dataset):
        config = AnalysisConfig(grid_lo=5.0, grid_hi=5.0)
        result = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,), config)
        curve = result.curve(result.plan.splits[-1].ordinal, KernelKind.GAUSSIAN)
        assert curve.re_test_nu is None and curve.re_test_u is None


class TestRunSweep:
    def test_full_grid_shape(self, stationary_dataset, stationary_sweep):
        plan = stationary_sweep.plan
        n_splits = len(plan.splits)
        expected = 0
        for kind in ALL_KERNELS:
            expected += n_splits * len(stationary_sweep.grids[kind])
        assert len(stationary_sweep.cells) == expected

    def test_finite_support_grids_start_above_span(self, stationary_sweep):
        max_elapsed = max(
            s.target - min(s.train_indices) for s in stationary_sweep.plan.splits
        )
        for kind in (KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR):
            assert stationary_sweep.grids[kind][0] > max_elapsed

    def test_uniform_re_constant_across_bandwidth(self, stationary_sweep):
        for split in stationary_sweep.plan.splits:
            for kind in ALL_KERNELS:
                curve = stationary_sweep.curve(split.ordinal, kind).cells()
                values = {c.re_train_u for c in curve}
                assert max(values) - min(values) <= 1e-12

    def test_curves_split_major_with_python_floats(self, stationary_sweep):
        plan = stationary_sweep.plan
        assert list(stationary_sweep.curves) == [
            (split.ordinal, kind) for split in plan.splits for kind in ALL_KERNELS
        ]
        for (ordinal, kind), curve in stationary_sweep.curves.items():
            assert (curve.split, curve.kernel) == (ordinal, kind)
            assert curve.bandwidths is stationary_sweep.grids[kind]
            final = ordinal == plan.splits[-1].ordinal
            assert (curve.re_test_nu is None) == (curve.re_test_u is None) == final
            columns = [curve.re_train_nu] + ([] if final else [curve.re_test_nu])
            for values in columns:
                assert len(values) == len(curve.bandwidths)
                assert all(type(re) is float for re in values)
            assert stationary_sweep.curve(ordinal, kind) is curve
        cells = stationary_sweep.cells
        assert cells == tuple(
            cell for curve in stationary_sweep.curves.values() for cell in curve.cells()
        )
        assert [(c.split, c.kernel, c.bandwidth) for c in cells] == [
            (split.ordinal, kind, b)
            for split in plan.splits
            for kind in ALL_KERNELS
            for b in stationary_sweep.grids[kind]
        ]

    def test_deterministic(self, stationary_dataset):
        a = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,))
        b = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,))
        assert a.cells == b.cells

    def test_weighted_curve_approaches_uniform_at_large_bandwidth(
        self, stationary_sweep
    ):
        for split in stationary_sweep.plan.splits:
            curve = stationary_sweep.curve(split.ordinal, KernelKind.GAUSSIAN).cells()
            first, last = curve[0], curve[-1]
            assert abs(last.re_train_nu - last.re_train_u) <= (
                abs(first.re_train_nu - first.re_train_u) + 1e-9
            )

    def test_one_uniform_fit_per_split(self, stationary_dataset, monkeypatch):
        calls = []
        wls = stats.weighted_least_squares

        def counted(*args):
            calls.append((len(args[1]), args[3].tolist()))
            return wls(*args)

        monkeypatch.setattr(stats, "weighted_least_squares", counted)
        sweep = run_sweep(stationary_dataset, ALL_KERNELS)
        # one stacked fit per batch of whole splits, up to BATCH_ROWS rows:
        # each split's uniform row, then every kernel's bandwidth rows, all
        # on the split's own runs
        rows = 1 + sum(len(sweep.grids[kind]) for kind in ALL_KERNELS)
        splits = sweep.plan.splits
        assert (rows, len(splits), analysis.BATCH_ROWS // rows) == (285, 8, 3)
        assert [n for n, _ in calls] == [3 * rows, 3 * rows, 2 * rows]
        indices = splits[0].plan_indices
        runs = [
            r for s in splits
            for r in [1 + np.count_nonzero(np.diff(indices[: s.stop]))] * rows
        ]
        assert [r for _, batch in calls for r in batch] == runs

    def test_empty_kernel_set(self, stationary_dataset):
        with pytest.raises(ValueError):
            run_sweep(stationary_dataset, ())

    def test_repeated_kernel_runs_once(self, stationary_dataset):
        gaussian = KernelKind.GAUSSIAN
        sweep = run_sweep(stationary_dataset, (gaussian, gaussian), AnalysisConfig(grid_step=9.0))
        assert list(sweep.grids) == [gaussian]
        summary = summarize(sweep)
        assert summary.kernel_agreement is None
        assert [v.split for v in summary.verdicts] == [s.ordinal for s in sweep.plan.splits]

    def test_failed_cell_reports_coordinates(self):
        # two records per period is too few once the formula needs 3 rows
        ds = synthesize(SynthConfig(seed=8, n_projects=6, n_periods=3, noise_sd=0.0))
        records = tuple(
            type(r)(id=r.id, completion=r.completion, attributes={**r.attributes, "size": 100.0})
            for r in ds.records
        )
        broken = Dataset.from_records(ds.descriptor, records)
        with pytest.raises(SweepError, match="split"):
            run_sweep(broken, (KernelKind.GAUSSIAN,))

    def test_gaussian_underflow_coordinates(self):
        # Gaussian weights underflow to 0.0 past a lag of about 38.6; the
        # sweep stops at the first cell that meets it.
        ds = synthesize(SynthConfig(n_projects=200, n_periods=39, seed=0))
        with pytest.raises(SweepError) as info:
            run_sweep(ds, (KernelKind.GAUSSIAN,))
        assert str(info.value) == (
            "[split 39, kernel gaussian, bandwidth 1] weights must be strictly positive"
        )

    @staticmethod
    def _plant_singular_rows(monkeypatch, planted, rows, target=None):
        """Patch the sweep's weights so that rows ``rows`` of kernel
        ``planted`` weigh the oldest period alone, numerically: in every
        split, or only in the split whose target period is ``target``."""
        weights_for_target = analysis.weights_for_target

        def degenerate(origins, split_target, kind, bandwidths):
            weights = weights_for_target(origins, split_target, kind, bandwidths)
            if kind is planted and target in (None, split_target):
                for row in rows:
                    weights[row] = 1e-40
                    weights[row, 0] = 1.0
            return weights

        monkeypatch.setattr(analysis, "weights_for_target", degenerate)

    @pytest.fixture(scope="class")
    def lone_oldest(self, stationary_dataset):
        """The stationary dataset with one record left in its oldest period,
        so that weight on that period alone leaves a singular design."""
        records = stationary_dataset.records
        oldest = min(r.completion for r in records)
        kept = min(r.id for r in records if r.completion == oldest)
        moved = tuple(
            replace(r, completion=oldest + 1) if r.completion == oldest and r.id != kept else r
            for r in records
        )
        return Dataset.from_records(stationary_dataset.descriptor, moved)

    def test_singular_row_reports_its_bandwidth(self, lone_oldest, monkeypatch):
        self._plant_singular_rows(monkeypatch, KernelKind.GAUSSIAN, (2, 4))
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, (KernelKind.GAUSSIAN,))
        assert str(info.value) == "[split 1, kernel gaussian, bandwidth 3] singular design"

    def test_singular_row_in_second_kernel_names_it(self, lone_oldest, monkeypatch):
        config = AnalysisConfig(grid_step=3.0)
        grid = run_sweep(lone_oldest, (KernelKind.TRIANGULAR,), config).grids[
            KernelKind.TRIANGULAR
        ]
        self._plant_singular_rows(monkeypatch, KernelKind.TRIANGULAR, (1, 3))
        kernels = (KernelKind.GAUSSIAN, KernelKind.UNIFORM, KernelKind.TRIANGULAR)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels, config)
        assert (info.value.split, info.value.kernel) == (1, KernelKind.TRIANGULAR)
        assert info.value.bandwidth == grid[1]
        assert str(info.value) == (
            f"[split 1, kernel triangular, bandwidth {grid[1]:g}] singular design"
        )

    @pytest.mark.parametrize("failure", ["underflow", "out of support"])
    def test_singular_row_wins_over_a_later_split_of_its_batch(
        self, lone_oldest, monkeypatch, failure
    ):
        kernels = (KernelKind.GAUSSIAN, KernelKind.TRIANGULAR)
        plan = build_split_plan(lone_oldest)
        second, third = plan.splits[1].target, plan.splits[2].target
        sweep = run_sweep(lone_oldest, kernels)
        rows = 1 + sum(map(len, sweep.grids.values()))
        assert analysis.BATCH_ROWS // rows >= 3  # splits 1-3 share a batch
        weights_for_target = analysis.weights_for_target

        def failing(origins, target, kind, bandwidths):
            if target != third or kind is not KernelKind.TRIANGULAR:
                return weights_for_target(origins, target, kind, bandwidths)
            if failure == "out of support":
                # lags past the triangular kernel's support: BandwidthError
                return weights_for_target(origins, target, kind, [1e-3 * b for b in bandwidths])
            weights = weights_for_target(origins, target, kind, bandwidths)
            weights[0, 0] = 0.0  # as an underflowing weight
            return weights

        monkeypatch.setattr(analysis, "weights_for_target", failing)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels)
        assert (info.value.split, info.value.kernel) == (3, KernelKind.TRIANGULAR)
        self._plant_singular_rows(monkeypatch, KernelKind.GAUSSIAN, (2,), target=second)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels)
        assert str(info.value) == "[split 2, kernel gaussian, bandwidth 3] singular design"

    def test_earlier_relative_error_wins_over_a_later_fit_of_its_batch(
        self, lone_oldest, monkeypatch
    ):
        # split 1's test records share one effort, so its test relative
        # error is undefined; split 2 of the same batch has a singular row
        plan = build_split_plan(lone_oldest)
        effort = lone_oldest.attributes["effort"].copy()
        effort[plan.order[plan.splits[0].test_rows]] = 100.0
        flat = replace(lone_oldest, attributes={**lone_oldest.attributes, "effort": effort})
        self._plant_singular_rows(
            monkeypatch, KernelKind.GAUSSIAN, (2,), target=plan.splits[1].target
        )
        with pytest.raises(SweepError) as info:
            run_sweep(flat, (KernelKind.GAUSSIAN,))
        assert str(info.value) == (
            "[split 1, kernel gaussian, bandwidth 1] actuals have zero variance"
        )

    def test_singular_uniform_row_of_a_later_split_names_its_first_cell(
        self, lone_oldest, monkeypatch
    ):
        kernels = (KernelKind.EPANECHNIKOV, KernelKind.GAUSSIAN)
        config = AnalysisConfig(grid_step=3.0)
        sweep = run_sweep(lone_oldest, kernels, config)
        rows = 1 + sum(map(len, sweep.grids.values()))
        wls = stats.weighted_least_squares

        def planted(design, w, starts, runs):
            # the uniform row of the batch's second split, split 2, weighs
            # the oldest period alone, numerically
            if len(w) > rows:
                w = w.copy()
                w[rows, : runs[rows]] = 1e-40
                w[rows, 0] = 1.0
            return wls(design, w, starts, runs)

        monkeypatch.setattr(stats, "weighted_least_squares", planted)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels, config)
        first = sweep.grids[KernelKind.EPANECHNIKOV][0]
        assert str(info.value) == (
            f"[split 2, kernel epanechnikov, bandwidth {first:g}] singular design"
        )

    def test_failing_uniform_fit_names_first_kernel_first_bandwidth(self, stationary_dataset):
        # one size for every record: the intercept and ln(size) coincide,
        # so the uniform row is the first singular one
        sizes = np.full(len(stationary_dataset.ids), 100.0)
        broken = replace(
            stationary_dataset, attributes={**stationary_dataset.attributes, "size": sizes}
        )
        config = AnalysisConfig(grid_step=3.0)
        kernels = (KernelKind.EPANECHNIKOV, KernelKind.GAUSSIAN)
        first = run_sweep(stationary_dataset, kernels[:1], config).grids[kernels[0]][0]
        with pytest.raises(SweepError) as info:
            run_sweep(broken, kernels, config)
        assert str(info.value) == (
            f"[split 1, kernel epanechnikov, bandwidth {first:g}] singular design"
        )

    def test_uniform_kernel_reads_the_uniform_row(self, stationary_dataset):
        kernels = (KernelKind.GAUSSIAN, KernelKind.UNIFORM, KernelKind.TRIANGULAR)
        sweep = run_sweep(stationary_dataset, kernels, AnalysisConfig(grid_step=7.0))
        for split in sweep.plan.splits:
            uniform = sweep.curve(split.ordinal, KernelKind.UNIFORM)
            n = len(uniform.bandwidths)
            assert uniform.re_train_nu == [uniform.re_train_u] * n
            if split.is_final:
                assert uniform.re_test_nu is None
            else:
                assert uniform.re_test_nu == [uniform.re_test_u] * n
            for kind in kernels:
                curve = sweep.curve(split.ordinal, kind)
                assert (curve.re_train_u, curve.re_test_u) == (
                    uniform.re_train_u, uniform.re_test_u
                )


CATEGORICAL = ModelFormula(
    response="effort",
    terms=(Term("size", transform=LOG), Term("lang", kind="categorical", reference="a")),
)


@stn.composite
def _plans(draw):
    """A split plan in any mode and granularity over records with a
    numeric and a categorical term, with or without split overrides."""
    n = draw(stn.integers(6, 40))
    mode = draw(stn.sampled_from(ChronologyMode))
    granularity = draw(stn.sampled_from(Granularity))
    days = draw(stn.lists(stn.integers(0, 2000), min_size=n, max_size=n))
    langs = draw(stn.lists(stn.sampled_from("abc"), min_size=n, max_size=n))
    records = [
        ProjectRecord(
            id=f"p{i:02d}",
            completion=date(1990, 1, 1) + timedelta(days=d),
            start=date(1990, 1, 1) + timedelta(days=d - draw(stn.integers(1, 400))),
            attributes={
                "size": draw(stn.floats(1.0, 1e4)),
                "effort": draw(stn.floats(1.0, 1e5)),
                "lang": "a" if i == 0 else lang,
            },
        )
        for i, (d, lang) in enumerate(zip(days, langs))
    ]
    overrides = None
    if mode is ChronologyMode.REMAINDER_TEST and draw(stn.booleans()):
        wmin = well_formed_min(CATEGORICAL, _columns(records))
        overrides = tuple(sorted(draw(stn.sets(stn.integers(wmin, n - 1), min_size=1, max_size=4))))
    descriptor = DatasetDescriptor(
        name="plans", granularity=granularity, chronology=mode, columns={"id": "id"},
        formula=CATEGORICAL, overrides=overrides,
    )
    try:
        plan = build_split_plan(Dataset.from_records(descriptor, records))
    except SplitError:
        assume(False)
    return records, plan


def _assert_same_design(got, want):
    assert np.array_equal(got.matrix, want.matrix)
    assert np.array_equal(got.response, want.response)
    assert got.labels == want.labels


class TestPlanDesign:
    """The sweep builds one design over the plan's records and hands each
    split row ranges of it."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
    @given(_plans())
    def test_split_rows_equal_their_own_design(self, case):
        records, plan = case
        by_id = {r.id: r for r in records}
        # the dataset-wide levels, declared, code every row range alike
        levels = tuple(sorted({r.attributes["lang"] for r in records}))
        formula = ModelFormula(
            response=CATEGORICAL.response,
            terms=(
                CATEGORICAL.terms[0],
                Term("lang", kind="categorical", reference="a", levels=levels),
            ),
        )
        design = build_design_matrix(_columns([records[i] for i in plan.order]), CATEGORICAL)
        for split in plan.splits:
            train = build_design_matrix(
                _columns([by_id[i] for i in split.train_ids]), formula
            )
            _assert_same_design(design.subset(slice(split.stop)), train)
            if split.test_ids:
                test = build_design_matrix(
                    _columns([by_id[i] for i in split.test_ids]), formula
                )
                _assert_same_design(design.subset(split.test_rows), test)


class TestBatchedFits:
    """Whole splits are solved together in batches of stacked fit rows;
    each split's coefficients equal a fit of its own."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        dataset=_datasets(),
        kernels=stn.lists(stn.sampled_from(KernelKind), min_size=1, max_size=4, unique=True),
        # in period units: a step of 1 or 0.5 gives batches of a few
        # splits, 0.25 one split each when three kernels are weighted
        step=stn.sampled_from([4.0, 1.0, 0.5, 0.25]),
    )
    # eight splits of 285 rows: batches of three, three and two splits
    @example(dataset=synthesize(SynthConfig(seed=3)), kernels=list(ALL_KERNELS), step=1.0)
    def test_batched_coefficients_equal_direct_fits(self, dataset, kernels, step):
        unit = dataset.descriptor.granularity.increment
        config = AnalysisConfig(grid_lo=unit, grid_hi=100 * unit, grid_step=step * unit)
        fits = []
        split_curves = analysis._split_curves

        def recorded(split, model, *args):
            fits.append((split, model))
            return split_curves(split, model, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_split_curves", recorded)
            try:
                sweep = run_sweep(dataset, kernels, config)
            except SplitError:
                assume(False)
        plan = sweep.plan
        assert [split for split, _ in fits] == list(plan.splits)
        rows = 1 + sum(len(v) for k, v in sweep.grids.items() if k is not KernelKind.UNIFORM)
        per_batch = max(1, analysis.BATCH_ROWS // rows)
        if 1 < per_batch < len(plan.splits):
            event("a batch boundary mid-plan")
        if dataset.descriptor.overrides and not set(dataset.descriptor.overrides) <= set(
            np.flatnonzero(np.diff(plan.indices)) + 1
        ):
            event("an override cuts a period")
        design, _ = analysis._plan_design(dataset, plan.order)
        for split, model in fits:
            train = design.subset(slice(split.stop))
            indices = plan.indices[: split.stop]
            starts = np.flatnonzero(np.concatenate(([True], indices[1:] != indices[:-1])))
            weights = [np.ones((1, starts.size))] + [
                analysis.weights_for_target(indices[starts], split.target, kind, values)
                for kind, values in sweep.grids.items()
                if kind is not KernelKind.UNIFORM
            ]
            want = stats.weighted_least_squares(train, np.concatenate(weights), starts)
            error = np.linalg.norm(model.coefficients - want.coefficients, axis=1)
            assert np.all(error <= 1e-12 * np.linalg.norm(want.coefficients, axis=1))
            _assert_same_design(model.design, train)


def test_sweep_leaves_numpy_ma_unimported(tmp_path):
    # np.union1d, np.unique and np.isin import numpy.ma on first use; the
    # import stays resident, about 1 MB, so the sweep builds its run table
    # without them.
    src = Path(analysis.__file__).resolve().parents[1]
    script = f"""
import sys
from driftscope import cli
print("numpy.ma" in sys.modules)
out = {str(tmp_path)!r}
assert cli.main(["synth", "--seed", "4", "--out", out + "/synth.csv"]) == 0
assert cli.main(["sweep", "--descriptor", out + "/synth.descriptor.json",
                 "--data", out + "/synth.csv", "--out", out + "/sweep"]) == 0
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    at_import, after_sweep = done.stdout.split()[-2:]
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after_sweep == "False"


class TestDetectConvergence:
    def test_identical_curve_converges_at_grid_min(self):
        curve = [(b, 0.5) for b in range(1, 11)]
        point = detect_convergence(curve, 0.5, 0.05)
        assert point.bandwidth == 1
        assert point.at_grid_minimum

    def test_never_within_tolerance(self):
        curve = [(b, 2.0) for b in range(1, 11)]
        assert detect_convergence(curve, 0.5, 0.05) is None

    def test_sustained_tail_required(self):
        # transient touch at b=2 does not count
        curve = [(1, 2.0), (2, 0.5), (3, 2.0), (4, 0.52), (5, 0.51), (6, 0.5)]
        point = detect_convergence(curve, 0.5, 0.05)
        assert point.bandwidth == 4

    def test_tolerance_scales_with_large_uniform_re(self):
        curve = [(1, 10.8), (2, 10.4), (3, 10.2)]
        point = detect_convergence(curve, 10.0, 0.05)
        assert point.bandwidth == 2

    def test_empty_curve(self):
        with pytest.raises(ValueError):
            detect_convergence([], 1.0, 0.05)


class TestStationarityVerdict:
    def _config(self):
        return AnalysisConfig()

    def test_no_convergence_is_non_stationary(self):
        v = stationarity_verdict(None, KernelKind.GAUSSIAN, 7.0, self._config())
        assert v.classification is Classification.NON_STATIONARY
        assert v.horizon is None

    def test_horizon_beyond_span_is_non_stationary(self):
        point = ConvergencePoint(bandwidth=5.0, at_grid_minimum=False)
        v = stationarity_verdict(point, KernelKind.GAUSSIAN, 7.0, self._config())
        assert v.classification is Classification.NON_STATIONARY
        assert v.horizon == pytest.approx(15.17, abs=0.01)

    def test_full_grid_convergence_is_near_stationary(self):
        point = ConvergencePoint(bandwidth=1.0, at_grid_minimum=True)
        v = stationarity_verdict(point, KernelKind.GAUSSIAN, 7.0, self._config())
        assert v.classification is Classification.NEAR_STATIONARY

    def test_attainable_horizon_is_stationary(self):
        point = ConvergencePoint(bandwidth=2.0, at_grid_minimum=False)
        v = stationarity_verdict(point, KernelKind.GAUSSIAN, 16.0, self._config())
        assert v.horizon < 16.0
        assert v.classification is Classification.STATIONARY

    def test_large_bandwidth_on_short_span(self):
        point = ConvergencePoint(bandwidth=18.0, at_grid_minimum=False)
        v = stationarity_verdict(point, KernelKind.GAUSSIAN, 16.0, self._config())
        assert v.horizon == pytest.approx(18 * math.sqrt(-2 * math.log(0.01)), rel=1e-9)
        assert v.classification is Classification.NON_STATIONARY

    def test_decreasing_theta_never_promotes_to_stationary(self):
        point = ConvergencePoint(bandwidth=6.0, at_grid_minimum=False)
        for span in (5.0, 10.0, 20.0, 40.0):
            coarse = stationarity_verdict(
                point, KernelKind.GAUSSIAN, span, AnalysisConfig(theta=0.05)
            )
            fine = stationarity_verdict(
                point, KernelKind.GAUSSIAN, span, AnalysisConfig(theta=0.005)
            )
            if coarse.classification is Classification.NON_STATIONARY:
                assert fine.classification is Classification.NON_STATIONARY


class TestSummarize:
    def test_uniform_kernel_only_all_near_stationary(self, stationary_dataset):
        sweep = run_sweep(stationary_dataset, (KernelKind.UNIFORM,))
        summary = summarize(sweep)
        assert all(
            v.classification is Classification.NEAR_STATIONARY
            for v in summary.verdicts
        )

    def test_verdict_per_split_and_kernel(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        n_splits = len(stationary_sweep.plan.splits)
        assert len(summary.verdicts) == n_splits * len(ALL_KERNELS)

    def test_all_data_split_not_in_test_ranges(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        final = stationary_sweep.plan.splits[-1].ordinal
        assert final not in summary.test_re_range
        for ordinal, (lo, hi) in summary.test_re_range.items():
            assert 0 <= lo <= hi

    def test_kernel_agreement_reported(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        assert 0.0 <= summary.kernel_agreement <= 1.0

    def test_verdict_lookup(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        for v in summary.verdicts:
            assert summary.verdict(v.split, v.kernel) is v
        with pytest.raises(KeyError):
            summary.verdict(0, KernelKind.GAUSSIAN)
        with pytest.raises(KeyError):
            summary.verdict(1, KernelKind.UNIFORM)

    def test_test_re_range_spans_every_test_re(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        by_split = {}
        for c in stationary_sweep.cells:
            if c.re_test_nu is not None:
                by_split.setdefault(c.split, []).extend((c.re_test_nu, c.re_test_u))
        assert summary.test_re_range == {
            split: (min(res), max(res)) for split, res in by_split.items()
        }

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
from driftscope.datasets import SynthConfig, builtin_descriptor, load_dataset, synthesize
from driftscope.kernels import Granularity, KernelKind
from driftscope.stats import LOG, ModelFormula, Term, build_design_matrix

from test_chronology import _load
from test_oracle import _datasets

ALL_KERNELS = (
    KernelKind.GAUSSIAN,
    KernelKind.EPANECHNIKOV,
    KernelKind.TRIANGULAR,
)


# one kernel order per place of the triangular kernel, whose rows of the
# stacked fit follow those of the kernels before it
TRIANGULAR_PLACES = {
    "triangular-first": (KernelKind.TRIANGULAR, KernelKind.GAUSSIAN, KernelKind.EPANECHNIKOV),
    "triangular-middle": (KernelKind.GAUSSIAN, KernelKind.TRIANGULAR, KernelKind.EPANECHNIKOV),
    "triangular-last": (KernelKind.GAUSSIAN, KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR),
}


def _split_values(dataset, sweep):
    """The values each split of ``sweep`` stacks in a weighted least
    squares call: its fit rows x (runs + p*p + p), p coefficients."""
    rows = 1 + sum(map(len, sweep.grids.values()))
    p = analysis._plan_design(dataset, sweep.plan.order)[0].n_columns
    return rows * (len(sweep.plan.starts) + p * p + p)


@pytest.fixture(scope="module")
def stationary_dataset():
    return synthesize(SynthConfig(seed=42))


@pytest.fixture(scope="module")
def stationary_sweep(stationary_dataset):
    return run_sweep(stationary_dataset, ALL_KERNELS, AnalysisConfig())


class TestFitCell:
    """Single cells of ``run_sweep`` curves on one-value grids."""

    def test_noiseless_data_gives_zero_res(self):
        ds = synthesize(SynthConfig(seed=3, noise_sd=0.0))
        config = AnalysisConfig(grid_lo=5.0, grid_hi=5.0)
        curve = run_sweep(ds, (KernelKind.GAUSSIAN,), config).curves[1, KernelKind.GAUSSIAN]
        assert curve.re_train_nu == [pytest.approx(0.0, abs=1e-12)]
        assert curve.re_test_nu == [pytest.approx(0.0, abs=1e-12)]
        assert curve.re_train_u == pytest.approx(0.0, abs=1e-12)

    def test_all_data_split_has_no_test_res(self, stationary_dataset):
        config = AnalysisConfig(grid_lo=5.0, grid_hi=5.0)
        result = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,), config)
        curve = result.curves[result.plan.splits[-1].ordinal, KernelKind.GAUSSIAN]
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
                curve = stationary_sweep.curves[split.ordinal, kind].cells()
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
            curve = stationary_sweep.curves[split.ordinal, KernelKind.GAUSSIAN].cells()
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
        # one stacked fit per batch of whole splits within BATCH_VALUES:
        # each split's uniform row, then every kernel's bandwidth rows, all
        # on the split's own runs
        rows = 1 + sum(len(sweep.grids[kind]) for kind in ALL_KERNELS)
        splits = sweep.plan.splits
        assert (rows, len(splits)) == (285, 8)
        indices = splits[0].plan_indices
        runs = [
            r for s in splits
            for r in [1 + np.count_nonzero(np.diff(indices[: s.stop]))] * rows
        ]
        assert [n for n, _ in calls] == [8 * rows]
        assert [r for _, batch in calls for r in batch] == runs
        # a budget short of four splits' values batches them by three
        calls.clear()
        monkeypatch.setattr(
            analysis, "BATCH_VALUES", 4 * _split_values(stationary_dataset, sweep) - 1
        )
        run_sweep(stationary_dataset, ALL_KERNELS)
        assert [n for n, _ in calls] == [3 * rows, 3 * rows, 2 * rows]
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
        broken = replace(ds, attributes={**ds.attributes, "size": np.full(len(ds.ids), 100.0)})
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

        def degenerate(origins, targets, kind, bandwidths, runs):
            weights = weights_for_target(origins, targets, kind, bandwidths, runs)
            blocks = weights.reshape(len(targets), len(bandwidths), len(origins))
            for block, split_target, r in zip(blocks, targets, runs):
                if kind is planted and target in (None, split_target):
                    for row in rows:
                        block[row, :r] = 1e-40
                        block[row, 0] = 1.0
            return weights

        monkeypatch.setattr(analysis, "weights_for_target", degenerate)

    @pytest.fixture(scope="class")
    def lone_oldest(self, stationary_dataset):
        """The stationary dataset with one record left in its oldest period,
        so that weight on that period alone leaves a singular design."""
        ds = stationary_dataset
        oldest = ds.keys == ds.keys.min()  # year-only completions: keys are years
        moved = oldest & (ds.ids != min(ds.ids[oldest]))
        return replace(ds, keys=np.where(moved, ds.keys + 1, ds.keys))

    def test_singular_row_reports_its_bandwidth(self, lone_oldest, monkeypatch):
        self._plant_singular_rows(monkeypatch, KernelKind.GAUSSIAN, (2, 4))
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, (KernelKind.GAUSSIAN,))
        assert str(info.value) == "[split 1, kernel gaussian, bandwidth 3] singular design"

    @pytest.mark.parametrize("kernels", TRIANGULAR_PLACES.values(), ids=list(TRIANGULAR_PLACES))
    def test_singular_row_of_a_kernel_names_it(self, lone_oldest, monkeypatch, kernels):
        config = AnalysisConfig(grid_step=3.0)
        grid = run_sweep(lone_oldest, (KernelKind.TRIANGULAR,), config).grids[
            KernelKind.TRIANGULAR
        ]
        self._plant_singular_rows(monkeypatch, KernelKind.TRIANGULAR, (1, 3))
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels, config)
        assert (info.value.split, info.value.kernel) == (1, KernelKind.TRIANGULAR)
        assert info.value.bandwidth == grid[1]
        assert str(info.value) == (
            f"[split 1, kernel triangular, bandwidth {grid[1]:g}] singular design"
        )

    def test_singular_row_wins_over_a_later_split_of_its_batch(self, lone_oldest, monkeypatch):
        kernels = (KernelKind.GAUSSIAN, KernelKind.TRIANGULAR)
        plan = build_split_plan(lone_oldest)
        second, third = plan.splits[1].target, plan.splits[2].target
        sweep = run_sweep(lone_oldest, kernels)
        # splits 1-3 share a batch
        assert 3 * _split_values(lone_oldest, sweep) <= analysis.BATCH_VALUES
        weights_for_target = analysis.weights_for_target

        def failing(origins, targets, kind, bandwidths, runs):
            weights = weights_for_target(origins, targets, kind, bandwidths, runs)
            if third in targets and kind is KernelKind.TRIANGULAR:
                row = list(targets).index(third) * len(bandwidths)
                weights[row, 0] = 0.0  # as an underflowing weight
            return weights

        monkeypatch.setattr(analysis, "weights_for_target", failing)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels)
        assert (info.value.split, info.value.kernel) == (3, KernelKind.TRIANGULAR)
        assert "strictly positive" in str(info.value)
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

    @pytest.mark.parametrize("kernels", TRIANGULAR_PLACES.values(), ids=list(TRIANGULAR_PLACES))
    def test_mixed_sweep_curves_equal_single_kernel_sweeps(self, stationary_dataset, kernels):
        # batch sizes differ, and with them the BLAS path: not bit-equal
        config = AnalysisConfig(grid_step=7.0)
        mixed = run_sweep(stationary_dataset, kernels, config)
        for kind in kernels:
            alone = run_sweep(stationary_dataset, (kind,), config)
            assert alone.grids[kind] == mixed.grids[kind]
            for split in mixed.plan.splits:
                want, got = alone.curves[split.ordinal, kind], mixed.curves[split.ordinal, kind]
                for field in ("re_train_nu", "re_test_nu", "re_train_u", "re_test_u"):
                    a, b = getattr(want, field), getattr(got, field)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert np.max(np.abs(np.subtract(a, b))) <= 1e-12


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
    langs[0] = "a"
    rows = [
        {
            "id": f"p{i:02d}",
            "done": date(1990, 1, 1) + timedelta(days=d),
            "start": date(1990, 1, 1) + timedelta(days=d - draw(stn.integers(1, 400))),
            "size": draw(stn.floats(1.0, 1e4)),
            "effort": draw(stn.floats(1.0, 1e5)),
            "lang": lang,
        }
        for i, (d, lang) in enumerate(zip(days, langs))
    ]
    overrides = None
    if mode is ChronologyMode.REMAINDER_TEST and draw(stn.booleans()):
        wmin = well_formed_min(CATEGORICAL, {"lang": langs})
        overrides = tuple(sorted(draw(stn.sets(stn.integers(wmin, n - 1), min_size=1, max_size=4))))
    dataset = _load(rows, granularity, mode, CATEGORICAL, overrides)
    try:
        plan = build_split_plan(dataset)
    except SplitError:
        assume(False)
    return dataset, plan


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
        dataset, plan = case
        row = {rid: i for i, rid in enumerate(dataset.ids)}

        def columns(rows):
            return {c: dataset.attributes[c][rows] for c in CATEGORICAL.columns}

        # the dataset-wide levels, declared, code every row range alike
        levels = tuple(sorted(set(dataset.attributes["lang"])))
        formula = ModelFormula(
            response=CATEGORICAL.response,
            terms=(
                CATEGORICAL.terms[0],
                Term("lang", kind="categorical", reference="a", levels=levels),
            ),
        )
        design = build_design_matrix(columns(plan.order), CATEGORICAL)
        for split in plan.splits:
            train = build_design_matrix(columns([row[i] for i in split.train_ids]), formula)
            _assert_same_design(design.subset(slice(split.stop)), train)
            if split.test_ids:
                test = build_design_matrix(columns([row[i] for i in split.test_ids]), formula)
                _assert_same_design(design.subset(split.test_rows), test)


def _remainder_tests(dataset, overrides):
    """``dataset`` under remainder tests after the training sizes ``overrides``."""
    descriptor = replace(
        dataset.descriptor, chronology=ChronologyMode.REMAINDER_TEST, overrides=overrides
    )
    return replace(dataset, descriptor=descriptor)


# Value budgets for the batches of a sweep, the default and smaller ones
BUDGETS = [analysis.BATCH_VALUES, 2**16, 2**14, 2**12, 2**10]


class TestBatchedFits:
    """Whole splits are solved together in batches within a value budget;
    each split's coefficients equal a fit of its own."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        dataset=_datasets(),
        kernels=stn.lists(stn.sampled_from(KernelKind), min_size=1, max_size=3, unique=True),
        step=stn.sampled_from([4.0, 1.0, 0.5, 0.25]),  # in period units
        budget=stn.sampled_from(BUDGETS),
    )
    # eight splits of 3990 values: batches of three, three and two splits
    @example(
        dataset=synthesize(SynthConfig(seed=3)), kernels=list(ALL_KERNELS), step=1.0,
        budget=12_000,
    )
    def test_batched_coefficients_equal_direct_fits(self, dataset, kernels, step, budget):
        unit = dataset.descriptor.granularity.increment
        config = AnalysisConfig(grid_lo=unit, grid_hi=100 * unit, grid_step=step * unit)
        fits = []
        split_curves = analysis._split_curves

        def recorded(split, model, *args):
            fits.append((split, model))
            return split_curves(split, model, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_split_curves", recorded)
            mp.setattr(analysis, "BATCH_VALUES", budget)
            try:
                sweep = run_sweep(dataset, kernels, config)
            except SplitError:
                assume(False)
        plan = sweep.plan
        assert [split for split, _ in fits] == list(plan.splits)
        per_batch = max(1, budget // _split_values(dataset, sweep))
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
            ]
            want = stats.weighted_least_squares(train, np.concatenate(weights), starts)
            error = np.linalg.norm(model.coefficients - want.coefficients, axis=1)
            assert np.all(error <= 1e-12 * np.linalg.norm(want.coefficients, axis=1))
            _assert_same_design(model.design, train)

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        dataset=_datasets(), step=stn.sampled_from([4.0, 1.0, 0.5]),
        budget=stn.sampled_from(BUDGETS),
    )
    # remainder tests after 20 (inside a period), 40, 50 and 100 records:
    # five splits of 5130 values, batches of two, two and one
    @example(
        dataset=_remainder_tests(synthesize(SynthConfig(seed=3)), (20, 40, 50, 100)), step=1.0,
        budget=12_000,
    )
    def test_batched_weights_equal_per_target_weights(self, dataset, step, budget):
        unit = dataset.descriptor.granularity.increment
        config = AnalysisConfig(grid_lo=unit, grid_hi=100 * unit, grid_step=step * unit)
        batches = {}
        weights_for_target = analysis.weights_for_target

        def recorded(origins, targets, kind, bandwidths, runs):
            batches[tuple(targets.tolist()), tuple(runs.tolist())] = origins
            return weights_for_target(origins, targets, kind, bandwidths, runs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "weights_for_target", recorded)
            mp.setattr(analysis, "BATCH_VALUES", budget)
            try:
                sweep = run_sweep(dataset, ALL_KERNELS, config)
            except SplitError:
                assume(False)
        plan = sweep.plan
        # one call per weighted kernel and batch of whole splits, in plan order
        assert [t for targets, _ in batches for t in targets] == [s.target for s in plan.splits]
        if len(batches) > 1:
            event("a batch boundary mid-plan")
        if dataset.descriptor.overrides and not set(dataset.descriptor.overrides) <= set(
            np.flatnonzero(np.diff(plan.indices)) + 1
        ):
            event("an override cuts a period")
        for (targets, runs), origins in batches.items():
            assert np.array_equal(origins, plan.indices[list(plan.starts)])
            for kind, bandwidths in sweep.grids.items():  # all three kernels
                rows = weights_for_target(origins, np.array(targets), kind, bandwidths, runs)
                assert rows.shape == (len(targets) * len(bandwidths), origins.size)
                assert rows.flags.c_contiguous
                blocks = rows.reshape(len(targets), len(bandwidths), origins.size)
                for block, target, r in zip(blocks, targets, runs):
                    alone = weights_for_target(origins[:r], target, kind, bandwidths)
                    assert np.array_equal(block[:, :r], alone)
                    assert not block[:, r:].any()

    # the default, and budgets that hold 3990-value synth splits by
    # three, by one and none at all
    @pytest.mark.parametrize("budget", [analysis.BATCH_VALUES, 12_000, 4_000, 1])
    @pytest.mark.parametrize("case", ["synth", "nasa93"])
    def test_batches_fill_the_value_budget(self, case, budget, monkeypatch):
        if case == "synth":
            dataset = synthesize(SynthConfig(seed=3))
        else:  # five coefficients
            data = Path(__file__).resolve().parent / "golden" / "nasa93_seed1" / "data.csv"
            dataset = load_dataset(builtin_descriptor("nasa93"), data.read_text("utf-8"))
        config = AnalysisConfig(grid_step=3.0)
        default = run_sweep(dataset, ALL_KERNELS, config)
        split = _split_values(dataset, default)
        calls = []
        wls = stats.weighted_least_squares

        def counted(design, w, starts, runs):
            calls.append(w.shape[0] * (w.shape[1] + design.n_columns * (design.n_columns + 1)))
            return wls(design, w, starts, runs)

        monkeypatch.setattr(stats, "weighted_least_squares", counted)
        monkeypatch.setattr(analysis, "BATCH_VALUES", budget)
        sweep = run_sweep(dataset, ALL_KERNELS, config)
        # whole splits, as many as the budget holds, and one at least
        assert sum(calls) == len(sweep.plan.splits) * split
        assert all(values <= budget or values == split for values in calls)
        assert all(values + split > budget for values in calls[:-1])
        # batching moves no bit
        assert sweep.curves == default.curves


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

    def test_test_re_range_spans_every_test_re(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        by_split = {}
        for c in stationary_sweep.cells:
            if c.re_test_nu is not None:
                by_split.setdefault(c.split, []).extend((c.re_test_nu, c.re_test_u))
        assert summary.test_re_range == {
            split: (min(res), max(res)) for split, res in by_split.items()
        }

import math
import os
import subprocess
import sys
import threading
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
    Curve,
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
from driftscope.cli import _curves_text
from driftscope.datasets import SynthConfig, builtin_descriptor, load_dataset, synthesize
from driftscope.kernels import Granularity, KernelKind
from driftscope.stats import LOG, DesignMatrix, ModelFormula, Term, build_design_matrix

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


CURVE_ARRAYS = ("re_train_nu", "re_test_nu", "re_train_u", "re_test_u")


def _fit_rows(sweep):
    """The rows of each split's stacked fit: the uniform row, then one per
    bandwidth of every kernel."""
    return 1 + sum(len(curve.bandwidths) for curve in sweep.curves.values())


def _assert_same_curves(got, want):
    """Equal {KernelKind: Curve} maps: the same kernels in the same order,
    the same grids, and the same arrays value for value, NaN where NaN."""
    assert list(got) == list(want)
    for kind, curve in want.items():
        assert type(got[kind].bandwidths) is tuple
        for field in ("bandwidths", *CURVE_ARRAYS):
            a, b = getattr(got[kind], field), getattr(curve, field)
            assert np.array_equal(a, b, equal_nan=True), (kind, field)


def _split_values(dataset, sweep):
    """The values each split of ``sweep`` stacks in a weighted least
    squares call: its fit rows x (runs + p*p + p), p coefficients."""
    rows = _fit_rows(sweep)
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
        curve = run_sweep(ds, (KernelKind.GAUSSIAN,), config).curves[KernelKind.GAUSSIAN]
        assert curve.re_train_nu[0].tolist() == [pytest.approx(0.0, abs=1e-12)]
        assert curve.re_test_nu[0].tolist() == [pytest.approx(0.0, abs=1e-12)]
        assert curve.re_train_u[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_data_split_has_no_test_res(self, stationary_dataset):
        config = AnalysisConfig(grid_lo=5.0, grid_hi=5.0)
        result = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,), config)
        curve = result.curves[KernelKind.GAUSSIAN]
        assert len(curve.re_test_u) == len(result.plan.splits)
        assert np.isnan(curve.re_test_nu[-1]).all() and np.isnan(curve.re_test_u[-1])
        assert not np.isnan(curve.re_test_nu[:-1]).any()
        assert not np.isnan(curve.re_test_u[:-1]).any()


class TestRunSweep:
    def test_full_grid_shape(self, stationary_dataset, stationary_sweep):
        plan = stationary_sweep.plan
        n_splits = len(plan.splits)
        expected = 0
        for kind in ALL_KERNELS:
            expected += n_splits * len(stationary_sweep.curves[kind].bandwidths)
        assert len(stationary_sweep.cells) == expected

    def test_finite_support_grids_start_above_span(self, stationary_sweep):
        plan = stationary_sweep.plan
        max_elapsed = max(s.target - min(plan.indices[: s.stop]) for s in plan.splits)
        for kind in (KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR):
            assert stationary_sweep.curves[kind].bandwidths[0] > max_elapsed

    def test_a_monthly_span_is_exact(self):
        # 40 calendar months span 4.0, which a float difference of
        # monthly indices reads as 3.9999999999999996, admitting 4
        rng = np.random.default_rng(0)
        lines = ["id,completion_date,total_effort,org_effort"]
        for month in range(40):
            for day in (10, 11, 12):
                org = rng.uniform(10, 1000)
                lines.append(
                    f"m{month}-{day},{2010 + month // 12}-{month % 12 + 1:02d}-{day},"
                    f"{org * rng.uniform(1.4, 1.6)!r},{org!r}"
                )
        descriptor = replace(builtin_descriptor("xbc"), overrides=None, expected_rows=None)
        sweep = run_sweep(load_dataset(descriptor, "\n".join(lines)), ALL_KERNELS)
        for kind in (KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR):
            assert sweep.curves[kind].bandwidths[0] == 5.0

    def test_uniform_re_constant_across_bandwidth(self, stationary_sweep):
        # one uniform fit per split: every kernel reads the same values,
        # and every cell of a (split, kernel) repeats them
        gaussian = stationary_sweep.curves[KernelKind.GAUSSIAN]
        for curve in stationary_sweep.curves.values():
            for field in ("re_train_u", "re_test_u"):
                a, b = getattr(curve, field), getattr(gaussian, field)
                assert np.array_equal(a, b, equal_nan=True)
        flat = {}
        for c in stationary_sweep.cells:
            flat.setdefault((c.split, c.kernel), set()).add((c.re_train_u, c.re_test_u))
        assert len(flat) == len(stationary_sweep.plan.splits) * len(ALL_KERNELS)
        assert all(len(values) == 1 for values in flat.values())

    def test_curves_are_read_only_views_of_one_table(self, stationary_sweep):
        # every kernel's curve is a column slice of the sweep's read-only
        # [split, fit row] tables, and all share the uniform fit's column
        # (whose values test_uniform_re_constant_across_bandwidth checks)
        gaussian = stationary_sweep.curves[KernelKind.GAUSSIAN]
        for curve in stationary_sweep.curves.values():
            for field in CURVE_ARRAYS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(curve, field)[0] = 0.0
            for field in ("re_train_u", "re_test_u"):
                assert np.shares_memory(getattr(curve, field), getattr(gaussian, field))

    def test_curves_split_major_with_python_floats(self, stationary_sweep):
        # the curves: one per kernel in run order, [split, bandwidth] arrays
        plan = stationary_sweep.plan
        n = len(plan.splits)
        assert list(stationary_sweep.curves) == list(ALL_KERNELS)
        for curve in stationary_sweep.curves.values():
            assert type(curve.bandwidths) is tuple
            assert all(type(b) is float for b in curve.bandwidths)
            for field in CURVE_ARRAYS:
                values = getattr(curve, field)
                assert values.dtype == np.float64
                assert values.shape == (n, len(curve.bandwidths))[: values.ndim]
            # NaN test values on the all-data split, and there alone
            for field in ("re_test_nu", "re_test_u"):
                assert np.array_equal(
                    np.isnan(getattr(curve, field)).reshape(n, -1).any(axis=1),
                    [split.is_final for split in plan.splits],
                )
        # the cells: split-major, Python floats, None on the all-data split
        cells = stationary_sweep.cells
        assert [(c.split, c.kernel, c.bandwidth) for c in cells] == [
            (split.ordinal, kind, b)
            for split in plan.splits
            for kind in ALL_KERNELS
            for b in stationary_sweep.curves[kind].bandwidths
        ]
        for c in cells:
            curve, i = stationary_sweep.curves[c.kernel], c.split - 1
            j = curve.bandwidths.index(c.bandwidth)
            final = plan.splits[i].is_final
            assert (c.re_train_nu, c.re_train_u) == (curve.re_train_nu[i, j], curve.re_train_u[i])
            if final:
                assert c.re_test_nu is None and c.re_test_u is None
            else:
                assert (c.re_test_nu, c.re_test_u) == (curve.re_test_nu[i, j], curve.re_test_u[i])
            values = [c.re_train_nu, c.re_train_u] + ([] if final else [c.re_test_nu, c.re_test_u])
            assert all(type(re) is float for re in values)

    def test_deterministic(self, stationary_dataset):
        a = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,))
        b = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,))
        assert a.cells == b.cells

    def test_weighted_curve_approaches_uniform_at_large_bandwidth(
        self, stationary_sweep
    ):
        curve = stationary_sweep.curves[KernelKind.GAUSSIAN]
        gaps = np.abs(curve.re_train_nu - curve.re_train_u[:, None])
        assert np.all(gaps[:, -1] <= gaps[:, 0] + 1e-9)

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
        rows = _fit_rows(sweep)
        splits = sweep.plan.splits
        assert (rows, len(splits)) == (285, 8)
        indices = sweep.plan.indices
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
        assert list(sweep.curves) == [gaussian]
        summary = summarize(sweep)
        assert summary.kernel_agreement is None
        assert [v.split for v in summary.verdicts] == [s.ordinal for s in sweep.plan.splits]

    def test_failed_cell_reports_coordinates(self):
        # two records per period is too few once the formula needs 3 rows
        ds = synthesize(SynthConfig(seed=8, n_projects=6, n_periods=3, noise_sd=0.0))
        broken = replace(ds, attributes={**ds.attributes, "size": np.full(len(ds.ids), 100.0)})
        with pytest.raises(SweepError, match="split"):
            run_sweep(broken, (KernelKind.GAUSSIAN,))

    @pytest.fixture(scope="class")
    def underflowing(self):
        """200 records over 39 yearly periods, whose Gaussian weights at
        bandwidth 1 underflow to 0.0 past a lag of about 38.6, and their
        three-kernel sweep."""
        ds = synthesize(SynthConfig(n_projects=200, n_periods=39, seed=0))
        return ds, run_sweep(ds, ALL_KERNELS)

    def test_gaussian_underflow_sweep_completes(self, underflowing):
        _, sweep = underflowing
        assert len(sweep.plan.splits) == 39
        for curve in sweep.curves.values():
            assert np.isfinite(curve.re_train_nu).all() and np.isfinite(curve.re_train_u).all()
            assert np.isfinite(curve.re_test_nu[:-1]).all() and np.isfinite(curve.re_test_u[:-1]).all()

    def test_underflowed_weights_drop_their_records(self, underflowing):
        # the last split's bandwidth-1 Gaussian cell against lstsq on
        # sqrt(w)X over its positive-weight records alone
        ds, sweep = underflowing
        plan = sweep.plan
        split = plan.splits[-1]
        formula = ds.descriptor.formula
        rows = plan.order[: split.stop]
        design = build_design_matrix({c: ds.attributes[c][rows] for c in formula.columns}, formula)
        lags = split.target - plan.indices[: split.stop]
        w = np.array([math.exp(-0.5 * lag * lag) for lag in lags.tolist()])
        kept = w > 0
        assert np.count_nonzero(~kept) == 7
        sw = np.sqrt(w[kept])
        beta, *_ = np.linalg.lstsq(
            design.matrix[kept] * sw[:, None], design.response[kept] * sw, rcond=None
        )
        actual = ds.attributes[formula.response][rows]
        residuals = actual - np.exp(design.matrix @ beta)
        want = np.var(residuals, ddof=1) / np.var(actual, ddof=1)
        curve = sweep.curves[KernelKind.GAUSSIAN]
        assert curve.bandwidths[0] == 1.0
        assert curve.re_train_nu[-1, 0] == pytest.approx(want, rel=1e-12)

    def test_eighty_periods_sweep_every_kernel(self):
        ds = synthesize(SynthConfig(n_projects=200, n_periods=80, seed=0))
        sweep = run_sweep(ds, ALL_KERNELS)
        assert list(sweep.curves) == list(ALL_KERNELS)
        for curve in sweep.curves.values():
            assert np.isfinite(curve.re_train_nu).all() and np.isfinite(curve.re_train_u).all()

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

    @staticmethod
    def _count_fits(monkeypatch):
        """Patch the sweep's weighted_least_squares to count its calls;
        returns the list it appends each call's number of fit rows to."""
        calls, wls = [], stats.weighted_least_squares

        def counted(design, w, starts, runs):
            calls.append(len(w))
            return wls(design, w, starts, runs)

        monkeypatch.setattr(stats, "weighted_least_squares", counted)
        return calls

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
        grid = run_sweep(lone_oldest, (KernelKind.TRIANGULAR,), config).curves[
            KernelKind.TRIANGULAR
        ].bandwidths
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
        calls = self._count_fits(monkeypatch)
        self._plant_singular_rows(monkeypatch, KernelKind.TRIANGULAR, (1,), target=third)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels)
        assert (info.value.split, info.value.kernel) == (3, KernelKind.TRIANGULAR)
        assert info.value.bandwidth == sweep.curves[KernelKind.TRIANGULAR].bandwidths[1]
        assert str(info.value).endswith("] singular design")
        # the failing batch is solved once, not again without its failure
        assert len(calls) == 1
        calls.clear()
        self._plant_singular_rows(monkeypatch, KernelKind.GAUSSIAN, (2,), target=second)
        with pytest.raises(SweepError) as info:
            run_sweep(lone_oldest, kernels)
        assert str(info.value) == "[split 2, kernel gaussian, bandwidth 3] singular design"
        assert len(calls) == 1

    def test_a_failed_sweep_restores_the_callers_blas_threads(
        self, lone_oldest, monkeypatch, openblas
    ):
        get, _ = openblas
        caller = _set_blas_threads(openblas, 2)
        inside = _blas_threads_inside(monkeypatch, get)
        self._plant_singular_rows(monkeypatch, KernelKind.GAUSSIAN, (2,))
        with pytest.raises(SweepError):
            run_sweep(lone_oldest, (KernelKind.GAUSSIAN, KernelKind.TRIANGULAR))
        assert inside and set(inside) == {1}
        assert get() == caller

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
        calls = self._count_fits(monkeypatch)
        # scored in one chunk, or one fit row at a time: the error is
        # reported at row 0's cell either way, from the one solve of the
        # batch that fails
        for budget in (analysis.SCORE_VALUES, 1):
            monkeypatch.setattr(analysis, "SCORE_VALUES", budget)
            calls.clear()
            with pytest.raises(SweepError) as info:
                run_sweep(flat, (KernelKind.GAUSSIAN,))
            assert str(info.value) == (
                "[split 1, kernel gaussian, bandwidth 1] actuals have zero variance"
            )
            assert len(calls) == 1

    def test_singular_uniform_row_of_a_later_split_names_its_first_cell(
        self, lone_oldest, monkeypatch
    ):
        kernels = (KernelKind.EPANECHNIKOV, KernelKind.GAUSSIAN)
        config = AnalysisConfig(grid_step=3.0)
        sweep = run_sweep(lone_oldest, kernels, config)
        rows = _fit_rows(sweep)
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
        first = sweep.curves[KernelKind.EPANECHNIKOV].bandwidths[0]
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
        first = run_sweep(stationary_dataset, kernels[:1], config).curves[kernels[0]].bandwidths[0]
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
            want, got = alone.curves[kind], mixed.curves[kind]
            assert want.bandwidths == got.bandwidths
            for field in CURVE_ARRAYS:
                a, b = getattr(want, field), getattr(got, field)
                assert np.array_equal(np.isnan(a), np.isnan(b))
                assert np.nanmax(np.abs(a - b)) <= 1e-12


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


def _rows(design, rows):
    """The design of the records ``rows`` selects, with the same columns."""
    return DesignMatrix(design.matrix[rows], design.response[rows], design.labels)


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
            _assert_same_design(_rows(design, slice(split.stop)), train)
            if split.test_ids:
                test = build_design_matrix(columns([row[i] for i in split.test_ids]), formula)
                _assert_same_design(_rows(design, split.test_rows), test)


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
        split_fits = analysis._split_fits

        def recorded(*args):
            for fit in split_fits(*args):
                fits.append(fit)
                yield fit

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_split_fits", recorded)
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
        for split, coefficients in fits:
            train = _rows(design, slice(split.stop))
            indices = plan.indices[: split.stop]
            starts = np.flatnonzero(np.concatenate(([True], indices[1:] != indices[:-1])))
            weights = [np.ones((1, starts.size))] + [
                analysis.weights_for_target(indices[starts], split.target, kind, curve.bandwidths)
                for kind, curve in sweep.curves.items()
            ]
            want = stats.weighted_least_squares(train, np.concatenate(weights), starts)
            error = np.linalg.norm(coefficients - want, axis=1)
            assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=1))

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
            for kind, curve in sweep.curves.items():  # all three kernels
                bandwidths = curve.bandwidths
                rows = weights_for_target(origins, np.array(targets), kind, bandwidths, runs)
                assert rows.shape == (len(targets) * len(bandwidths), origins.size)
                assert rows.flags.c_contiguous
                blocks = rows.reshape(len(targets), len(bandwidths), origins.size)
                for block, target, r in zip(blocks, targets, runs):
                    alone = weights_for_target(origins[:r], target, kind, bandwidths)
                    assert np.array_equal(block[:, :r], alone)
                    assert not block[:, r:].any()

    @staticmethod
    def _budget_case(case):
        if case == "synth":
            return synthesize(SynthConfig(seed=3))
        # five coefficients
        data = Path(__file__).resolve().parent / "golden" / "nasa93_seed1" / "data.csv"
        return load_dataset(builtin_descriptor("nasa93"), data.read_text("utf-8"))

    # the default, and budgets that hold 3990-value synth splits by
    # three, by one and none at all
    @pytest.mark.parametrize("budget", [analysis.BATCH_VALUES, 12_000, 4_000, 1])
    @pytest.mark.parametrize("case", ["synth", "nasa93"])
    def test_batches_fill_the_value_budget(self, case, budget, monkeypatch):
        dataset = self._budget_case(case)
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
        _assert_same_curves(sweep.curves, default.curves)

    # the default, which holds every split of both cases in one chunk, a
    # budget of a few rows per chunk, and one of a single row
    @pytest.mark.parametrize("budget", [analysis.SCORE_VALUES, 2**12, 1])
    @pytest.mark.parametrize("case", ["synth", "nasa93"])
    def test_scoring_chunks_fill_the_prediction_budget(self, case, budget, monkeypatch):
        dataset = self._budget_case(case)
        config = AnalysisConfig(grid_step=3.0)
        monkeypatch.setattr(analysis, "SCORE_VALUES", 2**62)
        whole = run_sweep(dataset, ALL_KERNELS, config)
        calls = []
        predict = stats.predict

        def counted(coefficients, matrix):
            calls.append((len(coefficients), len(matrix)))
            return predict(coefficients, matrix)

        monkeypatch.setattr(stats, "predict", counted)
        monkeypatch.setattr(analysis, "SCORE_VALUES", budget)
        sweep = run_sweep(dataset, ALL_KERNELS, config)
        # every split's fit rows, on its training and then its test records,
        # in chunks of as many rows as the budget holds, and one at least
        rows, want = _fit_rows(sweep), []
        for split in sweep.plan.splits:
            for n in (split.stop,) if split.is_final else (split.stop, split.test_rows.size):
                size = max(1, budget // n)
                want += [(min(size, rows - first), n) for first in range(0, rows, size)]
        assert calls == want
        assert all(k * n <= budget or k == 1 for k, n in calls)
        # chunks of several rows move RE bits by under 1e-14 relative; a
        # one-row chunk is a matrix-vector product, whose other summation
        # order moved them by up to 3.7e-14 here, within the 1e-12 that
        # the outputs allow a change of summation order
        rtol = 1e-14 if budget > 1 else 1e-12
        for kind, curve in whole.curves.items():
            for field in CURVE_ARRAYS:
                np.testing.assert_allclose(
                    getattr(sweep.curves[kind], field), getattr(curve, field), rtol=rtol, atol=0
                )
        assert summarize(sweep).verdicts == summarize(whole).verdicts


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


@pytest.fixture
def openblas():
    """The (get, set) OpenBLAS thread-count pair the sweep pins, the
    count restored after the test; skips where the sweep finds none."""
    blas = analysis._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count setter")
    get, set_ = blas
    before = get()
    yield blas
    set_(before)


def _set_blas_threads(openblas, count):
    """Set the OpenBLAS thread count to ``count``; skips where it will not
    take it."""
    get, set_ = openblas
    set_(count)
    if get() != count:
        pytest.skip(f"OpenBLAS will not run {count} threads here")
    return count


def _blas_threads_inside(monkeypatch, get):
    """Patch the sweep's weighted_least_squares to read the OpenBLAS thread
    count through ``get`` at each call; returns the list of counts."""
    counts, wls = [], stats.weighted_least_squares

    def counted(*args):
        counts.append(get())
        return wls(*args)

    monkeypatch.setattr(stats, "weighted_least_squares", counted)
    return counts


class TestBlasThreads:
    @pytest.mark.parametrize("caller", [2, 1])
    def test_sweep_runs_on_one_thread_and_restores_the_callers(
        self, stationary_dataset, monkeypatch, openblas, caller
    ):
        get, _ = openblas
        _set_blas_threads(openblas, caller)
        inside = _blas_threads_inside(monkeypatch, get)
        sweep = run_sweep(stationary_dataset, ALL_KERNELS, AnalysisConfig(grid_step=9.0))
        assert inside and set(inside) == {1}
        assert sweep.blas_threads == 1
        assert get() == caller

    @pytest.mark.parametrize("name", ["nasa93", "desharnais", "kitchenham", "maxwell", "xbc"])
    def test_outputs_are_those_of_a_sweep_without_a_setter(self, monkeypatch, name):
        data = Path(__file__).resolve().parent / "golden" / f"{name}_seed1" / "data.csv"
        dataset = load_dataset(builtin_descriptor(name), data.read_text(encoding="utf-8"))
        config = AnalysisConfig(grid_step=9.0)
        pinned = run_sweep(dataset, ALL_KERNELS, config)
        monkeypatch.setattr(analysis, "_openblas", lambda: None)
        unpinned = run_sweep(dataset, ALL_KERNELS, config)
        assert unpinned.blas_threads is None
        assert "".join(_curves_text(unpinned)) == "".join(_curves_text(pinned))

    def test_without_a_setter_the_count_is_never_set(
        self, stationary_dataset, monkeypatch, openblas
    ):
        get, _ = openblas
        caller = _set_blas_threads(openblas, 2)
        inside = _blas_threads_inside(monkeypatch, get)
        monkeypatch.setattr(analysis, "_openblas", lambda: None)
        run_sweep(stationary_dataset, ALL_KERNELS, AnalysisConfig(grid_step=9.0))
        assert inside and set(inside) == {caller}
        assert get() == caller

    def test_concurrent_sweeps_restore_the_callers_count(
        self, stationary_dataset, monkeypatch, openblas
    ):
        # the count is process-global: the last sweep out restores the
        # count the first one in found
        get, _ = openblas
        caller = _set_blas_threads(openblas, 2)
        inside = _blas_threads_inside(monkeypatch, get)
        config = AnalysisConfig(grid_step=9.0)
        want = run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,), config)
        inside.clear()
        results, interval = [], sys.getswitchinterval()

        def sweep():
            for _ in range(10):
                results.append(run_sweep(stationary_dataset, (KernelKind.GAUSSIAN,), config))

        workers = [threading.Thread(target=sweep) for _ in range(2 * (os.cpu_count() or 1) + 2)]
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(results) == 10 * len(workers)
        assert set(inside) == {1}
        assert get() == caller
        for result in results:
            _assert_same_curves(result.curves, want.curves)


def _curve(bandwidths, re_train_nu, re_train_u):
    """A curve of weighted training rows ``re_train_nu``, [split,
    bandwidth], read against ``re_train_u``, without test values."""
    nu = np.array(re_train_nu, dtype=float).reshape(len(re_train_u), len(bandwidths))
    u = np.array(re_train_u, dtype=float)
    return Curve(tuple(bandwidths), nu, np.full_like(nu, np.nan), u, np.full_like(u, np.nan))


def _scalar_convergence(curve, uniform_re, epsilon):
    """The reference for one split: the smallest bandwidth of the (bandwidth,
    re) pairs ``curve``, in ascending order, from which every re stays
    within tolerance of ``uniform_re``, read one pair at a time."""
    curve = list(curve)
    tolerance = epsilon * max(1.0, uniform_re)
    b_star = None
    for b, re in curve:
        if abs(re - uniform_re) <= tolerance:
            if b_star is None:
                b_star = b
        else:
            b_star = None
    if b_star is None:
        return None
    return ConvergencePoint(bandwidth=b_star, at_grid_minimum=b_star == curve[0][0])


@stn.composite
def _convergence_cases(draw):
    """A random curve, [split, bandwidth], and an epsilon: unweighted values
    below and above 1, and weighted values drawn anywhere, exactly on
    the tolerance's edges, u +- epsilon * max(1, u), or not finite."""
    n_splits, n_bandwidths = draw(stn.integers(1, 4)), draw(stn.integers(1, 8))
    bandwidths = sorted(
        draw(stn.sets(stn.floats(0.25, 100.0), min_size=n_bandwidths, max_size=n_bandwidths))
    )
    epsilon = draw(stn.floats(0.001, 0.5))
    uniform = draw(
        stn.lists(
            stn.one_of(stn.floats(0.0, 1.0), stn.floats(1.0, 50.0), stn.just(math.inf)),
            min_size=n_splits, max_size=n_splits,
        )
    )
    rows = []
    for u in uniform:
        tolerance = epsilon * max(1.0, u)
        edges = stn.sampled_from([u - tolerance, u, u + tolerance])
        rows.append(
            draw(stn.lists(
                stn.one_of(edges, stn.floats(0.0, 60.0), stn.sampled_from([math.inf, math.nan])),
                min_size=n_bandwidths, max_size=n_bandwidths,
            ))
        )
    return _curve(bandwidths, rows, uniform), epsilon


class TestDetectConvergence:
    def test_identical_curve_converges_at_grid_min(self):
        [point] = detect_convergence(_curve(range(1, 11), [[0.5] * 10], [0.5]), 0.05)
        assert point.bandwidth == 1
        assert point.at_grid_minimum

    def test_never_within_tolerance(self):
        assert detect_convergence(_curve(range(1, 11), [[2.0] * 10], [0.5]), 0.05) == [None]

    def test_sustained_tail_required(self):
        # transient touch at b=2 does not count
        curve = _curve(range(1, 7), [[2.0, 0.5, 2.0, 0.52, 0.51, 0.5]], [0.5])
        [point] = detect_convergence(curve, 0.05)
        assert point.bandwidth == 4

    def test_tolerance_scales_with_large_uniform_re(self):
        [point] = detect_convergence(_curve((1, 2, 3), [[10.8, 10.4, 10.2]], [10.0]), 0.05)
        assert point.bandwidth == 2

    def test_one_point_per_split(self):
        curve = _curve((1, 2, 3), [[0.5, 0.5, 0.5], [2.0, 0.5, 0.5], [0.5, 0.5, 2.0]], [0.5] * 3)
        assert detect_convergence(curve, 0.05) == [
            ConvergencePoint(1, at_grid_minimum=True),
            ConvergencePoint(2, at_grid_minimum=False),
            None,
        ]

    @settings(max_examples=300, deadline=None)
    @given(_convergence_cases())
    @example((_curve((3.0,), [[0.5], [0.56]], [0.5, 0.5]), 0.1))  # a one-bandwidth grid
    def test_array_reading_equals_a_scalar_loop(self, case):
        curve, epsilon = case
        if len(curve.bandwidths) == 1:
            event("a one-bandwidth grid")
        want = [
            _scalar_convergence(zip(curve.bandwidths, row), u, epsilon)
            for row, u in zip(curve.re_train_nu.tolist(), curve.re_train_u.tolist())
        ]
        if any(point and not point.at_grid_minimum for point in want):
            event("converged past the grid minimum")
        assert detect_convergence(curve, epsilon) == want


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
        final = stationary_sweep.plan.splits[-1].ordinal
        for curve in stationary_sweep.curves.values():
            assert np.isnan(curve.re_test_nu[final - 1]).all()
            assert np.isnan(curve.re_test_u[final - 1])
            assert np.all(curve.re_test_nu[: final - 1] >= 0)
            assert np.all(curve.re_test_u[: final - 1] >= 0)

    def test_kernel_agreement_reported(self, stationary_sweep):
        summary = summarize(stationary_sweep)
        assert 0.0 <= summary.kernel_agreement <= 1.0

    def test_verdict_lookup(self, stationary_sweep):
        # one verdict per (split, kernel), splits numbered from 1
        summary = summarize(stationary_sweep)
        by_key = {(v.split, v.kernel): v for v in summary.verdicts}
        for v in summary.verdicts:
            assert by_key[v.split, v.kernel] is v
        with pytest.raises(KeyError):
            by_key[0, KernelKind.GAUSSIAN]

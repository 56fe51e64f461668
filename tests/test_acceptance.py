"""Tracked acceptance criteria.

Criteria 1-7 are self-contained properties. Criteria 8-13 replicate
published results on four public effort datasets; the CSV files are not
redistributable, so those tests skip unless the user supplies them.
Place nasa93.csv, desharnais.csv, kitchenham.csv, and maxwell.csv in a
data/ directory next to src/, or point DRIFTSCOPE_DATA at a directory
holding them.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from driftscope.analysis import Classification, run_sweep, summarize
from driftscope.datasets import SynthConfig, builtin_descriptor, load_dataset, synthesize
from driftscope.kernels import KernelKind, build_grid, decay_horizon, kernel_weight
from driftscope.stats import DesignMatrix, predict, relative_error, weighted_least_squares
from driftscope.swilk import swilk

DATA_DIR = Path(
    os.environ.get("DRIFTSCOPE_DATA", Path(__file__).resolve().parent.parent / "data")
)

WEIGHTED_KERNELS = (
    KernelKind.GAUSSIAN,
    KernelKind.EPANECHNIKOV,
    KernelKind.TRIANGULAR,
)


def _data_path(name):
    return DATA_DIR / f"{name}.csv"


def _needs(*names):
    missing = [n for n in names if not _data_path(n).exists()]
    return pytest.mark.skipif(
        bool(missing), reason=f"dataset files not supplied: {', '.join(missing)}"
    )


_SWEEPS = {}


def _sweep(name, kernels):
    key = (name, kernels)
    if key not in _SWEEPS:
        text = _data_path(name).read_bytes().decode("utf-8")
        dataset = load_dataset(builtin_descriptor(name), text)
        _SWEEPS[key] = run_sweep(dataset, kernels)
    return _SWEEPS[key]


def _test_re_range(sweep):
    """Per test-bearing split, the least and the greatest test relative
    error over its curves, weighted and unweighted."""
    values = np.column_stack(
        [v for c in sweep.curves.values() for v in (c.re_test_nu, c.re_test_u)]
    )[:-1]  # the final split has no test records
    return {i: (float(row.min()), float(row.max())) for i, row in enumerate(values, 1)}


def _random_design(rng):
    n = int(rng.integers(10, 41))
    k = int(rng.integers(1, 5))
    matrix = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
    response = rng.normal(size=n)
    labels = ("intercept",) + tuple(f"x{j}" for j in range(k))
    return DesignMatrix(matrix=matrix, response=response, labels=labels)


@pytest.mark.criterion(1, "constant-predictor relative error is 1")
def test_constant_prediction_re_is_one():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        actuals = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.1, 3), size=n)
        constant = float(rng.uniform(-10, 10))
        assert relative_error([constant] * n, actuals) == pytest.approx(1.0, abs=1e-12)


class TestWeightedFitOracles:
    @pytest.mark.criterion(2, "weighted least squares oracles")
    def test_uniform_weights_match_normal_equations(self):
        rng = np.random.default_rng(2001)
        for _ in range(100):
            design = _random_design(rng)
            fit = weighted_least_squares(design, np.ones(design.n_rows))
            x, y = design.matrix, design.response
            oracle = np.linalg.solve(x.T @ x, x.T @ y)
            scale = max(1.0, float(np.linalg.norm(oracle)))
            assert np.linalg.norm(fit.coefficients - oracle) <= 1e-10 * scale

    @pytest.mark.criterion(2, "weighted least squares oracles")
    def test_integer_weights_match_row_replication(self):
        rng = np.random.default_rng(2002)
        for _ in range(100):
            design = _random_design(rng)
            counts = rng.integers(1, 5, size=design.n_rows)
            fit = weighted_least_squares(design, counts.astype(float))
            replicated = DesignMatrix(
                matrix=np.repeat(design.matrix, counts, axis=0),
                response=np.repeat(design.response, counts),
                labels=design.labels,
            )
            oracle = weighted_least_squares(replicated, np.ones(replicated.n_rows))
            scale = max(1.0, float(np.linalg.norm(oracle.coefficients)))
            assert np.linalg.norm(fit.coefficients - oracle.coefficients) <= 1e-8 * scale

    @pytest.mark.criterion(2, "weighted least squares oracles")
    def test_weighted_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2003)
        for _ in range(100):
            design = _random_design(rng)
            weights = rng.uniform(0.05, 1.0, size=design.n_rows)
            fit = weighted_least_squares(design, weights)
            residuals = design.response - predict(fit, design)
            gradient = design.matrix.T @ (weights * residuals)
            scale = max(
                1.0,
                float(np.abs(design.matrix).max() * np.abs(design.response).max())
                * design.n_rows,
            )
            assert np.abs(gradient).max() <= 1e-8 * scale


class TestKernelTable:
    @pytest.mark.criterion(3, "kernel point values, bounds, monotonicity")
    @pytest.mark.parametrize(
        "kind,lag,expected",
        [
            (KernelKind.GAUSSIAN, 0.0, 1.0),
            (KernelKind.GAUSSIAN, 1.0, math.exp(-0.5)),
            (KernelKind.EPANECHNIKOV, 0.5, 0.75),
            (KernelKind.TRIANGULAR, 0.25, 0.75),
        ],
    )
    def test_point_values_exact(self, kind, lag, expected):
        assert kernel_weight(kind, lag) == expected

    @pytest.mark.criterion(3, "kernel point values, bounds, monotonicity")
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_bounds_and_monotonicity(self, kind):
        hi = 5.0 if kind is KernelKind.GAUSSIAN else 1.0
        lags = [i * hi / 10_000 for i in range(10_000)]
        weights = [kernel_weight(kind, lag) for lag in lags]
        assert weights[0] == 1.0
        assert all(0.0 < w <= 1.0 for w in weights)
        for prev, cur in zip(weights, weights[1:]):
            assert cur <= prev


@pytest.mark.criterion(4, "finite-support bandwidth grid minima")
@pytest.mark.parametrize("kind", [KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR])
@pytest.mark.parametrize("max_elapsed,expected", [(16, 17), (4, 5), (7, 8)])
def test_grid_minima(kind, max_elapsed, expected):
    assert build_grid(kind, max_elapsed)[0] == expected


@pytest.mark.criterion(5, "Gaussian decay horizon calibration")
def test_decay_horizon_calibration():
    assert decay_horizon(KernelKind.GAUSSIAN, 5, 0.01) == pytest.approx(15.17, abs=0.01)


class TestSyntheticVerdicts:
    # oracle thresholds frozen during development: seeds 0-9, Gaussian kernel
    @pytest.mark.criterion(6, "synthetic verdict direction over 10 seeds")
    def test_drift_free_reads_stationary(self):
        hits = 0
        for seed in range(10):
            summary = summarize(
                run_sweep(synthesize(SynthConfig(seed=seed)), (KernelKind.GAUSSIAN,))
            )
            if all(
                v.classification
                in (Classification.STATIONARY, Classification.NEAR_STATIONARY)
                for v in summary.verdicts
            ):
                hits += 1
        assert hits >= 9

    @pytest.mark.criterion(6, "synthetic verdict direction over 10 seeds")
    def test_strong_intercept_drift_reads_non_stationary(self):
        hits = 0
        for seed in range(10):
            sweep = run_sweep(
                synthesize(SynthConfig(seed=seed, intercept_drift=0.5)),
                (KernelKind.GAUSSIAN,),
            )
            summary = summarize(sweep)
            final = sweep.plan.splits[-1].ordinal
            verdict = summary.verdict(final, KernelKind.GAUSSIAN)
            if verdict.classification is Classification.NON_STATIONARY:
                hits += 1
        assert hits >= 9


@pytest.mark.criterion(7, "normality statistic matches reference implementation")
def test_normality_statistic_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    sample = [
        55.808, 49.356, 55.601, 52.427, 41.736, 32.267, 64.311, 48.213,
        30.611, 35.488, 51.794, 56.951, 46.375, 72.345, 48.657, 35.188,
        52.786, 36.477, 52.812, 65.787,
    ]
    w, p = swilk(sample)
    ref = scipy_stats.shapiro(sample)
    assert w == pytest.approx(ref.statistic, abs=1e-3)
    assert p == pytest.approx(ref.pvalue, abs=1e-3)


@_needs("nasa93")
class TestNasa93Replication:
    @pytest.mark.criterion(8, "nasa93 Gaussian replication")
    def test_all_splits_non_stationary(self):
        start = time.monotonic()
        sweep = _sweep("nasa93", (KernelKind.GAUSSIAN,))
        summary = summarize(sweep)
        elapsed = time.monotonic() - start
        assert len(sweep.plan.splits) == 8
        assert all(
            v.classification is Classification.NON_STATIONARY for v in summary.verdicts
        )
        assert elapsed < 10

    @pytest.mark.criterion(8, "nasa93 Gaussian replication")
    def test_convergence_bandwidths(self):
        sweep = _sweep("nasa93", (KernelKind.GAUSSIAN,))
        summary = summarize(sweep)
        final = sweep.plan.splits[-1].ordinal
        full = summary.verdict(final, KernelKind.GAUSSIAN).convergence
        assert full is not None and abs(full.bandwidth - 18) <= 4
        second = summary.verdict(2, KernelKind.GAUSSIAN).convergence
        assert second is not None and abs(second.bandwidth - 8) <= 4

    @pytest.mark.criterion(8, "nasa93 Gaussian replication")
    def test_seventh_split_test_error(self):
        low, _ = _test_re_range(_sweep("nasa93", (KernelKind.GAUSSIAN,)))[7]
        assert low < 0.2


@_needs("desharnais")
class TestDesharnaisReplication:
    @pytest.mark.criterion(9, "desharnais Gaussian replication")
    def test_all_splits_at_least_near_stationary(self):
        summary = summarize(_sweep("desharnais", (KernelKind.GAUSSIAN,)))
        assert all(
            v.classification
            in (Classification.STATIONARY, Classification.NEAR_STATIONARY)
            for v in summary.verdicts
        )

    @pytest.mark.criterion(9, "desharnais Gaussian replication")
    def test_all_test_errors_below_one(self):
        ranges = _test_re_range(_sweep("desharnais", (KernelKind.GAUSSIAN,)))
        assert ranges
        assert all(hi < 1 for _, hi in ranges.values())


@_needs("kitchenham")
class TestKitchenhamReplication:
    @pytest.mark.criterion(10, "kitchenham Gaussian replication")
    def test_split_classifications(self):
        summary = summarize(_sweep("kitchenham", (KernelKind.GAUSSIAN,)))
        first = summary.verdict(1, KernelKind.GAUSSIAN)
        assert first.classification is Classification.NEAR_STATIONARY
        for ordinal in (2, 3, 4):
            verdict = summary.verdict(ordinal, KernelKind.GAUSSIAN)
            assert verdict.classification is Classification.NON_STATIONARY
            assert verdict.convergence is not None
            assert 1 <= verdict.convergence.bandwidth <= 13

    @pytest.mark.criterion(10, "kitchenham Gaussian replication")
    def test_all_test_errors_below_one(self):
        ranges = _test_re_range(_sweep("kitchenham", (KernelKind.GAUSSIAN,)))
        assert ranges
        assert all(hi < 1 for _, hi in ranges.values())


@_needs("maxwell")
class TestMaxwellReplication:
    @pytest.mark.criterion(11, "maxwell three-kernel replication")
    @pytest.mark.parametrize("kind", WEIGHTED_KERNELS)
    def test_split_classifications(self, kind):
        summary = summarize(_sweep("maxwell", WEIGHTED_KERNELS))
        for ordinal in (1, 2):
            assert summary.verdict(ordinal, kind).classification is (
                Classification.NEAR_STATIONARY
            )
        for ordinal in (3, 4):
            assert summary.verdict(ordinal, kind).classification is (
                Classification.NON_STATIONARY
            )

    @pytest.mark.criterion(11, "maxwell three-kernel replication")
    def test_gaussian_convergence_bandwidths(self):
        summary = summarize(_sweep("maxwell", WEIGHTED_KERNELS))
        third = summary.verdict(3, KernelKind.GAUSSIAN).convergence
        fourth = summary.verdict(4, KernelKind.GAUSSIAN).convergence
        assert third is not None and abs(third.bandwidth - 5) <= 3
        assert fourth is not None and abs(fourth.bandwidth - 12) <= 3

    @pytest.mark.criterion(11, "maxwell three-kernel replication")
    def test_test_errors_below_one_after_first_split(self):
        ranges = _test_re_range(_sweep("maxwell", WEIGHTED_KERNELS))
        later = {k: v for k, v in ranges.items() if k != 1}
        assert later
        assert all(hi < 1 for _, hi in later.values())


@pytest.mark.criterion(12, "kernel choice leaves verdicts unchanged")
@_needs("nasa93", "desharnais", "kitchenham", "maxwell")
def test_kernel_invariance_across_datasets():
    agreeing = total = 0
    for name in ("nasa93", "desharnais", "kitchenham", "maxwell"):
        sweep = _sweep(name, WEIGHTED_KERNELS)
        summary = summarize(sweep)
        for split in sweep.plan.splits:
            calls = {
                summary.verdict(split.ordinal, kind).classification
                for kind in WEIGHTED_KERNELS
            }
            agreeing += len(calls) == 1
            total += 1
    assert agreeing / total >= 0.9


@pytest.mark.criterion(13, "uniform fit never materially worse on drifting splits")
@_needs("nasa93", "desharnais", "kitchenham", "maxwell")
def test_uniform_training_error_bound_on_non_stationary_splits():
    checked = 0
    for name in ("nasa93", "desharnais", "kitchenham", "maxwell"):
        sweep = _sweep(name, (KernelKind.GAUSSIAN,))
        summary = summarize(sweep)
        for verdict in summary.verdicts:
            if verdict.classification is not Classification.NON_STATIONARY:
                continue
            curve, i = sweep.curves[KernelKind.GAUSSIAN], verdict.split - 1
            best_nu = curve.re_train_nu[i].min()
            uniform = curve.re_train_u[i]
            assert best_nu >= uniform - sweep.config.epsilon
            checked += 1
    assert checked > 0

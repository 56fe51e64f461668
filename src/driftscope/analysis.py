# The sweep engine.  Every split gets one unweighted fit, and every
# (kernel, bandwidth) cell of it one kernel-weighted fit, on the same
# training data; relative errors of both, on training and test records,
# form the four curves a stationarity reading needs.  Convergence of the
# weighted training curve onto the flat unweighted line, combined with
# the kernel's weight-decay horizon at the convergence bandwidth, yields
# the per-split verdict.
#
# Every training set is a prefix of one plan-ordered design, so the fits
# of a whole plan share its run table (records of one period, cut again
# at every split's stop) and their per-run moment sums.  Whole
# splits are solved together, within BATCH_VALUES stacked values per
# weighted least squares call on the whole design and run table;
# prediction and relative errors stay per split, in row chunks of at
# most SCORE_VALUES predictions, so the predictions held at once do not
# grow with the grid.  Errors come out in
# plan order, at the (split, kernel, bandwidth) of the first failing
# cell, as one split at a time would give them.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import stats
from .chronology import SplitPlan, build_split_plan
from .kernels import (
    KernelKind,
    build_grid,
    decay_horizon,
    float_text,
    weights_for_target,
)

__all__ = [
    "AnalysisConfig",
    "SweepCell",
    "Curve",
    "SweepResult",
    "SweepError",
    "ConvergencePoint",
    "Classification",
    "StationarityVerdict",
    "SweepSummary",
    "run_sweep",
    "detect_convergence",
    "stationarity_verdict",
    "summarize",
]

# Stacked values per weighted_least_squares call: whole splits are
# batched while their fit rows x (runs + p*p + p), the weights and the
# moment sums the call stacks for p coefficients, stay within this
# budget, so a batch exceeds it only when one split alone does.  Every
# benchmark plan fits in one batch (nasa93 needs the most, 213,333
# values).  A batch's dispatch cost does not grow with its rows: on the
# benchmark's 1000 x 20 long-history sweep (5,220 fit rows), one batch
# in place of seven of at most 1024 rows cut the sweep's wall time by
# 12% and raised its peak RSS by 1.9 MB (4.6%), on a 2-core x86 box.
BATCH_VALUES = 2**18

# Predictions per scoring chunk: a split's fit rows are predicted,
# exponentiated and scored on its records in chunks of as many rows as
# hold at most this many predictions, one row at least.  2^16 float64
# predictions are 512 KiB, and their residuals are made in place, so a
# chunk fits in a 512 KiB L2, the smallest on current x86 cores.  On the
# benchmark's 1000 x 20 long-history input at --grid 1:4000:1, run_sweep
# went from 1.50 s and 144.8 MB peak RSS with one chunk per pass to
# 0.89 s and 50.3 MB (minimum of 3 runs, 2-core x86 box).
SCORE_VALUES = 2**16


@dataclass(frozen=True)
class AnalysisConfig:
    epsilon: float = 0.05  # relative convergence tolerance
    theta: float = 0.01  # weight-decay threshold
    grid_lo: float = 1.0
    grid_hi: float = 100.0
    grid_step: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")


class SweepError(RuntimeError):
    """A cell failed; carries the (split, kernel, bandwidth) coordinates."""

    def __init__(self, message, split=None, kernel=None, bandwidth=None):
        coords = []
        if split is not None:
            coords.append(f"split {split}")
        if kernel is not None:
            coords.append(f"kernel {kernel.value}")
        if bandwidth is not None:
            coords.append(f"bandwidth {float_text(bandwidth)}")
        prefix = f"[{', '.join(coords)}] " if coords else ""
        super().__init__(prefix + str(message))
        self.split = split
        self.kernel = kernel
        self.bandwidth = bandwidth


@dataclass(frozen=True)
class SweepCell:
    split: int
    kernel: KernelKind
    bandwidth: float
    re_train_nu: float
    re_test_nu: float | None  # None on the all-data split
    re_train_u: float
    re_test_u: float | None


@dataclass(frozen=True, eq=False)
class Curve:
    """One kernel's curves over every split: the weighted relative errors
    along the kernel's bandwidth grid, [split, bandwidth], and the flat
    unweighted values they are read against, [split].  Row i is split
    i + 1; test values are NaN on the last, all-data split.  A sweep's
    curves are read-only column slices of its [split, fit row] tables of
    relative errors, and all share the uniform fit's column."""

    bandwidths: tuple[float, ...]  # the kernel's grid, shared by every split
    re_train_nu: np.ndarray
    re_test_nu: np.ndarray
    re_train_u: np.ndarray
    re_test_u: np.ndarray


@dataclass(frozen=True)
class SweepResult:
    dataset: str
    config: AnalysisConfig
    plan: SplitPlan
    curves: dict  # KernelKind -> Curve, in run order

    @property
    def cells(self) -> tuple[SweepCell, ...]:
        """One cell per (split, kernel, bandwidth), split-major, built on
        request; test values are None on the all-data split."""
        columns = {
            kind: [a.tolist() for a in (c.re_train_nu, c.re_test_nu, c.re_train_u, c.re_test_u)]
            for kind, c in self.curves.items()
        }
        return tuple(
            SweepCell(
                split.ordinal, kind, b, train_nu[i][j],
                None if split.is_final else test_nu[i][j],
                train_u[i], None if split.is_final else test_u[i],
            )
            for i, split in enumerate(self.plan.splits)
            for kind, (train_nu, test_nu, train_u, test_u) in columns.items()
            for j, b in enumerate(self.curves[kind].bandwidths)
        )


def _relative_errors(coefficients, matrix, actuals, log_scale: bool):
    """Relative error of each row of ``coefficients`` on the design rows
    ``matrix``, scored in chunks of rows that make at most
    ``SCORE_VALUES`` predictions, one row at least; each chunk's
    predictions become its residuals in place."""
    errors = np.empty(len(coefficients))
    size = max(1, SCORE_VALUES // len(matrix))
    for first in range(0, len(coefficients), size):
        predictions = stats.predict(coefficients[first : first + size], matrix)
        if log_scale:
            np.exp(predictions, out=predictions)
        errors[first : first + size] = stats.relative_error(predictions, actuals, overwrite=True)
    return errors


def _plan_design(dataset, order):
    """The design and the untransformed response of the dataset's records
    in plan ``order``, built once; every split's designs are row ranges
    of it."""
    formula = dataset.descriptor.formula
    columns = {c: dataset.attributes[c][order] for c in formula.columns}
    try:
        design = stats.build_design_matrix(columns, formula)
    except ValueError as exc:
        raise SweepError(exc) from exc
    return design, columns[formula.response]


def _cell(grids, row):
    """The kernel and bandwidth a failure of fit ``row`` of a split's
    stacked fit (see ``_split_fits``) is reported at; row 0, the uniform
    fit, is reported at the first kernel's first bandwidth."""
    row = max(row - 1, 0)
    for kind, grid in grids.items():
        if row < len(grid):
            return {"kernel": kind, "bandwidth": grid[row]}
        row -= len(grid)


def _split_fits(plan: SplitPlan, design, grids):
    """Yield (split, coefficients) for every split of ``plan`` in order:
    the coefficient rows of the split's stacked weighted fit on its
    training prefix of the plan-ordered ``design``.  Row 0 is the uniform
    fit, then comes a row per bandwidth of each kernel's grid in
    ``grids`` ({kind: grid}), in order.

    Records of one period share a weight, so weights are given per run
    of the plan's run table, which makes each training prefix a whole
    number of runs.  Whole splits are solved together, within
    ``BATCH_VALUES`` stacked values per ``weighted_least_squares`` call,
    each on the whole design and run table, every split's rows zero past
    its own runs.  Each kernel's weights of a batch come from one
    ``weights_for_target`` call, which the grids keep inside every
    kernel's support.

    A batch is cut at its first failing fit: the splits before the cut
    are solved and yielded, then that split's error is raised, at the
    failing row's ``_cell``.
    """
    splits, width = plan.splits, 1 + sum(map(len, grids.values()))
    starts = np.array(plan.starts, dtype=np.intp)
    origins = plan.indices[starts]
    targets = np.array([s.target for s in splits])
    runs = np.searchsorted(starts, [s.stop for s in splits])
    p = design.n_columns
    size = max(1, BATCH_VALUES // (width * (starts.size + p * p + p)))
    for first in range(0, len(splits), size):
        batch, batch_runs = splits[first : first + size], runs[first : first + size]
        batch_targets = targets[first : first + size]
        blocks = np.zeros((len(batch), width, starts.size))
        blocks[:, 0] = np.arange(starts.size) < batch_runs[:, None]
        at = 1
        for kind, grid in grids.items():
            weights = weights_for_target(origins, batch_targets, kind, grid, batch_runs)
            blocks[:, at : at + len(grid)] = weights.reshape(len(batch), len(grid), starts.size)
            at += len(grid)
        w = blocks.reshape(len(batch) * width, starts.size)
        cut, failure = len(batch), None
        while cut:
            try:
                coefficients = stats.weighted_least_squares(
                    design, w[: cut * width], starts, np.repeat(batch_runs[:cut], width)
                )
                break
            except stats.SingularDesignError as exc:
                cut, row = divmod(exc.row, width)
                failure = exc, {"split": batch[cut].ordinal, **_cell(grids, row)}
        del blocks, w  # not held while the batch's splits are scored
        for i, split in enumerate(batch[:cut]):
            yield split, coefficients[i * width : (i + 1) * width]
        if failure:
            exc, coordinates = failure
            raise SweepError(exc, **coordinates) from exc


def run_sweep(dataset, kernels, config: AnalysisConfig = AnalysisConfig()) -> SweepResult:
    """Sweep every split x kernel x admissible bandwidth.

    Grids are fixed per kernel at the dataset level (the largest elapsed
    span any split must serve decides the finite-support minimum), so
    every split of one dataset shares a common bandwidth axis; a kernel
    given twice runs once.  The design is built once, before any split
    runs.
    """
    kernels = tuple(kernels)
    if not kernels:
        raise ValueError("empty kernel set")
    plan = build_split_plan(dataset)
    # training sets are prefixes of the plan order, which starts at the
    # oldest period; rounded as a monthly index is
    max_elapsed = round(max(s.target for s in plan.splits) - float(plan.indices[0]), 10)
    grids = {
        kind: build_grid(
            kind, max_elapsed, lo=config.grid_lo, hi=config.grid_hi, step=config.grid_step
        )
        for kind in dict.fromkeys(kernels)
    }

    design, actuals = _plan_design(dataset, plan.order)
    log_scale = dataset.descriptor.formula.response_transform == stats.LOG
    train, test = np.full((2, len(plan.splits), 1 + sum(map(len, grids.values()))), np.nan)
    for i, (split, coefficients) in enumerate(_split_fits(plan, design, grids)):
        test_rows = split.test_rows
        if test_rows.size and test_rows[-1] - test_rows[0] + 1 == test_rows.size:
            # ascending and contiguous: a slice takes views, not copies
            test_rows = slice(int(test_rows[0]), int(test_rows[-1]) + 1)
        try:
            train[i] = _relative_errors(
                coefficients, design.matrix[: split.stop], actuals[: split.stop], log_scale
            )
            if not split.is_final:
                test[i] = _relative_errors(
                    coefficients, design.matrix[test_rows], actuals[test_rows], log_scale
                )
        except ValueError as exc:
            raise SweepError(exc, split=split.ordinal, **_cell(grids, 0)) from exc
    train.flags.writeable = test.flags.writeable = False
    curves, at = {}, 1
    for kind, grid in grids.items():
        columns = slice(at, at + len(grid))
        curves[kind] = Curve(grid, train[:, columns], test[:, columns], train[:, 0], test[:, 0])
        at += len(grid)
    return SweepResult(dataset=dataset.descriptor.name, config=config, plan=plan, curves=curves)


@dataclass(frozen=True)
class ConvergencePoint:
    bandwidth: float
    at_grid_minimum: bool


def detect_convergence(curve: Curve, epsilon: float) -> list[ConvergencePoint | None]:
    """Per split of ``curve``, the smallest bandwidth from which the
    weighted training curve stays within tolerance of the unweighted
    value for the rest of the grid: the first column of the row's
    all-within-tolerance tail, None where that tail is empty.

    The tolerance is relative to the unweighted value but floored at
    epsilon in absolute terms.
    """
    uniform = curve.re_train_u[:, None]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, out of tolerance, as in float
        within = np.abs(curve.re_train_nu - uniform) <= epsilon * np.maximum(1.0, uniform)
    tails = np.logical_and.accumulate(within[:, ::-1], axis=1).sum(axis=1)
    b = curve.bandwidths
    return [ConvergencePoint(b[-t], b[-t] == b[0]) if t else None for t in tails.tolist()]


class Classification(Enum):
    STATIONARY = "stationary"
    NEAR_STATIONARY = "near_stationary"
    NON_STATIONARY = "non_stationary"


@dataclass(frozen=True)
class StationarityVerdict:
    split: int
    kernel: KernelKind
    classification: Classification
    convergence: ConvergencePoint | None
    horizon: float | None
    train_span: float


def stationarity_verdict(
    point: ConvergencePoint | None,
    kind: KernelKind,
    train_span: float,
    config: AnalysisConfig,
    split: int = 0,
) -> StationarityVerdict:
    """Classify one (split, kernel) slice.

    No convergence that lasts to the end of the grid means the process
    never looks uniform: non stationary.  Convergence across the whole grid means weighting never
    mattered: near stationary.  Otherwise the verdict hinges on whether
    the weights at the convergence bandwidth have decayed within the
    training span.
    """
    if train_span <= 0:
        raise ValueError(f"train span must be positive, got {train_span}")
    if point is None:
        return StationarityVerdict(
            split, kind, Classification.NON_STATIONARY, None, None, train_span
        )
    horizon = decay_horizon(kind, point.bandwidth, config.theta)
    if point.at_grid_minimum:
        cls = Classification.NEAR_STATIONARY
    elif horizon <= train_span:
        cls = Classification.STATIONARY
    else:
        cls = Classification.NON_STATIONARY
    return StationarityVerdict(split, kind, cls, point, horizon, train_span)


@dataclass(frozen=True)
class SweepSummary:
    verdicts: tuple[StationarityVerdict, ...]
    kernel_agreement: float | None  # None with fewer than 2 kernels


def summarize(sweep: SweepResult) -> SweepSummary:
    """Per-split, per-kernel verdicts plus cross-kernel agreement, read
    at the sweep's own config."""
    config = sweep.config
    points = {kind: detect_convergence(c, config.epsilon) for kind, c in sweep.curves.items()}
    verdicts = []
    agree = 0
    for i, split in enumerate(sweep.plan.splits):
        span = max(split.train_span, sweep.plan.granularity.increment)
        calls = set()
        for kind, kind_points in points.items():
            verdict = stationarity_verdict(kind_points[i], kind, span, config, split=split.ordinal)
            verdicts.append(verdict)
            calls.add(verdict.classification)
        agree += len(calls) == 1
    agreement = None
    if len(sweep.curves) >= 2:
        agreement = agree / len(sweep.plan.splits)
    return SweepSummary(verdicts=tuple(verdicts), kernel_agreement=agreement)

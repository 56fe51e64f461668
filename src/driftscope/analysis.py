# The sweep engine.  Every split gets one unweighted fit, and every
# (kernel, bandwidth) cell of it one kernel-weighted fit, on the same
# training data; relative errors of both, on training and test records,
# form the four curves a stationarity reading needs.  Convergence of the
# weighted training curve onto the flat unweighted line, combined with
# the kernel's weight-decay horizon at the convergence bandwidth, yields
# the per-split verdict.
#
# Every training set is a prefix of one plan-ordered design, so the fits
# of a whole plan share one table of runs (records of one period, cut
# again at every split's stop) and their per-run moment sums.  Whole
# splits are solved together, up to BATCH_ROWS fits per weighted least
# squares call; prediction and relative errors stay per split.  Errors
# come out in plan order, at the (split, kernel, bandwidth) of the first
# failing cell, as one split at a time would give them.

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import stats
from .chronology import Split, SplitPlan, build_split_plan
from .kernels import (
    KernelKind,
    build_grid,
    decay_horizon,
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

# Fit rows per weighted_least_squares call: whole splits are batched up
# to this many rows (a split with more is a batch of its own).  A batch's
# weights, Gram matrices and coefficients grow with its rows while its
# dispatch cost does not.  On the benchmark's nasa93-shaped sweep (about
# 4500 fit rows), one uncapped batch raised the whole sweep's peak
# tracemalloc allocation from 1.34 to 3.66 MB; with 1024-row batches it
# stays at 1.34 MB, that of solving one split at a time.
BATCH_ROWS = 1024


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
            coords.append(f"bandwidth {bandwidth:g}")
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


@dataclass(frozen=True)
class Curve:
    """One (split, kernel) slice: the weighted relative errors along the
    kernel's bandwidth grid, and the flat unweighted values they are read
    against."""

    split: int
    kernel: KernelKind
    bandwidths: tuple[float, ...]  # the kernel's grid, shared by every split
    re_train_nu: list[float]
    re_test_nu: list[float] | None  # None on the all-data split
    re_train_u: float
    re_test_u: float | None

    def cells(self) -> tuple[SweepCell, ...]:
        re_test_nu = self.re_test_nu
        if re_test_nu is None:
            re_test_nu = [None] * len(self.bandwidths)
        return tuple(
            SweepCell(
                self.split, self.kernel, b, train_nu, test_nu,
                self.re_train_u, self.re_test_u,
            )
            for b, train_nu, test_nu in zip(self.bandwidths, self.re_train_nu, re_test_nu)
        )


@dataclass(frozen=True)
class SweepResult:
    dataset: str
    config: AnalysisConfig
    grids: dict  # KernelKind -> its ascending bandwidths, a tuple, in run order
    plan: SplitPlan
    curves: dict  # (split ordinal, KernelKind) -> Curve, split-major

    def curve(self, split: int, kernel: KernelKind) -> Curve:
        return self.curves[split, kernel]

    @property
    def cells(self) -> tuple[SweepCell, ...]:
        """One cell per (split, kernel, bandwidth), built on request."""
        return tuple(cell for curve in self.curves.values() for cell in curve.cells())


def _relative_errors(model, design, actuals, log_scale: bool):
    """Relative error of each fit of ``model`` on ``design``'s records;
    the predictions array becomes the residuals in place."""
    predictions = stats.predict(model, design)
    if log_scale:
        np.exp(predictions, out=predictions)
    return stats.relative_error(predictions, actuals, overwrite=True)


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


def _batch_fits(batch, w, runs, design, starts, bandwidths, offsets):
    """Yield (split, model) for each split of ``batch``, all solved in
    one stacked weighted fit.  ``w`` holds each split's rows in turn,
    zero past its own ``runs`` count of run columns.  A failing row is
    reported at its split and (kernel, bandwidth), found through
    ``offsets``; a split's row 0 at the first kernel's first bandwidth,
    the first cell that needs it.  The splits before it are yielded
    first, so that their own failures come first."""
    if not batch:
        return
    width = len(w) // len(batch)
    try:
        model = stats.weighted_least_squares(
            design.subset(slice(batch[-1].stop)),
            w[:, : runs[-1]],
            starts[: runs[-1]],
            np.repeat(runs, width),
        )
    except (ValueError, stats.SingularDesignError) as exc:
        i, row = divmod(getattr(exc, "row", 0), width)
        yield from _batch_fits(
            batch[:i], w[: i * width], runs[:i], design, starts, bandwidths, offsets
        )
        kind, j = next(iter(bandwidths)), 0
        for k, first in offsets.items():
            if 0 < first <= row:
                kind, j = k, row - first
        raise SweepError(
            exc, split=batch[i].ordinal, kernel=kind, bandwidth=bandwidths[kind][j]
        ) from exc
    for i, split in enumerate(batch):
        coefficients = model.coefficients[i * width : (i + 1) * width]
        yield split, stats.FittedModel(coefficients, design.subset(slice(split.stop)))


def _split_fits(plan: SplitPlan, design, bandwidths, offsets):
    """Yield (split, model) for every split of ``plan`` in order: the
    split's stacked weighted fit on its training prefix of the
    plan-ordered ``design``.

    Row 0 of each split's fit is the uniform fit, then come each
    weighted kernel's rows, one per value of ``bandwidths[kind]``,
    starting at row ``offsets[kind]``.  Records of one period share a
    weight, so weights are given per run of records: the runs start at
    the plan's period bounds and at every split's stop, which makes each
    training prefix a whole number of runs, an override that cuts a
    period included.  Whole splits are solved together, up to
    ``BATCH_ROWS`` rows per ``weighted_least_squares`` call.  Failures
    keep the plan order: when a split's weights or fit fail, the splits
    before it are yielded first.
    """
    indices, splits = plan.indices, plan.splits
    # np.sort and a mask, not np.union1d or np.unique: those import
    # numpy.ma, which stays resident (about 1 MB)
    starts = np.sort(np.concatenate((
        [0], np.flatnonzero(indices[1:] != indices[:-1]) + 1, [s.stop for s in splits[:-1]]
    ))).astype(np.intp)
    starts = starts[np.diff(starts, prepend=-1) != 0]
    origins = indices[starts]
    runs = np.searchsorted(starts, [s.stop for s in splits])
    width = 1 + sum(len(v) for k, v in bandwidths.items() if k is not KernelKind.UNIFORM)
    size = max(1, BATCH_ROWS // width)
    for first in range(0, len(splits), size):
        batch, batch_runs = splits[first : first + size], runs[first : first + size]
        w = np.zeros((len(batch) * width, batch_runs[-1]))
        for i, (split, r) in enumerate(zip(batch, batch_runs)):
            block = w[i * width : (i + 1) * width, :r]
            block[0] = 1.0
            for kind, values in bandwidths.items():
                try:
                    weights = weights_for_target(origins[:r], split.target, kind, values)
                except ValueError as exc:
                    yield from _batch_fits(
                        batch[:i], w[: i * width], batch_runs[:i],
                        design, starts, bandwidths, offsets,
                    )
                    raise SweepError(exc, split=split.ordinal, kernel=kind) from exc
                if kind is not KernelKind.UNIFORM:
                    block[offsets[kind] : offsets[kind] + len(values)] = weights
        yield from _batch_fits(batch, w, batch_runs, design, starts, bandwidths, offsets)


def _split_curves(split: Split, model, design, actuals, formula, bandwidths, offsets) -> list[Curve]:
    """One curve per kernel of one split from its stacked fit ``model``
    (see ``_split_fits``), on the rows of the plan-ordered ``design`` and
    ``actuals`` that the split selects; the uniform kernel reads row 0.
    A failing relative error is reported at the first kernel's first
    bandwidth."""
    log_scale = formula.response_transform == stats.LOG
    rows = split.test_rows
    if rows.size and rows[-1] - rows[0] + 1 == rows.size:
        # ascending and contiguous: a slice takes views, not copies
        rows = slice(int(rows[0]), int(rows[-1]) + 1)
    try:
        # Python floats: repr(np.float64(1.0)) is "np.float64(1.0)"
        re_train = _relative_errors(
            model, model.design, actuals[: split.stop], log_scale
        ).tolist()
        re_test = (
            None if split.is_final
            else _relative_errors(model, design.subset(rows), actuals[rows], log_scale).tolist()
        )
    except ValueError as exc:
        kind = next(iter(bandwidths))
        raise SweepError(
            exc, split=split.ordinal, kernel=kind, bandwidth=bandwidths[kind][0]
        ) from exc

    def along(res, kind):
        """The kernel's rows of the per-row ``res``, row 0 repeated for
        the uniform kernel."""
        n, first = len(bandwidths[kind]), offsets[kind]
        return [res[0]] * n if kind is KernelKind.UNIFORM else res[first : first + n]

    return [
        Curve(
            split.ordinal, kind, values,
            along(re_train, kind), None if re_test is None else along(re_test, kind),
            re_train[0], None if re_test is None else re_test[0],
        )
        for kind, values in bandwidths.items()
    ]


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
    descriptor = dataset.descriptor
    plan = build_split_plan(dataset)
    # training sets are prefixes of the plan order, which starts at the
    # oldest period
    max_elapsed = max(s.target for s in plan.splits) - float(plan.indices[0])
    grids = {
        kind: build_grid(
            kind, max_elapsed, lo=config.grid_lo, hi=config.grid_hi, step=config.grid_step
        )
        for kind in kernels
    }
    offsets, rows = {}, 1  # kernel -> its first row in a split's stacked fit
    for kind, values in grids.items():
        if kind is KernelKind.UNIFORM:
            offsets[kind] = 0
        else:
            offsets[kind], rows = rows, rows + len(values)

    design, actuals = _plan_design(dataset, plan.order)
    curves = {}
    for split, model in _split_fits(plan, design, grids, offsets):
        for curve in _split_curves(
            split, model, design, actuals, descriptor.formula, grids, offsets
        ):
            curves[curve.split, curve.kernel] = curve
    return SweepResult(
        dataset=descriptor.name,
        config=config,
        grids=grids,
        plan=plan,
        curves=curves,
    )


@dataclass(frozen=True)
class ConvergencePoint:
    bandwidth: float
    at_grid_minimum: bool


def detect_convergence(curve, uniform_re: float, epsilon: float) -> ConvergencePoint | None:
    """Smallest bandwidth from which the weighted curve stays within
    tolerance of the unweighted value for the rest of the grid.

    ``curve`` is a sequence of (bandwidth, re) pairs in ascending
    bandwidth order.  The tolerance is relative to the unweighted value
    but floored at epsilon in absolute terms.
    """
    curve = list(curve)
    if not curve:
        raise ValueError("empty curve")
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
    return ConvergencePoint(
        bandwidth=b_star,
        at_grid_minimum=b_star == curve[0][0],
    )


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
    epsilon: float
    theta: float


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
            split, kind, Classification.NON_STATIONARY, None, None,
            train_span, config.epsilon, config.theta,
        )
    horizon = decay_horizon(kind, point.bandwidth, config.theta)
    if point.at_grid_minimum:
        cls = Classification.NEAR_STATIONARY
    elif horizon <= train_span:
        cls = Classification.STATIONARY
    else:
        cls = Classification.NON_STATIONARY
    return StationarityVerdict(
        split, kind, cls, point, horizon, train_span,
        config.epsilon, config.theta,
    )


@dataclass(frozen=True)
class SweepSummary:
    verdicts: tuple[StationarityVerdict, ...]
    kernel_agreement: float | None  # None with fewer than 2 weighted kernels
    test_re_range: dict  # split ordinal -> (min, max) over all test REs

    @cached_property
    def _by_key(self) -> dict:
        return {(v.split, v.kernel): v for v in self.verdicts}

    def verdict(self, split: int, kernel: KernelKind) -> StationarityVerdict:
        return self._by_key[split, kernel]


def summarize(sweep: SweepResult) -> SweepSummary:
    """Per-split, per-kernel verdicts plus cross-kernel agreement and the
    spread of test relative errors, read at the sweep's own config."""
    config = sweep.config
    weighted = [k for k in sweep.grids if k is not KernelKind.UNIFORM]
    verdicts = []
    test_re_range = {}
    agree = 0
    for split in sweep.plan.splits:
        span = max(split.train_span, sweep.plan.granularity.increment)
        calls = set()
        test_res = []
        for kind in sweep.grids:
            curve = sweep.curves[split.ordinal, kind]
            point = detect_convergence(
                zip(curve.bandwidths, curve.re_train_nu), curve.re_train_u, config.epsilon
            )
            verdict = stationarity_verdict(point, kind, span, config, split=split.ordinal)
            verdicts.append(verdict)
            if kind in weighted:
                calls.add(verdict.classification)
            if curve.re_test_nu is not None:
                test_res += (min(curve.re_test_nu), max(curve.re_test_nu), curve.re_test_u)
        agree += len(calls) == 1
        if test_res:
            test_re_range[split.ordinal] = (min(test_res), max(test_res))
    agreement = None
    if len(weighted) >= 2:
        agreement = agree / len(sweep.plan.splits)
    return SweepSummary(
        verdicts=tuple(verdicts),
        kernel_agreement=agreement,
        test_re_range=test_re_range,
    )

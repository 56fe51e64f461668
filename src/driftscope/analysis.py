# The sweep engine.  Every split gets one unweighted fit, and every
# (kernel, bandwidth) cell of it one kernel-weighted fit, on the same
# training data; relative errors of both, on training and test records,
# form the four curves a stationarity reading needs.  Convergence of the
# weighted training curve onto the flat unweighted line, combined with
# the kernel's weight-decay horizon at the convergence bandwidth, yields
# the per-split verdict.

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
    """Relative error of each fit of ``model`` on ``design``'s records."""
    predictions = stats.predict(model, design)
    if log_scale:
        np.exp(predictions, out=predictions)
    return stats.relative_error(predictions, actuals)


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


def _split_curves(split: Split, design, actuals, formula, bandwidths) -> list[Curve]:
    """One curve per kernel of one split, on the rows of the plan-ordered
    ``design`` and ``actuals`` that the split selects.  The uniform fit is
    made once; each kernel's weights come as one row per value of
    ``bandwidths[kind]``, and all rows get one stacked weighted fit."""
    log_scale = formula.response_transform == stats.LOG
    train = design.subset(slice(split.stop))
    train_actuals = actuals[: split.stop]
    rows = split.test_rows
    if rows.size and rows[-1] - rows[0] + 1 == rows.size:
        # ascending and contiguous: a slice takes views, not copies
        rows = slice(int(rows[0]), int(rows[-1]) + 1)
    test = None if split.is_final else design.subset(rows)
    test_actuals = actuals[rows]

    def relative_errors(model):
        re_test = (
            _relative_errors(model, test, test_actuals, log_scale)
            if test is not None
            else None
        )
        return _relative_errors(model, train, train_actuals, log_scale), re_test

    # The uniform fit serves every cell; a failure there is reported at
    # the split's first cell, the first one that needs it.
    first = next(iter(bandwidths))
    try:
        re_train_u, re_test_u = relative_errors(
            stats.weighted_least_squares(train, np.ones(split.stop))
        )
    except (ValueError, stats.SingularDesignError) as exc:
        raise SweepError(
            exc, split=split.ordinal, kernel=first, bandwidth=bandwidths[first][0]
        ) from exc

    curves = []
    for kind, values in bandwidths.items():
        try:
            weights = weights_for_target(
                split.plan_indices[: split.stop], split.target, kind, values
            )
        except ValueError as exc:
            raise SweepError(exc, split=split.ordinal, kernel=kind) from exc
        if kind is KernelKind.UNIFORM:
            # every weight is 1, so the uniform fit is this kernel's fit
            re_train_nu = [re_train_u] * len(values)
            re_test_nu = None if re_test_u is None else [re_test_u] * len(values)
        else:
            try:
                model = stats.weighted_least_squares(train, weights)
                del weights  # free the bandwidths x records array before predicting
                re_train_nu, re_test_nu = relative_errors(model)
            except (ValueError, stats.SingularDesignError) as exc:
                raise SweepError(
                    exc, split=split.ordinal, kernel=kind,
                    bandwidth=values[getattr(exc, "row", 0)],
                ) from exc
            # Python floats: repr(np.float64(1.0)) is "np.float64(1.0)"
            re_train_nu = re_train_nu.tolist()
            if re_test_nu is not None:
                re_test_nu = re_test_nu.tolist()
        curves.append(
            Curve(split.ordinal, kind, values, re_train_nu, re_test_nu, re_train_u, re_test_u)
        )
    return curves


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

    design, actuals = _plan_design(dataset, plan.order)
    curves = {}
    for split in plan.splits:
        for curve in _split_curves(split, design, actuals, descriptor.formula, grids):
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

# Temporal kernel weighting: period indexing, kernel weights, bandwidth
# grids and weight-decay horizons.
#
# Conventions:
#   lag  = (target_period - origin_period) / bandwidth
#   weight(lag) in [0, 1], equal to 1 at lag 0
# Epanechnikov and Triangular are only defined for lag < 1; instead of
# clipping weights to zero we restrict the admissible bandwidth grid so
# that every training lag stays inside the support.

from __future__ import annotations

import bisect
import math
from enum import Enum

import numpy as np

__all__ = [
    "Granularity",
    "KernelKind",
    "BandwidthError",
    "MAX_GRID_VALUES",
    "GRID_RESOLUTION",
    "grid_size",
    "float_text",
    "grid_text",
    "period_keys",
    "period_index",
    "kernel_weight",
    "weights_for_target",
    "build_grid",
    "decay_horizon",
]


class Granularity(Enum):
    YEARLY = "yearly"
    MONTHLY = "monthly"

    @property
    def increment(self) -> float:
        """Period-index distance between two adjacent calendar periods."""
        return 1.0 if self is Granularity.YEARLY else 0.1


class KernelKind(Enum):
    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"
    TRIANGULAR = "triangular"

    @property
    def finite_support(self) -> bool:
        """True if weights are only defined for lags strictly below 1."""
        return self in (KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR)


class BandwidthError(ValueError):
    """Bandwidth or bandwidth grid inadmissible, in general or for the
    requested kernel."""


def period_keys(done: np.ndarray, years, granularity: Granularity) -> np.ndarray:
    """The calendar period of each completion as int64: its year, or for
    monthly granularity its absolute month number ``year * 12 + month -
    1``, so that calendar gaps consume index distance.  ``done`` holds
    completion days (datetime64[D]), NaT where a completion is known
    only by its year, which ``years`` then holds (None if there is
    none).  Monthly periods need every completion's day."""
    if granularity is Granularity.MONTHLY:
        return done.astype("datetime64[M]").astype(np.int64) + 1970 * 12
    keys = done.astype("datetime64[Y]").astype(np.int64) + 1970
    return keys if years is None else np.where(np.isnat(done), years, keys)


def period_index(key: int, oldest: int, granularity: Granularity) -> float:
    """Index of the period ``key`` when ``oldest`` is the first period:
    1 (yearly) or 0.1 (monthly) for the oldest, one increment further for
    every later calendar period."""
    if granularity is Granularity.YEARLY:
        return float(1 + key - oldest)
    return round(0.1 * (1 + key - oldest), 10)


def kernel_weight(kind: KernelKind, lag):
    """Weight for a normalized lag, or elementwise for an array of lags.

    A scalar lag gives a float.  Finite-support kinds reject lags at or
    beyond 1; the Gaussian decays smoothly for any nonnegative lag.
    """
    lags = np.asarray(lag, dtype=float)
    if not np.all(lags >= 0):
        raise ValueError(f"lag must be nonnegative, got {lags[~(lags >= 0)].flat[0]}")
    if kind.finite_support and np.any(lags >= 1):
        raise BandwidthError(
            f"lag {lags.max()} outside the support of the {kind.value} kernel"
        )
    if kind is KernelKind.GAUSSIAN:
        weights = np.exp(-0.5 * lags * lags)
    elif kind is KernelKind.EPANECHNIKOV:
        weights = 1.0 - lags * lags
    else:  # triangular
        weights = 1.0 - lags
    return float(weights) if weights.ndim == 0 else weights


def weights_for_target(
    origins, targets, kind: KernelKind, bandwidths, runs=None
) -> np.ndarray:
    """Kernel weights of a batch of target periods.

    ``origins`` holds period indices: those of records, or the one shared
    by each run of records of one period, so that the kernel is evaluated
    once per run.  Target t weighs the first ``runs[t]`` origins (by
    default all of them; a scalar target is a batch of one).  Returns one
    C-ordered row per (target, bandwidth), target-major, with one column
    per origin, 0 past the target's own origins.  The lag of an origin is
    its elapsed periods to the target over the bandwidth;
    ``kernel_weight`` refuses one outside the support.

    Only a target's own origins are checked.  An origin newer than its
    target is an error naming the first such target; a lag outside the
    support is ``kernel_weight``'s error over the whole batch.  The
    sweep's grids keep every lag inside the support (see
    ``build_grid``).
    """
    b = np.reshape(np.asarray(bandwidths, dtype=float), (-1, 1))
    if not np.all(b > 0):
        raise BandwidthError(f"bandwidth must be positive, got {b[~(b > 0)][0]}")
    origins = np.asarray(origins, dtype=float)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    runs = np.full(targets.size, origins.size) if runs is None else np.asarray(runs)
    own = np.arange(origins.size) < runs[:, None]
    newer = np.any(origins > targets[:, None], axis=1, where=own)
    if newer.any():
        t = newer.argmax()
        raise ValueError(
            f"origin period {origins[: runs[t]].max()} is newer than "
            f"target period {targets[t]}"
        )
    # past a target's own origins the lag reads 0, inside every support
    lags = (targets[:, None, None] - origins) / b
    lags *= own[:, None]
    weights = kernel_weight(kind, lags)
    weights *= own[:, None]
    return weights.reshape(targets.size * b.size, origins.size)


MAX_GRID_VALUES = 100_000
# The finest grid step.  Grid values are rounded to 10 decimals, and a
# step of 1e-10 can round two neighbours to one value, so the floor is
# twice that; a grid whose ``hi`` is above about 56,000 needs 2**-48 of
# ``hi``, where a float's own spacing is the coarser.
GRID_RESOLUTION = 2e-10


def float_text(value: float) -> str:
    """``value`` as its shortest round-trip repr less a trailing ``.0``,
    so that ``float`` reads back the exact value."""
    return repr(float(value)).removesuffix(".0")


def grid_text(lo: float, hi: float, step: float) -> str:
    """The grid as lo:hi:step, each bound written by ``float_text``."""
    return ":".join(map(float_text, (lo, hi, step)))


def grid_size(lo: float, hi: float, step: float) -> int:
    """Number of values of the grid ``lo:hi:step``, counted without making
    them.  A grid must have finite bounds, a positive ``lo``, a step of at
    least ``GRID_RESOLUTION`` and 2**-48 of ``hi``, at least one value and
    at most ``MAX_GRID_VALUES``."""
    grid = grid_text(lo, hi, step)
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise BandwidthError(f"grid {grid} has a non-finite bound")
    if step <= 0:
        raise BandwidthError(f"grid {grid} needs a positive step")
    if lo <= 0:
        raise BandwidthError(f"grid {grid} needs a positive lower bound")
    finest = max(GRID_RESOLUTION, hi * 2**-48)
    if step < finest:
        raise BandwidthError(f"grid {grid} needs a step of at least {finest!r}")
    n = math.floor((hi - lo) / step + 1e-9) + 1
    if n < 1:
        raise BandwidthError(f"grid {grid} is empty: lo exceeds hi")
    if n > MAX_GRID_VALUES:
        raise BandwidthError(f"grid {grid} has more than {MAX_GRID_VALUES} bandwidths")
    return n


def build_grid(
    kind: KernelKind,
    max_elapsed: float,
    lo: float = 1.0,
    hi: float = 100.0,
    step: float = 1.0,
) -> tuple[float, ...]:
    """Ascending admissible bandwidths for a kernel over a known elapsed
    span: the values of the grid ``lo:hi:step`` (see ``grid_size``), each
    rounded to 10 decimals, and for a finite-support kernel only those
    strictly above ``max_elapsed``, so that every lag stays below 1.  The
    step's floor keeps the values strictly ascending."""
    grid = tuple(round(lo + i * step, 10) for i in range(grid_size(lo, hi, step)))
    if not kind.finite_support:
        return grid
    above = grid[bisect.bisect_right(grid, max_elapsed) :]
    if not above:
        raise BandwidthError(
            f"empty grid: {kind.value} kernel needs a bandwidth above "
            f"{float_text(max_elapsed)}, grid {grid_text(lo, hi, step)} tops out at "
            f"{float_text(grid[-1])}"
        )
    return above


def decay_horizon(kind: KernelKind, bandwidth: float, threshold: float) -> float:
    """Elapsed time at which the kernel weight falls to the threshold."""
    if not bandwidth > 0:
        raise BandwidthError(f"bandwidth must be positive, got {bandwidth}")
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if kind is KernelKind.GAUSSIAN:
        return bandwidth * math.sqrt(-2.0 * math.log(threshold))
    if kind is KernelKind.EPANECHNIKOV:
        return bandwidth * math.sqrt(1.0 - threshold)
    return bandwidth * (1.0 - threshold)  # triangular

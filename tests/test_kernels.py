import math
from datetime import date

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as stn

from driftscope.kernels import (
    GRID_RESOLUTION,
    MAX_GRID_VALUES,
    BandwidthError,
    Granularity,
    KernelKind,
    build_grid,
    decay_horizon,
    grid_size,
    grid_text,
    kernel_weight,
    period_index,
    period_keys,
    weights_for_target,
)


def _reference_indices(completions, granularity):
    """The per-record formula: each record's own index from its year or
    absolute month."""
    if granularity is Granularity.YEARLY:
        years = [c.year if isinstance(c, date) else c for c in completions]
        return [float(1 + y - min(years)) for y in years]
    months = [c.year * 12 + c.month - 1 for c in completions]
    return [round(0.1 * (1 + m - min(months)), 10) for m in months]


_DATES = stn.dates(date(1900, 1, 1), date(2100, 12, 31))
_COMPLETIONS = stn.one_of(
    stn.tuples(stn.just(Granularity.YEARLY), stn.lists(stn.integers(1900, 2100), min_size=1)),
    stn.tuples(stn.just(Granularity.MONTHLY), stn.lists(_DATES, min_size=1)),
    stn.tuples(
        stn.just(Granularity.YEARLY),
        stn.lists(stn.one_of(stn.integers(1900, 2100), _DATES), min_size=1),
    ),
)


def _columns(completions):
    """Completions (int years or dates) as ``period_keys``' (done, years)."""
    done = np.array([c if isinstance(c, date) else None for c in completions], dtype="datetime64[D]")
    years = np.array([0 if isinstance(c, date) else c for c in completions], dtype=np.int64)
    return done, years


class TestPeriodKey:
    """``period_keys`` on completion columns: datetime64[D] days, NaT
    where a completion is known only by its year, and those years."""

    def test_keys(self):
        # days on both sides of the datetime64 epoch and at the ends of
        # what datetime.date holds, then two completions known by year
        done = np.array(
            ["1969-12-31", "1970-01-01", "2000-02-29", "0001-01-01", "9999-12-31", "NaT", "NaT"],
            dtype="datetime64[D]",
        )
        years = np.array([0, 0, 0, 0, 0, 1, 9999])  # 0 where the day gives the year
        dated = [1969, 1970, 2000, 1, 9999]
        assert period_keys(done, years, Granularity.YEARLY).tolist() == dated + [1, 9999]
        assert period_keys(done[:5], None, Granularity.YEARLY).tolist() == dated
        assert period_keys(done[:5], None, Granularity.MONTHLY).tolist() == [
            1969 * 12 + 11, 1970 * 12, 2000 * 12 + 1, 12, 9999 * 12 + 11,
        ]

    @given(_COMPLETIONS)
    def test_indices_match_the_per_record_formula_bit_for_bit(self, case):
        granularity, completions = case
        keys = period_keys(*_columns(completions), granularity).tolist()
        out = [period_index(k, min(keys), granularity) for k in keys]
        expected = _reference_indices(completions, granularity)
        assert [type(x) for x in out] == [float] * len(out)
        assert [x.hex() for x in out] == [x.hex() for x in expected]


class TestNormalizedLag:
    """The lag ``weights_for_target`` feeds the kernel: elapsed periods
    from origin to target over the bandwidth."""

    def _lag(self, origin, target, bandwidth):
        # the triangular weight is 1 - lag
        [[w]] = weights_for_target([origin], target, KernelKind.TRIANGULAR, [bandwidth])
        return 1.0 - w

    def test_basic(self):
        [[w]] = weights_for_target([3], 8, KernelKind.GAUSSIAN, [5])
        assert w == math.exp(-0.5)

    def test_zero_at_target(self):
        assert self._lag(7.0, 7.0, 3.0) == 0.0

    def test_monthly_scale(self):
        assert self._lag(0.1, 0.4, 10) == pytest.approx(0.03)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(BandwidthError):
            weights_for_target([1], 2, KernelKind.GAUSSIAN, [0])

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_rejects_nan_bandwidth(self, kind):
        # a NaN lag is not outside a finite support, so the bandwidth check
        # is what refuses it
        with pytest.raises(BandwidthError, match="bandwidth must be positive, got nan"):
            weights_for_target([1.0, 2.0], 3.0, kind, [5.0, math.nan])

    def test_rejects_future_origin(self):
        for indices in ([5], [1, 1, 5, 2, 2], [5, 1, 2], [1, 2, 2, 5]):
            with pytest.raises(ValueError, match="newer than target"):
                weights_for_target(indices, 3, KernelKind.GAUSSIAN, [1, 2])


class TestKernelWeight:
    @pytest.mark.parametrize(
        "kind,lag,expected",
        [
            (KernelKind.GAUSSIAN, 0.0, 1.0),
            (KernelKind.GAUSSIAN, 1.0, 0.606531),
            (KernelKind.EPANECHNIKOV, 0.5, 0.75),
            (KernelKind.TRIANGULAR, 0.25, 0.75),
        ],
    )
    def test_point_values(self, kind, lag, expected):
        assert kernel_weight(kind, lag) == pytest.approx(expected, abs=1e-6)

    def test_out_of_support(self):
        for kind in (KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR):
            with pytest.raises(BandwidthError):
                kernel_weight(kind, 1.0)

    def test_negative_lag(self):
        with pytest.raises(ValueError):
            kernel_weight(KernelKind.GAUSSIAN, -0.1)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_nan_lag(self, kind):
        for lag in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match="lag must be nonnegative, got nan"):
                kernel_weight(kind, lag)

    def test_scalar_gives_float(self):
        assert type(kernel_weight(KernelKind.TRIANGULAR, 0.3)) is float
        assert type(kernel_weight(KernelKind.GAUSSIAN, np.float64(0.3))) is float

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_array_matches_scalars(self, kind):
        lags = np.array([[0.0, 0.2], [0.5, 0.99]])
        weights = kernel_weight(kind, lags)
        assert weights.shape == lags.shape
        assert weights.tolist() == [
            [kernel_weight(kind, lag) for lag in row] for row in lags.tolist()
        ]

    def test_array_checks_every_lag(self):
        with pytest.raises(ValueError):
            kernel_weight(KernelKind.GAUSSIAN, np.array([0.5, -0.1]))
        with pytest.raises(BandwidthError):
            kernel_weight(KernelKind.TRIANGULAR, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_bounds_and_monotonicity_on_grid(self, kind):
        hi = 5.0 if kind is KernelKind.GAUSSIAN else 1.0
        lags = [i * hi / 10_000 for i in range(10_000)]
        weights = [kernel_weight(kind, lag) for lag in lags]
        assert weights[0] == 1.0
        assert all(0.0 < w <= 1.0 for w in weights)
        for prev, cur in zip(weights, weights[1:]):
            assert cur <= prev + 1e-15
        assert weights[-1] < weights[0]

    @given(
        e=stn.floats(min_value=0.01, max_value=50),
        b=stn.floats(min_value=0.1, max_value=1000),
    )
    def test_weight_increases_with_bandwidth(self, e, b):
        # for fixed elapsed time, larger bandwidths weight the record more
        w1 = kernel_weight(KernelKind.GAUSSIAN, e / b)
        w2 = kernel_weight(KernelKind.GAUSSIAN, e / (2 * b))
        assert w2 >= w1
        if 1e-4 < e / b < 20:  # outside this range both weights round to 1 or 0
            assert w2 > w1
        assert kernel_weight(KernelKind.GAUSSIAN, e / 1e9) == pytest.approx(1.0)


class TestWeightsForTarget:
    def test_gaussian_vector(self):
        [w] = weights_for_target([1, 2, 3], 3, KernelKind.GAUSSIAN, [2])
        assert list(w) == pytest.approx([0.606531, 0.882497, 1.0], abs=1e-6)

    def test_weight_one_at_target_period(self):
        [w] = weights_for_target([2, 5], 5, KernelKind.TRIANGULAR, [10])
        assert w[1] == 1.0

    def test_support_violation(self):
        with pytest.raises(BandwidthError):
            weights_for_target([1, 3], 3, KernelKind.EPANECHNIKOV, 2)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_one_row_per_bandwidth(self, kind):
        indices, target, bandwidths = [2, 1, 4, 2], 5, [5.0, 7.5, 40.0]
        rows = weights_for_target(indices, target, kind, bandwidths)
        assert rows.shape == (3, 4)
        for b, row in zip(bandwidths, rows):
            expected = [kernel_weight(kind, (target - i) / b) for i in indices]
            assert row.tolist() == expected

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("seed", range(5))
    def test_c_ordered_and_per_record_for_any_order(self, kind, seed):
        # chronological runs of equal periods, then the same records shuffled
        rng = np.random.default_rng(seed)
        periods = np.repeat(np.arange(1.0, 13.0), rng.integers(1, 6, size=12))
        target, bandwidths = 13.0, [20.0, 35.5, 90.0]
        for indices in (periods, rng.permutation(periods)):
            rows = weights_for_target(indices, target, kind, bandwidths)
            assert rows.shape == (3, len(indices))
            assert rows.flags.c_contiguous
            for b, row in zip(bandwidths, rows):
                assert row.tolist() == [kernel_weight(kind, (target - i) / b) for i in indices]


class TestBatchedTargets:
    """A batch of targets, each weighing its own prefix of the origins."""

    ORIGINS = [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_rows_are_per_target_rows_zero_past_their_runs(self, kind):
        targets, runs, bandwidths = [2.0, 3.5, 5.0], [2, 3, 4], [5.0, 7.5]
        rows = weights_for_target(self.ORIGINS, targets, kind, bandwidths, runs)
        assert rows.shape == (6, 4) and rows.flags.c_contiguous
        for t, (target, r) in enumerate(zip(targets, runs)):
            alone = weights_for_target(self.ORIGINS[:r], target, kind, bandwidths)
            assert np.array_equal(rows[2 * t : 2 * t + 2, :r], alone)
            assert not rows[2 * t : 2 * t + 2, r:].any()

    def test_scalar_target_is_a_batch_of_one_over_every_origin(self):
        one = weights_for_target(self.ORIGINS, 4.0, KernelKind.GAUSSIAN, [2.0, 3.0])
        batch = weights_for_target(self.ORIGINS, [4.0], KernelKind.GAUSSIAN, [2.0, 3.0], [4])
        assert np.array_equal(one, batch)

    def test_only_own_origins_are_checked(self):
        # origins past a target's runs may be newer, or out of its support
        rows = weights_for_target(self.ORIGINS, [1.0, 2.0], KernelKind.TRIANGULAR, [1.5], [1, 2])
        assert rows.tolist() == [[1.0, 0.0, 0.0, 0.0], [1 - 1 / 1.5, 1.0, 0.0, 0.0]]

    @pytest.mark.parametrize(
        "targets,runs,message",
        [
            # origin 2 newer than target 1.5, whose run count is 2
            ([2.0, 1.5, 1.0], [2, 2, 4], "origin period 2.0 is newer than target period 1.5"),
            # the first target with a newer origin is named, past a support violation
            ([9.0, 1.5], [4, 2], "origin period 2.0 is newer than target period 1.5"),
        ],
    )
    def test_newer_origin_names_the_first_such_target(self, targets, runs, message):
        with pytest.raises(ValueError) as info:
            weights_for_target(self.ORIGINS, targets, KernelKind.TRIANGULAR, [2.5], runs)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_support_is_checked_over_the_whole_batch(self):
        # target 4 weighs origin 1 at lag 3 / 2.5, past the support
        with pytest.raises(BandwidthError) as info:
            weights_for_target(self.ORIGINS, [2.0, 4.0, 3.0], KernelKind.TRIANGULAR, [2.5], [2, 4, 3])
        assert str(info.value) == "lag 1.2 outside the support of the triangular kernel"
        with pytest.raises(BandwidthError, match="bandwidth must be positive"):
            weights_for_target(self.ORIGINS, [4.0, 5.0], KernelKind.GAUSSIAN, [1.0, -1.0], [4, 4])


class TestBandwidthGrid:
    @pytest.mark.parametrize(
        "kind,max_elapsed,expected",
        [
            (KernelKind.EPANECHNIKOV, 16, 17),
            (KernelKind.TRIANGULAR, 4, 5),
            (KernelKind.TRIANGULAR, 7, 8),
            (KernelKind.GAUSSIAN, 16, 1),
        ],
    )
    def test_first_grid_value(self, kind, max_elapsed, expected):
        assert build_grid(kind, max_elapsed)[0] == expected

    def test_gaussian_grid_default(self):
        grid = build_grid(KernelKind.GAUSSIAN, 16)
        assert grid == tuple(float(b) for b in range(1, 101))

    def test_epanechnikov_grid_starts_above_span(self):
        grid = build_grid(KernelKind.EPANECHNIKOV, 16)
        assert grid[0] == 17
        assert grid[-1] == 100

    def test_empty_grid(self):
        with pytest.raises(BandwidthError) as info:
            build_grid(KernelKind.TRIANGULAR, 120)
        assert str(info.value) == (
            "empty grid: triangular kernel needs a bandwidth above 120, "
            "grid 1:100:1 tops out at 100"
        )

    def test_grid_values_ascending(self):
        grid = build_grid(KernelKind.GAUSSIAN, 16, lo=2.0, hi=3.0, step=0.25)
        assert grid == (2.0, 2.25, 2.5, 2.75, 3.0)

    def test_bad_bounds(self):
        bad = [(5.0, 1.0, 1.0), (0.0, 10.0, 1.0), (1.0, 10.0, 0.0), (math.nan, 10.0, 1.0)]
        for lo, hi, step in bad:
            for kind in (KernelKind.GAUSSIAN, KernelKind.TRIANGULAR):
                with pytest.raises(BandwidthError):
                    build_grid(kind, 4, lo=lo, hi=hi, step=step)

    def test_ceiling(self):
        assert grid_size(1.0, 100000.0, 1.0) == MAX_GRID_VALUES
        assert len(build_grid(KernelKind.GAUSSIAN, 16, hi=100000.0)) == MAX_GRID_VALUES
        with pytest.raises(BandwidthError, match="more than 100000"):
            build_grid(KernelKind.GAUSSIAN, 16, hi=100001.0)
        with pytest.raises(BandwidthError):
            build_grid(KernelKind.GAUSSIAN, 16, hi=math.inf)


def _finest_step(hi):
    """The smallest step ``grid_size`` accepts for a grid topping out at ``hi``."""
    return max(GRID_RESOLUTION, hi * 2**-48)


@stn.composite
def _grid_and_span(draw):
    """A grid's lo, hi and step, and a span near one of its values: hi a
    whole number of steps above lo, or inside ``grid_size``'s 1e-9 of
    one, at full precision or as decimal text."""
    lo = draw(stn.one_of(
        stn.floats(1e-3, 1e4),
        stn.integers(1, 10**6).map(lambda k: k * 1e-4 + 0.5e-10),
    ))
    step = draw(stn.one_of(
        stn.floats(1.0, 1e9).map(lambda f: f * GRID_RESOLUTION),
        stn.sampled_from([1.0, 0.1, 0.25, 0.37, 0.1234567]),
    ))
    near = stn.one_of(stn.floats(-1.0, 1.0), stn.floats(-1e-9, 1e-9))
    n = draw(stn.integers(1, 200))
    hi = lo + (n + draw(stn.one_of(stn.floats(0.0, 1.0), stn.floats(-1e-9, 1e-9)))) * step
    span = lo + (draw(stn.integers(-2, n + 2)) + draw(near)) * step
    return lo, hi, step, max(0.0, span)


class TestGridResolution:
    """Grid values are rounded to 10 decimals, so a grid's step has a
    floor: every grid ``grid_size`` accepts builds strictly ascending
    values, a finite-support kernel's all above the span it serves."""

    @settings(max_examples=300, deadline=None)
    @given(
        lo=stn.one_of(
            stn.floats(1e-3, 1e9),
            # halfway between two 10-decimal values, where rounding splits
            stn.integers(1, 10**6).map(lambda k: k * 1e-4 + 0.5e-10),
        ),
        # steps near the 10-decimal floor, or near a float's own spacing
        relative=stn.booleans(),
        steps=stn.one_of(stn.floats(0.1, 4.0), stn.sampled_from([0.5, 1.0, 1.0000001])),
        n=stn.integers(1, 200),
    )
    # a step of 1e-10 rounds neighbours of this grid to one value; the
    # floor itself does not
    @example(lo=2.34070000005, relative=False, steps=0.5, n=60)
    @example(lo=2.34070000005, relative=False, steps=1.0, n=60)
    # 1:1.0000000004:4e-11 held duplicated bandwidths
    @example(lo=1.0, relative=False, steps=0.2, n=10)
    def test_accepted_grids_ascend(self, lo, relative, steps, n):
        step = steps * (_finest_step(lo) if relative else GRID_RESOLUTION)
        hi = lo + n * step
        try:
            size = grid_size(lo, hi, step)
        except BandwidthError as exc:
            assert step < _finest_step(hi)
            assert "needs a step of at least" in str(exc)
            return
        grid = build_grid(KernelKind.GAUSSIAN, 0.0, lo=lo, hi=hi, step=step)
        assert len(grid) == size
        assert all(a < b for a, b in zip(grid, grid[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        kind=stn.sampled_from([KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR]),
        granularity=stn.sampled_from(Granularity),
        elapsed=stn.integers(0, 400),
        step=stn.one_of(
            stn.floats(0.1, 3.0).map(lambda f: f * GRID_RESOLUTION),
            stn.sampled_from([1.0, 0.1, 0.25, 1e-9, 3e-10]),
        ),
        below=stn.floats(-2.0, 20.0),
        above=stn.floats(-2.0, 20.0),
    )
    # a 22-period span on 4.0001e-11 steps gave a value of exactly 22
    @example(
        kind=KernelKind.TRIANGULAR, granularity=Granularity.YEARLY, elapsed=20,
        step=4.0001e-11, below=5.0, above=5.0,
    )
    def test_finite_support_values_lie_above_the_span(
        self, kind, granularity, elapsed, step, below, above
    ):
        # period indices as the sweep forms them: the oldest period, each
        # later one, and the all-data split's target one increment on
        origins = [period_index(k, 0, granularity) for k in range(elapsed + 1)]
        target = round(origins[-1] + granularity.increment, 10)
        max_elapsed = target - origins[0]
        lo, hi = max_elapsed - below * step, max_elapsed + above * step
        try:
            grid = build_grid(kind, max_elapsed, lo=lo, hi=hi, step=step)
        except BandwidthError as exc:
            # the grid as given is refused, or has no value above the span
            if str(exc).startswith("empty grid: "):
                assert hi < max_elapsed + step + 1e-9
            else:
                assert str(exc).startswith(f"grid {grid_text(lo, hi, step)} ")
                with pytest.raises(BandwidthError):
                    grid_size(lo, hi, step)
            return
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[0] > max_elapsed
        weights_for_target(origins, target, kind, grid)  # every lag inside the support

    @settings(max_examples=300, deadline=None)
    @given(
        kind=stn.sampled_from([KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR]),
        lo=stn.one_of(
            stn.floats(1e-3, 1e4),
            stn.integers(1, 10**6).map(lambda k: k * 1e-4 + 0.5e-10),
        ),
        steps=stn.one_of(stn.floats(1.0, 1e9), stn.sampled_from([1.0, 1.00005, 5e9])),
        n=stn.integers(3, 200),
        j=stn.integers(0, 200),
        nudge=stn.one_of(stn.floats(-0.99, 0.99), stn.just(0.0)),
        shift=stn.sampled_from([0.0, 1e-11, -1e-11, 4e-11, -4e-11, 6e-11, -6e-11, 1e-10]),
    )
    # a 22-period span on 2.0001e-10 steps from 21.9999999999 lost 22.0000000001
    @example(
        kind=KernelKind.TRIANGULAR, lo=21.9999999999, steps=1.00005, n=5, j=0, nudge=0.0,
        shift=1e-10,
    )
    # 1.02000000006 lies above a span of 1.02000000009 once rounded
    @example(
        kind=KernelKind.EPANECHNIKOV, lo=1.00000000006, steps=5e7, n=10, j=2, nudge=0.0,
        shift=-1e-11,
    )
    def test_no_value_above_the_span_is_dropped(self, kind, lo, steps, n, j, nudge, shift):
        step = steps * GRID_RESOLUTION
        full = build_grid(KernelKind.GAUSSIAN, 0.0, lo=lo, hi=lo + n * step, step=step)
        # two grid values on, so the finite-support grid is never empty
        max_elapsed = max(0.0, full[min(j, len(full) - 3)] + nudge * step + shift)
        grid = build_grid(kind, max_elapsed, lo=lo, hi=lo + n * step, step=step)
        assert grid[0] == min(v for v in full if v > max_elapsed)


    @settings(max_examples=500, deadline=None)
    @given(
        kind=stn.sampled_from([KernelKind.EPANECHNIKOV, KernelKind.TRIANGULAR]),
        case=_grid_and_span(),
    )
    # grids whose top value lies inside grid_size's 1e-9 of a step, on
    # which the grid used to be rebuilt from its first value above the
    # span: it lost the requested grid's last value,
    @example(
        kind=KernelKind.EPANECHNIKOV,
        case=(39.013400000050005, 39.013505307979074, 4.808581235921341e-07, 39.01341466217613),
    )
    # held a value that is not on the requested grid,
    @example(
        kind=KernelKind.EPANECHNIKOV,
        case=(57.58950000005, 57.58950426431227, 1.4704352649811075e-07, 57.58950414098715),
    )
    # or rounded its values to others
    @example(
        kind=KernelKind.TRIANGULAR,
        case=(54.25710000005, 54.25710129402739, 5.62598867004795e-09, 54.257100756307395),
    )
    def test_finite_support_grid_is_the_suffix_above_the_span(self, kind, case):
        lo, hi, step, span = case
        full = build_grid(KernelKind.GAUSSIAN, span, lo=lo, hi=hi, step=step)
        above = tuple(v for v in full if v > span)
        try:
            grid = build_grid(kind, span, lo=lo, hi=hi, step=step)
        except BandwidthError as exc:
            assert str(exc).startswith("empty grid: ")
            assert above == ()
            return
        assert grid == above != ()


class TestDecayHorizon:
    def test_gaussian_matches_calibration(self):
        # tau = b * sqrt(-2 ln theta)
        assert decay_horizon(KernelKind.GAUSSIAN, 5, 0.01) == pytest.approx(15.17, abs=0.01)

    def test_triangular_support_endpoint(self):
        assert decay_horizon(KernelKind.TRIANGULAR, 10, 1e-12) == pytest.approx(10.0)

    def test_epanechnikov(self):
        assert decay_horizon(KernelKind.EPANECHNIKOV, 20, 0.01) == pytest.approx(19.90, abs=0.005)

    @pytest.mark.parametrize("kind", list(KernelKind))
    @given(b=stn.floats(min_value=0.1, max_value=500), theta=stn.floats(min_value=1e-6, max_value=0.99))
    def test_proportional_to_bandwidth(self, kind, b, theta):
        h1 = decay_horizon(kind, b, theta)
        h2 = decay_horizon(kind, 2 * b, theta)
        assert h2 == pytest.approx(2 * h1, abs=1e-9, rel=1e-9)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_horizon_is_crossing_point(self, kind):
        b, theta = 7.0, 0.05
        tau = decay_horizon(kind, b, theta)
        assert kernel_weight(kind, (tau - 1e-6) / b) > theta
        lag = tau / b if kind is KernelKind.GAUSSIAN else min(tau / b, 1 - 1e-12)
        assert kernel_weight(kind, lag) <= theta + 1e-9

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            decay_horizon(KernelKind.GAUSSIAN, 5, 1.5)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_nan_bandwidth(self, kind):
        with pytest.raises(BandwidthError, match="bandwidth must be positive, got nan"):
            decay_horizon(kind, math.nan, 0.01)

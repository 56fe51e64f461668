"""Random synthetic sweeps against the independent reference.

Datasets come from ``SynthConfig``, recast through their descriptor into
yearly or monthly periods and any of the three chronology modes (with
split overrides under remainder tests, which may cut a period), with or
without a categorical term whose levels all appear in the first training
set.  Grids and kernel subsets are drawn too.  Every cell must agree with
``bench/reference.py``'s least-squares recomputation within its
``RE_RTOL``, and every verdict with its rule.

Each example also reads the sweep at a theta that puts one convergence
horizon exactly on its split's training span, the boundary of the
"horizon within the span" test.

Limits are the reference's (see ``test_reference.py``): overrides are
modelled for remainder tests only, and a categorical term is coded with
the levels of all records.
"""

from dataclasses import replace
from datetime import date, timedelta

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings, strategies as stn

from driftscope.analysis import AnalysisConfig, run_sweep, summarize
from driftscope.chronology import ChronologyMode, SplitError
from driftscope.datasets import DatasetDescriptor, SynthConfig, synthesize
from driftscope.kernels import Granularity, KernelKind, period_keys
from driftscope.stats import LOG, ModelFormula, Term

from test_reference import _spec, reference  # noqa: F401  (``reference`` is a fixture)

SIZE = Term("size", transform=LOG)
LANG = Term("lang", kind="categorical", reference="a")


@stn.composite
def _datasets(draw):
    n_periods = draw(stn.integers(3, 7))
    config = SynthConfig(
        n_projects=draw(stn.integers(3 * n_periods, 30)),
        n_periods=n_periods,
        seed=draw(stn.integers(0, 2**16)),
        intercept_drift=draw(stn.sampled_from([0.0, 0.3, 1.0])),
        slope_drift=draw(stn.sampled_from([0.0, 0.1])),
        noise_sd=draw(stn.sampled_from([0.05, 0.3])),
    )
    granularity = draw(stn.sampled_from(Granularity))
    mode = draw(stn.sampled_from(ChronologyMode))
    n_levels = draw(stn.sampled_from([0, 2, 3]))
    dataset = synthesize(config)
    # each synthetic year's period p gives a completion day in year 2000 + p
    # or, monthly, in month p from 2000-01
    done, start = [], []
    for year in dataset.keys.tolist():
        p = year - 2000
        if granularity is Granularity.YEARLY:
            day = date(year, draw(stn.integers(1, 12)), draw(stn.integers(1, 28)))
        else:
            day = date(2000 + p // 12, p % 12 + 1, draw(stn.integers(1, 28)))
        done.append(day)
        if mode is ChronologyMode.DATE_FILTERED_TEST:
            start.append(day - timedelta(days=draw(stn.integers(0, 200))))
    done = np.array(done, dtype="datetime64[D]")
    attributes = dict(dataset.attributes)
    if n_levels:
        # synthetic ids ascend with the period, so row i is plan position i:
        # cycling levels in plan order puts each in the first training set
        attributes["lang"] = np.array(["abc"[i % n_levels] for i in range(len(done))], dtype=object)
    formula = ModelFormula(response="effort", terms=(SIZE, LANG) if n_levels else (SIZE,))
    overrides = None
    if mode is ChronologyMode.REMAINDER_TEST and draw(stn.booleans()):
        wmin = 3 + max(n_levels - 1, 0)
        sizes = stn.integers(wmin, len(done) - 2)
        overrides = tuple(sorted(draw(stn.sets(sizes, min_size=1, max_size=3))))
    descriptor = DatasetDescriptor(
        name="oracle", granularity=granularity, chronology=mode, columns={"id": "id"},
        formula=formula, overrides=overrides,
    )
    return replace(
        dataset,
        descriptor=descriptor,
        keys=period_keys(done, None, granularity),
        done=done,
        start=np.array(start or [None] * len(done), dtype="datetime64[D]"),
        attributes=attributes,
    )


def _boundary_theta(reference, kind, bandwidth, span):
    """A theta in (0, 1) at which the reference's decay horizon of
    ``kind`` at ``bandwidth`` equals ``span`` exactly, or None."""
    ratio = span / bandwidth
    theta = {  # the inverse of the horizon formula, then a walk by ulps
        "gaussian": np.exp(-0.5 * ratio * ratio),
        "epanechnikov": 1.0 - ratio * ratio,
        "triangular": 1.0 - ratio,
    }[kind]
    for _ in range(64):
        h = reference.horizon(kind, bandwidth, theta)
        if h == span and 0.0 < theta < 1.0:
            return float(theta)
        theta = np.nextafter(theta, 1.0 if h > span else 0.0)
    return None


def _assert_verdicts(reference, sweep, spans):
    """Every verdict of ``sweep`` read at its config is the reference
    rule's verdict on the sweep's curve."""
    config = sweep.config
    verdicts = {(v.split, v.kernel): v for v in summarize(sweep).verdicts}
    for kind, curve in sweep.curves.items():
        rows = zip(curve.re_train_nu.tolist(), curve.re_train_u.tolist())
        for ordinal, (train_nu, train_u) in enumerate(rows, 1):
            points = [(b, re, train_u) for b, re in zip(curve.bandwidths, train_nu)]
            want = reference._verdict(
                points, kind.value, spans[ordinal], config.epsilon, config.theta
            )
            got = verdicts[ordinal, kind]
            assert got.classification.value == want["classification"], (ordinal, kind)
            assert (got.convergence and got.convergence.bandwidth) == want["bandwidth"]
            assert got.horizon == want["horizon"] or reference._close(got.horizon, want["horizon"])


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    dataset=_datasets(),
    kernels=stn.lists(stn.sampled_from(KernelKind), min_size=1, max_size=3, unique=True),
    grid=stn.tuples(
        stn.sampled_from([0.5, 1.0, 2.0]),
        stn.sampled_from([0.5, 1.5, 4.0]),
        stn.sampled_from([0, 2, 8]),
    ),
)
def test_random_sweeps_match_the_reference(reference, dataset, kernels, grid):
    # in period units, so that finite-support grids start past the span
    unit = dataset.descriptor.granularity.increment
    lo, step, extra = (unit * v for v in grid)
    try:
        config = AnalysisConfig(grid_lo=lo, grid_hi=lo + step + extra + 8 * unit, grid_step=step)
        sweep = run_sweep(dataset, kernels, config)
    except SplitError:
        assume(False)
    spec = _spec(reference, dataset)
    splits = reference.plan(spec)
    assert [s.train_ids for s in sweep.plan.splits] == [
        tuple(r.id for r in s.train) for s in splits
    ]
    assert [s.test_ids for s in sweep.plan.splits] == [
        tuple(r.id for r in s.test) for s in splits
    ]

    wrong = []
    for kind, curve in sweep.curves.items():
        shape = (len(splits), len(curve.bandwidths))
        assert curve.re_train_nu.shape == curve.re_test_nu.shape == shape
        # the final split has no test values: NaN in the curve, None in the reference
        assert np.isnan(curve.re_test_nu[-1]).all() and np.isnan(curve.re_test_u[-1])
        for i, split in enumerate(splits):
            final = i == len(splits) - 1
            for j, b in enumerate(curve.bandwidths):
                got = (
                    curve.re_train_nu[i, j], None if final else curve.re_test_nu[i, j],
                    curve.re_train_u[i], None if final else curve.re_test_u[i],
                )
                want = reference.cell_res(spec, split, kind.value, b)
                if not all(reference._close(g, w) for g, w in zip(got, want)):
                    wrong.append((i + 1, kind.value, b, got, want))
    assert wrong == []

    spans = {i + 1: max(s.span, unit) for i, s in enumerate(splits)}
    _assert_verdicts(reference, sweep, spans)

    # the same curves at a theta that puts a convergence horizon on its span
    for verdict in summarize(sweep).verdicts:
        point = verdict.convergence
        if point is None or point.at_grid_minimum:
            continue
        theta = _boundary_theta(reference, verdict.kernel.value, point.bandwidth, spans[verdict.split])
        if theta is not None:
            event("a convergence horizon on its span")
            boundary = replace(sweep, config=replace(sweep.config, theta=theta))
            _assert_verdicts(reference, boundary, spans)
            by_key = {(v.split, v.kernel): v for v in summarize(boundary).verdicts}
            assert by_key[verdict.split, verdict.kernel].classification.value == "stationary"
            break

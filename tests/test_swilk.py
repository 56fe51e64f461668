import numpy as np
import pytest
import scipy.stats

from driftscope.swilk import swilk

# Frozen 20-point normal draw; reference values computed with
# scipy.stats.shapiro (see test_matches_frozen_reference).
FROZEN_SAMPLE = [
    55.808, 49.356, 55.601, 52.427, 41.736, 32.267, 64.311, 48.213,
    30.611, 35.488, 51.794, 56.951, 46.375, 72.345, 48.657, 35.188,
    52.786, 36.477, 52.812, 65.787,
]
FROZEN_W = 0.9617056618546265
FROZEN_P = 0.5784611772272803


def test_matches_frozen_reference():
    w, p = swilk(FROZEN_SAMPLE)
    assert w == pytest.approx(FROZEN_W, abs=1e-3)
    assert p == pytest.approx(FROZEN_P, abs=1e-3)
    assert p > 0.05


def test_constant_sample_rejected():
    with pytest.raises(ValueError, match="variance"):
        swilk([5.0, 5.0, 5.0, 5.0])


def test_too_small_sample_rejected():
    with pytest.raises(ValueError, match="at least 3"):
        swilk([1.0, 2.0])


def test_skewed_sample_fails_normality():
    rng = np.random.default_rng(5)
    _, p = swilk(rng.exponential(size=60))
    assert p <= 0.05


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11, 12, 25, 80, 500])
@pytest.mark.parametrize("dist", ["normal", "exponential"])
def test_tracks_scipy_across_sizes(n, dist):
    rng = np.random.default_rng(n * 131 + (dist == "normal"))
    x = rng.normal(size=n) if dist == "normal" else rng.exponential(size=n)
    w, p = swilk(x)
    ref = scipy.stats.shapiro(x)
    assert w == pytest.approx(ref.statistic, abs=1e-4)
    assert p == pytest.approx(ref.pvalue, abs=1e-3)


def test_w_bounded_by_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w, p = swilk(rng.normal(size=int(rng.integers(3, 50))))
        assert 0.0 < w <= 1.0
        assert 0.0 <= p <= 1.0

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

from driftscope import stats
from driftscope.stats import (
    GRAM_RATIO_MIN,
    LOG,
    DesignMatrix,
    ModelFormula,
    SingularDesignError,
    Term,
    _bounded_rows,
    _squared_deviations,
    build_design_matrix,
    predict,
    relative_error,
    weighted_least_squares,
)


def _line_columns(xs, ys):
    return {"x": list(xs), "y": list(ys)}


LINE = ModelFormula(
    response="y", terms=(Term("x"),), response_transform="identity"
)


def _design(xs, ys):
    return build_design_matrix(_line_columns(xs, ys), LINE)


class TestDesignMatrix:
    def test_dummy_coding_against_reference(self):
        formula = ModelFormula(
            response="effort",
            terms=(
                Term("size", transform=LOG),
                Term("lang", kind="categorical", reference="1"),
            ),
        )
        columns = {"effort": [100, 150, 120], "size": [10, 20, 15], "lang": ["1", "2", "3"]}
        d = build_design_matrix(columns, formula)
        assert d.labels == ("intercept", "ln(size)", "lang=2", "lang=3")
        # reference-level record has all-zero indicators
        assert list(d.matrix[0][2:]) == [0.0, 0.0]
        assert d.matrix[1][2] == 1.0 and d.matrix[2][3] == 1.0
        assert d.response[0] == pytest.approx(math.log(100))

    def test_log_of_nonpositive_value(self):
        formula = ModelFormula(response="y", terms=(Term("x", transform=LOG),))
        with pytest.raises(ValueError, match="log"):
            build_design_matrix({"y": [1.0], "x": [0.0]}, formula)

    def test_missing_value(self):
        with pytest.raises(ValueError, match="missing"):
            build_design_matrix({"y": [1.0]}, LINE)

    def test_unseen_level_at_prediction(self):
        formula = ModelFormula(
            response="y",
            terms=(Term("t", kind="categorical", reference="a", levels=("a", "b")),),
            response_transform="identity",
        )
        train = build_design_matrix({"y": [1, 2], "t": ["a", "b"]}, formula)
        test = build_design_matrix({"y": [3], "t": ["b"]}, formula)
        assert test.labels == train.labels == ("intercept", "t=b")
        with pytest.raises(ValueError, match="unseen level 'c'"):
            build_design_matrix({"y": [3], "t": ["c"]}, formula)

    def test_reference_recode_leaves_fit_unchanged(self):
        rng = np.random.default_rng(7)
        levels = ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a"]
        columns = {"y": rng.normal(size=10), "x": rng.normal(size=10), "t": levels}
        fitted = {}
        for ref in ("a", "b"):
            formula = ModelFormula(
                response="y",
                terms=(Term("x"), Term("t", kind="categorical", reference=ref)),
                response_transform="identity",
            )
            d = build_design_matrix(columns, formula)
            m = weighted_least_squares(d, np.ones(len(levels)))
            fitted[ref] = d.matrix @ m
        assert fitted["a"] == pytest.approx(fitted["b"], abs=1e-9)


class TestRowMoments:
    def test_training_prefix_moments_are_its_own(self):
        rng = np.random.default_rng(4)
        d = _design(list(rng.normal(size=12)), list(rng.normal(size=12)))
        train = DesignMatrix(d.matrix[:7], d.response[:7], d.labels)
        by_hand = DesignMatrix(
            matrix=train.matrix.copy(), response=train.response.copy(),
            labels=d.labels,
        )
        assert np.array_equal(train.moments, by_hand.moments)

    def test_moments_are_outer_products_then_cross_moments(self):
        rng = np.random.default_rng(8)
        x = np.column_stack([np.ones(6), rng.normal(size=(6, 2))])
        y = rng.normal(size=6)
        d = DesignMatrix(matrix=x, response=y, labels=("a", "b", "c"))
        assert d.moments.shape == (6, 12)
        for row, xi, yi in zip(d.moments, x, y):
            assert np.array_equal(row[:9], np.outer(xi, xi).ravel())
            assert np.array_equal(row[9:], xi * yi)
        rows = np.array([4, 1])
        tested = DesignMatrix(d.matrix[rows], d.response[rows], d.labels)
        assert np.array_equal(tested.moments, d.moments[[4, 1]])


class TestWeightedLeastSquares:
    def test_exact_fit_is_weight_invariant(self):
        xs = [0.0, 1.0, 2.0, 3.0]
        ys = [1 + 2 * x for x in xs]
        for w in ([1, 1, 1, 1], [0.2, 0.9, 0.5, 1.0]):
            m = weighted_least_squares(_design(xs, ys), w)
            assert m == pytest.approx([1.0, 2.0], abs=1e-10)

    def test_integer_weights_equal_row_replication(self):
        xs = [0.0, 1.0, 2.0]
        ys = [0.9, 3.2, 4.9]
        weighted = weighted_least_squares(_design(xs, ys), [2, 1, 3])
        xs_rep = [0.0, 0.0, 1.0, 2.0, 2.0, 2.0]
        ys_rep = [0.9, 0.9, 3.2, 4.9, 4.9, 4.9]
        replicated = weighted_least_squares(
            _design(xs_rep, ys_rep), [1.0] * 6
        )
        assert weighted == pytest.approx(replicated, abs=1e-8)

    def test_single_column_gives_weighted_mean(self):
        formula = ModelFormula(response="y", terms=(), response_transform="identity")
        d = build_design_matrix({"y": [1.0, 4.0]}, formula)
        m = weighted_least_squares(d, [3.0, 1.0])
        assert m[0] == pytest.approx((3 * 1 + 1 * 4) / 4)

    def test_weight_scale_invariance(self):
        xs = [0.0, 1.0, 2.0, 4.0]
        ys = [0.5, 2.2, 3.9, 8.5]
        w = [0.3, 1.1, 0.7, 0.9]
        a = weighted_least_squares(_design(xs, ys), w)
        b = weighted_least_squares(_design(xs, ys), [17.0 * v for v in w])
        assert a == pytest.approx(b, rel=1e-10)

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=12)
        ys = rng.normal(size=12)
        w = rng.uniform(0.1, 1.0, size=12)
        d = _design(list(xs), list(ys))
        m = weighted_least_squares(d, w)
        grad = d.matrix.T @ (w * (d.response - predict(m, d.matrix)))
        scale = max(1.0, np.max(np.abs(d.matrix.T @ (w * d.response))))
        assert np.max(np.abs(grad)) <= 1e-8 * scale

    def test_perturbing_coefficients_never_helps(self):
        rng = np.random.default_rng(3)
        xs = list(rng.normal(size=10))
        ys = list(rng.normal(size=10))
        w = rng.uniform(0.2, 1.0, size=10)
        d = _design(xs, ys)
        m = weighted_least_squares(d, w)

        def objective(beta):
            r = d.response - d.matrix @ beta
            return float(np.sum(w * r * r))

        best = objective(m)
        for j in range(len(m)):
            for delta in (1e-3, -1e-3):
                beta = m.copy()
                beta[j] += delta
                assert objective(beta) >= best

    def test_singular_design(self):
        columns = {"y": [1.0, 2.0, 3.0], "x": [2.0, 3.0, 4.0], "x2": [4.0, 6.0, 8.0]}
        formula = ModelFormula(
            response="y", terms=(Term("x"), Term("x2")), response_transform="identity"
        )
        with pytest.raises(SingularDesignError):
            weighted_least_squares(build_design_matrix(columns, formula), [1, 1, 1])

    def test_underdetermined(self):
        with pytest.raises(SingularDesignError):
            weighted_least_squares(_design([1.0], [2.0]), [1.0])

    def test_rejects_negative_and_non_finite_weights(self):
        d = _design([1, 2, 3, 4], [1, 3, 2, 5])
        for bad in (-1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                weighted_least_squares(d, [1.0, bad, 1.0, 1.0])
        # a zero is a weight: its record drops from the fit
        fit = weighted_least_squares(d, [1.0, 0.0, 1.0, 1.0])
        rows = [0, 2, 3]
        alone = weighted_least_squares(
            DesignMatrix(d.matrix[rows], d.response[rows], d.labels), np.ones(3)
        )
        assert fit == pytest.approx(alone, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(stn.integers(min_value=0, max_value=2**32 - 1))
    def test_zero_weights_drop_their_records(self, seed):
        """Each row of stacked weights with exact zeros gets the
        coefficients of ``np.linalg.lstsq`` on sqrt(w)X over its
        positive-weight records alone, at least p + 1 of them."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 3, 25))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        y = rng.normal(size=n)
        w = rng.uniform(0.1, 1.0, size=(int(rng.integers(1, 6)), n))
        for row in w:
            row[rng.permutation(n)[: int(rng.integers(1, n - k - 1))]] = 0.0
        design = DesignMatrix(matrix=x, response=y, labels=tuple(f"x{j}" for j in range(k + 1)))
        fit = weighted_least_squares(design, w)
        for row, got in zip(w, fit):
            kept = row > 0
            sw = np.sqrt(row[kept])
            beta, *_ = np.linalg.lstsq(x[kept] * sw[:, None], y[kept] * sw, rcond=None)
            assert np.linalg.norm(got - beta) <= 1e-10 * np.linalg.norm(beta)

    @settings(max_examples=50, deadline=None)
    @given(stn.integers(min_value=0, max_value=2**32 - 1))
    def test_uniform_weights_match_ols(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        d = _design(list(xs), list(ys))
        wls = weighted_least_squares(d, np.ones(n))
        ols, *_ = np.linalg.lstsq(d.matrix, d.response, rcond=None)
        assert wls == pytest.approx(ols, rel=1e-10, abs=1e-12)

    def test_stacked_rows_equal_single_fits(self):
        rng = np.random.default_rng(5)
        d = _design(list(rng.normal(size=9)), list(rng.normal(size=9)))
        w = rng.uniform(0.1, 1.0, size=(4, 9))
        stacked = weighted_least_squares(d, w)
        assert stacked.shape == (4, 2)
        assert predict(stacked, d.matrix).shape == (4, 9)
        for row, coefficients in zip(w, stacked):
            single = weighted_least_squares(d, row)
            assert coefficients == pytest.approx(single, rel=1e-12, abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=stn.integers(min_value=0, max_value=2**32 - 1),
        collinearity=stn.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
        decades=stn.sampled_from([0, 4, 12]),
    )
    def test_stacked_fits_match_lstsq_per_row(self, seed, collinearity, decades):
        """Each row of a stacked fit against ``np.linalg.lstsq`` on that
        row's sqrt(w)X: singular exactly when lstsq's rank is below p, the
        first such row named, and otherwise coefficients within
        64 * cond(sqrt(w)X)^2 * eps of lstsq's, relative to max(1, |beta|).
        That is the forward error bound both a normal-equation solve and
        an orthogonal one meet; 4000 seeded draws of this kind gave at
        most 5.3 * cond^2 * eps.  Weights spanning 12 decades and
        near-collinear columns drive rows to the lstsq fallback."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 25))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        if collinearity is not None and k >= 2:
            x[:, -1] = x[:, 1] + collinearity * rng.normal(size=n)
        y = rng.normal(size=n)
        w = 10.0 ** rng.uniform(-decades, 0, size=(int(rng.integers(1, 6)), n))
        design = DesignMatrix(
            matrix=x, response=y, labels=tuple(f"x{j}" for j in range(k + 1))
        )
        expected, first_singular = [], None
        for b, row in enumerate(w):
            xw = x * np.sqrt(row)[:, None]
            beta, _, rank, sv = np.linalg.lstsq(xw, y * np.sqrt(row), rcond=None)
            if rank < k + 1 and first_singular is None:
                first_singular = b
            expected.append((beta, sv[0] / sv[-1]))
        if first_singular is not None:
            with pytest.raises(SingularDesignError) as info:
                weighted_least_squares(design, w)
            assert info.value.row == first_singular
            return
        fit = weighted_least_squares(design, w)
        eps = np.finfo(float).eps
        for got, (beta, cond) in zip(fit, expected):
            error = np.linalg.norm(got - beta) / max(1.0, np.linalg.norm(beta))
            assert error <= 64 * cond**2 * eps

    @settings(max_examples=300, deadline=None)
    @given(
        seed=stn.integers(min_value=0, max_value=2**32 - 1),
        collinearity=stn.sampled_from([None, 0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
        decades=stn.sampled_from([0, 1, 4, 8, 12]),
    )
    def test_bound_keeps_the_eigenvalue_partition(self, seed, collinearity, decades):
        """Over a random run table and a random prefix of runs per row, the
        rows sent to the direct solve are exactly those whose own X'WX,
        over their own training rows, passes ``GRAM_RATIO_MIN``, and the
        first row an SVD finds singular is the one reported."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 25))
        p = k + 1
        x = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
        if collinearity is not None and k >= 2:
            x[:, -1] = x[:, 1] + collinearity * rng.normal(size=n)
        # runs start at row 0 and at a random share of the other rows,
        # all of them at times: one run per design row
        starts = np.flatnonzero(
            np.concatenate(([True], rng.random(n - 1) < rng.choice([0.3, 0.7, 1.0])))
        )
        ends = np.append(starts, n)
        # prefixes long enough to identify p coefficients
        runs = rng.choice(np.flatnonzero(ends >= p), size=int(rng.integers(1, 6)))
        w = 10.0 ** rng.uniform(-decades, 0, size=(len(runs), starts.size))
        w[rng.random(len(w)) < 0.3] = 1.0  # some unweighted rows
        inside = np.arange(starts.size) < runs[:, None]
        w[~inside] = 0.0
        design = DesignMatrix(
            matrix=x, response=rng.normal(size=n),
            labels=tuple(f"x{j}" for j in range(p)),
        )
        per_row = np.repeat(w, np.diff(ends), axis=1)
        gram = np.stack([
            x[:m].T @ (row[:m, None] * x[:m]) for row, m in zip(per_row, ends[runs])
        ])
        eigenvalues = np.linalg.eigvalsh(gram)
        reference = eigenvalues[:, 0] > GRAM_RATIO_MIN * eigenvalues[:, -1]
        xtx = np.linalg.eigvalsh(np.stack([x[:m].T @ x[:m] for m in ends[runs]]))
        w_min = np.min(w, axis=1, where=inside, initial=np.inf)
        direct = _bounded_rows(gram, w_min, w.max(axis=1), xtx)
        assert direct.tolist() == reference.tolist()

        # the fit's own partition, on its own Gram matrices: per-run sums
        # weighted by w, zero past each row's runs
        gram = (w @ np.add.reduceat(design.moments, starts))[:, : p * p].reshape(-1, p, p)
        eigenvalues = np.linalg.eigvalsh(gram)
        reference = eigenvalues[:, 0] > GRAM_RATIO_MIN * eigenvalues[:, -1]
        first_singular = None
        for b in np.flatnonzero(~reference):
            m = ends[runs[b]]
            sv = np.linalg.svd(x[:m] * np.sqrt(per_row[b, :m])[:, None], compute_uv=False)
            if np.sum(sv > max(m, p) * np.finfo(float).eps * sv[0]) < p:
                first_singular = int(b)
                break
        partitions = []

        def spy(*args):
            partitions.append(_bounded_rows(*args))
            return partitions[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_bounded_rows", spy)
            if first_singular is None:
                fit = weighted_least_squares(design, w, starts, runs)
                assert fit.shape == (len(w), p)
            else:
                with pytest.raises(SingularDesignError) as info:
                    weighted_least_squares(design, w, starts, runs)
                assert info.value.row == first_singular
        assert [d.tolist() for d in partitions] == [reference.tolist()]

    def test_bound_skips_eigenvalues_of_cleared_rows(self, monkeypatch):
        # Rows within a few decades clear the bound; only the row whose
        # weights span 30 decades gets its own eigenvalues.
        d = _design([float(t) for t in range(10)], [0.5 * t + (-1) ** t for t in range(10)])
        w = np.ones((3, 10))
        w[1] = np.linspace(0.01, 1.0, 10)
        w[2] = 10.0 ** -np.arange(10.0, 0.0, -1.0) ** 1.5
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            shapes.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        fit = weighted_least_squares(d, w)
        # one call over the design's one prefix, then one over the
        # uncleared row
        assert shapes == [(1, 2, 2), (1, 2, 2)]
        monkeypatch.undo()
        for row, coefficients in zip(w, fit):
            sw = np.sqrt(row)
            beta, *_ = np.linalg.lstsq(d.matrix * sw[:, None], d.response * sw, rcond=None)
            assert coefficients == pytest.approx(beta, rel=1e-9, abs=1e-12)

    def test_fallback_rows_match_lstsq(self):
        # Weight 1 on one record and 1e-12 on the rest: the Gram matrix
        # fails the eigenvalue guard, but sqrt(w)X keeps a singular value
        # ratio near 1e-6, full rank by lstsq's rule.  Row 1 does so on
        # all 10 records, row 2 on the first 6; both are lstsq's own
        # solution on their training rows, bit for bit.
        d = _design([float(t) for t in range(10)], [1.0 + 0.5 * t + (-1) ** t for t in range(10)])
        runs = [10, 10, 6]
        w = np.full((3, 10), 1e-12)
        w[0] = 1.0
        w[1:, 0] = 1.0
        w[2, 6:] = 0.0
        for row, m in zip(w[1:], runs[1:]):
            x = d.matrix[:m]
            eigenvalues = np.linalg.eigvalsh(x.T @ (row[:m, None] * x))
            assert eigenvalues[0] < GRAM_RATIO_MIN * eigenvalues[-1]
        fit = weighted_least_squares(d, w, runs=runs)
        for b, (row, m) in enumerate(zip(w, runs)):
            sw = np.sqrt(row[:m])
            beta, _, rank, _ = np.linalg.lstsq(
                d.matrix[:m] * sw[:, None], d.response[:m] * sw, rcond=None
            )
            assert rank == 2
            if b == 0:  # solved directly
                assert fit[b] == pytest.approx(beta, rel=1e-9)
            else:
                assert np.array_equal(fit[b], beta)

    def test_first_failing_row_is_reported(self):
        d = _design([float(t) for t in range(6)], [0.3, 1.1, 2.4, 2.9, 4.2, 5.0])
        good = np.ones(6)
        singular = np.full(6, 1e-40)  # weight on one record only, numerically
        singular[0] = 1.0
        zero = np.ones(6)
        zero[3] = 0.0
        with pytest.raises(SingularDesignError, match="singular design") as info:
            weighted_least_squares(d, [good, good, singular, zero, singular])
        assert info.value.row == 2
        # a zero weight is solved; zeros on all records but one are singular
        lone = np.eye(6)[3]
        with pytest.raises(SingularDesignError, match="singular design") as info:
            weighted_least_squares(d, [good, zero, lone, singular])
        assert info.value.row == 2
        # a solvable fallback row on 4 records comes before a singular row
        # on all 6: the singular row is reported, and only it
        near = np.array([1.0, 1e-12, 1e-12, 1e-12, 0.0, 0.0])
        weighted_least_squares(d, [good, near], runs=[6, 4])
        with pytest.raises(SingularDesignError, match="singular design") as info:
            weighted_least_squares(d, [good, near, singular, near], runs=[6, 4, 6, 4])
        assert info.value.row == 2

    def test_run_weights_equal_their_expansion(self):
        # one weight per run of rows against the same weights per row;
        # the row spanning 30 decades goes to the lstsq fallback
        rng = np.random.default_rng(12)
        d = _design(list(rng.normal(size=14)), list(rng.normal(size=14)))
        starts = np.array([0, 1, 4, 5, 9, 13])
        w = rng.uniform(0.1, 1.0, size=(3, 6))
        w[2] = 10.0 ** -np.arange(30.0, 0.0, -5.0)
        per_row = np.repeat(w, np.diff(starts, append=14), axis=1)
        runs = weighted_least_squares(d, w, starts)
        for got, want in zip(runs, weighted_least_squares(d, per_row)):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
        singular = np.full(6, 1e-40)
        singular[0] = 1.0  # the one record of run 0, numerically
        with pytest.raises(SingularDesignError) as info:
            weighted_least_squares(d, [w[0], singular], starts)
        assert info.value.row == 1

    @pytest.mark.parametrize("starts", [[1, 4], [0, 4, 4], [0, 6], [[0, 2]], []])
    def test_rejects_bad_run_starts(self, starts):
        d = _design([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.0, 2.0, 1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="run starts"):
            weighted_least_squares(d, np.ones(max(len(starts), 1)), starts)

    def test_run_weight_count_must_match(self):
        d = _design([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="3 weights for 2 runs"):
            weighted_least_squares(d, np.ones(3), [0, 2])


    def test_runs_fit_each_row_on_its_prefix(self):
        # rows on prefixes of 1, 3 and 6 runs of one design, zero past
        # them, against fits on those prefixes alone; the 30-decade row
        # goes to the lstsq fallback
        rng = np.random.default_rng(13)
        d = _design(list(rng.normal(size=14)), list(rng.normal(size=14)))
        starts = np.array([0, 3, 4, 7, 9, 13])
        runs = np.array([6, 3, 1, 3, 6])
        w = rng.uniform(0.1, 1.0, size=(5, 6))
        w[3, :3] = 10.0 ** -np.arange(30.0, 0.0, -10.0)
        w[np.arange(6) >= runs[:, None]] = 0.0
        fit = weighted_least_squares(d, w, starts, runs)
        ends = np.append(starts, 14)[runs]
        for row, r, m, got in zip(w, runs, ends, fit):
            train = DesignMatrix(d.matrix[:m], d.response[:m], d.labels)
            want = weighted_least_squares(train, row[:r], starts[:r])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_runs_errors_name_the_first_failing_row(self):
        d = _design([float(t) for t in range(6)], [0.3, 1.1, 2.4, 2.9, 4.2, 5.0])
        good = np.ones(6)
        singular = np.full(6, 1e-40)  # weight on one record only, numerically
        singular[0] = 1.0
        padded = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])  # positive where read
        one = np.eye(6)[0]
        zero = padded.copy()
        zero[1] = 0.0
        # a singular row wins over a later short prefix
        with pytest.raises(SingularDesignError, match="singular design") as info:
            weighted_least_squares(d, [good, singular, one, zero], runs=[6, 6, 1, 3])
        assert info.value.row == 1
        # a prefix of one record is singular by rank alone
        with pytest.raises(SingularDesignError, match="singular design") as info:
            weighted_least_squares(d, [padded, one, zero], runs=[3, 1, 3])
        assert info.value.row == 1
        # a zero weight inside a prefix drops its record: records 0 and 2 remain
        with pytest.raises(SingularDesignError) as info:
            weighted_least_squares(d, [padded, zero, one], runs=[3, 3, 1])
        assert info.value.row == 2
        fit = weighted_least_squares(d, [padded, zero], runs=[3, 3])
        rows = [0, 2]
        alone = weighted_least_squares(
            DesignMatrix(d.matrix[rows], d.response[rows], d.labels), np.ones(2)
        )
        assert fit[1] == pytest.approx(alone, rel=1e-12)

    @pytest.mark.parametrize(
        "runs, message",
        [([1, 2], "runs must give"), ([0, 6, 6], "runs must give"), ([3, 7, 6], "runs must give"),
         ([2, 6, 6], "past a fit's runs must be 0")],
    )
    def test_rejects_bad_runs(self, runs, message):
        d = _design([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.0, 2.0, 1.0, 3.0, 2.0])
        w = np.ones((3, 6))
        w[0, 3:] = 0.0
        with pytest.raises(ValueError, match=message):
            weighted_least_squares(d, w, runs=runs)


class TestPredict:
    def test_intercept_only(self):
        formula = ModelFormula(response="y", terms=(), response_transform="identity")
        d = build_design_matrix({"y": [5.0, 7.0]}, formula)
        m = weighted_least_squares(d, [1.0, 1.0])
        assert list(predict(m, d.matrix)) == pytest.approx([6.0, 6.0])

    def test_exact_line_extrapolates(self):
        m = weighted_least_squares(_design([0, 1, 2], [1, 3, 5]), [1, 1, 1])
        d10 = _design([10.0], [0.0])
        assert predict(m, d10.matrix)[0] == pytest.approx(21.0)

    def test_width_mismatch(self):
        m = weighted_least_squares(_design([0, 1, 2], [1, 3, 5]), [1, 1, 1])
        formula = ModelFormula(
            response="y", terms=(Term("x"), Term("z")), response_transform="identity"
        )
        other = build_design_matrix({"y": [1.0], "x": [1.0], "z": [1.0]}, formula)
        with pytest.raises(ValueError, match="mismatch"):
            predict(m, other.matrix)

    def test_one_row_per_fit(self):
        d = _design([0, 1, 2], [1, 3, 5])
        m = weighted_least_squares(d, [[1, 1, 1], [1, 2, 3]])
        predictions = predict(m, _design([10.0, 20.0], [0.0, 0.0]).matrix)
        assert predictions.shape == (2, 2)
        for row in predictions:
            assert row == pytest.approx([21.0, 41.0])


class TestRelativeError:
    def test_perfect_predictions(self):
        assert relative_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_predictor_is_exactly_one(self):
        assert relative_error([7.7, 7.7, 7.7], [1.0, 5.0, 9.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed(self):
        assert relative_error([9.0, 13.0], [10.0, 12.0]) == pytest.approx(1.0)

    def test_shift_invariance(self):
        p = [1.0, 2.0, 4.0]
        a = [1.5, 2.5, 3.0]
        shifted = relative_error([v + 100 for v in p], [v + 100 for v in a])
        assert shifted == pytest.approx(relative_error(p, a), rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            relative_error([1.0], [2.0])

    def test_zero_variance_actuals(self):
        with pytest.raises(ValueError):
            relative_error([1.0, 2.0], [3.0, 3.0])

    def test_one_value_per_row_equals_single_calls(self):
        rng = np.random.default_rng(9)
        actuals = rng.normal(size=7)
        predictions = rng.normal(size=(3, 7))
        stacked = relative_error(predictions, actuals)
        assert stacked.shape == (3,)
        for row, value in zip(predictions, stacked):
            assert value == relative_error(row, actuals)

    def test_stacked_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            relative_error(np.zeros((2, 3)), [1.0, 2.0])

    def test_overwrite_uses_predictions_as_scratch(self):
        rng = np.random.default_rng(4)
        actuals = rng.normal(size=6)
        predictions = rng.normal(size=(2, 6))
        kept = predictions.copy()
        expected = relative_error(predictions, actuals)
        assert np.array_equal(predictions, kept)  # the caller's array untouched
        assert np.array_equal(relative_error(predictions, actuals, overwrite=True), expected)
        assert not np.array_equal(predictions, kept)


class TestSquaredDeviations:
    def test_bitwise_equal_to_np_var(self):
        # 20,000 draws of assorted lengths, offsets and scales
        rng = np.random.default_rng(2024)
        for _ in range(20_000):
            n = int(rng.integers(2, 60))
            v = rng.normal(rng.normal(0.0, 1e3), 10.0 ** rng.uniform(-6, 6), size=n)
            assert _squared_deviations(v) / (n - 1) == np.var(v, ddof=1)
        stacked = rng.normal(size=(4, 3001)) * 1e3 + 7.0
        assert np.array_equal(_squared_deviations(stacked) / 3000, np.var(stacked, axis=-1, ddof=1))

    def test_relative_error_is_the_np_var_ratio(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(2, 80))
            actuals = rng.lognormal(5.0, 1.0, size=n)
            predictions = actuals * rng.lognormal(0.0, 0.3, size=(3, n))
            expected = np.var(actuals - predictions, axis=-1, ddof=1) / np.var(actuals, ddof=1)
            assert np.array_equal(relative_error(predictions, actuals), expected)
            assert relative_error(predictions[0], actuals) == expected[0]


# Regression machinery: model formulas, design matrices with log
# transforms and dummy coding, weighted least squares, prediction on the
# transformed scale, and the variance-ratio relative error.

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Term",
    "ModelFormula",
    "DesignMatrix",
    "SingularDesignError",
    "dummy_levels",
    "build_design_matrix",
    "weighted_least_squares",
    "predict",
    "relative_error",
]

LOG = "log"
IDENTITY = "identity"

# A Gram matrix X'WX whose smallest eigenvalue is more than this share of
# its largest is solved directly.  Passing bounds the singular value
# ratio of sqrt(W)X above 1e-4, far above lstsq's rank cut-off of
# max(n, p) * eps (2.2e-13 at a thousand rows), so every row that passes
# is one lstsq would call full rank.  Here X is a fit's own training
# rows (the prefix of the design it is fitted on) and w its weights on
# them.  Since X'WX - min(w) X'X and max(w) X'X - X'WX are positive
# semidefinite, Weyl's inequality gives
# lambda_min(X'WX) >= min(w) lambda_min(X'X) and
# lambda_max(X'WX) <= max(w) lambda_max(X'X): a weight row whose
# min(w)/max(w) times the eigenvalue ratio of its prefix's X'X exceeds
# this share passes without its own eigenvalues.  Every fit is on a
# prefix of runs of the design, and each prefix's X'X is a partial sum of
# the per-run moment sums, not a pass over the design.
GRAM_RATIO_MIN = 1e-8


class SingularDesignError(RuntimeError):
    """Design matrix is rank deficient; ``row`` is the first singular row
    of a stacked weight matrix (0 for a single weight vector), and
    ``solved`` the coefficient rows of the fits before it, one per row."""

    def __init__(self, message, row: int = 0, solved=None):
        super().__init__(message)
        self.row = row
        self.solved = solved


@dataclass(frozen=True)
class Term:
    """One explanatory term: a numeric column (optionally log-scaled) or
    a categorical column expanded against a reference level."""

    column: str
    kind: str = "numeric"  # "numeric" | "categorical"
    transform: str = IDENTITY
    reference: str | None = None
    levels: tuple[str, ...] | None = None  # full level set, if known up front

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.transform not in (LOG, IDENTITY):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.kind == "categorical":
            if self.reference is None:
                raise ValueError(f"categorical term {self.column!r} needs a reference level")
            if self.transform == LOG:
                raise ValueError(f"categorical term {self.column!r} cannot be log-transformed")
        elif self.reference is not None or self.levels is not None:
            raise ValueError(f"numeric term {self.column!r} takes no reference or levels")


@dataclass(frozen=True)
class ModelFormula:
    response: str
    terms: tuple[Term, ...]
    response_transform: str = LOG

    @property
    def columns(self) -> tuple[str, ...]:
        return (self.response, *(t.column for t in self.terms))


@dataclass(frozen=True)
class DesignMatrix:
    """Intercept-first design with its transformed response vector."""

    matrix: np.ndarray
    response: np.ndarray
    labels: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def moments(self) -> np.ndarray:
        """One row per record: x_i x_i' flattened, then x_i y_i.  A weight
        row w gives the Gram matrix and moment X'WX, X'Wy as w @ moments."""
        x = self.matrix
        n, p = x.shape
        moments = np.empty((n, p + 1, p))
        np.multiply(x[:, :, None], x[:, None, :], out=moments[:, :p])
        np.multiply(x, self.response[:, None], out=moments[:, p])
        return moments.reshape(n, p * p + p)


def _transformed(values, transform: str, column: str) -> np.ndarray:
    """A numeric column as floats, log-scaled if ``transform`` asks.  The
    logs are ``math.log``'s, whose last bits ``np.log`` does not always
    match."""
    values = np.asarray(values, dtype=float)
    if transform != LOG:
        return values
    nonpositive = np.flatnonzero(values <= 0)
    if nonpositive.size:
        raise ValueError(
            f"cannot log-transform nonpositive {column}={values[nonpositive[0]].item()}"
        )
    return np.fromiter(map(math.log, values.tolist()), float, values.size)


def dummy_levels(term: Term, values) -> tuple[str, ...]:
    """The non-reference levels of a categorical term, one dummy column
    each, given its column's values as strings: the declared levels, or
    else the observed ones, sorted.  Undeclared levels need the reference
    among the values; declared ones must cover every value."""
    observed = set(values)
    if term.levels is None:
        if term.reference not in observed:
            raise ValueError(
                f"reference level {term.reference!r} absent from column {term.column!r}"
            )
        return tuple(sorted(observed - {term.reference}))
    known = {*term.levels, term.reference}
    if not observed <= known:
        unseen = next(v for v in values if v not in known)
        raise ValueError(
            f"unseen level {unseen!r} in column {term.column!r}; "
            f"declared levels are {sorted(known)}"
        )
    return tuple(l for l in term.levels if l != term.reference)


def build_design_matrix(columns, formula: ModelFormula) -> DesignMatrix:
    """Build the design matrix and transformed response for a formula.

    ``columns`` maps each column of the formula to its values, one per
    record: numbers, or strings for a categorical term, which gets one
    dummy column per level ``dummy_levels`` gives it.
    """
    for col in formula.columns:
        if col not in columns:
            raise ValueError(f"missing value for column {col!r}")
    n = len(columns[formula.response])
    if not n:
        raise ValueError("no records to build a design from")

    labels: list[str] = ["intercept"]
    matrix: list[np.ndarray] = [np.ones(n)]

    for term in formula.terms:
        if term.kind == "numeric":
            labels.append(
                f"ln({term.column})" if term.transform == LOG else term.column
            )
            matrix.append(_transformed(columns[term.column], term.transform, term.column))
            continue

        observed = np.asarray(columns[term.column], dtype=object)
        for level in dummy_levels(term, observed):
            labels.append(f"{term.column}={level}")
            matrix.append((observed == level).astype(float))

    y = _transformed(columns[formula.response], formula.response_transform, formula.response)
    return DesignMatrix(
        matrix=np.column_stack(matrix),
        response=y,
        labels=tuple(labels),
    )


def _bounded_rows(gram, w_min, w_max, eigenvalues) -> np.ndarray:
    """Which rows of the stacked Gram matrices ``gram`` pass
    ``GRAM_RATIO_MIN``, given each row's smallest and largest weight and
    the ascending eigenvalues of the X'X of its training rows, one set
    per row.  Rows whose weights clear the bound of X'X's eigenvalues
    pass; the others are decided by their own eigenvalues.  The bound is
    asked to clear the guard twice over, a margin far above the rounding
    of either eigenvalue computation."""
    direct = w_min * eigenvalues[:, 0] > 2 * GRAM_RATIO_MIN * w_max * eigenvalues[:, -1]
    check = np.flatnonzero(~direct)
    if check.size:
        eigenvalues = np.linalg.eigvalsh(gram[check])
        direct[check] = eigenvalues[:, 0] > GRAM_RATIO_MIN * eigenvalues[:, -1]
    return direct


def _solve(design: DesignMatrix, w, starts, runs, inside, ends) -> np.ndarray:
    """Coefficients minimizing sum_i w_bi (y_i - x_i b)^2 for every row b
    of ``w``, one row per fit, where column j of ``w`` is the weight of
    every design row of run j: rows ``starts[j]`` up to the next start.
    Row b fits on its first ``runs[b]`` runs, the design rows before
    ``ends[b]``; ``inside`` marks those runs, and its weights past them
    are zero.

    The design's row moments are summed once per run, and every row's
    Gram matrix X'W_bX and moment X'W_by come from one matrix product of
    ``w`` with those sums.  Gram matrices that pass ``GRAM_RATIO_MIN``
    are solved directly, in one batched solve.  The bound is taken
    against each row's own X'X, a partial sum of the runs' x x' sums,
    taken from one cumulative sum, with one batched eigenvalue call over
    the distinct prefixes.  The other rows are solved one at a time, in
    row order, by ``np.linalg.lstsq`` (``rcond=None``) on sqrt(w_b)X over
    their own training rows, weights expanded to one per design row; a
    row whose lstsq rank is below the column count is a singular design.
    """
    x, y = design.matrix, design.response
    p = x.shape[1]
    sums = np.add.reduceat(design.moments, starts)
    moments = w @ sums
    gram = moments[:, : p * p].reshape(-1, p, p)
    xty = moments[:, p * p:]
    # sorted distinct prefixes, by a mask rather than np.unique, which
    # imports numpy.ma
    prefixes = np.sort(runs)
    prefixes = prefixes[np.diff(prefixes, prepend=0) != 0]
    xtx = np.cumsum(sums[:, : p * p], axis=0)[prefixes - 1].reshape(-1, p, p)
    eigenvalues = np.linalg.eigvalsh(xtx)[np.searchsorted(prefixes, runs)]
    w_min = np.min(w, axis=1, where=inside, initial=np.inf)
    direct = _bounded_rows(gram, w_min, w.max(axis=1), eigenvalues)
    if direct.all():  # on the views, without copying them
        return np.linalg.solve(gram, xty[:, :, None])[..., 0]
    coefficients = np.empty((len(w), p))
    coefficients[direct] = np.linalg.solve(gram[direct], xty[direct, :, None])[..., 0]
    for b in np.flatnonzero(~direct):
        m, r = int(ends[b]), int(runs[b])
        sw = np.sqrt(np.repeat(w[b, :r], np.diff(starts[:r], append=m)))
        coefficients[b], _, rank, _ = np.linalg.lstsq(x[:m] * sw[:, None], y[:m] * sw, rcond=None)
        if rank < p:
            raise SingularDesignError("singular design", row=int(b), solved=coefficients[:b])
    return coefficients


def weighted_least_squares(design: DesignMatrix, weights, starts=None, runs=None) -> np.ndarray:
    """Minimize the weighted sum of squared transformed-scale residuals.

    ``weights`` holds one weight per design row, giving one vector of
    coefficients, or one such row per fit, giving one row of coefficients
    per fit, all solved in one pass (see ``_solve``).  With ``starts``,
    the first rows of runs of consecutive design rows, ascending from 0,
    ``weights`` holds one weight per run instead, shared by the run's
    rows; by default every design row is a run of its own.  With ``runs``, one count per fit,
    fit b uses only the first ``runs[b]`` runs: it is fitted on that
    prefix of the design, and its weights past it must be 0.  By default
    every fit uses every run.

    Weights must be finite and nonnegative; a zero weight drops its
    records from the fit.  A fit fails only by rank: a design is singular
    exactly when ``np.linalg.lstsq`` on sqrt(w)X finds its rank below the
    number of columns, as on a prefix with fewer weighted records than
    columns, and the error names the first singular row of stacked
    weights.
    """
    w = np.asarray(weights, dtype=float)
    rows = np.atleast_2d(w)
    if not (np.all(rows >= 0) and np.isfinite(rows).all()):
        raise ValueError("weights must be finite and nonnegative")
    n = design.n_rows
    if starts is None:
        starts, width = np.arange(n), f"{n} design rows"
    else:
        starts = np.asarray(starts, dtype=np.intp)
        steps = np.diff(starts, append=n)
        if starts.ndim != 1 or starts[:1].tolist() != [0] or np.any(steps <= 0):
            raise ValueError(f"run starts must ascend from 0 to below {n}")
        width = f"{starts.size} runs of design rows"
    if rows.shape[1] != starts.size:
        raise ValueError(f"{rows.shape[1]} weights for {width}")
    runs = np.full(len(rows), starts.size) if runs is None else np.asarray(runs, dtype=np.intp)
    if runs.shape != (len(rows),) or np.any(runs < 1) or np.any(runs > starts.size):
        raise ValueError(
            f"runs must give each of {len(rows)} fits a count in 1..{starts.size}"
        )
    inside = np.arange(starts.size) < runs[:, None]
    if np.any(rows != 0, where=~inside):
        raise ValueError("weights past a fit's runs must be 0")
    ends = np.append(starts, n)[runs]
    coefficients = _solve(design, rows, starts, runs, inside, ends)
    return coefficients[0] if w.ndim == 1 else coefficients


def predict(coefficients: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Linear predictions on the transformed scale of the design rows
    ``matrix``, one row per row of stacked ``coefficients``."""
    return coefficients @ matrix.T


def _squared_deviations(v: np.ndarray, out=None):
    """Sum of squared deviations from the mean along the last axis.  Over
    n - 1 it is ``np.var(v, axis=-1, ddof=1)`` bit for bit: the same mean,
    differences, squares and pairwise sum, without np.var's dispatch.
    The deviations go to ``out``, which may be ``v`` itself."""
    d = np.subtract(v, v.sum(axis=-1, keepdims=True) / v.shape[-1], out=out)
    np.square(d, out=d)
    return d.sum(axis=-1)


def relative_error(predictions, actuals, overwrite: bool = False):
    """Variance of residuals over variance of the actuals: a float, or one
    value per row of stacked predictions.

    A value of 1 is the constant-predictor benchmark; values near zero
    indicate accurate predictions.  With ``overwrite``, a float64
    ``predictions`` array holds the residuals and their squares in
    place, and its values are lost, instead of a second array of its
    size being made beside it.
    """
    p = np.asarray(predictions, dtype=float)
    a = np.asarray(actuals, dtype=float)
    if p.shape[-1:] != a.shape:
        raise ValueError(f"length mismatch: {p.shape[-1]} vs {a.shape[0]}")
    n = a.shape[0]
    if n < 2:
        raise ValueError(f"variance needs at least 2 points, got {n}")
    denom = _squared_deviations(a) / (n - 1)
    if denom <= 0:
        raise ValueError("actuals have zero variance")
    residuals = np.subtract(a, p, out=p if overwrite else None)
    ratio = _squared_deviations(residuals, out=residuals) / (n - 1) / denom
    return float(ratio) if ratio.ndim == 0 else ratio

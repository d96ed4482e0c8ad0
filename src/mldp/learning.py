"""Training-set selection, regression fitting, and released models.

The published artifact of the pipeline is a small regression model
trained on noisy workload answers.  Prediction is pure post-processing:
it reads no private data and consumes no privacy budget, so a released
model can answer unlimited fresh queries.

The linear model is homogeneous: a linear counting query with an empty
coefficient vector answers exactly zero, so the intercept slot of the
released weight vector is pinned at 0.0 and only the per-bin weights
are fitted.  That is what makes a model trained on noiseless singleton
answers reproduce the histogram itself (the fitted weights are the bin
frequencies) and answer every 0/1 query exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .histogram import _seed
from .workload import (
    _POOL_KINDS,
    Workload,
    _integer,
    _range_pool_bounds,
    pool_queries,
    pool_size,
    range_workload,
)

if TYPE_CHECKING:
    from .mechanisms import NoisyAnswerSet

__all__ = [
    "ModelMeta",
    "PublishedModel",
    "select_training_set",
    "fit_linear",
    "fit_rbf",
    "rbf_kernel",
    "median_pairwise_distance",
    "predict",
    "save_model",
    "load_model",
]

SELECTION_STRATEGIES = ("singleton", "greedy_cover", "random_m")
MODEL_KINDS = ("linear", "rbf")

DEFAULT_LINEAR_RIDGE = 1e-6
DEFAULT_RBF_RIDGE = 1e-3

# Rows that predict and strategy answering read at a time.  A multiple
# of 64 rows keeps each answer bitwise equal to the whole product at one
# BLAS thread; see _row_spans.
_PREDICT_BLOCK = 512

# Range rows whose integer distances _kernel_blocks and
# median_pairwise_distance work out at a time.
_KERNEL_CHUNK = 64


def _check_int(value, field: str, config: str) -> None:
    """Refuse, not coerce, a non-int (bool, float, str, ...) integer field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{config} field of the wrong type: {field}={value!r} is not an integer")


def _check_real(value, field: str, config: str) -> None:
    """Refuse, not coerce, a non-number (bool, str, None, ...) real field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{config} field of the wrong type: {field}={value!r} is not a number")


def _check_fit_options(learner: str, ridge, width_u, config: str) -> None:
    """Refuse a ridge or width_u the learner's fit would; None keeps the default."""
    if ridge is not None:
        _check_real(ridge, "ridge", config)
        if not (math.isfinite(ridge) and (ridge > 0 or (ridge == 0 and learner == "linear"))):
            rule = "non-negative" if learner == "linear" else "positive for the rbf learner"
            raise ValueError(f"ridge must be finite and {rule}, got {ridge!r}")
    if width_u is not None:
        _check_real(width_u, "width_u", config)
        if not (width_u > 0 and math.isfinite(width_u)):
            raise ValueError(f"width_u must be finite and positive, got {width_u!r}")


def _json_floats(value, field: str, depth: int = 0):
    """A model file's number (depth 0), list (1) or list of lists (2) of numbers, as floats.

    A string, bool or null anywhere in it is refused, never converted.
    """
    items = [value]
    for _ in range(depth):
        items = list(chain.from_iterable(items))
    if not {int, float}.issuperset(map(type, items)):
        raise ValueError(f"{field} must hold only numbers")
    return np.asarray(value, dtype=float) if depth else float(value)


@dataclass(frozen=True)
class ModelMeta:
    """Release provenance stored inside a published model."""

    epsilon_consumed: float
    training_m: int
    sensitivity: float
    seed: int | None = None
    mu: float | None = None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelMeta":
        _check_int(data["training_m"], "training_m", "model meta")
        if data.get("seed") is not None:
            _check_int(data["seed"], "seed", "model meta")
        epsilon = _json_floats(data["epsilon_consumed"], "epsilon_consumed")
        sensitivity = _json_floats(data["sensitivity"], "sensitivity")
        if not epsilon > 0:
            raise ValueError(f"epsilon_consumed must be positive, got {epsilon!r}")
        if not sensitivity >= 0:
            raise ValueError(f"sensitivity must be non-negative, got {sensitivity!r}")
        return cls(
            epsilon_consumed=epsilon,
            training_m=data["training_m"],
            sensitivity=sensitivity,
            seed=data.get("seed"),
            mu=None if data.get("mu") is None else _json_floats(data["mu"], "mu"),
        )


@dataclass(frozen=True)
class PublishedModel:
    """A released regression model over a d-bin query domain.

    linear: weights has length d+1, weights[0] is the (always zero)
    intercept slot and weights[1:] multiply the query coefficients.
    rbf: weights are the kernel coefficients, one per stored center row,
    and width_u is the kernel width.
    """

    kind: str
    d: int
    weights: np.ndarray
    centers: np.ndarray | None = None
    width_u: float | None = None
    meta: ModelMeta | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        weights = np.array(self.weights, dtype=float)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        if self.kind == "linear":
            if weights.shape != (self.d + 1,):
                raise ValueError(
                    f"linear model over d={self.d} needs {self.d + 1} weights, "
                    f"got {weights.size}"
                )
            if self.centers is not None or self.width_u is not None:
                raise ValueError("linear models carry no centers or width")
        else:
            if self.centers is None or self.width_u is None:
                raise ValueError("rbf models need centers and width_u")
            centers = np.array(self.centers, dtype=float)
            if centers.ndim != 2 or centers.shape != (weights.size, self.d):
                raise ValueError(
                    f"rbf centers must be ({weights.size} x {self.d}), "
                    f"got {centers.shape}"
                )
            if not self.width_u > 0:
                raise ValueError("width_u must be positive")
            centers.setflags(write=False)
            object.__setattr__(self, "centers", centers)


def select_training_set(
    d: int,
    strategy: str,
    m: int | None = None,
    seed: int | None = None,
    pool: str = "ranges",
) -> Workload:
    """Choose the training queries whose answers will be purchased.

    pool names the built-in candidate pool ("ranges" or "subsets", see
    :func:`~mldp.workload.pool_queries`); no pool is ever built.

    singleton      the d single-bin ranges.
    greedy_cover   the d single-bin ranges.  That is what greedy cover
                   (take the pool query touching the fewest bins among
                   those covering an uncovered bin; ties to most new
                   bins, then lowest pool position) gives on both
                   built-in pools: each contains every singleton, and a
                   singleton has the smallest size, so the tie-break
                   takes the singletons in pool order, i.e. bin order.
    random_m       m pool positions drawn uniformly with replacement,
                   deterministic given the seed, mapped to their queries.
    """
    if strategy not in SELECTION_STRATEGIES:
        raise ValueError(
            f"unknown selection strategy {strategy!r}; expected one of "
            f"{SELECTION_STRATEGIES}"
        )
    if pool not in _POOL_KINDS:
        raise ValueError(f"unknown pool {pool!r}; expected one of {_POOL_KINDS}")
    d = _integer(d, "d")
    if strategy == "random_m" and pool == "subsets":
        return pool_queries(d, _random_positions(d, m, seed, pool), pool)
    return range_workload(d, *_selection_bounds(d, strategy, m, seed))


def _selection_bounds(d: int, strategy: str, m, seed) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of select_training_set(d, strategy, m, seed) over the ranges pool.

    The same seeding and pool positions, with no matrix built.
    """
    if strategy != "random_m":
        return np.arange(d), np.arange(d)
    return _range_pool_bounds(d, _random_positions(d, m, seed, "ranges"))


def _random_positions(d: int, m, seed, pool: str) -> np.ndarray:
    """random_m's m pool positions, drawn uniformly with replacement from the seed."""
    if m is None or _integer(m, "m") < 1:
        raise ValueError("random_m needs m >= 1")
    rng = np.random.default_rng(_seed(seed))
    return rng.integers(0, pool_size(d, pool), size=int(m))


def _release_meta(training: NoisyAnswerSet, with_mu: bool = False) -> ModelMeta:
    """The provenance a model fitted to this training release records.

    with_mu also records mu, the mean of the noisy answers.
    """
    if training.workload.m < 1:
        raise ValueError("a training set needs at least one query")
    return ModelMeta(
        epsilon_consumed=training.epsilon_used,
        training_m=training.workload.m,
        sensitivity=training.sensitivity_used,
        seed=training.seed,
        mu=float(training.answers.mean()) if with_mu else None,
    )


def fit_linear(training: NoisyAnswerSet, ridge: float = DEFAULT_LINEAR_RIDGE) -> PublishedModel:
    """Ridge-regress per-bin weights onto the noisy training answers.

    The features F are the training workload's matrix and the targets y
    its released answers.  Solves min over v of ||F v - y||^2 +
    ridge * ||v||^2 through the normal equations; with ridge = 0 a
    rank-deficient system falls back to the minimum-norm least-squares
    solution.  The released weight vector is [0.0, v]: the intercept
    slot stays zero because linear query answers are homogeneous in the
    bins.

    With ridge > 0, a workload whose range bounds are the d single bins
    in bin order, or the dyadic tree of :func:`_dyadic_bounds`, is
    solved in closed form with no matrix formed (see
    :func:`_strategy_estimate`).  Any other workload of range rows only
    (random_m over the ranges pool, for one) counts F^T F from its
    bounds (see :func:`_range_gram`), the bits of the dense product, in
    O(m + d^2); a workload with a subset or general row forms F^T F by
    the dense O(m d^2) product.  The matrix F itself is read only by the
    ridge = 0 least-squares solve and by F^T y, so the closed forms
    build none.
    """
    _check_fit_options("linear", ridge, None, "fit_linear")
    ridge = float(ridge)
    meta = _release_meta(training)
    workload, targets = training.workload, training.answers
    if ridge == 0:
        v, *_ = np.linalg.lstsq(workload.matrix, targets, rcond=None)
    else:
        v = _strategy_estimate(workload, targets, ridge)
        if v is None:
            features = workload.matrix
            if workload._all_ranges():
                gram = _range_gram(workload.d, workload._lo, workload._hi)
            else:
                gram = features.T @ features
            # In place, the bits of gram + ridge * I: no entry is -0.0
            # (counts, or BLAS sums that start from 0.0), so adding 0.0
            # off the diagonal would leave each as it is.
            gram[np.diag_indices(workload.d)] += ridge
            v = np.linalg.solve(gram, features.T @ targets)
    weights = np.concatenate(([0.0], v))
    return PublishedModel(kind="linear", d=workload.d, weights=weights, meta=meta)


def _range_gram(d: int, lo, hi) -> np.ndarray:
    """F^T F of the range rows [lo[i], hi[i]] over d bins, from their bounds.

    Entry (j, k) counts the rows that cover both bins j and k.  Each
    row adds +1 at (lo, lo) and (hi + 1, hi + 1) and -1 at (lo, hi + 1)
    and (hi + 1, lo) of a (d + 1) x (d + 1) difference array, one
    np.bincount for all rows, whose prefix sums along both axes are the
    counts.  Every partial sum is an integer below 2^53, so the result
    has the bits of ``F.T @ F`` at any BLAS thread count.
    """
    lo = np.asarray(lo, dtype=np.intp)
    past = np.asarray(hi, dtype=np.intp) + 1
    n = d + 1
    corners = np.concatenate((lo * n + lo, past * n + past, lo * n + past, past * n + lo))
    signs = np.repeat([1.0, 1.0, -1.0, -1.0], lo.size)
    counts = np.bincount(corners, weights=signs, minlength=n * n).reshape(n, n)
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    return counts[:d, :d]


def _dyadic_bounds(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the dyadic intervals over p = 2^k bins, root level first, left to right."""
    lengths = p >> np.arange(p.bit_length())
    lo = np.concatenate([np.arange(0, p, n) for n in lengths])
    return lo, lo + np.repeat(lengths, p // lengths) - 1


def _strategy_estimate(workload: Workload, measured: np.ndarray, ridge: float) -> np.ndarray | None:
    """The ridge solution ``(F^T F + ridge I)^-1 F^T y`` for two strategy structures.

    F is the matrix of ``workload``, y its noisy answers ``measured``.
    The structure is read from the rows' range bounds; the solution is
    exact, with no matrix formed.  Returns None for any other workload.

    singleton      the d bins [j, j] in bin order: F = I, so the
                   solution is ``y / (1 + ridge)``.
    dyadic tree    the rows of :func:`_dyadic_bounds` over d = 2^k bins:
                   F^T F is one all-ones block per tree node, which the
                   Haar basis diagonalizes.  A wavelet whose support is
                   n bins has eigenvalue n - 1, and the constant vector
                   over the d bins has 2d - 1.  F^T y adds each level's
                   answers over its blocks; one Haar transform, a
                   scaling by 1 / (eigenvalue + ridge) and the inverse
                   transform then give the solution in O(d).
    """
    d, lo, hi = workload.d, workload._lo, workload._hi
    if workload.m == d and lo == hi == tuple(range(d)):
        return measured / (1.0 + ridge)
    if workload.m != 2 * d - 1 or d & (d - 1):
        return None
    tree_lo, tree_hi = _dyadic_bounds(d)
    if lo != tuple(tree_lo.tolist()) or hi != tuple(tree_hi.tolist()):
        return None
    # F^T y, root level first: level k holds rows 2^k - 1 .. 2^(k+1) - 2,
    # and each bin sums its block's answer at every level.
    x = measured[:1]
    while x.size < d:
        x = np.repeat(x, 2) + measured[2 * x.size - 1 : 4 * x.size - 1]
    # Forward Haar transform, unnormalized: block sums and left-minus-right
    # differences, leaves first.
    differences = []
    while x.size > 1:
        left, right = x[0::2], x[1::2]
        differences.append(left - right)
        x = left + right
    # Scale and invert, root first.  A block of n bins with sums L and R
    # on its halves adds +-(L - R) / (n * (n - 1 + ridge)) to them.
    v = x / (d * (2 * d - 1 + ridge))
    n = d
    for difference in reversed(differences):
        step = difference / (n * (n - 1 + ridge))
        v = np.stack((v + step, v - step), axis=1).ravel()
        n >>= 1
    return v


def rbf_kernel(a: np.ndarray, b: np.ndarray, width_u: float) -> np.ndarray:
    """Gaussian kernel matrix k(x, y) = exp(-||x - y||^2 / (2 u^2))."""
    if not width_u > 0:
        raise ValueError("width_u must be positive")
    return np.exp(-_squared_distances(a, b) / (2.0 * width_u * width_u))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared row distances by ||x||^2 + ||y||^2 - 2 x.y: O(m^2) memory, not O(m^2 d)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(sq, 0.0)


def _kernel_blocks(workload: Workload, centers: np.ndarray, width_u: float, spans):
    """Yield rbf_kernel(workload.matrix[a:b], centers, width_u) for each (a, b) in spans.

    When every row is a range and every center entry is 0 or 1, the
    squared distance of range [l, h] to center c is the integer
    (h - l + 1) + |c| - 2 (P_c[h + 1] - P_c[l]), P_c being c's prefix
    count over the bins, and the kernel entry is table[distance] for a
    (d + 1)-entry table of exp(-k / (2 u^2)).  Those are the bits of
    rbf_kernel: its sums and products of 0/1 rows are exact integers,
    and the table applies the same division and np.exp to them.  The
    blocks are then views of one buffer, each valid until the next is
    drawn; memory is two (d + 1) x centers int32 tables plus the largest
    block.  Any other rows or centers take rbf_kernel.
    """
    if not workload._all_ranges() or not ((centers == 0.0) | (centers == 1.0)).all():
        for a, b in spans:
            yield rbf_kernel(workload._rows(a, b), centers, width_u)
        return
    d, n = workload.d, len(centers)
    table = np.exp(-np.arange(d + 1, dtype=float) / (2.0 * width_u * width_u))
    # The distance of [l, h] is lower[l] + upper[h + 1], with
    # lower[j] = 2 P[j] - j and upper[j] = |c| + j - 2 P[j].
    lower = np.zeros((d + 1, n), dtype=np.int32)
    np.cumsum(centers.T, axis=0, out=lower[1:], dtype=np.int32)
    bins = np.arange(d + 1, dtype=np.int32)[:, None]
    upper = lower[-1] + bins
    upper -= lower
    upper -= lower
    lower *= 2
    lower -= bins
    lo = np.asarray(workload._lo, dtype=np.intp)
    past = np.asarray(workload._hi, dtype=np.intp) + 1
    buffer = np.empty((max(b - a for a, b in spans), n))
    left = np.empty((_KERNEL_CHUNK, n), dtype=np.int32)
    right = np.empty((_KERNEL_CHUNK, n), dtype=np.int32)
    distances = np.empty((_KERNEL_CHUNK, n), dtype=np.intp)
    # Every index is in range; mode="clip" lets np.take write straight into out.
    for a, b in spans:
        for s in range(a, b, _KERNEL_CHUNK):
            e = min(s + _KERNEL_CHUNK, b)
            np.take(lower, lo[s:e], axis=0, out=left[: e - s], mode="clip")
            np.take(upper, past[s:e], axis=0, out=right[: e - s], mode="clip")
            np.add(left[: e - s], right[: e - s], out=distances[: e - s])
            np.take(table, distances[: e - s], out=buffer[s - a : e - a], mode="clip")
        yield buffer[: b - a]


def median_pairwise_distance(features: np.ndarray | Workload) -> float:
    """Median Euclidean distance between distinct feature rows.

    The usual bandwidth heuristic for the rbf width.  features is a
    matrix, or a workload whose rows are the features.  Falls back to
    1.0 when every pairwise distance is zero (all rows identical or a
    single row).  A matrix needs O(m^2) memory for m rows; the squared
    distances (the Gram trick of :func:`rbf_kernel`) are exact for
    integer-valued rows such as pool queries.

    A workload of range rows only is read from its bounds: the squared
    distance of ranges A and B is the integer |A| + |B| - 2 |A n B| in
    [0, d], and the median comes from an np.bincount of them with the
    arithmetic of np.median on the dense path, the square root of the
    middle value or the mean of the two middle square roots, so the
    result has the same bits.  Memory is _KERNEL_CHUNK x m integers.
    """
    if isinstance(features, Workload):
        if features._all_ranges():
            return _range_median_distance(features)
        features = features.matrix
    n = len(features)
    if n < 2:
        return 1.0
    upper = np.sqrt(_squared_distances(features, features)[np.triu_indices(n, k=1)])
    positive = upper[upper > 0]
    if positive.size == 0:
        return 1.0
    return float(np.median(positive))


def _range_median_distance(workload: Workload) -> float:
    """median_pairwise_distance of a workload of range rows, from their bounds."""
    lo = np.asarray(workload._lo, dtype=np.int64)
    hi = np.asarray(workload._hi, dtype=np.int64)
    size = hi - lo + 1
    m = workload.m
    counts = np.zeros(workload.d + 1, dtype=np.int64)
    # Rows s..e-1 against rows s.. on; the pairs with j <= i are zeroed,
    # so each pair of distinct rows is counted once.
    for s in range(0, m, _KERNEL_CHUNK):
        e = min(s + _KERNEL_CHUNK, m)
        shared = np.minimum(hi[s:e, None], hi[None, s:])
        shared -= np.maximum(lo[s:e, None], lo[None, s:])
        shared += 1
        np.maximum(shared, 0, out=shared)
        squared = size[s:e, None] + size[None, s:]
        squared -= 2 * shared
        squared[:, : e - s][np.tril_indices(e - s)] = 0
        counts += np.bincount(squared.ravel(), minlength=workload.d + 1)
    counts[0] = 0
    n = int(counts.sum())
    if n == 0:
        return 1.0
    # The sorted values at positions (n - 1) // 2 and n // 2.
    middle = np.searchsorted(np.cumsum(counts), [(n - 1) // 2, n // 2], side="right")
    roots = np.sqrt(middle.astype(float))
    return float(roots[0]) if n % 2 else float((roots[0] + roots[1]) / 2)


def fit_rbf(
    training: NoisyAnswerSet,
    width_u: float | None = None,
    ridge: float = DEFAULT_RBF_RIDGE,
) -> PublishedModel:
    """Kernel ridge regression with a Gaussian kernel over query features.

    Solves (K + ridge I) alpha = y where K is the kernel matrix of the
    training workload's rows and y its released answers; those rows
    become the stored centers.  width_u defaults to the median pairwise
    distance between the rows.  The mean of the training answers is kept
    in the model metadata as mu.
    """
    _check_fit_options("rbf", ridge, width_u, "fit_rbf")
    ridge = float(ridge)
    meta = _release_meta(training, with_mu=True)
    features = training.workload.matrix
    if width_u is None:
        width_u = median_pairwise_distance(training.workload)
    width_u = float(width_u)
    (kernel,) = _kernel_blocks(training.workload, features, width_u, [(0, training.workload.m)])
    # In place, the bits of kernel + ridge * I with no m x m temporaries.
    kernel[np.diag_indices_from(kernel)] += ridge
    alpha = np.linalg.solve(kernel, training.answers)
    return PublishedModel(
        kind="rbf",
        d=training.workload.d,
        weights=alpha,
        centers=features,
        width_u=width_u,
        meta=meta,
    )


def predict(model: PublishedModel, workload: Workload) -> np.ndarray:
    """Answer a workload from the released model alone.

    Pure post-processing: touches no histogram and no budget ledger, so
    it can be called any number of times at zero privacy cost.
    """
    if workload.d != model.d:
        raise ValueError(f"workload has d={workload.d}, model has d={model.d}")
    if workload.m == 0:
        return np.zeros(0)
    if model.kind == "linear":
        return model.weights[0] + _block_product(workload, model.weights[1:])
    # The kernel is evaluated a block of rows at a time, so memory grows
    # with the centers, not with queries x centers.
    spans = _row_spans(workload.m)
    answers = np.empty(workload.m)
    kernels = _kernel_blocks(workload, model.centers, model.width_u, spans)
    for (a, b), kernel in zip(spans, kernels):
        answers[a:b] = kernel @ model.weights
    return answers


def _row_spans(m: int) -> list[tuple[int, int]]:
    """(a, b) spans of _PREDICT_BLOCK rows that cover m rows in order.

    A one-row tail joins the span before it: numpy answers a single
    row by the matrix-vector path, whose last bits differ from the
    matrix product.
    """
    starts = list(range(0, m, _PREDICT_BLOCK))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [m]))


def _block_product(workload: Workload, vector: np.ndarray) -> np.ndarray:
    """``workload.matrix @ vector``, with no matrix built that is not built yet.

    A built matrix takes the whole product.  An unbuilt one, of range
    rows only, is multiplied a span of :func:`_row_spans` at a time,
    each block built from the bounds, so memory is one block; the
    answers have the bits of the whole product at one BLAS thread.
    """
    if workload._matrix is not None:
        return workload._matrix @ vector
    answers = np.empty(workload.m)
    for a, b in _row_spans(workload.m):
        answers[a:b] = workload._rows(a, b) @ vector
    return answers


def save_model(model: PublishedModel, path) -> None:
    """Serialize a model to JSON with full float precision.

    A model :func:`load_model` would refuse, or that strict JSON cannot
    hold, raises ValueError naming the field before the path is opened:
    weights, centers, width_u and meta's sensitivity and mu must be
    finite, the sensitivity non-negative and epsilon_consumed positive.
    Only epsilon_consumed may be infinite, from the noise-disabled mode;
    the file spells it Infinity.
    """
    finite = {"weights": model.weights, "centers": model.centers, "width_u": model.width_u}
    if model.meta is not None:
        if not model.meta.epsilon_consumed > 0:
            raise ValueError(
                f"meta.epsilon_consumed must be positive to save a model, "
                f"got {model.meta.epsilon_consumed!r}"
            )
        if not model.meta.sensitivity >= 0:
            raise ValueError(
                f"meta.sensitivity must be non-negative to save a model, "
                f"got {model.meta.sensitivity!r}"
            )
        finite.update({"meta.sensitivity": model.meta.sensitivity, "meta.mu": model.meta.mu})
    for field, value in finite.items():
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{field} must be finite to save a model")
    doc = {
        "kind": model.kind,
        "d": model.d,
        "weights": model.weights.tolist(),
        "centers": None if model.centers is None else model.centers.tolist(),
        "width_u": model.width_u,
        "meta": None if model.meta is None else model.meta.to_dict(),
    }
    # json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one, several times slower on rbf centers.
    text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path) -> PublishedModel:
    """Read a model written by :func:`save_model`, validating its shape.

    Weights, centers, width and the meta floats must be JSON numbers (a
    string or bool is refused, never converted).  Weights, centers and
    width must be finite.  Meta's sensitivity must be non-negative and its
    epsilon_consumed positive; it may be infinite, from the noise-disabled
    mode.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a valid model file: expected an object")
    try:
        kind = doc["kind"]
        d = doc["d"]
        weights = doc["weights"]
        centers = doc.get("centers")
        width_u = doc.get("width_u")
        meta = doc.get("meta")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a valid model file: {exc}") from None
    try:
        _check_int(d, "d", "model")
        model = PublishedModel(
            kind=kind,
            d=d,
            weights=_json_floats(weights, "weights", 1),
            centers=None if centers is None else _json_floats(centers, "centers", 2),
            width_u=None if width_u is None else _json_floats(width_u, "width_u"),
            meta=None if meta is None else ModelMeta.from_dict(meta),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: not a valid model file: {exc}") from None
    if not all(
        v is None or np.isfinite(v).all() for v in (model.weights, model.centers, model.width_u)
    ):
        raise ValueError(
            f"{path}: not a valid model file: weights, centers and width_u must be finite"
        )
    return model


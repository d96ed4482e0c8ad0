"""Linear counting queries and query workloads.

A query is a real coefficient vector over the histogram bins; its answer
is the dot product with the bin counts.  Because neighboring histograms
differ by +/-1 in a single bin, the joint L1 sensitivity of a workload
is the largest column sum of absolute coefficients: moving one record
perturbs the full answer vector by exactly one (signed) column.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .histogram import Histogram, _csv_int, _csv_rows, _integer, neighbor

__all__ = [
    "LinearQuery",
    "Workload",
    "range_query",
    "range_workload",
    "evaluate_workload",
    "workload_sensitivity",
    "brute_force_sensitivity",
    "all_range_queries",
    "all_subset_queries",
    "pool_size",
    "pool_queries",
    "random_range_workload",
    "save_workload_csv",
    "load_workload_csv",
]

_KINDS = ("range", "subset", "general")

# The built-in candidate pools that training queries are selected from.
_POOL_KINDS = ("ranges", "subsets")

# The subsets pool has 2^d - 1 queries.
_MAX_SUBSET_D = 20


class LinearQuery:
    """One linear query: answer(h) = coeffs . bins.

    ``kind`` is a format tag ("range", "subset" or "general"); range
    queries additionally carry their inclusive integer bin bounds
    ``lo..hi`` and must have 0/1 indicator coefficients matching those
    bounds; they store exactly that indicator.
    """

    __slots__ = ("_coeffs", "kind", "lo", "hi")

    def __init__(self, coeffs, kind: str = "general", lo=None, hi=None):
        arr, lo, hi = _checked_query(coeffs, kind, lo, hi)
        arr.setflags(write=False)
        self._coeffs = arr
        self.kind = kind
        self.lo = lo
        self.hi = hi

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def d(self) -> int:
        return self._coeffs.size

    def __eq__(self, other):
        if not isinstance(other, LinearQuery):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self._coeffs, other._coeffs)

    def __hash__(self):
        return hash((self.kind, self._coeffs.tobytes()))

    def __repr__(self):
        if self.kind == "range":
            return f"LinearQuery(range [{self.lo}, {self.hi}], d={self.d})"
        return f"LinearQuery({self.kind}, d={self.d})"


def _checked_query(coeffs, kind: str, lo, hi) -> tuple[np.ndarray, int | None, int | None]:
    """The coefficients and bounds a valid query of this kind stores.

    Raises ValueError naming the first rule the query breaks.  A range
    query stores exactly the 0/1 indicator of its bounds, so a -0.0
    coefficient is stored as 0.0.
    """
    arr = np.array(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("coeffs must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    if kind not in _KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    if kind == "range":
        if lo is None or hi is None:
            raise ValueError("range queries need lo and hi")
        lo, hi = _integer(lo, "lo"), _integer(hi, "hi")
        if not (0 <= lo <= hi < arr.size):
            raise ValueError(f"invalid range [{lo}, {hi}] for d={arr.size}")
        indicator = np.zeros(arr.size)
        indicator[lo : hi + 1] = 1.0
        if not np.array_equal(arr, indicator):
            raise ValueError("range query coefficients must be the 0/1 indicator of [lo, hi]")
        return indicator, lo, hi
    if lo is not None or hi is not None:
        raise ValueError("lo/hi only apply to range queries")
    if kind == "subset" and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("subset query coefficients must be 0/1")
    return arr, lo, hi


class Workload:
    """Immutable ordered collection of queries over a common bin domain.

    Stored as its read-only (m x d) coefficient matrix plus each row's
    kind and range bounds; indexing and iteration build validated
    :class:`LinearQuery` views of the rows on demand.
    """

    __slots__ = ("_matrix", "_kinds", "_lo", "_hi")

    def __init__(self, d: int, queries):
        d = _integer(d, "d")
        if d < 1:
            raise ValueError("d must be at least 1")
        queries = tuple(queries)
        for i, q in enumerate(queries):
            if not isinstance(q, LinearQuery):
                raise TypeError(f"query {i} is not a LinearQuery")
            if q.d != d:
                raise ValueError(f"query {i} has d={q.d}, workload has d={d}")
        matrix = np.stack([q.coeffs for q in queries]) if queries else np.zeros((0, d))
        kinds = [q.kind for q in queries]
        self._set(matrix, kinds, [q.lo for q in queries], [q.hi for q in queries])

    def _set(self, matrix, kinds, lo, hi) -> "Workload":
        matrix.setflags(write=False)
        self._matrix, self._kinds, self._lo, self._hi = matrix, tuple(kinds), tuple(lo), tuple(hi)
        return self

    @classmethod
    def _of(cls, matrix, kinds, lo, hi) -> "Workload":
        """A workload over rows already known to be valid for their kinds."""
        return cls.__new__(cls)._set(matrix, kinds, lo, hi)

    @property
    def d(self) -> int:
        return self._matrix.shape[1]

    @property
    def m(self) -> int:
        return len(self._kinds)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (m x d) coefficient matrix, one row per query."""
        return self._matrix

    def __len__(self):
        return len(self._kinds)

    def __iter__(self):
        return (self[i] for i in range(self.m))

    def __getitem__(self, i) -> LinearQuery:
        return LinearQuery(self._matrix[i], self._kinds[i], self._lo[i], self._hi[i])

    def __eq__(self, other):
        if not isinstance(other, Workload):
            return NotImplemented
        return (
            self.d == other.d
            and self._kinds == other._kinds
            and np.array_equal(self._matrix, other._matrix)
        )

    def __hash__(self):
        return hash((self.d, self._kinds, self._matrix.tobytes()))

    def __repr__(self):
        return f"Workload(d={self.d}, m={self.m})"


def range_workload(d: int, lo, hi) -> Workload:
    """The contiguous range-count queries over bins lo[i]..hi[i] (inclusive)."""
    d = _integer(d, "d")
    if d < 1:
        raise ValueError("d must be at least 1")
    lo, hi = _integers(lo, "lo"), _integers(hi, "hi")
    if lo.shape != hi.shape:
        raise ValueError(f"{lo.size} lower bounds for {hi.size} upper bounds")
    inverted = np.flatnonzero(lo > hi)
    if inverted.size:
        i = inverted[0]
        raise ValueError(f"inverted range [{lo[i]}, {hi[i]}]")
    outside = np.flatnonzero((lo < 0) | (hi >= d))
    if outside.size:
        i = outside[0]
        raise ValueError(f"range [{lo[i]}, {hi[i]}] out of bounds for d={d}")
    matrix = _range_indicators(d, lo, hi).astype(float)
    return Workload._of(matrix, ("range",) * lo.size, lo.tolist(), hi.tolist())


def _range_indicators(d: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean (m x d) matrix whose row i is true on bins lo[i]..hi[i]."""
    bins = np.arange(d)
    return (bins >= lo[:, None]) & (bins <= hi[:, None])


def _integers(values, name: str) -> np.ndarray:
    """values as a flat int64 array; ValueError unless they are all integers.

    Python and numpy integers pass; floats (even integral ones), bools
    and strings do not, so a bound or position is never truncated.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {values!r}")
    return arr.astype(np.int64, copy=False).reshape(-1)


def range_query(lo: int, hi: int, d: int) -> LinearQuery:
    """The contiguous range-count query over bins lo..hi (inclusive)."""
    return range_workload(d, [lo], [hi])[0]


def evaluate_workload(workload: Workload, hist: Histogram) -> np.ndarray:
    """Exact answers of every query in the workload, in workload order."""
    if workload.d != hist.d:
        raise ValueError(f"workload has d={workload.d}, histogram has d={hist.d}")
    return workload.matrix @ hist.bins


def workload_sensitivity(workload: Workload) -> float:
    """Joint L1 sensitivity of answering the whole workload at once.

    Equals max over bins j of sum_i |coeffs_i[j]|, the worst-case L1
    change of the answer vector when one record moves one bin by one.
    An empty workload has sensitivity 0.
    """
    if workload.m == 0:
        return 0.0
    matrix = workload.matrix
    if "general" in workload._kinds:  # range and subset coefficients are 0/1
        matrix = np.abs(matrix)
    return float(matrix.sum(axis=0).max())


def brute_force_sensitivity(workload: Workload, hist: Histogram) -> float:
    """Sensitivity measured by enumerating all +/-1 single-bin neighbors.

    Exists as an independent check on :func:`workload_sensitivity`: it
    walks every legal neighbor of ``hist`` and takes the largest L1
    change of the exact answer vector.  Removal neighbors are skipped
    for bins without a whole record to remove.
    """
    if workload.d != hist.d:
        raise ValueError(f"workload has d={workload.d}, histogram has d={hist.d}")
    if workload.m == 0:
        return 0.0
    base = evaluate_workload(workload, hist)
    worst = 0.0
    for j in range(hist.d):
        for delta in (1, -1):
            if delta == -1 and hist.bins[j] < 1:
                continue
            shifted = evaluate_workload(workload, neighbor(hist, j, delta))
            worst = max(worst, float(np.abs(shifted - base).sum()))
    return worst


def pool_size(d: int, pool: str) -> int:
    """Number of queries in a built-in pool over d bins; subsets needs d <= 20."""
    d = _integer(d, "d")
    if d < 1:
        raise ValueError("d must be at least 1")
    if pool == "ranges":
        return d * (d + 1) // 2
    if pool == "subsets":
        if d > _MAX_SUBSET_D:
            raise ValueError(
                f"the subsets pool over d={d} has 2^{d} - 1 queries; "
                f"limit is d <= {_MAX_SUBSET_D}"
            )
        return (1 << d) - 1
    raise ValueError(f"unknown pool {pool!r}; expected one of {_POOL_KINDS}")


def pool_queries(d: int, positions, pool: str) -> Workload:
    """The queries at the given positions of a built-in pool, in that order.

    ranges: the d(d+1)/2 contiguous ranges, longest first, then by lo.
    Position k lies in length group j = (isqrt(8k + 1) - 1) // 2, whose
    d - j ranges start at position j(j+1)/2, so lo = k - j(j+1)/2 and
    hi = lo + d - j - 1.

    subsets: the 2^d - 1 non-empty 0/1 subset-sum queries; position k
    is the subset with binary mask k + 1 (mask bit i selects bin i), so
    for d=2 the order is [1,0], [0,1], [1,1].
    """
    k = _integers(positions, "pool positions")
    size = pool_size(d, pool)
    if k.size and (k.min() < 0 or k.max() >= size):
        raise ValueError(f"pool positions must lie in [0, {size})")
    if pool == "ranges":
        j = (np.array([math.isqrt(8 * x + 1) for x in k.tolist()], dtype=np.int64) - 1) // 2
        lo = k - j * (j + 1) // 2
        return range_workload(d, lo, lo + d - j - 1)
    matrix = (((k[:, None] + 1) >> np.arange(d)) & 1).astype(float)
    return Workload._of(matrix, ("subset",) * k.size, (None,) * k.size, (None,) * k.size)


def all_range_queries(d: int) -> Workload:
    """All d(d+1)/2 contiguous range queries, longest first, then by lo."""
    return pool_queries(d, np.arange(pool_size(d, "ranges")), "ranges")


def all_subset_queries(d: int) -> Workload:
    """All 2^d - 1 non-empty 0/1 subset-sum queries, ordered by mask; d <= 20."""
    return pool_queries(d, np.arange(pool_size(d, "subsets")), "subsets")


def random_range_workload(d: int, m: int, seed: int) -> Workload:
    """m random contiguous range queries, deterministic given the seed.

    Each query draws lo and hi independently and uniformly from the bin
    indices and orders them, so duplicates are possible (and inevitable
    for small d).
    """
    if _integer(d, "d") < 1:
        raise ValueError("d must be at least 1")
    if _integer(m, "m") < 1:
        raise ValueError("m must be at least 1")
    rng = np.random.default_rng(_integer(seed, "seed"))
    a = rng.integers(0, d, size=m)
    b = rng.integers(0, d, size=m)
    return range_workload(d, np.minimum(a, b), np.maximum(a, b))


def save_workload_csv(workload: Workload, path) -> None:
    """Write a workload as CSV with columns kind, lo, hi, coeffs.

    The coeffs column always holds the full space-separated coefficient
    vector, each coefficient spelled by ``repr``, so the file is
    self-contained; lo/hi are filled for range queries only.  A range
    row's coefficients are its 0/1 indicator, so its coeffs field is
    :func:`_range_text` of its bounds rather than d formatted floats,
    and :func:`load_workload_csv` reads it back without parsing them.
    """
    d = workload.d
    matrix = workload.matrix
    with open(path, "w", newline="") as fh:
        # No field can hold a comma, quote or line break (the kinds are
        # fixed words, the bounds integers, the coefficients float
        # reprs), so these are the lines csv.writer would write.
        fh.write("kind,lo,hi,coeffs\r\n")
        for i, (kind, lo, hi) in enumerate(zip(workload._kinds, workload._lo, workload._hi)):
            if kind == "range":
                fh.write(f"range,{lo},{hi},{_range_text(d, lo, hi)}\r\n")
            else:
                fh.write(f"{kind},,,{' '.join(map(repr, matrix[i].tolist()))}\r\n")


def _range_text(d: int, lo: int, hi: int) -> str:
    """The coeffs field :func:`save_workload_csv` writes for the range [lo, hi] over d bins."""
    return ("0.0 " * lo + "1.0 " * (hi - lo + 1) + "0.0 " * (d - hi - 1))[:-1]


def load_workload_csv(path) -> Workload:
    """Read a workload CSV with columns kind, lo, hi, coeffs.

    Any spelling of the coefficients that ``np.loadtxt`` reads as floats
    is accepted.  The data rows are read in one pass, in file order.  A
    range row whose coeffs field is exactly what :func:`save_workload_csv`
    writes for its bounds is a template row: its matrix row is built from
    the bounds, and its coefficients are never parsed.  Every other row
    is parsed on its own and checked by the rules :class:`LinearQuery`
    applies, without building one.  Every range row is stored as its 0/1
    indicator.  A bad file is reported at its first bad row.
    """
    path = Path(path)
    rows = _csv_rows(path)
    header = tuple(c.strip().lower() for c in rows[0])
    if header != ("kind", "lo", "hi", "coeffs"):
        raise ValueError(f"{path}: expected header 'kind,lo,hi,coeffs'")
    if len(rows) == 1:
        raise ValueError(f"{path}: no data rows")
    d = None
    kinds, lo, hi, parsed = [], [], [], {}
    for i, row in enumerate(rows[1:]):
        try:
            kind, a, b, width, coeffs = _read_row(row, d)
        except ValueError as exc:
            raise ValueError(f"{path}: row {i + 1}: {exc}") from None
        d = width
        kinds.append(kind)
        lo.append(a)
        hi.append(b)
        if kind != "range":
            parsed[i] = coeffs
    # A range row is its indicator; every other row has no bounds and
    # gets the empty range [0, -1], then its coefficients.
    matrix = _range_indicators(
        d,
        np.array([0 if a is None else a for a in lo], dtype=np.int64),
        np.array([-1 if b is None else b for b in hi], dtype=np.int64),
    ).astype(float)
    if parsed:
        matrix[list(parsed)] = np.stack(list(parsed.values()))
    return Workload._of(matrix, kinds, lo, hi)


def _read_row(row, d: int | None):
    """(kind, lo, hi, width, coeffs) of one valid CSV data row.

    ``d`` is the width every row must have, None for the first row.
    coeffs is None for a template row, which is a valid range by
    construction.  Raises ValueError for the first fault, in the order
    columns, coefficients, width, bounds, query rules.
    """
    if len(row) != 4:
        raise ValueError(f"expected 4 columns, got {len(row)}")
    kind, lo_text, hi_text, text = [c.strip() for c in row]
    try:
        bounds = _bound(lo_text), _bound(hi_text)
    except ValueError:
        bounds = None
    width = _template_width(kind, *bounds, text) if bounds else None
    coeffs = None
    if width is None:
        if not text:
            raise ValueError("empty coefficient list")
        try:
            coeffs = np.loadtxt([text], dtype=float, comments=None, ndmin=2)[0]
        except ValueError:
            raise ValueError("bad coefficient list") from None
        width = coeffs.size
    if d is not None and width != d:
        raise ValueError(f"expected {d} coefficients, got {width}")
    if bounds is None:
        raise ValueError(f"bad lo/hi {lo_text!r}, {hi_text!r}: expected integers")
    if coeffs is None:
        return kind, *bounds, width, None
    coeffs, lo, hi = _checked_query(coeffs, kind, *bounds)
    return kind, lo, hi, width, coeffs


def _bound(text: str) -> int | None:
    return _csv_int(text) if text else None


def _template_width(kind: str, lo: int | None, hi: int | None, text: str) -> int | None:
    """d if the row is a range whose text is exactly :func:`_range_text` of [lo, hi] over d bins."""
    d = (len(text) + 1) // 4  # d three-character numbers and d - 1 spaces
    if kind == "range" and lo is not None and hi is not None and 0 <= lo <= hi < d:
        if text == _range_text(d, lo, hi):
            return d
    return None

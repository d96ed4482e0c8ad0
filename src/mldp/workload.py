"""Linear counting queries and query workloads.

A query is a real coefficient vector over the histogram bins; its answer
is the dot product with the bin counts.  Because neighboring histograms
differ by +/-1 in a single bin, the joint L1 sensitivity of a workload
is the largest column sum of absolute coefficients: moving one record
perturbs the full answer vector by exactly one (signed) column.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
        # Adding 0.0 reads -0.0 as 0.0, which __eq__ takes for equal.
        return hash((self.kind, (self._coeffs + 0.0).tobytes()))

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
        # Adding 0.0 reads -0.0 as 0.0, which __eq__ takes for equal.
        return hash((self.d, self._kinds, (self._matrix + 0.0).tobytes()))

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
    # Row a of steps is true on bins d - a and up, so row d - lo is true
    # from lo on and row d - 1 - hi from hi + 1 on.
    steps = sliding_window_view(np.arange(2 * d) >= d, d)
    indicators = steps[d - lo]
    indicators ^= steps[d - 1 - hi]
    return indicators


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

    ranges: the d(d+1)/2 contiguous ranges, longest first, then by lo;
    see :func:`_range_pool_bounds`.

    subsets: the 2^d - 1 non-empty 0/1 subset-sum queries; position k
    is the subset with binary mask k + 1 (mask bit i selects bin i), so
    for d=2 the order is [1,0], [0,1], [1,1].
    """
    k = _integers(positions, "pool positions")
    size = pool_size(d, pool)
    if k.size and (k.min() < 0 or k.max() >= size):
        raise ValueError(f"pool positions must lie in [0, {size})")
    if pool == "ranges":
        return range_workload(d, *_range_pool_bounds(d, k))
    matrix = (((k[:, None] + 1) >> np.arange(d)) & 1).astype(float)
    return Workload._of(matrix, ("subset",) * k.size, (None,) * k.size, (None,) * k.size)


def _range_pool_bounds(d: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the ranges pool's queries at the int64 positions k.

    Position k lies in length group j = (isqrt(8k + 1) - 1) // 2, whose
    d - j ranges start at position j(j+1)/2, so lo = k - j(j+1)/2 and
    hi = lo + d - j - 1.  The float square root is within one of
    isqrt(8k + 1), and one integer step each way makes it exact for
    every k below 2^59, where no product overflows int64: every position
    of a pool over fewer than 10^9 bins.
    """
    x = 8 * k + 1
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    j = (r - 1) // 2
    lo = k - j * (j + 1) // 2
    return lo, lo + d - j - 1


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

    lo/hi are filled for range queries only.  The first row spells all
    its coefficients, which give the file its width d.  After it, a
    range row is ``range,<lo>,<hi>,`` with an empty coeffs field, since
    its coefficients are the 0/1 indicator of its bounds.  Other rows
    spell their coefficients space-separated, each by ``repr``; so does
    a first range row, as :func:`_range_text` of its bounds.  A workload
    with no queries raises ValueError before the path is opened, since
    :func:`load_workload_csv` refuses a file with no rows.
    """
    if not workload.m:
        raise ValueError("a workload with no queries cannot be saved: the file would have no rows")
    d = workload.d
    matrix = workload.matrix
    with open(path, "w", newline="") as fh:
        # No field can hold a comma, quote or line break (the kinds are
        # fixed words, the bounds integers, the coefficients float
        # reprs), so these are the lines csv.writer would write.
        fh.write("kind,lo,hi,coeffs\r\n")
        for i, (kind, lo, hi) in enumerate(zip(workload._kinds, workload._lo, workload._hi)):
            if kind == "range":
                fh.write(f"range,{lo},{hi},{_range_text(d, lo, hi) if i == 0 else ''}\r\n")
            else:
                fh.write(f"{kind},,,{' '.join(map(repr, matrix[i].tolist()))}\r\n")


def _range_text(d: int, lo: int, hi: int) -> str:
    """The coefficients of the range [lo, hi] over d bins as ``1.0``/``0.0`` joined by spaces."""
    return ("0.0 " * lo + "1.0 " * (hi - lo + 1) + "0.0 " * (d - hi - 1))[:-1]


def load_workload_csv(path) -> Workload:
    """Read a workload CSV with columns kind, lo, hi, coeffs.

    Any spelling of the coefficients that ``np.loadtxt`` reads as floats
    is accepted.  The rows are read in one pass, in file order, by the
    csv module, so a quoted field loads as its unquoted text.  The first
    data row must spell its coefficients, which set d.  After it, a
    range row whose coeffs field is blank is read from its bounds alone,
    as is one whose coeffs field is exactly :func:`_range_text` of its
    bounds (how files were written before range rows dropped their
    coefficients); their coefficients are never parsed.  Every other row
    is parsed on its own by :func:`_read_row` and checked by the rules
    :class:`LinearQuery` applies, without building one.  Every range row
    is stored as its 0/1 indicator.  A bad file is reported at its first
    bad row.
    """
    d, kinds, lo, hi, parsed = _text_rows(Path(path))
    # A range row is its indicator; every other row has the empty range
    # [0, -1], then its coefficients.
    matrix = _range_indicators(d, lo, hi).astype(float)
    if parsed:
        matrix[list(parsed)] = np.stack(list(parsed.values()))
    lo, hi = lo.tolist(), hi.tolist()
    for i in parsed:
        lo[i] = hi[i] = None
    return Workload._of(matrix, kinds, lo, hi)


def _text_rows(path: Path):
    """(d, kinds, lo, hi, parsed) of a workload CSV, read a row at a time by the csv module.

    The rows come from :func:`~mldp.histogram._csv_rows`.  lo and hi
    are int64 arrays, with the empty range [0, -1] for a row that is
    not a range; parsed maps the index of each such row to its
    coefficients.
    """
    d, kinds, lo, hi, parsed = None, [], [], [], {}
    with contextlib.closing(_csv_rows(path)) as rows:
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if tuple(c.strip().lower() for c in header) != ("kind", "lo", "hi", "coeffs"):
            raise ValueError(f"{path}: expected header 'kind,lo,hi,coeffs'")
        for i, row in enumerate(rows, start=1):
            try:
                kind, coeffs, a, b = _read_row(row, d)
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
            if d is None:
                d = coeffs.size
            kinds.append(kind)
            lo.append(a)
            hi.append(b)
            if kind != "range":
                parsed[i - 1] = coeffs
    if d is None:
        raise ValueError(f"{path}: no data rows")
    return d, kinds, np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64), parsed


def _read_row(row, d: int | None):
    """(kind, coeffs, lo, hi) of one valid CSV data row.

    ``d`` is the width every row must have, None for the first row.
    After the first row, a range row whose coeffs field is blank or
    exactly :func:`_range_text` of its bounds is read from its bounds,
    with coeffs None.  A row that is not a range has the empty range
    lo, hi = 0, -1.  Raises ValueError for the first fault, in the order
    columns, coefficients, width, bounds, query rules; a blank coeffs
    field is refused unless the row is such a range row.
    """
    if len(row) != 4:
        raise ValueError(f"expected 4 columns, got {len(row)}")
    kind, lo_text, hi_text, field = row
    kind, lo_text, hi_text, text = kind.strip(), lo_text.strip(), hi_text.strip(), field.strip()
    if kind == "range" and d is not None:
        try:
            lo, hi = _range_bounds(lo_text, hi_text, d)
        except ValueError:
            if not text:
                raise
        else:
            if not text or field == _range_text(d, lo, hi):
                return kind, None, lo, hi
    if not text:
        raise ValueError("empty coefficient list")
    try:
        coeffs = np.loadtxt([text], dtype=float, comments=None, ndmin=2)[0]
    except ValueError:
        raise ValueError("bad coefficient list") from None
    if d is not None and coeffs.size != d:
        raise ValueError(f"expected {d} coefficients, got {coeffs.size}")
    coeffs, lo, hi = _checked_query(coeffs, kind, *_bounds(lo_text, hi_text))
    return (kind, coeffs, lo, hi) if kind == "range" else (kind, coeffs, 0, -1)


def _bounds(lo_text: str, hi_text: str) -> tuple[int | None, int | None]:
    """The lo and hi fields of a row as integers, None where empty."""
    try:
        return (_csv_int(lo_text) if lo_text else None), (_csv_int(hi_text) if hi_text else None)
    except ValueError:
        raise ValueError(f"bad lo/hi {lo_text!r}, {hi_text!r}: expected integers") from None


def _range_bounds(lo_text: str, hi_text: str, d: int) -> tuple[int, int]:
    """The bounds of a range row over d bins; ValueError as :func:`_checked_query` words it."""
    lo, hi = _bounds(lo_text, hi_text)
    if lo is None or hi is None:
        raise ValueError("range queries need lo and hi")
    if not 0 <= lo <= hi < d:
        raise ValueError(f"invalid range [{lo}, {hi}] for d={d}")
    return lo, hi

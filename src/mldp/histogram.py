"""Histogram datasets and ingestion.

The private input everywhere in this package is a one-dimensional
histogram: an ordered vector of non-negative bin counts.  Two histograms
are neighbors when they differ by adding or removing a single record,
i.e. by +/-1 in exactly one bin.

Counts are stored as floats so that noisy and synthetic histograms can
carry fractional mass; CSV ingestion accepts non-negative integers only.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

__all__ = [
    "Histogram",
    "load_histogram_csv",
    "save_histogram_csv",
    "generate_simulated_histogram",
    "neighbor",
]

_HEADER = ("label", "count")

_CSV_INT = re.compile(r"[+-]?[0-9]+")


class Histogram:
    """Immutable vector of non-negative bin counts with optional labels."""

    __slots__ = ("_bins", "_labels", "_total")

    def __init__(self, bins, labels=None):
        arr = np.array(bins, dtype=float)
        if arr.ndim != 1:
            raise ValueError("bins must be a one-dimensional sequence")
        if arr.size < 1:
            raise ValueError("a histogram needs at least one bin")
        if not np.all(np.isfinite(arr)):
            raise ValueError("bin counts must be finite")
        if np.any(arr < 0):
            j = int(np.flatnonzero(arr < 0)[0])
            raise ValueError(f"bin {j} is negative ({arr[j]})")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != arr.size:
                raise ValueError(
                    f"{len(labels)} labels for {arr.size} bins"
                )
        arr.setflags(write=False)
        self._bins = arr
        self._labels = labels
        self._total = float(arr.sum())

    @property
    def bins(self) -> np.ndarray:
        """Read-only float array of bin counts."""
        return self._bins

    @property
    def labels(self):
        return self._labels

    @property
    def d(self) -> int:
        """Number of bins."""
        return self._bins.size

    @property
    def total(self) -> float:
        """Sum of all bin counts (the record count for integer data)."""
        return self._total

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            np.array_equal(self._bins, other._bins)
            and self._labels == other._labels
        )

    def __hash__(self):
        return hash((self._bins.tobytes(), self._labels))

    def __repr__(self):
        return f"Histogram(d={self.d}, total={self.total})"


def load_histogram_csv(path) -> Histogram:
    """Read a two-column ``label,count`` CSV into a Histogram.

    The first row must be the header ``label,count``.  Counts must be
    non-negative integers written in ASCII digits; a bad row is rejected
    with its data-row index (the first row after the header is row 1).
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = tuple(c.strip().lower() for c in rows[0])
    if header != _HEADER:
        raise ValueError(
            f"{path}: expected header 'label,count', got {','.join(rows[0])!r}"
        )
    labels: list[str] = []
    counts: list[int] = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 2:
            raise ValueError(f"{path}: row {i}: expected 2 columns, got {len(row)}")
        raw = row[1].strip()
        try:
            count = _csv_int(raw)
        except ValueError:
            raise ValueError(
                f"{path}: row {i}: count {raw!r} is not an integer"
            ) from None
        if count < 0:
            raise ValueError(f"{path}: row {i}: negative count {count}")
        labels.append(row[0])
        counts.append(count)
    if not counts:
        raise ValueError(f"{path}: no data rows")
    return Histogram(counts, labels)


def _integer(value, name: str) -> int:
    """A single Python or numpy integer as int; ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _csv_int(text: str) -> int:
    """An integer CSV field: ASCII digits with an optional sign.

    ``int`` alone would also take underscores and non-ASCII digits
    ("1_000", "\u0661"); raises ValueError for anything else.
    """
    if not _CSV_INT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def save_histogram_csv(hist: Histogram, path) -> None:
    """Write a Histogram back to ``label,count`` CSV.

    Integer-valued bins are written without a decimal point so that a
    file loaded with :func:`load_histogram_csv` round-trips verbatim.
    Missing labels are written as ``bin0..bin{d-1}``.
    """
    labels = hist.labels or tuple(f"bin{i}" for i in range(hist.d))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for label, count in zip(labels, hist.bins):
            text = str(int(count)) if float(count).is_integer() else repr(float(count))
            writer.writerow([label, text])


def generate_simulated_histogram(d: int, max_count: int, seed: int) -> Histogram:
    """Histogram with each bin drawn uniformly from {0, ..., max_count}.

    Deterministic given the seed: the same (d, max_count, seed) always
    produces identical bins.
    """
    if _integer(d, "d") < 1:
        raise ValueError("d must be at least 1")
    if _integer(max_count, "max_count") < 0:
        raise ValueError("max_count must be non-negative")
    rng = np.random.default_rng(seed)
    bins = rng.integers(0, max_count + 1, size=d).astype(float)
    return Histogram(bins)


def neighbor(hist: Histogram, bin_index: int, delta: int) -> Histogram:
    """The neighboring histogram with one record added or removed.

    ``delta`` must be +1 or -1; removing a record requires at least one
    unit of mass in the chosen bin.  Labels are preserved.
    """
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if not 0 <= bin_index < hist.d:
        raise IndexError(f"bin index {bin_index} out of range for d={hist.d}")
    if delta == -1 and hist.bins[bin_index] < 1:
        raise ValueError(
            f"bin {bin_index} holds {hist.bins[bin_index]}, cannot remove a record"
        )
    bins = hist.bins.copy()
    bins[bin_index] += delta
    return Histogram(bins, hist.labels)

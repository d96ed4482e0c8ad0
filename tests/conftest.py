"""Shared fixtures: the worked 4-bin histogram and its all-ranges workload."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from mldp import Histogram, all_range_queries
from mldp.workload import Workload

settings.register_profile("deterministic", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("deterministic")

TABLE_BINS = (12.0, 24.0, 6.0, 7.0)


@pytest.fixture
def hist4() -> Histogram:
    """The 4-bin worked example: counts 12, 24, 6, 7."""
    return Histogram(TABLE_BINS, labels=("b0", "b1", "b2", "b3"))


@pytest.fixture
def ranges4() -> Workload:
    """All 10 contiguous range queries over 4 bins."""
    return all_range_queries(4)


@pytest.fixture
def ranges4_answers() -> np.ndarray:
    """True answers of ranges4 on hist4, recomputed here by direct summation."""
    bins = TABLE_BINS
    out = []
    # Mirror the generator's order independently: longest ranges first,
    # ties by lower start index.
    spans = sorted(
        ((lo, hi) for lo in range(4) for hi in range(lo, 4)),
        key=lambda p: (-(p[1] - p[0]), p[0]),
    )
    for lo, hi in spans:
        out.append(float(sum(bins[lo : hi + 1])))
    return np.asarray(out)

"""Queries, workloads, sensitivity (closed form vs. brute force), generators, CSV."""

from __future__ import annotations

import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mldp.histogram
import mldp.workload
from mldp import (
    Histogram,
    MldpConfig,
    PrivacyBudget,
    all_range_queries,
    random_range_workload,
    save_workload_csv,
)
from mldp.histogram import generate_simulated_histogram, load_histogram_csv
from mldp.learning import select_training_set
from mldp.mechanisms import laplace_batch, mwem_publish, strategy_mechanism
from mldp.workload import (
    LinearQuery,
    Workload,
    all_subset_queries,
    brute_force_sensitivity,
    evaluate_workload,
    load_workload_csv,
    pool_queries,
    pool_size,
    range_query,
    range_workload,
    workload_sensitivity,
)


class TestLinearQuery:
    def test_range_query_coeffs(self):
        q = range_query(1, 2, 4)
        np.testing.assert_array_equal(q.coeffs, [0.0, 1.0, 1.0, 0.0])
        assert (q.kind, q.lo, q.hi, q.d) == ("range", 1, 2, 4)

    def test_full_range(self):
        q = range_query(0, 3, 4)
        np.testing.assert_array_equal(q.coeffs, [1.0, 1.0, 1.0, 1.0])

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            range_query(2, 1, 4)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            range_query(0, 4, 4)
        with pytest.raises(ValueError, match="out of bounds"):
            range_query(-1, 2, 4)

    def test_range_kind_requires_matching_indicator(self):
        with pytest.raises(ValueError, match="indicator"):
            LinearQuery([1.0, 0.0, 1.0], kind="range", lo=0, hi=2)

    def test_range_kind_requires_bounds(self):
        with pytest.raises(ValueError, match="lo and hi"):
            LinearQuery([1.0, 1.0], kind="range")

    def test_subset_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            LinearQuery([1.0, 2.0], kind="subset")

    def test_general_rejects_bounds(self):
        with pytest.raises(ValueError, match="only apply"):
            LinearQuery([1.0, 2.0], kind="general", lo=0, hi=1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LinearQuery([1.0, float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            LinearQuery([])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            LinearQuery([1.0], kind="mystery")

    def test_coeffs_read_only(self):
        q = LinearQuery([1.0, -2.0])
        with pytest.raises(ValueError):
            q.coeffs[0] = 3.0

    def test_equality(self):
        assert range_query(0, 1, 3) == range_query(0, 1, 3)
        assert range_query(0, 1, 3) != LinearQuery([1.0, 1.0, 0.0], kind="subset")


class TestWorkload:
    def test_matrix_stacks_rows(self, ranges4):
        assert ranges4.matrix.shape == (10, 4)
        np.testing.assert_array_equal(ranges4.matrix[0], [1, 1, 1, 1])
        assert ranges4.m == len(ranges4) == 10
        assert ranges4.d == 4

    def test_indexing_and_iteration(self, ranges4):
        assert ranges4[0] == range_query(0, 3, 4)
        assert list(ranges4)[:2] == [range_query(0, 3, 4), range_query(0, 2, 4)]

    def test_matrix_read_only(self, ranges4):
        with pytest.raises(ValueError):
            ranges4.matrix[0, 0] = 5.0

    def test_empty_workload(self):
        w = Workload(3, [])
        assert w.m == 0
        assert w.matrix.shape == (0, 3)
        assert workload_sensitivity(w) == 0.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="query 1 has d=3"):
            Workload(2, [LinearQuery([1.0, 0.0]), LinearQuery([1.0, 0.0, 1.0])])

    def test_rejects_non_query(self):
        with pytest.raises(TypeError, match="not a LinearQuery"):
            Workload(2, [[1.0, 0.0]])

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError, match="at least 1"):
            Workload(0, [])

    def test_rows_are_validated_query_views(self, ranges4):
        assert ranges4[-1] == range_query(3, 3, 4)
        assert (ranges4[-1].lo, ranges4[-1].hi) == (3, 3)
        subsets = all_subset_queries(2)
        assert [q.kind for q in subsets] == ["subset"] * 3
        assert subsets[2].lo is None

    def test_equality_compares_kinds_and_matrix(self):
        ranges = Workload(2, [range_query(0, 0, 2), range_query(0, 1, 2)])
        subsets = Workload(
            2, [LinearQuery([1.0, 0.0], kind="subset"), LinearQuery([1.0, 1.0], kind="subset")]
        )
        np.testing.assert_array_equal(ranges.matrix, subsets.matrix)
        assert ranges != subsets
        again = Workload(2, [range_query(0, 0, 2), range_query(0, 1, 2)])
        assert ranges == again
        assert hash(ranges) == hash(again)

    @pytest.mark.parametrize("kind", ["general", "subset"])
    def test_signed_zeros_are_equal_and_hash_equal(self, kind):
        negative, positive = LinearQuery([-0.0, 1.0], kind), LinearQuery([0.0, 1.0], kind)
        assert negative == positive
        assert hash(negative) == hash(positive)
        assert len({negative, positive}) == 1
        workloads = Workload(2, [negative]), Workload(2, [positive])
        assert workloads[0] == workloads[1]
        assert hash(workloads[0]) == hash(workloads[1])
        assert len(set(workloads)) == 1

    def test_range_workload_equals_query_by_query_construction(self):
        lo, hi = [0, 2, 1, 4], [4, 2, 3, 4]
        w = range_workload(5, lo, hi)
        expected = Workload(5, [range_query(a, b, 5) for a, b in zip(lo, hi)])
        assert w == expected
        assert hash(w) == hash(expected)
        assert [(q.lo, q.hi) for q in w] == list(zip(lo, hi))
        assert range_workload(5, [], []) == Workload(5, [])

    def test_range_workload_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match=r"inverted range \[3, 2\]"):
            range_workload(4, [0, 3], [1, 2])
        with pytest.raises(ValueError, match=r"range \[1, 4\] out of bounds for d=4"):
            range_workload(4, [0, 1], [1, 4])
        with pytest.raises(ValueError, match="2 lower bounds for 1 upper bounds"):
            range_workload(4, [0, 1], [1])
        with pytest.raises(ValueError, match="at least 1"):
            range_workload(0, [], [])


class TestEvaluate:
    def test_single_queries(self, hist4):
        for query, answer in [
            (range_query(0, 3, 4), 49.0),
            (range_query(0, 0, 4), 12.0),
            (LinearQuery([1.0, -1.0, 0.0, 0.0]), -12.0),
        ]:
            np.testing.assert_array_equal(evaluate_workload(Workload(4, [query]), hist4), [answer])

    def test_workload_answers(self, hist4, ranges4, ranges4_answers):
        np.testing.assert_array_equal(evaluate_workload(ranges4, hist4), ranges4_answers)

    def test_worked_answer_vector(self, hist4, ranges4):
        np.testing.assert_array_equal(
            evaluate_workload(ranges4, hist4),
            [49.0, 42.0, 37.0, 36.0, 30.0, 13.0, 12.0, 24.0, 6.0, 7.0],
        )

    def test_dimension_mismatch(self, hist4):
        with pytest.raises(ValueError, match="d=3"):
            evaluate_workload(Workload(3, [LinearQuery([1.0, 0.0, 0.0])]), hist4)
        with pytest.raises(ValueError, match="d=3"):
            evaluate_workload(all_range_queries(3), hist4)


class TestSensitivity:
    def test_all_ranges_d4_is_six(self, ranges4):
        assert workload_sensitivity(ranges4) == 6.0

    def test_singletons_have_sensitivity_one(self):
        w = Workload(4, [range_query(i, i, 4) for i in range(4)])
        assert workload_sensitivity(w) == 1.0

    def test_general_coefficients_abs_column_sum(self):
        w = Workload(2, [LinearQuery([2.0, -1.0]), LinearQuery([0.5, 3.0])])
        assert workload_sensitivity(w) == 4.0

    def test_general_rows_among_ranges_still_count_by_magnitude(self):
        w = Workload(2, [range_query(0, 1, 2), LinearQuery([-2.0, 0.0])])
        assert workload_sensitivity(w) == 3.0

    def test_brute_force_matches_on_worked_example(self, hist4, ranges4):
        assert brute_force_sensitivity(ranges4, hist4) == 6.0

    def test_brute_force_with_empty_bins(self, ranges4):
        # Removal neighbors are skipped for empty bins; additions still
        # realize the worst column.
        h = Histogram([0.0, 0.0, 0.0, 0.0])
        assert brute_force_sensitivity(ranges4, h) == 6.0

    def test_brute_force_dimension_mismatch(self, hist4):
        with pytest.raises(ValueError, match="d=3"):
            brute_force_sensitivity(all_range_queries(3), hist4)

    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    min_size=1,
                    max_size=12,
                ),
                st.lists(st.integers(0, 5), min_size=d, max_size=d),
            )
        )
    )
    def test_brute_force_equals_closed_form(self, rows_and_bins):
        rows, bins = rows_and_bins
        w = Workload(len(bins), [LinearQuery(r) for r in rows])
        h = Histogram(bins)
        assert brute_force_sensitivity(w, h) == workload_sensitivity(w)

    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    min_size=1,
                    max_size=8,
                ),
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    def test_sensitivity_subadditive_under_union(self, two_row_sets):
        rows_a, rows_b = two_row_sets
        d = len(rows_a[0])
        wa = Workload(d, [LinearQuery(r) for r in rows_a])
        wb = Workload(d, [LinearQuery(r) for r in rows_b])
        both = Workload(d, list(wa) + list(wb))
        assert workload_sensitivity(both) <= (
            workload_sensitivity(wa) + workload_sensitivity(wb)
        )

    @given(st.lists(st.booleans(), min_size=1, max_size=10).filter(any))
    def test_single_indicator_query_has_unit_sensitivity(self, mask):
        q = LinearQuery([1.0 if b else 0.0 for b in mask], kind="subset")
        assert workload_sensitivity(Workload(len(mask), [q])) == 1.0


class TestGenerators:
    def test_all_ranges_d4_order(self, ranges4):
        spans = [(q.lo, q.hi) for q in ranges4]
        assert spans == [
            (0, 3),
            (0, 2),
            (1, 3),
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
        ]

    def test_all_ranges_d1(self):
        w = all_range_queries(1)
        assert w.m == 1
        np.testing.assert_array_equal(w.matrix, [[1.0]])

    @pytest.mark.parametrize("d", range(2, 17))
    def test_all_ranges_count_and_sensitivity_formulas(self, d):
        w = all_range_queries(d)
        assert w.m == d * (d + 1) // 2
        expected = max(j * (d - j + 1) for j in range(1, d + 1))
        assert workload_sensitivity(w) == float(expected)

    def test_all_ranges_d10_worked_values(self):
        w = all_range_queries(10)
        assert w.m == 55
        assert workload_sensitivity(w) == 30.0

    @pytest.mark.parametrize("d", range(1, 41))
    def test_range_pool_map(self, d):
        pool = all_range_queries(d)
        spans = [(lo, lo + n - 1) for n in range(d, 0, -1) for lo in range(d - n + 1)]
        assert [(q.lo, q.hi) for q in pool] == spans
        for k in range(pool.m):
            assert pool_queries(d, [k], "ranges")[0] == pool[k]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_subset_pool_map(self, d):
        pool = all_subset_queries(d)
        masks = [[(mask >> i) & 1 for i in range(d)] for mask in range(1, 1 << d)]
        np.testing.assert_array_equal(pool.matrix, masks)
        for k in range(pool.m):
            assert pool_queries(d, [k], "subsets")[0] == pool[k]

    def test_range_pool_groups_are_exact_up_to_two_to_the_59(self):
        """The vectorized length groups equal isqrt's at every group edge tried.

        The edges j(j + 1)/2 and one either side, and the positions
        where 8k + 1 is a perfect square or one either side, are where
        a float square root would round across an integer.
        """
        rng = np.random.default_rng(5)
        j = np.concatenate((np.arange(1, 2000), rng.integers(1, 2**30, 20_000)))
        edges = j * (j + 1) // 2
        r = rng.integers(1, 2**31, 20_000)
        squares = (r * r - 1) // 8
        k = np.concatenate((edges - 1, edges, edges + 1, squares - 1, squares, squares + 1))
        k = np.concatenate((k, rng.integers(0, 2**59, 20_000), [0, 2**59 - 1]))
        k = k[(k >= 0) & (k < 2**59)]
        d = 10**9
        lo, hi = mldp.workload._range_pool_bounds(d, k)
        group = np.array([(math.isqrt(8 * x + 1) - 1) // 2 for x in k.tolist()])
        want_lo = k - group * (group + 1) // 2
        np.testing.assert_array_equal(lo, want_lo)
        np.testing.assert_array_equal(hi, want_lo + d - group - 1)

    def test_pool_map_rejects_bad_positions_and_pools(self):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            pool_queries(2, [3], "ranges")
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            pool_queries(2, [-1], "subsets")
        with pytest.raises(ValueError, match="unknown pool"):
            pool_queries(2, [0], "wavelets")
        with pytest.raises(ValueError, match="limit"):
            pool_queries(21, [0], "subsets")

    def test_all_subsets_d2_order(self):
        w = all_subset_queries(2)
        np.testing.assert_array_equal(w.matrix, [[1, 0], [0, 1], [1, 1]])

    def test_all_subsets_d10_worked_values(self):
        w = all_subset_queries(10)
        assert w.m == 1023
        assert workload_sensitivity(w) == 512.0

    def test_all_subsets_sensitivity_is_half_the_masks(self):
        # Each bin appears in exactly 2^(d-1) of the 2^d - 1 masks.
        assert workload_sensitivity(all_subset_queries(4)) == 8.0

    def test_all_subsets_guard(self):
        with pytest.raises(ValueError, match="limit"):
            all_subset_queries(21)

    def test_generators_reject_bad_d(self):
        with pytest.raises(ValueError):
            all_range_queries(0)
        with pytest.raises(ValueError):
            all_subset_queries(0)

    def test_random_ranges_are_valid(self):
        w = random_range_workload(30, 200, seed=5)
        assert w.m == 200
        for q in w:
            assert q.kind == "range"
            assert 0 <= q.lo <= q.hi < 30
            indicator = np.zeros(30)
            indicator[q.lo : q.hi + 1] = 1.0
            np.testing.assert_array_equal(q.coeffs, indicator)

    def test_random_ranges_deterministic(self):
        assert random_range_workload(10, 50, seed=3) == random_range_workload(10, 50, seed=3)
        assert random_range_workload(10, 50, seed=3) != random_range_workload(10, 50, seed=4)

    def test_random_ranges_d1(self):
        w = random_range_workload(1, 5, seed=0)
        np.testing.assert_array_equal(w.matrix, np.ones((5, 1)))

    def test_random_ranges_reject_bad_m(self):
        with pytest.raises(ValueError, match="m must be"):
            random_range_workload(4, 0, seed=0)


class TestWorkloadCsv:
    def test_round_trip_mixed_kinds(self, tmp_path):
        w = Workload(
            3,
            [
                range_query(0, 1, 3),
                LinearQuery([1.0, 0.0, 1.0], kind="subset"),
                LinearQuery([0.25, -1.5, 3.0]),
            ],
        )
        p = tmp_path / "w.csv"
        save_workload_csv(w, p)
        again = load_workload_csv(p)
        assert again == w
        np.testing.assert_array_equal(again.matrix, w.matrix)
        assert again[0].lo == 0 and again[0].hi == 1

    def test_round_trip_exact_floats(self, tmp_path):
        vals = [0.1, 1 / 3, 2**-40]
        w = Workload(3, [LinearQuery(vals)])
        p = tmp_path / "w.csv"
        save_workload_csv(w, p)
        np.testing.assert_array_equal(load_workload_csv(p).matrix[0], vals)

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("kind,coeffs\ngeneral,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_workload_csv(p)

    def test_rejects_inconsistent_d(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("kind,lo,hi,coeffs\ngeneral,,,1.0 2.0\ngeneral,,,1.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_workload_csv(p)

    def test_rejects_bad_coefficient(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("kind,lo,hi,coeffs\ngeneral,,,1.0 spam\n")
        with pytest.raises(ValueError, match="bad coefficient"):
            load_workload_csv(p)

    def test_rejects_empty_and_header_only(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_workload_csv(p)
        p.write_text("kind,lo,hi,coeffs\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_workload_csv(p)

    def test_row_errors_carry_row_index(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("kind,lo,hi,coeffs\nrange,1,0,1.0 1.0\n")
        with pytest.raises(ValueError, match="row 1"):
            load_workload_csv(p)

    def test_range_rows_are_stored_as_their_indicator(self, tmp_path):
        q = LinearQuery([-0.0, 1.0], kind="range", lo=1, hi=1)
        assert not np.signbit(q.coeffs).any()
        p = tmp_path / "w.csv"
        p.write_text("kind,lo,hi,coeffs\nrange,1,1,-0.0 1\ngeneral,,,-0.0 1\n")
        matrix = load_workload_csv(p).matrix
        assert np.signbit(matrix).tolist() == [[False, False], [True, False]]


# name: (the field the error names, a call with a non-integer, the same call with integers)
_NON_INTEGRAL_CALLS = {
    "range_workload": (
        "lo",
        lambda: range_workload(8, [0.5], [2.9]),
        lambda: range_workload(np.int64(8), np.array([0], dtype=np.int32), [np.int64(2)]),
    ),
    "LinearQuery": (
        "lo",
        lambda: LinearQuery([0, 1, 1, 0], "range", lo=1.5, hi=2.2),
        lambda: LinearQuery([0, 1, 1, 0], "range", lo=np.int32(1), hi=2),
    ),
    "range_query": (
        "lo",
        lambda: range_query(1.7, 3.2, 8),
        lambda: range_query(np.uint8(1), np.int64(3), 8),
    ),
    "pool_queries": (
        "pool positions",
        lambda: pool_queries(4, [1.9], "ranges"),
        lambda: pool_queries(4, np.array([1], dtype=np.uint16), "ranges"),
    ),
    "select_training_set": (
        "m",
        lambda: select_training_set(8, "random_m", m=2.7, seed=0),
        lambda: select_training_set(8, "random_m", m=np.int64(2), seed=0),
    ),
    "select_training_set-d": (
        "d",
        lambda: select_training_set(4.5, "singleton"),
        lambda: select_training_set(np.int64(4), "singleton"),
    ),
    "Workload-d": (
        "d",
        lambda: Workload(3.5, []),
        lambda: Workload(np.int32(3), []),
    ),
    "range_workload-d": (
        "d",
        lambda: range_workload(8.9, [0], [1]),
        lambda: range_workload(np.uint8(8), [0], [1]),
    ),
    "random_range_workload-d": (
        "d",
        lambda: random_range_workload(8.0, 2, seed=0),
        lambda: random_range_workload(np.int64(8), 2, seed=0),
    ),
    "random_range_workload-m": (
        "m",
        lambda: random_range_workload(8, 2.5, seed=0),
        lambda: random_range_workload(8, np.int16(2), seed=0),
    ),
    "generate_simulated_histogram-d": (
        "d",
        lambda: generate_simulated_histogram(2.5, 10, 0),
        lambda: generate_simulated_histogram(np.int64(2), 10, 0),
    ),
    "generate_simulated_histogram-max_count": (
        "max_count",
        lambda: generate_simulated_histogram(4, 10.5, 0),
        lambda: generate_simulated_histogram(4, np.uint8(10), 0),
    ),
    "pool_size-float": (
        "d",
        lambda: pool_size(2.5, "ranges"),
        lambda: pool_size(np.int64(3), "ranges"),
    ),
    "pool_size-bool": ("d", lambda: pool_size(True, "subsets"), lambda: pool_size(1, "subsets")),
    "all_subset_queries-d": ("d", lambda: all_subset_queries(4.0), lambda: all_subset_queries(4)),
    "all_range_queries-d": ("d", lambda: all_range_queries(3.0), lambda: all_range_queries(3)),
    "mwem_publish-rounds": (
        "rounds",
        lambda: mwem_publish(range_workload(2, [0], [1]), Histogram([1, 2]), 1.0, 2.5, seed=0),
        lambda: mwem_publish(range_workload(2, [0], [1]), Histogram([1, 2]), 1.0, np.int64(2), 0),
    ),
    "mwem_publish-mw_iters": (
        "mw_iters",
        lambda: mwem_publish(range_workload(2, [0], [1]), Histogram([1, 2]), 1.0, 2, 0, mw_iters=2.5),
        lambda: mwem_publish(
            range_workload(2, [0], [1]), Histogram([1, 2]), 1.0, 2, 0, mw_iters=np.int16(2)
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_NON_INTEGRAL_CALLS))
def test_non_integral_bounds_are_rejected(name):
    field, bad, good = _NON_INTEGRAL_CALLS[name]
    with pytest.raises(ValueError, match=f"^{field} must be (an integer|integers)"):
        bad()
    assert good() is not None  # Python and numpy integers still pass


def _seeded_calls(seed, budget: PrivacyBudget) -> dict:
    """Every entry point that seeds a generator, called with ``seed``."""
    hist, ranges = Histogram([1, 2]), range_workload(2, [0], [1])
    return {
        "MldpConfig": lambda: MldpConfig(seed=seed),
        "generate_simulated_histogram": lambda: generate_simulated_histogram(4, 10, seed),
        "random_range_workload": lambda: random_range_workload(8, 2, seed),
        "select_training_set": lambda: select_training_set(8, "random_m", m=2, seed=seed),
        "laplace_batch": lambda: laplace_batch(ranges, hist, budget, 1.0, seed),
        "mwem_publish": lambda: mwem_publish(ranges, hist, 1.0, 2, seed, budget=budget),
        "strategy_mechanism": lambda: strategy_mechanism(
            ranges, "identity", hist, 1.0, seed, budget=budget
        ),
    }


@pytest.mark.parametrize("seed", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(_seeded_calls(0, None)))
def test_non_integer_seeds_are_refused(entry, seed):
    """A seed that is not an integer is refused before any charge, never coerced."""
    budget = PrivacyBudget(1.0)
    with pytest.raises(ValueError, match="seed"):
        _seeded_calls(seed, budget)[entry]()
    assert budget.ledger == ()
    _seeded_calls(3, budget)[entry]()  # an integer seed passes


GOLDEN_CSV_ERRORS = json.loads(
    (Path(__file__).parent / "data" / "golden_workload_csv_errors.json").read_text()
)


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_ERRORS))
def test_csv_errors_match_golden(tmp_path, name):
    case = GOLDEN_CSV_ERRORS[name]
    p = tmp_path / "w.csv"
    p.write_bytes(case["csv"].encode("utf-8"))
    with pytest.raises(ValueError) as info:
        load_workload_csv(p)
    assert str(info.value) == f"{p}: {case['message']}"


def _mixed_workload(d: int, m: int, seed: int) -> Workload:
    """m random range, subset and general queries over d bins."""
    rng = np.random.default_rng(seed)
    queries = []
    for kind in rng.choice(["range", "subset", "general"], size=m):
        if kind == "range":
            lo, hi = sorted(rng.integers(0, d, size=2).tolist())
            queries.append(range_query(lo, hi, d))
        elif kind == "subset":
            queries.append(LinearQuery(rng.integers(0, 2, size=d), kind="subset"))
        else:
            coeffs = rng.normal(size=d) * 10.0 ** rng.integers(-300, 300, size=d)
            coeffs[rng.random(d) < 0.2] = rng.choice([0.0, -0.0, 1.0, 5e-324, 2**-40])
            queries.append(LinearQuery(coeffs))
    return Workload(d, queries)


@pytest.mark.parametrize("quoted", [False, True])
def test_csv_round_trip_past_the_csv_field_limit(tmp_path, quoted):
    """A range row over 40000 bins is 159999 characters, past csv's default 131072.

    With every field quoted, the csv module reads the long fields.
    """
    w = range_workload(40000, [0, 5], [3, 39999])
    p = tmp_path / "w.csv"
    save_workload_csv(w, p)
    if quoted:
        rows = [line.split(",") for line in p.read_text().splitlines()]
        with open(p, "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    limit = csv.field_size_limit()
    again = load_workload_csv(p)
    assert csv.field_size_limit() == limit
    assert again == w
    assert (again._lo, again._hi) == ((0, 5), (3, 39999))


_CSV_LOADERS = {"workload": load_workload_csv, "histogram": load_histogram_csv}


@pytest.mark.parametrize(
    "loader, text",
    [
        ("workload", "kind,lo,hi,coeffs\nrange,0,0,1.0\x00\n"),
        ("histogram", "label,count\nb0,1\x002\n"),
        ("histogram", "label,count\nb\x000,12\n"),
        ("workload", "kind,lo,hi,coeffs\nrange,0,0,1.0\nrange,0,0,\x001.0\n"),
    ],
)
def test_a_nul_byte_is_a_value_error_naming_the_path(tmp_path, loader, text):
    """Refused with Python 3.10's csv message on every version, label fields included."""
    p = tmp_path / "nul.csv"
    p.write_text(text)
    line = text[: text.index("\0")].count("\n") + 1
    with pytest.raises(ValueError) as info:
        _CSV_LOADERS[loader](p)
    assert str(info.value) == f"{p}: line {line}: line contains NUL"


# loader: its header, a valid data row, and the same row with its first field quoted
_CSV_HEADER_AND_ROW = {
    "workload": ("kind,lo,hi,coeffs", "range,0,0,1.0", '"range",0,0,1.0'),
    "histogram": ("label,count", "b0,1", '"b0",1'),
}


@pytest.mark.parametrize("loader", sorted(_CSV_LOADERS))
@pytest.mark.parametrize("plain, line", [(0, 2), (1, 4)])
def test_a_csv_error_is_a_value_error_naming_the_path(tmp_path, loader, plain, line, monkeypatch):
    """The csv module reads every line; its error names the line it stopped at.

    The refusing reader takes every line and fails after the last: line
    2 of the file with plain = 0, line 4 with plain = 1.
    """

    class Refusing:
        def __init__(self, lines):
            self.lines = lines
            self.line_num = 0

        def __iter__(self):
            for _ in self.lines:
                self.line_num += 1
            raise csv.Error("line contains NUL")

    header, row, quoted = _CSV_HEADER_AND_ROW[loader]
    p = tmp_path / "w.csv"
    p.write_text("\n".join([header, *[row] * plain, quoted, *[row] * plain]) + "\n")
    limit = csv.field_size_limit()
    monkeypatch.setattr(csv, "reader", Refusing)
    with pytest.raises(ValueError) as info:
        _CSV_LOADERS[loader](p)
    assert str(info.value) == f"{p}: line {line}: line contains NUL"
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("loader", sorted(_CSV_LOADERS))
def test_a_bad_row_the_csv_module_read_restores_the_field_limit(tmp_path, loader):
    header, row, quoted = _CSV_HEADER_AND_ROW[loader]
    p = tmp_path / "w.csv"
    # Past the default limit of 131072, so that reading raises it.
    p.write_text(f"{header}\n{quoted}\nx\n" + f"{row}\n" * 40000)
    limit = csv.field_size_limit()
    assert p.stat().st_size > limit
    with pytest.raises(ValueError) as info:
        _CSV_LOADERS[loader](p)
    # Restored while the error, and so the loader's frame, is still held.
    assert csv.field_size_limit() == limit
    assert "row 2: expected" in str(info.value)


@pytest.mark.parametrize("d, m", [(1, 1), (1, 6), (5, 1), (16, 40), (64, 300)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csv_round_trip_keeps_every_field(tmp_path, d, m, seed):
    w = _mixed_workload(d, m, seed)
    p = tmp_path / "w.csv"
    save_workload_csv(w, p)
    again = load_workload_csv(p)
    assert again == w
    assert again.matrix.dtype == np.float64 and again.matrix.shape == (m, d)
    np.testing.assert_array_equal(again.matrix.view(np.int64), w.matrix.view(np.int64))
    assert (again._kinds, again._lo, again._hi) == (w._kinds, w._lo, w._hi)
    for kind, lo, hi in zip(again._kinds, again._lo, again._hi):
        if kind == "range":
            assert type(lo) is int and type(hi) is int
        else:
            assert lo is None and hi is None


def test_loading_a_valid_file_builds_no_linear_query(tmp_path, monkeypatch):
    w = _mixed_workload(32, 1000, seed=4)
    p = tmp_path / "w.csv"
    save_workload_csv(w, p)
    calls = []
    original = LinearQuery.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LinearQuery, "__init__", counting_init)
    loaded = load_workload_csv(p)
    assert loaded == w
    assert calls == []
    # The count does see a query being built.
    loaded[0]
    assert len(calls) == 1


def _repr_writer(workload: Workload, path, spell_ranges: bool = False) -> None:
    """The per-coefficient writer save_workload_csv replaced.

    A range row after the first holds its bounds alone; with
    spell_ranges it holds every coefficient, as range rows were
    written before.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "lo", "hi", "coeffs"])
        rows = zip(workload._kinds, workload._lo, workload._hi, workload.matrix.tolist())
        for i, (kind, lo, hi, coeffs) in enumerate(rows):
            bounds_only = kind == "range" and i > 0 and not spell_ranges
            writer.writerow([kind, lo, hi, "" if bounds_only else " ".join(map(repr, coeffs))])


def _edge_ranges(d: int) -> Workload:
    """Ranges at both ends of d bins and the full range, between a subset and a general row."""
    lo, hi = [0, 0, d - 1, 0], [0, d - 1, d - 1, d // 2]
    ranges = list(range_workload(d, lo, hi))
    subset = LinearQuery(np.arange(d) % 2, kind="subset")
    general = LinearQuery(np.linspace(-1.5, 2.0, d))
    return Workload(d, ranges[:2] + [subset] + ranges[2:] + [general])


_WRITTEN_WORKLOADS = (
    [_edge_ranges(d) for d in (1, 2, 3, 8)]
    + [_mixed_workload(d, m, seed) for d, m in ((1, 6), (5, 30), (64, 200)) for seed in (0, 1)]
    + [random_range_workload(256, 500, seed=3), range_workload(1, [0], [0])]
)


def _workload_id(w: Workload) -> str:
    return f"d={w.d},m={w.m},{'+'.join(sorted(set(w._kinds)))}"


@pytest.mark.parametrize("workload", _WRITTEN_WORKLOADS, ids=_workload_id)
def test_writer_bytes_match_the_per_coefficient_writer(tmp_path, workload):
    save_workload_csv(workload, tmp_path / "new.csv")
    _repr_writer(workload, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_a_workload_with_no_queries_is_refused_before_the_file_is_written(tmp_path):
    p = tmp_path / "w.csv"
    with pytest.raises(ValueError, match="no queries"):
        save_workload_csv(Workload(3, []), p)
    assert not p.exists()


@pytest.mark.parametrize("workload", _WRITTEN_WORKLOADS, ids=_workload_id)
def test_both_spellings_of_range_rows_load_the_same_workload(tmp_path, workload):
    """A file written before range rows dropped their coefficients loads as it did."""
    loaded = []
    for spell_ranges in (False, True):
        p = tmp_path / f"w{spell_ranges:d}.csv"
        _repr_writer(workload, p, spell_ranges)
        loaded.append(load_workload_csv(p))
    for w in loaded:
        assert w == workload
        np.testing.assert_array_equal(w.matrix.view(np.int64), workload.matrix.view(np.int64))
        assert (w._kinds, w._lo, w._hi) == (workload._kinds, workload._lo, workload._hi)


@pytest.mark.parametrize(
    "row",
    ["range,+3,5,", "range,3,+5,", "range, 03 ,5 ,", "range,3,5,   ", '"range","3","5",""'],
)
@pytest.mark.parametrize("spelled", ["range,3,5,{}", "range,+3,5,{}", "range,3,5, {} "])
def test_a_bounds_only_row_loads_as_the_row_spelling_its_coefficients(tmp_path, row, spelled):
    first = "general,,," + " ".join(["0.5"] * 8)
    files = {
        "bounds": f"kind,lo,hi,coeffs\r\n{first}\r\n{row}\r\n",
        "spelled": f"kind,lo,hi,coeffs\r\n{first}\r\n{spelled.format(_template(8, 3, 5))}\r\n",
    }
    loaded = {}
    for name, text in files.items():
        (tmp_path / name).write_text(text, newline="")
        loaded[name] = load_workload_csv(tmp_path / name)
    assert loaded["bounds"] == loaded["spelled"]
    for w in loaded.values():
        assert (w._kinds, w._lo, w._hi) == (("general", "range"), (None, 3), (None, 5))
        np.testing.assert_array_equal(w.matrix[1], [0, 0, 0, 1, 1, 1, 0, 0])


def test_written_range_rows_are_read_without_parsing_coefficients(tmp_path, monkeypatch):
    """Only the first row and subset and general rows reach the parser, in either
    spelling of the range rows after the first."""
    w = Workload(16, [range_query(2, 9, 16), *_mixed_workload(16, 200, seed=5)])
    p = tmp_path / "w.csv"
    parsed = []
    original = np.loadtxt

    def recording_loadtxt(texts, *args, **kwargs):
        parsed.extend(texts)
        return original(texts, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    writers = [save_workload_csv, lambda w, p: _repr_writer(w, p, spell_ranges=True)]
    for write in writers:
        write(w, p)
        parsed.clear()
        assert load_workload_csv(p) == w
        assert len(parsed) == 1 + w._kinds.count("subset") + w._kinds.count("general")
        assert parsed[0] == _template(16, 2, 9)
    ranges = range_workload(16, [0, 3, 15], [15, 9, 15])
    for write in writers:
        write(ranges, p)
        parsed.clear()
        assert load_workload_csv(p) == ranges
        assert parsed == [_template(16, 0, 15)]
    # The same ranges spelled another way do take the parser.
    p.write_text("kind,lo,hi,coeffs\nrange,1,2,0 1 1 0\nrange,0,1,1 1 0 0\n")
    parsed.clear()
    assert load_workload_csv(p) == range_workload(4, [1, 0], [2, 1])
    assert parsed == ["0 1 1 0", "1 1 0 0"]


def _row_by_row_load(path) -> Workload:
    """The row-by-row reader the array reader replaced, with bad bounds reported at their row.

    A range row after the first with a blank coeffs field gets the
    indicator of its bounds, which LinearQuery then checks.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r][1:]
    queries = []
    d = None
    for i, row in enumerate(rows, start=1):
        if len(row) != 4:
            raise ValueError(f"{path}: row {i}: expected 4 columns, got {len(row)}")
        kind, lo_raw, hi_raw, coeff_raw = (c.strip() for c in row)
        bounds_only = kind == "range" and d is not None and not coeff_raw
        try:
            coeffs = [float(c) for c in coeff_raw.split()]
        except ValueError:
            raise ValueError(f"{path}: row {i}: bad coefficient list") from None
        if not coeffs and not bounds_only:
            raise ValueError(f"{path}: row {i}: empty coefficient list")
        if d is None:
            d = len(coeffs)
        elif len(coeffs) != d and not bounds_only:
            raise ValueError(f"{path}: row {i}: expected {d} coefficients, got {len(coeffs)}")
        try:
            lo = int(lo_raw) if lo_raw else None
            hi = int(hi_raw) if hi_raw else None
        except ValueError:
            raise ValueError(
                f"{path}: row {i}: bad lo/hi {lo_raw!r}, {hi_raw!r}: expected integers"
            ) from None
        if bounds_only:
            coeffs = [float(None not in (lo, hi) and lo <= j <= hi) for j in range(d)]
        try:
            queries.append(LinearQuery(coeffs, kind=kind, lo=lo, hi=hi))
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return Workload(d, queries)


def _template(d: int, lo: int, hi: int) -> str:
    """The coeffs text save_workload_csv writes for the range [lo, hi] over d bins."""
    return " ".join("1.0" if lo <= j <= hi else "0.0" for j in range(d))


@st.composite
def _csv_rows(draw):
    """Data rows over one d: mostly valid queries, some with a random fault.

    Range rows come by their bounds alone, in the writer's old spelling
    and in others ("1"/"0", "1.00", padding); old-spelled text also shows
    up with the wrong bounds, at the wrong width and on subset and general
    rows, and a blank coeffs field with bad bounds and on other kinds.
    """
    d = draw(st.integers(1, 6))
    tokens = st.sampled_from(["0", "1", "1.0", "0.0", "0.5", "-2", "1e0", "nan", "-inf", "x"])
    bounds = st.sampled_from(["", "0", "1", "2", "-1", "3", "99999999999999999999", "x", "1.5"])

    def valid_row():
        kind = draw(st.sampled_from(["range", "subset", "general"]))
        if kind == "range":
            lo = draw(st.integers(0, d - 1))
            hi = draw(st.integers(lo, d - 1))
            one, zero = draw(st.sampled_from([("1.0", "0.0"), ("1", "0"), ("1.00", "0.0")]))
            coeffs = " ".join(one if lo <= j <= hi else zero for j in range(d))
            return [kind, str(lo), str(hi), draw(st.sampled_from(["", " "])) + coeffs]
        if kind == "subset":
            values = st.sampled_from(["0", "1"])
        else:
            values = st.sampled_from(["-2", "0.5", "1e0"])
        return [kind, "", "", " ".join(draw(st.lists(values, min_size=d, max_size=d)))]

    def template_row():
        width = draw(st.sampled_from([d, d, d + 1, max(d - 1, 1)]))
        lo = draw(st.integers(0, width - 1))
        hi = draw(st.integers(lo, width - 1))
        kind = draw(st.sampled_from(["range", "range", "subset", "general"]))
        lo_text = draw(st.sampled_from([str(lo), str(lo), str(lo + 1), "", "x"]))
        hi_text = draw(st.sampled_from([str(hi), str(hi), str(hi - 1), str(width), ""]))
        return [kind, lo_text, hi_text, _template(width, lo, hi)]

    def bounds_row():
        lo = draw(st.integers(0, d - 1))
        hi = draw(st.integers(lo, d - 1))
        kind = draw(st.sampled_from(["range", "range", "range", " range", "subset", "general"]))
        lo_text = draw(st.sampled_from([str(lo), str(lo), f"+{lo}", "", "x", str(hi + 1)]))
        hi_text = draw(st.sampled_from([str(hi), str(hi), f" {hi} ", "", str(d), "-1"]))
        return [kind, lo_text, hi_text, draw(st.sampled_from(["", "", " "]))]

    def random_row():
        row = [
            draw(st.sampled_from(["range", "subset", "general", "cubic"])),
            draw(bounds),
            draw(bounds),
            " ".join(draw(st.lists(tokens, min_size=0, max_size=4))),
        ]
        return (row + ["extra"])[: draw(st.sampled_from([3, 4, 4, 4, 5]))]

    makers = [valid_row, valid_row, template_row, bounds_row, bounds_row, random_row]
    n = draw(st.integers(1, 6))
    return [draw(st.sampled_from(makers))() for _ in range(n)]


@settings(max_examples=500)
@given(_csv_rows())
def test_array_reader_matches_the_row_by_row_reader(tmp_path_factory, rows):
    p = tmp_path_factory.mktemp("csv") / "w.csv"
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "lo", "hi", "coeffs"])
        writer.writerows(rows)

    def outcome(load):
        try:
            w = load(p)
        except ValueError as exc:
            return str(exc)
        return w.matrix.tolist(), w._kinds, w._lo, w._hi

    assert outcome(load_workload_csv) == outcome(_row_by_row_load)


def _case_rows(d: int = 12, m: int = 40, bounds_only: bool = False) -> list[str]:
    """m old-spelled range rows over d bins, each about 4d + 10 bytes long.

    With bounds_only, every row after the first holds its bounds alone.
    """
    w = random_range_workload(d, m, seed=6)
    rows = [f"range,{lo},{hi},{_template(d, lo, hi)}" for lo, hi in zip(w._lo, w._hi)]
    if bounds_only:
        rows[1:] = [f"range,{lo},{hi}," for lo, hi in zip(w._lo[1:], w._hi[1:])]
    return rows


def _case_file(rows, end: str = "\r\n", last_end: str | None = None) -> bytes:
    lines = ["kind,lo,hi,coeffs", *rows]
    return (end.join(lines) + (end if last_end is None else last_end)).encode("utf-8")


def _reader_cases() -> dict:
    """name: the bytes of a workload file with an edge case in it."""
    rows = _case_rows()

    def late(row):
        """The rows with one more after the first 30."""
        return _case_file(rows[:30] + [row] + rows[30:])

    def t(lo, hi, d=12):
        return _template(d, lo, hi)

    def with_blanks(k, end):
        """The rows with a blank line after every k-th."""
        return [row + end * (i % k == 0) for i, row in enumerate(rows)]

    general = "general,,," + " ".join(["0.5", "-0.0", "2e-3"] * 4)
    mixed = [
        general,
        *rows[:10],
        "range,3,7," + " ".join("1" if 3 <= j <= 7 else "0" for j in range(12)),
        "subset,,," + " ".join(["1", "0"] * 6),
        f"subset,,,{t(3, 7)}",
        f"general,,,{t(3, 7)}",
        f"range,+3,7,{t(3, 7)}",
        f"range, 3 ,7,{t(3, 7)}",
        f"range,03,7,{t(3, 7)}",
        f"range,3,7, {t(3, 7)}",
        "range,+3,7,",
        "range, 3 ,07, ",
        *rows[10:],
    ]
    return {
        "crlf": _case_file(rows),
        "lf": _case_file(rows, "\n"),
        "bare-cr": _case_file(rows, "\r"),
        "unterminated-last-line": _case_file(rows, "\r\n", ""),
        "last-line-ends-in-cr": _case_file(rows, "\r\n", "\r"),
        "blank-lines": _case_file(with_blanks(3, "\r\n")),
        "blank-lf-lines": _case_file(with_blanks(4, "\n"), "\n"),
        "lines-longer-than-a-block": _case_file(_case_rows(d=100, m=6)),
        "late-quote": late(f'"range",3,7,{t(3, 7)}'),
        "late-non-ascii": late(f"range,\xa03,7,{t(3, 7)}"),
        "mixed-kinds-and-spellings": _case_file(mixed),
        "first-row-general": _case_file([general, *rows]),
        "wrong-bounds": late(f"range,4,7,{t(3, 7)}"),
        "wrong-width": late(f"range,3,7,{t(3, 7, d=13)}"),
        "first-row-wider": _case_file([f"range,3,7,{t(3, 7, d=13)}", *rows]),
        # Each of these is near the old spelling of a range but not it, so it takes the parser.
        "empty-lo": late(f"range,,11,{t(0, 11)}"),
        "empty-hi": late(f"range,00,,{t(0, 0)}"),
        "inverted-bounds": late(f"range,7,3,{t(4, 6)}"),
        "bounds-past-d": late(f"range,3,12,{t(0, 2)}"),
        "extra-comma": late(f"range,3,,7,{t(3, 7)}"),
        "no-comma-before-coefficients": late(f"range,3,77{t(3, 7)}"),
        "non-digit-bound": late(f"range,:,11,{t(10, 11)}"),
        "capitalised-kind": late(f"Range,3,7,{t(3, 7)}"),
        "bounds-only": _case_file(_case_rows(bounds_only=True)),
        "bounds-only-bare-cr": _case_file(_case_rows(bounds_only=True), "\r"),
        "bounds-only-quoted": _case_file(
            [f'"{r}"'.replace(",", '","') for r in _case_rows(bounds_only=True)]
        ),
    }


_READER_CASES = _reader_cases()


@pytest.mark.parametrize("name", sorted(_READER_CASES))
def test_reader_matches_the_row_by_row_reader(tmp_path, name):
    p = tmp_path / "w.csv"
    p.write_bytes(_READER_CASES[name])

    def outcome(load):
        try:
            w = load(p)
        except ValueError as exc:
            return str(exc)
        return w.matrix.tobytes(), w._kinds, w._lo, w._hi

    assert outcome(load_workload_csv) == outcome(_row_by_row_load)


def test_an_earlier_bad_row_wins_over_a_nul_after_it(tmp_path):
    """Reported as the row-by-row reader reports the file cut before the NUL."""
    rows = _case_rows()
    p, before_nul = tmp_path / "w.csv", tmp_path / "before.csv"
    p.write_bytes(_case_file(rows[:30] + ["range,9,2,1.0", "x\0"] + rows[30:]))
    before_nul.write_bytes(_case_file(rows[:30] + ["range,9,2,1.0"]))
    with pytest.raises(ValueError) as info:
        load_workload_csv(p)
    with pytest.raises(ValueError) as expected:
        _row_by_row_load(before_nul)
    assert str(info.value) == str(expected.value).replace(str(before_nul), str(p))
    assert str(info.value) == f"{p}: row 31: expected 12 coefficients, got 1"
    # With no bad row before it, the NUL is reported by its line.
    p.write_bytes(_case_file(rows[:30] + ["x\0"] + rows[30:]))
    with pytest.raises(ValueError) as info:
        load_workload_csv(p)
    assert str(info.value) == f"{p}: line 32: line contains NUL"


def test_loading_an_old_file_holds_a_row_at_a_time_then_the_matrix_and_its_indicator(tmp_path):
    """Reading a 10 000-range file over 256 bins, every coefficient spelled,
    holds a few MiB, never the whole file; the peak of the load is the float
    matrix, the boolean indicator it is built from, and at most 2 MiB more."""
    w = random_range_workload(256, 10_000, seed=3)
    p = tmp_path / "w.csv"
    _repr_writer(w, p, spell_ranges=True)
    peaks = {}
    for name, read in [("rows", mldp.workload._text_rows), ("load", load_workload_csv)]:
        tracemalloc.start()
        try:
            result = read(p)
            _, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result == w
    assert peaks["rows"] <= 6 * 2**20 < p.stat().st_size
    assert peaks["load"] <= w.matrix.nbytes + w.matrix.size + 2 * 2**20

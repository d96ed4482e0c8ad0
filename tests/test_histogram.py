"""Histogram container, CSV round-trips, simulation, and neighbor edits."""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mldp import Histogram
from mldp.histogram import (
    _csv_rows,
    generate_simulated_histogram,
    load_histogram_csv,
    neighbor,
    save_histogram_csv,
)


class TestConstruction:
    def test_basic_fields(self, hist4):
        assert hist4.d == 4
        assert hist4.total == 49.0
        assert hist4.labels == ("b0", "b1", "b2", "b3")
        np.testing.assert_array_equal(hist4.bins, [12.0, 24.0, 6.0, 7.0])

    def test_labels_default_to_none(self):
        h = Histogram([1, 2])
        assert h.labels is None

    def test_bins_are_read_only(self, hist4):
        with pytest.raises(ValueError):
            hist4.bins[0] = 99.0

    def test_bins_copy_in(self):
        src = np.array([1.0, 2.0])
        h = Histogram(src)
        src[0] = 50.0
        assert h.bins[0] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one bin"):
            Histogram([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Histogram([1.0, -0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram([1.0, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            Histogram([float("inf")])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Histogram([[1.0, 2.0]])

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Histogram([1.0, 2.0], labels=("only-one",))

    def test_equality_and_hash(self, hist4):
        twin = Histogram([12, 24, 6, 7], labels=("b0", "b1", "b2", "b3"))
        assert hist4 == twin
        assert hash(hist4) == hash(twin)
        assert hist4 != Histogram([12, 24, 6, 8], labels=hist4.labels)
        assert hist4 != Histogram([12, 24, 6, 7])  # labels differ
        assert hist4 != "not a histogram"

    def test_signed_zeros_are_equal_and_hash_equal(self):
        negative, positive = Histogram([-0.0, 1.0]), Histogram([0.0, 1.0])
        assert negative == positive
        assert hash(negative) == hash(positive)
        assert len({negative, positive}) == 1

    def test_repr_mentions_shape(self, hist4):
        assert "d=4" in repr(hist4)


class TestCsv:
    def test_load(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,count\nage_0_10,12\nage_10_20,24\n")
        h = load_histogram_csv(p)
        assert h.labels == ("age_0_10", "age_10_20")
        np.testing.assert_array_equal(h.bins, [12.0, 24.0])

    def test_round_trip(self, tmp_path, hist4):
        p = tmp_path / "h.csv"
        save_histogram_csv(hist4, p)
        again = load_histogram_csv(p)
        assert again == hist4

    def test_integer_counts_written_without_decimal(self, tmp_path, hist4):
        p = tmp_path / "h.csv"
        save_histogram_csv(hist4, p)
        text = p.read_text()
        assert "12.0" not in text
        assert "label,count" in text.splitlines()[0]

    def test_load_rejects_negative_with_row_number(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,count\na,3\nb,-1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_histogram_csv(p)

    def test_load_rejects_non_integer_with_row_number(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,count\na,3.5\n")
        with pytest.raises(ValueError, match="row 1"):
            load_histogram_csv(p)

    @pytest.mark.parametrize("count", ["1_000", "\u0661", "\uff11", "1\u0660", "0x10", "1e3", ""])
    def test_load_accepts_only_ascii_integers(self, tmp_path, count):
        p = tmp_path / "h.csv"
        p.write_text(f"label,count\na,3\nb,{count}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_histogram_csv(p)
        assert str(info.value) == f"{p}: row 2: count {count!r} is not an integer"

    def test_load_accepts_signs_and_padding(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,count\na,+3\nb, 07 \nc,-0\n")
        assert load_histogram_csv(p).bins.tolist() == [3.0, 7.0, 0.0]

    def test_load_rejects_bad_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("name,value\na,3\n")
        with pytest.raises(ValueError, match="header"):
            load_histogram_csv(p)

    def test_load_rejects_empty_file(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_histogram_csv(p)

    def test_load_rejects_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,count\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_histogram_csv(p)

    def test_load_rejects_wrong_column_count(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("label,count\na,1,extra\n")
        with pytest.raises(ValueError, match="row 1"):
            load_histogram_csv(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_histogram_csv(tmp_path / "nope.csv")


def _csv_module_rows(path):
    """The reference: every non-empty row csv.reader gives for the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [r for r in reader if r]
        except csv.Error as exc:
            return f"{path}: line {reader.line_num}: {exc}"


@settings(max_examples=1000)
@given(st.text(alphabet=',"\r\n aZ09', max_size=40))
def test_csv_rows_match_the_csv_module(tmp_path_factory, text):
    """The rows, and the error of a malformed file, are csv's, line endings included."""
    p = tmp_path_factory.mktemp("csv") / "t.csv"
    with open(p, "w", newline="") as fh:
        fh.write(text)
    limit = csv.field_size_limit()
    try:
        rows = list(_csv_rows(p))
    except ValueError as exc:
        rows = str(exc)
    assert rows == _csv_module_rows(p)
    assert csv.field_size_limit() == limit


class TestSimulated:
    def test_deterministic(self):
        a = generate_simulated_histogram(16, 100, seed=7)
        b = generate_simulated_histogram(16, 100, seed=7)
        assert a == b

    def test_seed_changes_output(self):
        a = generate_simulated_histogram(64, 100, seed=7)
        b = generate_simulated_histogram(64, 100, seed=8)
        assert a != b

    def test_counts_within_range_inclusive(self):
        h = generate_simulated_histogram(512, 5, seed=0)
        assert h.bins.min() >= 0
        assert h.bins.max() <= 5
        # With 512 draws from {0..5} both endpoints should be hit.
        assert 0.0 in h.bins
        assert 5.0 in h.bins

    def test_counts_are_integers(self):
        h = generate_simulated_histogram(100, 37, seed=1)
        assert np.all(h.bins == np.round(h.bins))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_simulated_histogram(0, 10, seed=0)
        with pytest.raises(ValueError):
            generate_simulated_histogram(4, -1, seed=0)


class TestNeighbor:
    def test_add_one(self, hist4):
        n = neighbor(hist4, 2, +1)
        np.testing.assert_array_equal(n.bins, [12.0, 24.0, 7.0, 7.0])
        assert n.total == hist4.total + 1
        assert n.labels == hist4.labels

    def test_remove_one(self, hist4):
        n = neighbor(hist4, 0, -1)
        np.testing.assert_array_equal(n.bins, [11.0, 24.0, 6.0, 7.0])
        assert n.total == hist4.total - 1

    def test_round_trip_identity(self, hist4):
        assert neighbor(neighbor(hist4, 1, +1), 1, -1) == hist4

    def test_original_untouched(self, hist4):
        neighbor(hist4, 0, +1)
        np.testing.assert_array_equal(hist4.bins, [12.0, 24.0, 6.0, 7.0])

    def test_cannot_remove_from_empty_bin(self):
        h = Histogram([0.0, 3.0])
        with pytest.raises(ValueError, match="cannot remove"):
            neighbor(h, 0, -1)

    def test_cannot_remove_from_fractional_bin(self):
        h = Histogram([0.5, 3.0])
        with pytest.raises(ValueError, match="cannot remove"):
            neighbor(h, 0, -1)

    def test_rejects_bad_delta(self, hist4):
        with pytest.raises(ValueError, match="delta"):
            neighbor(hist4, 0, 2)
        with pytest.raises(ValueError, match="delta"):
            neighbor(hist4, 0, 0)

    def test_rejects_bad_index(self, hist4):
        with pytest.raises(IndexError, match="out of range"):
            neighbor(hist4, 4, +1)
        with pytest.raises(IndexError, match="out of range"):
            neighbor(hist4, -1, +1)

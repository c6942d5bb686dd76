"""The statistics of ``tools/paired_bench.py``, which compares two checkouts
on one perfbench workload in alternating pairs."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from paired_bench import compare, parse_seeds, quartiles  # noqa: E402


def test_seeds_are_listed_and_ranged():
    assert parse_seeds("3,7-9") == [3, 7, 8, 9]
    assert parse_seeds("2801-2803") == [2801, 2802, 2803]
    assert parse_seeds("5") == [5]


def test_quartiles_interpolate_by_the_exclusive_method():
    # Ten values: the quartiles sit at positions 2.75 and 8.25 of 1..10.
    assert quartiles([float(v) for v in range(10, 0, -1)]) == (2.75, 5.5, 8.25)
    assert quartiles([4.0, 1.0, 2.0]) == (1.0, 2.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    values = [1.5, 0.2, 9.0, 4.4, 4.4, 3.1]
    assert quartiles(values)[1] == statistics.median(values)


def test_a_higher_is_better_metric_counts_strict_wins_and_the_spread():
    parent = [100.0, 110.0, 90.0, 100.0]
    change = [120.0, 110.0, 99.0, 130.0]
    row = compare(parent, change, "higher")
    assert row["per_seed_ratio"] == pytest.approx([1.2, 1.0, 1.1, 1.3])
    assert row["change_better_pairs"] == 3  # a tie is no win
    assert row["parent"]["runs"] == parent and row["change"]["runs"] == change
    assert row["parent"]["median"] == 100.0 and row["change"]["median"] == 115.0
    # The parent's quartiles are 92.5 and 107.5: a gain of 15 clears 15 only strictly.
    assert (row["parent"]["q1"], row["parent"]["q3"]) == (92.5, 107.5)
    assert row["clears_spread"] is False
    assert compare(parent, [c + 1.0 for c in change], "higher")["clears_spread"] is True


def test_a_lower_is_better_metric_wins_where_the_change_is_lower():
    parent = [2.0, 2.0, 2.0]
    change = [1.0, 3.0, 1.5]
    row = compare(parent, change, "lower")
    assert row["change_better_pairs"] == 2
    assert row["per_seed_ratio"] == [0.5, 1.5, 0.75]
    # The parent has no spread, so any better median clears it.
    assert row["clears_spread"] is True
    assert compare(change, parent, "lower")["clears_spread"] is False

"""Differential checks of the pruned axiom scan against the full ordered loop."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kannanlab import build_finite_space, find_violations, random_space
from scan_oracle import KEPT, built, exact, expected_space, full_scan

TOLS = [0.0, 1e-300, 1e-9, 1.0, math.inf]

# Powers of two make exact ties 2*d[i][j] == d[i][k]; the rest are signed
# zeros, subnormals, values whose sums overflow, and negatives.
_FINITE = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 4.0),
)
_ANY = st.one_of(_FINITE, st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def _tables(draw, entries):
    """Square tables, symmetric up to a drawn offset, with drawn diagonals."""
    n = draw(st.integers(0, 7))
    table = [[0.0] * n for _ in range(n)]
    offsets = st.sampled_from([0.0, 0.0, 1e-300, -1e-300, 1e-10, -1e-10, 0.5])
    for i in range(n):
        table[i][i] = draw(st.sampled_from([0.0, 0.0, -0.0, -5e-324, 5e-324, -1e-10, 1.0]))
        for j in range(i + 1, n):
            table[i][j] = draw(entries)
            table[j][i] = table[i][j] + draw(offsets)
    return table


@given(table=_tables(_ANY), tol=st.sampled_from(TOLS))
@settings(max_examples=250, deadline=None)
def test_find_violations_matches_the_full_scan(table, tol):
    assert exact(find_violations(table, tol)) == exact(full_scan(table, tol))


@given(table=_tables(_FINITE), tol=st.sampled_from(TOLS))
@settings(max_examples=250, deadline=None)
def test_build_finite_space_matches_the_full_scan(table, tol):
    labels = [f"p{i}" for i in range(len(table))]
    assert built(lambda: build_finite_space(labels, table, tol)) == expected_space(
        labels, table, tol
    )


@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    tol=st.sampled_from(TOLS),
    bump=st.sampled_from([None, 0.5, 3.0, 10.0]),
)
@settings(max_examples=40, deadline=None)
def test_random_spaces_match_the_full_scan(n, seed, tol, bump):
    rng = random.Random(seed)
    table = [list(row) for row in random_space(n, rng).dist]
    if bump is not None and n > 1:
        i, j = rng.sample(range(n), 2)
        table[i][j] = table[j][i] = bump
    assert exact(find_violations(table, tol)) == exact(full_scan(table, tol))
    labels = [f"p{i}" for i in range(n)]
    assert built(lambda: build_finite_space(labels, table, tol)) == expected_space(
        labels, table, tol
    )


def test_large_invalid_table_matches_the_full_scan():
    # Raw random weights on 60 points, never shortest-path completed.
    rng = random.Random(5)
    n = 60
    table = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = rng.uniform(0.5, 2.0)
    every = full_scan(table, 1e-9)
    assert len(every) > KEPT
    assert exact(find_violations(table)) == exact(every)
    labels = [f"q{i}" for i in range(n)]
    assert built(lambda: build_finite_space(labels, table)) == expected_space(
        labels, table, 1e-9
    )


def test_negative_tolerance_is_refused():
    # The pruning argument needs tol >= 0; build_finite_space refuses it too.
    with pytest.raises(ValueError, match="tol must be >= 0"):
        find_violations([[0.0]], -1e-9)

"""Differential checks of the pruned axiom scan against the full ordered loop."""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kannanlab import build_finite_space, find_violations, metric, random_space
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
_DIAGONALS = st.sampled_from([0.0, 0.0, -0.0, -5e-324, 5e-324, -1e-10, 1.0])

# (0, 1, 2) fails only through the column set of (0, 2), and its mirror
# (2, 1, 0) holds: d[2][0] lies 0.5, within tol, below d[0][2].  So row sets
# alone miss it on a table that is symmetric only within tol.
_ASYMMETRIC_WITHIN_TOL = [[0.0, 2.0, 4.0], [2.0, 0.0, 0.5], [3.5, 0.5, 0.0]]


@st.composite
def _tables(draw, entries):
    """Square tables, symmetric up to a drawn offset, with drawn diagonals."""
    n = draw(st.integers(0, 7))
    table = [[0.0] * n for _ in range(n)]
    offsets = st.sampled_from([0.0, 0.0, 1e-300, -1e-300, 1e-10, -1e-10, 0.5])
    for i in range(n):
        table[i][i] = draw(_DIAGONALS)
        for j in range(i + 1, n):
            table[i][j] = draw(entries)
            table[j][i] = table[i][j] + draw(offsets)
    return table


@st.composite
def _symmetric_tables(draw, entries):
    """Exactly symmetric tables, the mirrored entries one object, with drawn
    diagonals.  Off-diagonal entries come from a pool of at most three drawn
    values, so ties and valid tables are common; at most one symmetric bump
    then breaks some triangles."""
    n = draw(st.integers(0, 25))
    pool = st.sampled_from(draw(st.lists(entries, min_size=1, max_size=3)))
    table = [[0.0] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = draw(_DIAGONALS)
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(pool)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        table[i][j] = table[j][i] = draw(entries)
    return table


@given(table=_tables(_ANY), tol=st.sampled_from(TOLS))
@example(table=_ASYMMETRIC_WITHIN_TOL, tol=1.0)
@settings(max_examples=250, deadline=None)
def test_find_violations_matches_the_full_scan(table, tol):
    assert exact(find_violations(table, tol)) == exact(full_scan(table, tol))


@given(table=_tables(_FINITE), tol=st.sampled_from(TOLS))
@example(table=_ASYMMETRIC_WITHIN_TOL, tol=1.0)
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


@given(table=_symmetric_tables(_FINITE), tol=st.sampled_from(TOLS))
@settings(max_examples=150, deadline=None)
def test_symmetric_tables_match_the_full_scan(table, tol):
    assert exact(find_violations(table, tol)) == exact(full_scan(table, tol))
    labels = [f"p{i}" for i in range(len(table))]
    assert built(lambda: build_finite_space(labels, table, tol)) == expected_space(
        labels, table, tol
    )


@given(table=_symmetric_tables(_ANY), tol=st.sampled_from(TOLS))
@settings(max_examples=100, deadline=None)
def test_symmetric_tables_with_non_finite_entries_match_the_full_scan(table, tol):
    # math.nan is one object, so a NaN at (i, j) is the NaN at (j, i).
    assert exact(find_violations(table, tol)) == exact(full_scan(table, tol))


class _CountingTol(float):
    """A tol that counts the triangle tests ``d[i][k] > d[i][j] + d[j][k] + tol``
    (float + subclass calls the subclass's ``__radd__`` first)."""

    tests = 0

    def __radd__(self, other):
        self.tests += 1
        return other + float(self)


def test_a_valid_symmetric_table_tests_only_its_row_sets():
    # Row sets decide an exactly symmetric table, so no column is sorted, and
    # only the triples with j in the row set of (i, k), j != i, are tested.
    space = random_space(60, random.Random(11))
    d = space.dist
    row_set_triples = sum(
        2 * d[i][j] < d[i][k] for i in range(60) for j in range(60) if j != i for k in range(60)
    )
    tol = _CountingTol(space.tol)
    with mock.patch.object(metric, "_ascending", wraps=metric._ascending) as ascending:
        assert build_finite_space(space.labels, d, tol) == space
    assert ascending.call_count == 60
    assert tol.tests == row_set_triples


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

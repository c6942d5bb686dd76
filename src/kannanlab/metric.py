"""Finite metric spaces and self-maps.

Everything downstream (condition sweeps, orbit generation, the theorem
harness) operates on small, explicitly tabulated metric spaces: points are
named labels, distances live in a dense square table, and the four metric
axioms are enforced at construction time.  Spaces and maps are immutable
after construction, so they are safe to share freely.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import nsmallest
from itertools import count, islice
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

DEFAULT_TOL = 1e-9

# Unit roundoff of IEEE binary64 arithmetic in round-to-nearest.
_UNIT_ROUNDOFF = 2.0**-53

# A rejected table keeps this many violations, in scan order; the rest are
# only counted, so a large invalid table costs no more memory than a small one.
_VIOLATIONS_KEPT = 100

# 1/n**n underflows past n ~ 150; the cap keeps every distance of the
# truncated harmonic space strictly positive and representable.
HARMONIC_N_MAX_CAP = 120


class ViolationKind(Enum):
    NON_ZERO_DIAGONAL = "NonZeroDiagonal"
    ASYMMETRY = "Asymmetry"
    INDISCERNIBLE_PAIR = "IndiscerniblePair"
    TRIANGLE_FAILURE = "TriangleFailure"


@dataclass(frozen=True)
class MetricViolation:
    """One broken metric axiom with the indices and values exhibiting it."""

    kind: ViolationKind
    indices: tuple[int, ...]
    values: tuple[float, ...]


class MetricInvalid(ValueError):
    """Raised when a distance table fails one or more metric axioms.

    ``violations`` holds the first violations in scan order and ``total``
    counts all of them (by default, those given; :func:`build_finite_space`
    counts each triangle failure once, from the row sets of the table and of
    its transpose, without listing more than it keeps).
    """

    def __init__(self, violations: Sequence[MetricViolation], total: int | None = None):
        self.violations = tuple(violations)
        self.total = len(self.violations) if total is None else total
        head = self.violations[0]
        super().__init__(
            f"{self.total} metric violation(s); first is "
            f"{head.kind.value} at indices {head.indices}"
        )


class PartialAssignment(ValueError):
    """A self-map assignment leaves at least one point without an image."""


class ImageOutOfSpace(ValueError):
    """A self-map assignment maps some point outside the space."""


class SpaceMismatch(ValueError):
    """Two maps expected on the same space live on different spaces."""


def find_violations(
    dist: Sequence[Sequence[float]], tol: float = DEFAULT_TOL
) -> list[MetricViolation]:
    """Scan a square distance table for metric-axiom violations.

    The scan order is fixed (diagonal, symmetry, positivity, triangle;
    indices lexicographic within each kind), so the first entry of the
    returned list is a deterministic witness.  ``tol`` must be >= 0.
    """
    pairs, failures = _scan(dist, tol)
    return [MetricViolation(*found) for found in pairs] + [
        _triangle_violation(dist, *triple) for triple in sorted(failures)
    ]


_Found = tuple[ViolationKind, tuple[int, ...], tuple[float, ...]]


def _scan(
    dist: Sequence[Sequence[float]], tol: float
) -> tuple[Iterator[_Found], Iterator[tuple[int, int, int]]]:
    """The violations of :func:`find_violations`: those of the diagonal,
    symmetry and positivity one at a time in its order, as ``(kind, indices,
    values)`` tuples, and the failing triples (i, j, k) in no order."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    n = len(dist)
    if any(len(row) != n for row in dist):
        raise ValueError("distance table must be square")
    columns = list(zip(*dist))
    # Tuple comparison holds an object equal to itself: the same NaN object at
    # (i, j) and (j, i) counts as symmetric, as _triangle_failures allows.
    symmetric = columns == list(map(tuple, dist))
    return _pair_scan(dist, tol, symmetric), _triangle_failures(
        dist, dist if symmetric else columns, tol
    )


def _pair_scan(dist: Sequence[Sequence[float]], tol: float, symmetric: bool) -> Iterator[_Found]:
    """The diagonal, symmetry and positivity violations of :func:`_scan`."""
    n = len(dist)
    for i in range(n):
        if abs(dist[i][i]) > tol:
            yield ViolationKind.NON_ZERO_DIAGONAL, (i, i), (dist[i][i],)
    # In an exactly symmetric table every |x - y| is 0 or NaN.
    if not symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if abs(dist[i][j] - dist[j][i]) > tol:
                    yield ViolationKind.ASYMMETRY, (i, j), (dist[i][j], dist[j][i])
    # Positivity is strict: spaces may carry genuinely tiny distances
    # (reciprocal-power points), so no tolerance is applied here.
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] <= 0.0 or dist[j][i] <= 0.0:
                yield ViolationKind.INDISCERNIBLE_PAIR, (i, j), (dist[i][j], dist[j][i])


def _triangle_violation(dist: Sequence[Sequence[float]], i: int, j: int, k: int) -> MetricViolation:
    return MetricViolation(
        ViolationKind.TRIANGLE_FAILURE, (i, j, k), (dist[i][k], dist[i][j], dist[j][k])
    )


def _ascending(values: Sequence[float]) -> list[int]:
    """Indices of the non-NaN ``values``, in ascending order of value."""
    return sorted([j for j, v in enumerate(values) if v == v], key=values.__getitem__)


def _triangle_failures(
    dist: Sequence[Sequence[float]], columns: Sequence[Sequence[float]], tol: float
) -> Iterator[tuple[int, int, int]]:
    """The triples (i, j, k) with ``dist[i][k] > dist[i][j] + dist[j][k] + tol``,
    each once and in no particular order, found by testing only the triples
    that can fail.  ``columns`` holds the rows of the transpose of ``dist``,
    or is ``dist`` itself when the table is exactly symmetric.

    Write a = d[i][j], b = d[j][k], c = d[i][k].  For any doubles (finite,
    infinite or NaN) and any ``tol >= 0``, the test cannot fire when
    ``2*a >= c`` and ``2*b >= c``:

    - NaN: every comparison with NaN is false and NaN propagates through
      sums, so a NaN among a, b, c, ``tol`` or a partial sum leaves the test
      false; so does a + b or the sum plus ``tol`` being inf - inf;
    - otherwise say a <= b.  The computed ``2*a`` is the rounded real a + a
      (exact unless it overflows), and a + b >= a + a.  Rounding is
      monotone, an overflow going to +-inf, so fl(a + b) >= ``2*a`` >= c;
    - adding ``tol >= 0`` cannot lower fl(a + b), by the same monotonicity,
      so fl(fl(a + b) + tol) >= c.

    Nor can it fire when j = i and d[i][i] >= 0, or j = k and d[k][k] >= 0:
    then one term is >= 0 and the other is c, and fl(c + x) >= c for x >= 0.

    So a failing triple has j in the *row set* of (i, k), ``2*d[i][j] < c``,
    or in its *column set*, ``2*d[j][k] < c``, minus those diagonal j; row
    i's row sets come from :func:`_row_set_hits`.

    The column sets of d are the row sets of its transpose e, and the
    triangle tests of d are those of e: the column set of (i, k) is the row
    set {j : 2*e[k][j] < e[k][i]} of (k, i) in e, both leave out j = k when
    d[k][k] >= 0, and the test of (i, j, k) on d is the test of (k, j, i)
    on e with the two operands of the first sum swapped, which changes no
    result, as IEEE addition commutes.  So the hits (k, j, i) of row k of
    e are, reversed, the failing (i, j, k) of d with j in the column set of
    (i, k).  Each is yielded unless ``2*d[i][j] < d[i][k]``, which puts it
    among the hits of row i of d (no failing triple has a left-out
    diagonal j), so each failing triple comes once.

    On an exactly symmetric table (each d[i][j] == d[j][i] or both the
    same object) e differs from d at most in the sign of a zero, which no
    comparison sees, so row k of e has the hits of row k of d, and they
    are reused.  NaN entries stay out of the sorted rows: a triple with
    one never fails, and NaN would break the order.
    """
    for r in range(len(dist)):
        hits = _row_set_hits(dist, r, tol)
        yield from hits
        if columns is not dist:
            hits = _row_set_hits(columns, r, tol)
        # Failing triples hold no NaN, so >= is "j not in the row set of
        # (i, r) of d".
        yield from [(i, j, r) for _, j, i in hits if 2 * dist[i][j] >= dist[i][r]]


def _row_set_hits(
    dist: Sequence[Sequence[float]], i: int, tol: float
) -> list[tuple[int, int, int]]:
    """The failing triples (i, j, k), unordered, with j in the row set of
    (i, k), less the diagonal j of :func:`_triangle_failures`.  For each j,
    those k are a suffix of row i sorted, found by bisection."""
    row = dist[i]
    order = _ascending(row)
    values = [row[k] for k in order]
    twice = [2 * v for v in values]
    hits = []
    # j is in the row sets of the k after 2*d[i][j] in sorted order.
    reach = bisect_left(twice, values[-1]) if values else 0
    for j, t in zip(order[:reach], twice):
        if j == i and row[i] >= 0:
            continue
        a, dj = row[j], dist[j]
        for k in order[bisect_right(values, t) :]:
            if row[k] > a + dj[k] + tol:
                hits.append((i, j, k))
    return hits


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A validated finite metric space: named points plus a distance table."""

    labels: tuple[str, ...]
    dist: tuple[tuple[float, ...], ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.labels)}
        )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> float:
        return self.dist[i][j]

    def index_of(self, label) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise KeyError(f"unknown point {label!r}") from None

    def label(self, i: int) -> str:
        return self.labels[i]

    def diameter(self) -> float:
        return max((max(row) for row in self.dist), default=0.0)

    @functools.cached_property
    def _bounded_rows(self) -> frozenset[int]:
        """The points whose every distance is a number in [0, inf), decided
        exactly, once per space.  A row's min is exact only without NaN,
        which its sum catches: the sum of a row holding a NaN or +inf is not
        below inf.  A row of finite entries whose sum overflows is left out
        too, as a caller may only lose speed by it."""
        return frozenset(
            i for i, row in enumerate(self.dist) if min(row) >= 0.0 and sum(row) < math.inf
        )

    def violations(self) -> list[MetricViolation]:
        """Re-assert the metric axioms post hoc (empty list when valid)."""
        return find_violations(self.dist, self.tol)


def build_finite_space(
    labels: Sequence, dist: Sequence[Sequence[float]], tol: float = DEFAULT_TOL
) -> FiniteMetricSpace:
    """Validate a distance table and wrap it as a :class:`FiniteMetricSpace`.

    Raises ``ValueError`` for structural problems (non-square table, label
    mismatch, duplicates, non-finite entries) and :class:`MetricInvalid`
    when the table is well-formed but breaks a metric axiom; the exception
    keeps the first violations in scan order and counts the rest.  Each
    triangle failure is found once, from the row sets of the table and of
    its transpose (see :func:`_triangle_failures`), and only those kept are
    held, so memory does not grow with the count.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    names = tuple(str(label) for label in labels)
    if len(set(names)) != len(names):
        raise ValueError("point labels must be distinct")
    n = len(names)
    if len(dist) != n or any(len(row) != n for row in dist):
        raise ValueError(f"distance table must be {n}x{n} to match the labels")
    table = tuple(tuple(map(float, row)) for row in dist)
    if not all(all(map(math.isfinite, row)) for row in table):
        raise ValueError("distances must be finite")
    pairs, failures = _scan(table, tol)
    kept = [MetricViolation(*found) for found in islice(pairs, _VIOLATIONS_KEPT)]
    total = len(kept) + sum(1 for _ in pairs)
    # The least triples come first in scan order.  nsmallest draws every
    # failure, or none when no room is left: the count zipped onto the
    # failures counts what it drew, and the sum counts the rest.
    drawn = count()
    least = nsmallest(_VIOLATIONS_KEPT - len(kept), map(itemgetter(0), zip(failures, drawn)))
    kept += [_triangle_violation(table, *triple) for triple in least]
    total += next(drawn) + sum(1 for _ in failures)
    if kept:
        raise MetricInvalid(kept, total)
    return FiniteMetricSpace(names, table, tol)


def space_from_values(
    values: Sequence[float],
    labels: Sequence | None = None,
    tol: float = DEFAULT_TOL,
) -> FiniteMetricSpace:
    """Build a space of real numbers under the absolute-difference metric.

    When :func:`_abs_diff_is_metric` proves the table valid, the space is
    built without the O(n^3) scan; otherwise :func:`build_finite_space`
    validates it, with the same result and the same exceptions.
    """
    vals = [float(v) for v in values]
    if labels is None:
        labels = [_number_label(v) for v in vals]
    names = tuple(str(label) for label in labels)
    rows: list[tuple[float, ...]] = []
    for i, a in enumerate(vals):
        # |a - b| and |b - a| are the same double (rounding is odd), so row i
        # reuses column i of the rows above it: one float object per pair.
        rows.append(tuple([row[i] for row in rows] + [abs(a - b) for b in vals[i:]]))
    table = tuple(rows)
    if len(set(names)) == len(names) == len(vals) and _abs_diff_is_metric(vals, tol):
        return FiniteMetricSpace(names, table, tol)
    return build_finite_space(names, table, tol)


def _abs_diff_is_metric(vals: Sequence[float], tol: float) -> bool:
    """True when the table ``|a - b|`` of ``vals`` passes :func:`find_violations`.

    Sufficient, not necessary: the values are finite and pairwise distinct
    under ``==`` (so ``0.0`` and ``-0.0`` count as equal), their diameter
    ``diam = max - min`` is finite, and ``tol >= 16 u diam`` with
    u = 2**-53.  In IEEE binary64 round-to-nearest arithmetic with gradual
    underflow, each check of the scan then passes:

    - diagonal: ``a - a`` is exactly 0;
    - symmetry: rounding is odd, ``fl(a - b) = -fl(b - a)``, so the table is
      exactly symmetric;
    - positivity: ``a != b`` implies ``fl(a - b) != 0``, since a difference
      that would underflow is exact (subnormals);
    - triangle: addition and subtraction have relative error at most u,
      also for subnormal results, which are exact.  Let D be the exact
      diameter, and for the points i, j, k let P, Q, R be the exact
      distances d(i, j), d(j, k), d(i, k), so R <= P + Q <= 2D.  The stored
      r and the computed s = fl(p + q) satisfy
      r - s <= R(1 + u) - (P + Q)(1 - u)**2 <= (3u - u**2)(P + Q) <= 6u D.
      The bound ``fl(16 u diam)`` is at least 15u D: ``diam`` is within a
      factor (1 - u) of D, and when ``16 u diam`` falls among the subnormals
      and rounds, D >= 2**-1021 keeps its relative error under 1/32; for
      D < 2**-1021 every difference is exact, r <= P + Q rounds to
      r <= s, and there is no excess.  So r <= s + tol, and since rounding
      is monotone (an overflow to inf only helps), r <= fl(s + tol): the
      scan's test
      ``dist[i][k] > dist[i][j] + dist[j][k] + tol`` never fires.

    Distinct values and a finite diameter also make every entry finite and
    positive off the diagonal, as :func:`build_finite_space` requires.
    """
    if not all(math.isfinite(v) for v in vals):
        return False
    ordered = sorted(vals)
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        return False
    diam = ordered[-1] - ordered[0] if ordered else 0.0
    return math.isfinite(diam) and tol >= 16 * _UNIT_ROUNDOFF * diam


def _number_label(v: float) -> str:
    """The name of the point at value ``v``: an integral value without a
    fraction part (``1.0`` is ``"1"``), any other by its ``repr``."""
    if isinstance(v, int):
        return str(v)
    return str(int(v)) if v.is_integer() else repr(v)


@dataclass(frozen=True)
class SelfMap:
    """A total map of space points, stored as an index-level assignment."""

    space: FiniteMetricSpace
    assignment: tuple[int, ...]

    def apply(self, i: int) -> int:
        return self.assignment[i]

    def __call__(self, label) -> str:
        return self.space.labels[self.assignment[self.space.index_of(label)]]

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.assignment))

    @property
    def is_injective(self) -> bool:
        return len(set(self.assignment)) == len(self.assignment)

    def compose(self, inner: "SelfMap") -> "SelfMap":
        """Return self after inner (``(self . inner)(x) = self(inner(x))``)."""
        require_same_space(self.space, inner)
        return SelfMap(self.space, tuple(self.assignment[v] for v in inner.assignment))

    def preimages(self, target: int) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.assignment) if v == target)

    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.assignment) if v == i)


def require_same_space(space: FiniteMetricSpace, *maps: SelfMap | None) -> None:
    """Raise :class:`SpaceMismatch` unless every given map lives on ``space``."""
    for m in maps:
        if m is not None and m.space is not space and m.space != space:
            raise SpaceMismatch("map lives on a different space")


def build_self_map(space: FiniteMetricSpace, assignment) -> SelfMap:
    """Build a total self-map from a label mapping or a positional sequence.

    Accepts a ``Mapping`` label -> label, or a sequence whose i-th entry is
    the image of point i (as a label or an integer index).  Raises
    :class:`PartialAssignment` when a point lacks an image and
    :class:`ImageOutOfSpace` when an image is not a point of the space.
    """
    n = space.n
    images: list[int] = []
    if isinstance(assignment, Mapping):
        normalized = {str(k): v for k, v in assignment.items()}
        missing = [label for label in space.labels if label not in normalized]
        if missing:
            raise PartialAssignment(f"no image for point(s) {missing}")
        for label in space.labels:
            images.append(_resolve_image(space, normalized[label]))
    else:
        entries = list(assignment)
        if len(entries) != n:
            raise PartialAssignment(
                f"assignment has {len(entries)} entries for {n} points"
            )
        for entry in entries:
            images.append(_resolve_image(space, entry))
    return SelfMap(space, tuple(images))


def _resolve_image(space: FiniteMetricSpace, entry) -> int:
    if isinstance(entry, int) and not isinstance(entry, bool):
        if not 0 <= entry < space.n:
            raise ImageOutOfSpace(f"index {entry} outside 0..{space.n - 1}")
        return entry
    try:
        return space.index_of(entry)
    except KeyError:
        raise ImageOutOfSpace(f"image {entry!r} is not a point of the space") from None


def identity_map(space: FiniteMetricSpace) -> SelfMap:
    return SelfMap(space, tuple(range(space.n)))


def constant_map(space: FiniteMetricSpace, label) -> SelfMap:
    target = space.index_of(label)
    return SelfMap(space, tuple(target for _ in range(space.n)))


class HarmonicTruncation(NamedTuple):
    space: FiniteMetricSpace
    t: SelfMap
    s: SelfMap
    core_labels: tuple[str, ...]


def build_truncated_harmonic_space(n_max: int) -> HarmonicTruncation:
    """Finite truncation of the space {0} | {1/n : n >= 4} with its two maps.

    Points are 0, the core reciprocals 1/4 .. 1/n_max, the boundary label
    1/(n_max+1), and the image points 1/n**n for n = 4 .. n_max+1, all under
    the absolute-difference metric.  The first map shifts 1/n to 1/(n+1)
    (the boundary label maps to 0); the second sends 1/n to 1/n**n on the
    reciprocals and swaps each such pair back, which keeps it a bijection on
    the truncation.  Points whose formula image would leave the truncation
    map to 0 under the shift map.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    if n_max > HARMONIC_N_MAX_CAP:
        raise ValueError(f"n_max must be <= {HARMONIC_N_MAX_CAP}")

    core = [(f"1/{n}", 1.0 / n) for n in range(4, n_max + 1)]
    boundary = (f"1/{n_max + 1}", 1.0 / (n_max + 1))
    images = [(f"1/{n ** n}", 1.0 / float(n**n)) for n in range(4, n_max + 2)]
    points = [("0", 0.0)] + core + [boundary] + images
    labels = [label for label, _ in points]
    values = [value for _, value in points]
    space = space_from_values(values, labels)

    index = {label: i for i, label in enumerate(labels)}
    zero = index["0"]

    t_assign = [zero] * len(labels)
    s_assign = [zero] * len(labels)
    for n in range(4, n_max + 1):
        t_assign[index[f"1/{n}"]] = index[f"1/{n + 1}"]
    for n in range(4, n_max + 2):
        here = index[f"1/{n}"]
        img = index[f"1/{n ** n}"]
        s_assign[here] = img
        s_assign[img] = here
    t = SelfMap(space, tuple(t_assign))
    s = SelfMap(space, tuple(s_assign))
    core_labels = ("0",) + tuple(label for label, _ in core)
    return HarmonicTruncation(space, t, s, core_labels)


def random_space(
    n_points: int,
    rng: random.Random,
    weight_range: tuple[float, float] = (0.5, 2.0),
) -> FiniteMetricSpace:
    """Random metric space via shortest-path completion of random weights.

    Positive symmetric edge weights are drawn uniformly from the finite
    ``weight_range``, then closed under shortest paths by Floyd–Warshall
    (see :func:`_close_under_shortest_paths`).  When
    :func:`_closure_is_metric` proves the closed table valid, the space is
    built without the O(n^3) scan.  Otherwise a closed entry may exceed a
    rounded sum of two others by more than the absolute ``DEFAULT_TOL``
    (with weights spanning 1e-300 to 1e300, say), so
    :func:`build_finite_space` validates the table, with the same result
    and the same exceptions, and may raise :class:`MetricInvalid`.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    lo, hi = weight_range
    if not 0 < lo <= hi:
        raise ValueError("weight_range must be positive and ordered")
    if not math.isfinite(hi):
        raise ValueError("weight_range must be finite")
    n = n_points
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.uniform(lo, hi)
            dist[i][j] = w
            dist[j][i] = w
    _close_under_shortest_paths(dist)
    labels = [f"p{i}" for i in range(n)]
    if _closure_is_metric(n, max(map(max, dist)), DEFAULT_TOL):
        return FiniteMetricSpace(tuple(labels), tuple(map(tuple, dist)), DEFAULT_TOL)
    return build_finite_space(labels, dist)


def _closure_is_metric(n: int, top: float, tol: float) -> bool:
    """True when the n-point table that :func:`_close_under_shortest_paths`
    left from finite positive weights, with largest entry ``top``, passes
    :func:`find_violations`.

    Sufficient, not necessary: ``top`` is finite, n <= 2**46 (any table
    that fits in memory), and ``tol >= 8 n u top`` with u = 2**-53.
    In IEEE binary64 round-to-nearest arithmetic with gradual underflow,
    each check of the scan then passes:

    - diagonal, symmetry and positivity: the closure's docstring proves the
      table exactly symmetric with a zero diagonal and finite positive
      entries off it;
    - triangle: that table is the plain Floyd–Warshall loop's.  Let δ be
      the exact shortest-path metric of the weights and δ^(k) the exact
      table after pivots 0 .. k-1, so δ^(k)[i][j] = min(δ^(k-1)[i][j],
      δ^(k-1)[i][k] + δ^(k-1)[k][j]), and d^(k) the computed one, which
      takes the computed sum in place of the exact one.  A float sum has
      relative error at most u, also when it is subnormal (it is then
      exact), and rounding is monotone, so by induction over pivots
      (1 - u)**k δ^(k) <= d^(k) <= (1 + u)**k δ^(k) entrywise; a sum that
      overflows exceeds the largest double and is never stored, so it
      leaves the upper bound too.  Hence, with d = d^(n), for any i, j, k
      the stored r = d[i][k] and the computed s = fl(d[i][j] + d[j][k])
      satisfy, as δ[i][k] <= δ[i][j] + δ[j][k] <= 2 top / (1 - u)**n,
      r - s <= ((1 + u)**n - (1 - u)**(n + 1)) (δ[i][j] + δ[j][k])
      <= (4n + 2) u top (1 + 1/64) =: E, using n u <= 2**-7.
      The bound b = ``fl(8 n u top)`` (8 n u is exact) is at least
      8 n u top (1 - u) - 2**-1075, the last term being the absolute error
      of a subnormal product.  Any positive r - s is a difference of two
      doubles, so at least 2**-1074, which forces u top >= 2**-1074 / E'
      with E' = (4n + 2)(1 + 1/64); then for n >= 2,
      b - E >= ((8n (1 - u) - E') / E' - 1/2) 2**-1074 > 0.  So
      r <= s + ``tol``, and by monotone rounding r <= fl(s + tol): the
      scan's test ``dist[i][k] > dist[i][j] + dist[j][k] + tol`` never
      fires.  For n = 1 the table is [[0.0]], and r - s = 0.  The bounds
      are those of float sums of positive terms (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., 2002, §4.2), applied to
      Floyd's algorithm (CACM 5(6), 1962).
    """
    return n <= 2**46 and math.isfinite(top) and tol >= 8 * n * _UNIT_ROUNDOFF * top


def _close_under_shortest_paths(dist: list[list[float]]) -> None:
    """Floyd–Warshall in place on a symmetric table with a zero diagonal and
    finite, positive entries off it, performing only the relaxations that
    can lower an entry.

    The plain loop runs, for each pivot k, ``d[i][j] = fl(d[i][k] + d[k][j])``
    over all i, j whenever that sum is smaller.  This function leaves the
    same table, bit for bit, because each relaxation it skips cannot lower
    an entry and each it performs has the plain loop's operands:

    - step k changes neither row k nor column k: d[k][k] = 0 and
      fl(x + 0) = x, so the sum never falls below d[k][j] or d[i][k].  Every
      relaxation of step k reads only those, so its operands are the values
      at the start of the step, and rows may be visited in any order;
    - the table stays symmetric, since fl(a + b) = fl(b + a): step k sets
      d[i][j] and d[j][i] alike.  So d[i][k] = d[k][i], and the rows can be
      visited in ascending d[k][i];
    - entries stay finite and positive off the diagonal: a sum of positive
      doubles is at least its larger operand, and an overflow to inf never
      lowers an entry.  So row k, sorted, starts with k itself; skipping it
      skips i = k and j = k, which change nothing;
    - ``top[i]`` is max(row i) at all times: entries only fall, so the
      maximum changes only when an entry equal to it falls, and then it is
      recomputed;
    - rounding is monotone, so fl(d[i][k] + d[k][j]) does not fall as j
      runs over row k in ascending order.  Once it reaches ``top[i]`` it
      is at least every entry left in row i, which ends the row.  With m
      the least entry of row k off the diagonal, fl(d[i][k] + m) >= top[i]
      ends it before the first j, and fl(d[i][k] + m) >= max(top), the
      largest entry of the table at the start of the step, ends every row
      after row i too: their d[i][k] is no smaller, and no entry rises.
    """
    top = [max(row) for row in dist]
    for k, dk in enumerate(dist):
        by_value = [(j, dk[j]) for j in sorted(range(len(dk)), key=dk.__getitem__)[1:]]
        if not by_value:
            return
        least = by_value[0][1]
        ceiling = max(top)
        for i, dik in by_value:
            low = dik + least
            if low >= ceiling:
                break
            ti = top[i]
            if low >= ti:
                continue
            di = dist[i]
            stale = False
            for j, dkj in by_value:
                via = dik + dkj
                if via >= ti:
                    break
                if via < di[j]:
                    stale = stale or di[j] == ti
                    di[j] = via
            if stale:
                top[i] = max(di)

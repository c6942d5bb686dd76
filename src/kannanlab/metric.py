"""Finite metric spaces and self-maps.

Everything downstream (condition sweeps, orbit generation, the theorem
harness) operates on small, explicitly tabulated metric spaces: points are
named labels, distances live in a dense square table, and the four metric
axioms are enforced at construction time.  Spaces and maps are immutable
after construction, so they are safe to share freely.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

DEFAULT_TOL = 1e-9

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
    """Raised when a distance table fails one or more metric axioms."""

    def __init__(self, violations: Sequence[MetricViolation]):
        self.violations = tuple(violations)
        head = self.violations[0]
        super().__init__(
            f"{len(self.violations)} metric violation(s); first is "
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
    returned list is a deterministic witness.
    """
    n = len(dist)
    found: list[MetricViolation] = []
    for i in range(n):
        if abs(dist[i][i]) > tol:
            found.append(
                MetricViolation(ViolationKind.NON_ZERO_DIAGONAL, (i, i), (dist[i][i],))
            )
    for i in range(n):
        for j in range(i + 1, n):
            if abs(dist[i][j] - dist[j][i]) > tol:
                found.append(
                    MetricViolation(
                        ViolationKind.ASYMMETRY, (i, j), (dist[i][j], dist[j][i])
                    )
                )
    # Positivity is strict: spaces may carry genuinely tiny distances
    # (reciprocal-power points), so no tolerance is applied here.
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] <= 0.0 or dist[j][i] <= 0.0:
                found.append(
                    MetricViolation(
                        ViolationKind.INDISCERNIBLE_PAIR,
                        (i, j),
                        (dist[i][j], dist[j][i]),
                    )
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k] + tol:
                    found.append(
                        MetricViolation(
                            ViolationKind.TRIANGLE_FAILURE,
                            (i, j, k),
                            (dist[i][k], dist[i][j], dist[j][k]),
                        )
                    )
    return found


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

    def violations(self) -> list[MetricViolation]:
        """Re-assert the metric axioms post hoc (empty list when valid)."""
        return find_violations(self.dist, self.tol)


def build_finite_space(
    labels: Sequence, dist: Sequence[Sequence[float]], tol: float = DEFAULT_TOL
) -> FiniteMetricSpace:
    """Validate a distance table and wrap it as a :class:`FiniteMetricSpace`.

    Raises ``ValueError`` for structural problems (non-square table, label
    mismatch, duplicates, non-finite entries) and :class:`MetricInvalid`
    when the table is well-formed but breaks a metric axiom.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    names = tuple(str(label) for label in labels)
    if len(set(names)) != len(names):
        raise ValueError("point labels must be distinct")
    n = len(names)
    if len(dist) != n or any(len(row) != n for row in dist):
        raise ValueError(f"distance table must be {n}x{n} to match the labels")
    table = tuple(tuple(float(v) for v in row) for row in dist)
    for row in table:
        for v in row:
            if not math.isfinite(v):
                raise ValueError("distances must be finite")
    violations = find_violations(table, tol)
    if violations:
        raise MetricInvalid(violations)
    return FiniteMetricSpace(names, table, tol)


def space_from_values(
    values: Sequence[float],
    labels: Sequence | None = None,
    tol: float = DEFAULT_TOL,
) -> FiniteMetricSpace:
    """Build a space of real numbers under the absolute-difference metric."""
    vals = [float(v) for v in values]
    if labels is None:
        labels = [_number_label(v) for v in vals]
    table = [[abs(a - b) for b in vals] for a in vals]
    return build_finite_space(labels, table, tol)


def _number_label(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


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
    table = [[abs(a - b) for b in values] for a in values]
    space = build_finite_space(labels, table)

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

    Positive symmetric edge weights are drawn uniformly, then closed under
    shortest paths, which yields the triangle inequality by construction.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    lo, hi = weight_range
    if not 0 < lo <= hi:
        raise ValueError("weight_range must be positive and ordered")
    n = n_points
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.uniform(lo, hi)
            dist[i][j] = w
            dist[j][i] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            di = dist[i]
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    labels = [f"p{i}" for i in range(n)]
    return build_finite_space(labels, dist)

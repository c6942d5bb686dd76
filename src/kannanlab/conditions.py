"""Exhaustive contraction-condition sweeps over finite spaces.

A sweep searches the ordered pairs a row at a time, in index order, and
stops at the first failing pair, so the violation reported is the
lexicographically first.  Whether a pair is checked depends only on its two
images, so the checked pairs are counted once per image pair, apart from
the search.  Pair skipping in the positive mode drops pairs whose image
distance (raised to the configured degree where one applies) is zero
within tolerance: the strict comparison forms are not satisfiable at such
pairs for the linear function families, and the convergence arguments only
ever invoke the condition on pairs with distinct images.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .metric import DEFAULT_TOL, FiniteMetricSpace, SelfMap, require_same_space
from .sigma import ComparisonFn


class ConditionKind(Enum):
    CLASSICAL_KANNAN = "classical-kannan"
    SIGMA_KANNAN = "sigma-kannan"
    SIGMA_S_KANNAN = "sigma-s-kannan"
    S_DOMINATED = "s-dominated"
    MALCESKI = "malceski"
    KOPARDE_WAGHMODE = "koparde-waghmode"


class PairMode(Enum):
    POSITIVE_PAIRS = "positive"
    ALL_ORDERED_PAIRS = "all"


@dataclass(frozen=True)
class ConditionSpec:
    kind: ConditionKind
    sigma: ComparisonFn | None = None
    alpha: float | None = None
    gamma: float | None = None
    w: int | None = None

    def describe(self) -> str:
        bits = [self.kind.value]
        if self.sigma is not None:
            bits.append(f"sigma={self.sigma.name}")
        if self.alpha is not None:
            bits.append(f"alpha={self.alpha:g}")
        if self.gamma is not None:
            bits.append(f"gamma={self.gamma:g}")
        if self.w is not None:
            bits.append(f"w={self.w}")
        return " ".join(bits)


def classical_kannan(alpha: float) -> ConditionSpec:
    if not 0.0 < alpha < 0.5:
        raise ValueError("classical condition requires 0 < alpha < 1/2")
    return ConditionSpec(ConditionKind.CLASSICAL_KANNAN, alpha=alpha)


def sigma_kannan(sigma: ComparisonFn) -> ConditionSpec:
    return ConditionSpec(ConditionKind.SIGMA_KANNAN, sigma=sigma)


def sigma_s_kannan(sigma: ComparisonFn) -> ConditionSpec:
    return ConditionSpec(ConditionKind.SIGMA_S_KANNAN, sigma=sigma)


def s_dominated(sigma: ComparisonFn, w: int) -> ConditionSpec:
    if not (isinstance(w, int) and w >= 1):
        raise ValueError("degree w must be a positive integer")
    return ConditionSpec(ConditionKind.S_DOMINATED, sigma=sigma, w=w)


def malceski(alpha: float, gamma: float) -> ConditionSpec:
    if not alpha > 0.0:
        raise ValueError("malceski condition requires alpha > 0")
    if gamma < 0.0:
        raise ValueError("malceski condition requires gamma >= 0")
    if not 2.0 * alpha + gamma < 1.0:
        raise ValueError("malceski condition requires 2*alpha + gamma < 1")
    return ConditionSpec(ConditionKind.MALCESKI, alpha=alpha, gamma=gamma)


def koparde_waghmode(alpha: float) -> ConditionSpec:
    if not 0.0 < alpha < 0.5:
        raise ValueError("squared condition requires 0 < alpha < 1/2")
    return ConditionSpec(ConditionKind.KOPARDE_WAGHMODE, alpha=alpha)


@dataclass(frozen=True)
class PairWitness:
    x: str
    y: str
    t: float
    s: float
    value: float
    required_alpha: float | None = None


@dataclass(frozen=True)
class ConditionReport:
    kind: ConditionKind
    holds: bool
    pairs_checked: int
    pairs_skipped: int
    witness: PairWitness | None


#: Each kind's image map a, the two points whose distance is the per-point
#: term e(x), and the degree w (None: the spec's w, default 1), with maps
#: named "x" (identity), "T", "S" and "ST" (S after T).  The argument order
#: of e(x) is part of the definition: tables are symmetric only within
#: tolerance.
_PAIRINGS = {
    ConditionKind.CLASSICAL_KANNAN: ("T", "T", "x", 1),
    ConditionKind.SIGMA_KANNAN: ("T", "T", "x", 1),
    ConditionKind.SIGMA_S_KANNAN: ("T", "T", "S", 1),
    ConditionKind.S_DOMINATED: ("ST", "S", "ST", None),
    ConditionKind.MALCESKI: ("ST", "S", "ST", 1),
    ConditionKind.KOPARDE_WAGHMODE: ("T", "x", "T", 2),
}


class PowerOverflow(ValueError):
    """A distance raised to the condition's degree w is beyond the double range."""

    def __init__(self, w: int):
        super().__init__(f"a distance raised to w = {w} overflows a double")


def _powered(row, indices, w: int) -> list[float]:
    """``row[b] ** w`` for b in ``indices`` (w = 1 skips the power)."""
    try:
        return [row[b] for b in indices] if w == 1 else [row[b] ** w for b in indices]
    except OverflowError:
        raise PowerOverflow(w) from None


@dataclass(frozen=True)
class Pairing:
    """One condition's pair terms on one space: every condition compares
    t = d(ax, ay)^w with s = ``terms[x] + terms[y]``, ``terms`` holding e(x)^w."""

    space: FiniteMetricSpace
    image: tuple[int, ...]
    terms: tuple[float, ...]
    w: int

    def t_row(self, i: int) -> list[float]:
        """t of the pairs (i, j), j in index order."""
        return _powered(self.space.dist[self.image[i]], self.image, self.w)

    def pair(self, i: int, j: int) -> tuple[float, float]:
        return self.t_row(i)[j], self.terms[i] + self.terms[j]

    def checked(self, skip_tol: float) -> int:
        """How many ordered pairs have t > skip_tol (a NaN t does not): each
        image pair (a, b) is tested once and counts k_a * k_b times, with k_a
        the number of points whose image is a."""
        k, dist, w = Counter(self.image), self.space.dist, self.w
        return sum(
            ka * sum([kb for t, kb in zip(_powered(dist[a], k, w), k.values()) if t > skip_tol])
            for a, ka in k.items()
        )


def pairing(
    space: FiniteMetricSpace, t_map: SelfMap, s_map: SelfMap | None, spec: ConditionSpec
) -> Pairing:
    """The pair terms of ``spec``'s condition; a missing S is the identity."""
    require_same_space(space, t_map, s_map)
    n, dist, t_of = space.n, space.dist, t_map.assignment
    s_of = range(n) if s_map is None else s_map.assignment
    maps = {"x": range(n), "T": t_of, "S": s_of, "ST": tuple(s_of[v] for v in t_of)}
    image, left, right, w = _PAIRINGS[spec.kind]
    w = w or spec.w or 1
    try:
        terms = tuple(dist[a][b] ** w for a, b in zip(maps[left], maps[right]))
    except OverflowError:
        raise PowerOverflow(w) from None
    return Pairing(space, tuple(maps[image]), terms, w)


def _row_test(spec: ConditionSpec, p: Pairing, s_map: SelfMap | None, skip_tol: float):
    """The pair test of ``spec`` along one row: a function of (i, row), with
    row = ``p.t_row(i)``, that gives (j, value, required alpha) for the first
    j in index order whose pair is checked (t > skip_tol) and fails, or None.

    A sigma is evaluated only on checked pairs, up to the first failure."""
    terms, alpha, gamma = p.terms, spec.alpha, spec.gamma
    if spec.kind in (ConditionKind.CLASSICAL_KANNAN, ConditionKind.KOPARDE_WAGHMODE):

        def first_failure(i, row):
            ei = terms[i]
            for j, t in enumerate(row):
                if t > skip_tol and not t <= alpha * (ei + terms[j]):
                    s = ei + terms[j]
                    return j, alpha * s - t, _required_alpha(t, s)
            return None

    elif spec.kind is ConditionKind.MALCESKI:
        dist = p.space.dist
        s_of = range(p.space.n) if s_map is None else s_map.assignment

        def first_failure(i, row):
            ei, ds = terms[i], dist[s_of[i]]
            for j, t in enumerate(row):
                if t > skip_tol:
                    rhs = alpha * (ei + terms[j]) + gamma * ds[s_of[j]]
                    if not t <= rhs:
                        return j, rhs - t, None
            return None

    else:
        ev = spec.sigma.eval

        def first_failure(i, row):
            ei = terms[i]
            for j, t in enumerate(row):
                if t > skip_tol:
                    value = ev(t, ei + terms[j])
                    if not value > 0.0:
                        return j, value, None
            return None

    return first_failure


def check_condition(
    space: FiniteMetricSpace,
    t_map: SelfMap,
    s_map: SelfMap | None,
    spec: ConditionSpec,
    mode: PairMode = PairMode.POSITIVE_PAIRS,
    tol: float = DEFAULT_TOL,
) -> ConditionReport:
    """Sweep the condition over all ordered point pairs.

    The classical and squared forms compare with <= against the supplied
    alpha; the sigma-driven forms demand a strictly positive value.  The
    classical forms ignore the auxiliary map.  The witness is the first
    failing pair in lexicographic index order; the search stops there, and
    :meth:`Pairing.checked` counts the checked pairs, reached or not.
    """
    skip_tol = tol if mode is PairMode.POSITIVE_PAIRS else -math.inf
    p = pairing(space, t_map, s_map, spec)
    first_failure = _row_test(spec, p, s_map, skip_tol)
    witness: PairWitness | None = None
    for i in range(space.n):
        row = p.t_row(i)
        failure = first_failure(i, row)
        if failure is not None:
            j, value, required = failure
            s = p.terms[i] + p.terms[j]
            witness = PairWitness(space.labels[i], space.labels[j], row[j], s, value, required)
            break
    checked = p.checked(skip_tol)
    return ConditionReport(
        spec.kind, witness is None, checked, space.n * space.n - checked, witness
    )


def _required_alpha(t: float, s: float) -> float:
    if s > 0.0:
        return t / s
    return math.inf if t > 0.0 else 0.0


@dataclass(frozen=True)
class KannanSupremum:
    value: float
    unbounded: bool
    pair: tuple[str, str] | None


def kannan_supremum(space: FiniteMetricSpace, t_map: SelfMap) -> KannanSupremum:
    """Supremum of d(Tx,Ty) / (d(Tx,x) + d(Ty,y)) over image-separated pairs.

    The classical condition is satisfiable with some alpha < 1/2 exactly
    when this value is below 1/2.  A pair with positive numerator and zero
    denominator makes the supremum unbounded; with no image-separated pair
    at all the supremum of the empty set is reported as 0.
    """
    best = 0.0
    best_pair: tuple[str, str] | None = None
    p = pairing(space, t_map, None, ConditionSpec(ConditionKind.CLASSICAL_KANNAN))
    terms = p.terms
    for i, ei in enumerate(terms):
        for j, t in enumerate(p.t_row(i)):
            if t > 0.0:
                s = ei + terms[j]
                if s == 0.0:
                    return KannanSupremum(math.inf, True, (space.labels[i], space.labels[j]))
                ratio = t / s
                if ratio > best:
                    best = ratio
                    best_pair = (space.labels[i], space.labels[j])
    return KannanSupremum(best, False, best_pair)

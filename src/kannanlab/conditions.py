"""Exhaustive contraction-condition sweeps over finite spaces.

A sweep walks every ordered pair of points in label order, so the first
violation reported is deterministic.  Pair skipping in the positive mode
drops pairs whose image distance (raised to the configured degree where
one applies) is zero within tolerance: the strict comparison forms are not
satisfiable at such pairs for the linear function families, and the
convergence arguments only ever invoke the condition on pairs with
distinct images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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


@dataclass(frozen=True)
class Pairing:
    """One condition's pair terms on one space: every condition compares
    t = d(ax, ay)^w with s = e(x) + e(y), with ``terms`` holding e raised to w."""

    space: FiniteMetricSpace
    image: tuple[int, ...]
    terms: tuple[float, ...]
    w: int

    def t_row(self, i: int) -> list[float]:
        """t of the pairs (i, j), j in index order (w = 1 skips the power)."""
        row, w = self.space.dist[self.image[i]], self.w
        return [row[b] for b in self.image] if w == 1 else [row[b] ** w for b in self.image]

    def pair(self, i: int, j: int) -> tuple[float, float]:
        t = self.space.dist[self.image[i]][self.image[j]]
        return t ** self.w, self.terms[i] + self.terms[j]

    def sweep(self, skip_tol: float) -> Iterator[tuple[int, int, float, float]]:
        """(i, j, t, s) of the ordered pairs in index order, except those with t <= skip_tol."""
        terms = self.terms
        for i, ei in enumerate(terms):
            for j, t in enumerate(self.t_row(i)):
                if t > skip_tol:
                    yield i, j, t, ei + terms[j]


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
    terms = tuple(dist[a][b] ** w for a, b in zip(maps[left], maps[right]))
    return Pairing(space, tuple(maps[image]), terms, w)


def _failure(spec: ConditionSpec, space: FiniteMetricSpace, s_map: SelfMap | None):
    """The pair test of ``spec``: a function of (i, j, t, s) that gives None
    when the pair passes and (value, required alpha) when it fails."""
    alpha, gamma = spec.alpha, spec.gamma
    if spec.kind in (ConditionKind.CLASSICAL_KANNAN, ConditionKind.KOPARDE_WAGHMODE):
        return lambda i, j, t, s: (
            None if t <= alpha * s else (alpha * s - t, _required_alpha(t, s))
        )
    if spec.kind is ConditionKind.MALCESKI:
        dist = space.dist
        s_of = range(space.n) if s_map is None else s_map.assignment

        def fails(i, j, t, s):
            rhs = alpha * s + gamma * dist[s_of[i]][s_of[j]]
            return None if t <= rhs else (rhs - t, None)

        return fails
    ev = spec.sigma.eval
    return lambda i, j, t, s: None if (value := ev(t, s)) > 0.0 else (value, None)


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
    failing pair in lexicographic index order.
    """
    skip_tol = tol if mode is PairMode.POSITIVE_PAIRS else -math.inf
    sweep = pairing(space, t_map, s_map, spec).sweep(skip_tol)
    fails = _failure(spec, space, s_map)
    checked = 0
    witness: PairWitness | None = None
    for i, j, t, s in sweep:
        checked += 1
        failure = fails(i, j, t, s)
        if failure is not None:
            witness = PairWitness(space.labels[i], space.labels[j], t, s, *failure)
            break
    # The first witness decides the report; the rest of the sweep is counted.
    checked += sum(1 for _ in sweep)
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
    classical = ConditionSpec(ConditionKind.CLASSICAL_KANNAN)
    for i, j, t, s in pairing(space, t_map, None, classical).sweep(0.0):
        if s == 0.0:
            return KannanSupremum(math.inf, True, (space.labels[i], space.labels[j]))
        ratio = t / s
        if ratio > best:
            best = ratio
            best_pair = (space.labels[i], space.labels[j])
    return KannanSupremum(best, False, best_pair)

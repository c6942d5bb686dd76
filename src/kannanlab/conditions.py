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

from .metric import DEFAULT_TOL, FiniteMetricSpace, SelfMap, identity_map, require_same_space
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
    require_same_space(space, t_map, s_map)

    kind = spec.kind
    if s_map is None or kind in (
        ConditionKind.CLASSICAL_KANNAN,
        ConditionKind.SIGMA_KANNAN,
        ConditionKind.KOPARDE_WAGHMODE,
    ):
        s_map = identity_map(space)

    n = space.n
    d = space.d
    t_of = t_map.assignment
    s_of = s_map.assignment
    st_of = tuple(s_of[v] for v in t_of)
    w = spec.w or 1

    checked = 0
    skipped = 0
    witness: PairWitness | None = None
    holds = True

    for i in range(n):
        for j in range(n):
            if kind is ConditionKind.CLASSICAL_KANNAN:
                t = d(t_of[i], t_of[j])
                s = d(t_of[i], i) + d(t_of[j], j)
                value = spec.alpha * s - t
                ok = t <= spec.alpha * s
                req = _required_alpha(t, s)
            elif kind is ConditionKind.SIGMA_KANNAN:
                t = d(t_of[i], t_of[j])
                s = d(t_of[i], i) + d(t_of[j], j)
                value = spec.sigma.eval(t, s)
                ok = value > 0.0
                req = None
            elif kind is ConditionKind.SIGMA_S_KANNAN:
                t = d(t_of[i], t_of[j])
                s = d(t_of[i], s_of[i]) + d(t_of[j], s_of[j])
                value = spec.sigma.eval(t, s)
                ok = value > 0.0
                req = None
            elif kind is ConditionKind.S_DOMINATED:
                t = d(st_of[i], st_of[j]) ** w
                s = d(s_of[i], st_of[i]) ** w + d(s_of[j], st_of[j]) ** w
                value = spec.sigma.eval(t, s)
                ok = value > 0.0
                req = None
            elif kind is ConditionKind.MALCESKI:
                t = d(st_of[i], st_of[j])
                bracket = d(s_of[i], st_of[i]) + d(s_of[j], st_of[j])
                s = bracket
                rhs = spec.alpha * bracket + spec.gamma * d(s_of[i], s_of[j])
                value = rhs - t
                ok = t <= rhs
                req = None
            elif kind is ConditionKind.KOPARDE_WAGHMODE:
                t = d(t_of[i], t_of[j]) ** 2
                s = d(i, t_of[i]) ** 2 + d(j, t_of[j]) ** 2
                value = spec.alpha * s - t
                ok = t <= spec.alpha * s
                req = _required_alpha(t, s)
            else:
                raise ValueError(f"unhandled condition kind {kind}")

            if mode is PairMode.POSITIVE_PAIRS and t <= tol:
                skipped += 1
                continue
            checked += 1
            if not ok and witness is None:
                holds = False
                witness = PairWitness(
                    space.labels[i], space.labels[j], t, s, value, req
                )
    return ConditionReport(kind, holds, checked, skipped, witness)


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
    require_same_space(space, t_map)
    d = space.d
    t_of = t_map.assignment
    best = 0.0
    best_pair: tuple[str, str] | None = None
    for i in range(space.n):
        for j in range(space.n):
            t = d(t_of[i], t_of[j])
            if not t > 0.0:
                continue
            s = d(t_of[i], i) + d(t_of[j], j)
            if s == 0.0:
                return KannanSupremum(
                    math.inf, True, (space.labels[i], space.labels[j])
                )
            ratio = t / s
            if ratio > best:
                best = ratio
                best_pair = (space.labels[i], space.labels[j])
    return KannanSupremum(best, False, best_pair)

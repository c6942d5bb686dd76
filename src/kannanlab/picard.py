"""Picard chains for operator pairs, diagnostics, and brute-force oracles.

A chain of the pair (T, S) from a base point picks each next point among
the S-preimages of the current T-image, so consecutive entries satisfy
S(x_{n+1}) = T(x_n) exactly.  On a finite space every chain ends in a
coincidence, a cycle, or a break where the needed preimage is missing; the
trace records which, along with the step distances d(S(x_n), T(x_n)) whose
tail behaviour the diagnostics summarize.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Callable, Sequence

from .metric import DEFAULT_TOL, FiniteMetricSpace, SelfMap, require_same_space

DEFAULT_MAX_ITER = 10_000
TAIL_WINDOW = 10

LOWEST_INDEX = "lowest-index"


class TraceTooShort(ValueError):
    """Diagnostics need at least two realized points."""


class NoClrBase(ValueError):
    """No base point anywhere admits an unbroken chain of the pair."""


@dataclass(frozen=True)
class Cycle:
    start: int
    period: int


@dataclass(frozen=True)
class PicardTrace:
    space: FiniteMetricSpace
    points: tuple[int, ...]
    s_images: tuple[int, ...]
    t_images: tuple[int, ...]
    step_distances: tuple[float, ...]
    coincidence_index: int | None
    cycle: Cycle | None
    chain_broken_at: int | None
    c_sequence: tuple[float, ...]

    def point_labels(self) -> tuple[str, ...]:
        return tuple(self.space.labels[i] for i in self.points)

    def cycle_labels(self) -> tuple[str, ...]:
        if self.cycle is None:
            return ()
        stop = self.cycle.start + self.cycle.period
        return tuple(self.space.labels[i] for i in self.points[self.cycle.start : stop])


def _s_preimages(s_map: SelfMap) -> dict[int, tuple[int, ...]]:
    """Each point of S's image mapped to its S-preimages in index order."""
    preimages: dict[int, list[int]] = {}
    for y, sy in enumerate(s_map.assignment):
        preimages.setdefault(sy, []).append(y)
    return {sy: tuple(ys) for sy, ys in preimages.items()}


def _live(preimages: dict[int, tuple[int, ...]], t_of: Sequence[int]) -> list[bool]:
    """Whether each point starts an unbroken chain of the pair.

    A point is live when it can reach a cycle of the successor relation
    x -> {y : S(y) = T(x)}; dead ends are peeled off until the live set is
    stable.  So every live point has a live successor.
    """
    successors = [preimages.get(tx, ()) for tx in t_of]
    alive = [bool(ys) for ys in successors]
    changed = True
    while changed:
        changed = False
        for x, ys in enumerate(successors):
            if alive[x] and not any(alive[y] for y in ys):
                alive[x] = False
                changed = True
    return alive


def find_clr_base(
    space: FiniteMetricSpace, t_map: SelfMap, s_map: SelfMap
) -> str | None:
    """First point from which an unbroken chain of the pair exists: the
    lowest live label, or None."""
    require_same_space(space, t_map, s_map)
    alive = _live(_s_preimages(s_map), t_map.assignment)
    for x in range(space.n):
        if alive[x]:
            return space.labels[x]
    return None


def run_picard_pair(
    space: FiniteMetricSpace,
    t_map: SelfMap,
    s_map: SelfMap,
    x0,
    policy: str | Callable[[tuple[int, ...]], int] = LOWEST_INDEX,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    tail_window: int = TAIL_WINDOW,
) -> PicardTrace:
    """Realize a chain of the pair from a base point.

    The chain stops at a coincidence (S and T send the current point to the
    same point, decided by index), at a break, at the iteration cap, or
    shortly after the first revisit; in the last case it is unrolled far
    enough past the detection for tail-window diagnostics to see the settled
    behaviour.  ``policy`` selects among several S-preimages: the default
    takes the first in label order from which some chain never breaks, or
    the first when there is none, or a callable receives the candidate
    tuple and returns one of its members.  From a point that
    :func:`find_clr_base` can return, the default chain never breaks.
    ``tol`` is inert: no point identity is decided with a tolerance.
    """
    require_same_space(space, t_map, s_map)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if isinstance(x0, int):
        if not 0 <= x0 < space.n:
            raise KeyError(f"index {x0} outside the space")
        start = x0
    else:
        start = space.index_of(x0)

    preimages = _s_preimages(s_map)
    live = cache(lambda: _live(preimages, t_map.assignment))

    def choose(target: int) -> int | None:
        candidates = preimages.get(target)
        if not candidates:
            return None
        if policy == LOWEST_INDEX:
            if len(candidates) > 1:
                return next((y for y in candidates if live()[y]), candidates[0])
            return candidates[0]
        picked = policy(candidates)
        if picked not in candidates:
            raise ValueError("policy returned a point that is not an S-preimage")
        return picked

    t_of = t_map.assignment
    s_of = s_map.assignment

    points = [start]
    positions = {start: 0}
    coincidence = 0 if s_of[start] == t_of[start] else None
    cycle: Cycle | None = None
    broken: int | None = None
    limit = max_iter

    while coincidence is None and broken is None and len(points) < limit:
        nxt = choose(t_of[points[-1]])
        if nxt is None:
            broken = len(points) - 1
            break
        idx = len(points)
        if nxt in positions and cycle is None:
            first = positions[nxt]
            period = idx - first
            cycle = Cycle(first, period)
            # Unroll past the detection point so tail diagnostics settle.
            limit = min(max_iter, idx + period + max(tail_window, period))
        points.append(nxt)
        positions.setdefault(nxt, idx)
        if s_of[nxt] == t_of[nxt]:
            coincidence = idx

    s_images = tuple(s_of[x] for x in points)
    t_images = tuple(t_of[x] for x in points)
    return PicardTrace(
        space=space,
        points=tuple(points),
        s_images=s_images,
        t_images=t_images,
        step_distances=tuple(map(space.d, s_images, t_images)),
        coincidence_index=coincidence,
        cycle=cycle,
        chain_broken_at=broken,
        c_sequence=tuple(_suffix_supremum(space, s_images)),
    )


def _suffix_supremum(space: FiniteMetricSpace, s_images: Sequence[int]) -> list[float]:
    """C_n = max pairwise distance among the realized S-images from n on."""
    d = space.d
    out = [0.0] * len(s_images)
    suffix: set[int] = set()
    best = 0.0
    for n in range(len(s_images) - 1, -1, -1):
        p = s_images[n]
        for q in suffix:
            dist = d(p, q)
            if dist > best:
                best = dist
        suffix.add(p)
        out[n] = best
    return out


@dataclass(frozen=True)
class DiagnosticsReport:
    asymptotically_regular: bool
    step_tail: float
    s_bounded: bool
    s_diameter: float
    s_cauchy: bool
    final_c: float
    s_asymptotically_similar: bool
    similarity_tail: float


def diagnose(
    trace: PicardTrace,
    space: FiniteMetricSpace,
    t_map: SelfMap,
    s_map: SelfMap,
    tol: float = DEFAULT_TOL,
    window: int = TAIL_WINDOW,
) -> DiagnosticsReport:
    """Tail diagnostics of a realized trace.

    A trace that ended in a coincidence continues constantly at that point,
    so its step distances and suffix suprema are eventually zero; the
    regularity and Cauchy flags account for that continuation.  All numbers
    reported are recomputable from the trace and the space.  The flags ask
    whether tail distances are 0, which on a validated space means that the
    points coincide, so they compare indices; ``tol`` is inert.
    """
    require_same_space(space, t_map, s_map)
    if len(trace.points) < 2:
        raise TraceTooShort("diagnostics need a trace of length >= 2")
    at_coincidence = trace.coincidence_index is not None

    step_tail = max(trace.step_distances[-window:])
    regular = at_coincidence or trace.s_images[-window:] == trace.t_images[-window:]

    s_diameter = trace.c_sequence[0] if trace.c_sequence else 0.0
    # The very last suffix supremum is trivially zero; read the value at the
    # start of the tail window so it spans the settled behaviour.
    final_c = trace.c_sequence[max(0, len(trace.c_sequence) - window)]
    cauchy = at_coincidence or len(set(trace.s_images[-window:])) == 1

    d = space.d
    t_of = t_map.assignment
    s_of = s_map.assignment
    # A trace ends at its coincidence.
    tail = trace.points[-1:] if at_coincidence else trace.points[-window:]
    similarity_tail = max(d(t_of[s_of[x]], s_of[s_of[x]]) for x in tail)
    similar = all(t_of[s_of[x]] == s_of[s_of[x]] for x in tail)

    return DiagnosticsReport(
        asymptotically_regular=regular,
        step_tail=step_tail,
        s_bounded=True,
        s_diameter=s_diameter,
        s_cauchy=cauchy,
        final_c=final_c,
        s_asymptotically_similar=similar,
        similarity_tail=similarity_tail,
    )


class SolveKind(Enum):
    FIXED_POINT = "fixed-point"
    COINCIDENCE_POINT = "coincidence-point"
    CYCLE = "cycle"
    CHAIN_BROKEN = "chain-broken"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SolveResult:
    kind: SolveKind
    point: str | None
    iterations: int | None
    cycle_points: tuple[str, ...]
    trace: PicardTrace


def solve(
    space: FiniteMetricSpace,
    t_map: SelfMap,
    s_map: SelfMap,
    x0=None,
    policy: str | Callable = LOWEST_INDEX,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> SolveResult:
    """Drive a chain to a fixed or coincidence point.

    Without an explicit base the first chain-admitting point is used; when
    none exists anywhere, :class:`NoClrBase` is raised.  A coincidence with
    the second map being the identity is reported as a fixed point.  ``tol``
    is inert: no point identity is decided with a tolerance.
    """
    if x0 is None:
        x0 = find_clr_base(space, t_map, s_map)
        if x0 is None:
            raise NoClrBase("no point admits an unbroken chain of the pair")
    trace = run_picard_pair(space, t_map, s_map, x0, policy=policy, max_iter=max_iter)
    if trace.coincidence_index is not None:
        idx = trace.points[trace.coincidence_index]
        kind = SolveKind.FIXED_POINT if s_map.is_identity else SolveKind.COINCIDENCE_POINT
        return SolveResult(
            kind, space.labels[idx], trace.coincidence_index, (), trace
        )
    if trace.chain_broken_at is not None:
        return SolveResult(SolveKind.CHAIN_BROKEN, None, trace.chain_broken_at, (), trace)
    if trace.cycle is not None:
        return SolveResult(SolveKind.CYCLE, None, None, trace.cycle_labels(), trace)
    return SolveResult(SolveKind.BUDGET_EXHAUSTED, None, None, (), trace)


@dataclass(frozen=True)
class BruteForceSets:
    fixed_points: tuple[str, ...]
    coincidence_points: tuple[str, ...]


def brute_force_points(
    space: FiniteMetricSpace, t_map: SelfMap, s_map: SelfMap | None = None
) -> BruteForceSets:
    """Exact fixed and coincidence sets by full scan (the oracle)."""
    require_same_space(space, t_map, s_map)
    fixed = tuple(
        space.labels[i] for i, v in enumerate(t_map.assignment) if v == i
    )
    if s_map is None:
        coincidence = fixed
    else:
        coincidence = tuple(
            space.labels[i]
            for i in range(space.n)
            if t_map.assignment[i] == s_map.assignment[i]
        )
    return BruteForceSets(fixed, coincidence)

"""Built-in demonstration spaces, maps, and scenarios.

Each catalog entry packages a small space with its operator pair and the
comparison function under which the relevant condition is known to hold or
fail, so the same inputs can be pulled up from scenario files, from the
command line, and from the regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .metric import (
    FiniteMetricSpace,
    SelfMap,
    build_self_map,
    build_truncated_harmonic_space,
    identity_map,
    space_from_values,
)

#: Members and parameters classified by the gallery sweep.
CLASSIFY_MEMBERS = (
    ("gamma", {}),
    ("beta", {}),
    ("step-g", {}),
    ("step-omega", {}),
    ("chi", {"alpha": 0.4}),
    ("tau", {}),
)
CLASSIFY_C_VALUES = (1.0, 2.0)


def five_point_pair() -> tuple[FiniteMetricSpace, SelfMap, SelfMap]:
    """Points 1..5 under |x - y|; T is 3 except T(4) = 2, S is 3 except S(4) = 5."""
    space = space_from_values([1, 2, 3, 4, 5])
    t = build_self_map(space, {"1": "3", "2": "3", "3": "3", "4": "2", "5": "3"})
    s = build_self_map(space, {"1": "3", "2": "3", "3": "3", "4": "5", "5": "3"})
    return space, t, s


def three_point_cycle() -> tuple[FiniteMetricSpace, SelfMap, SelfMap]:
    """Points 1..3 under |x - y|; T(1) = T(2) = 3 and T(3) = 2, no fixed point."""
    space = space_from_values([1, 2, 3])
    t = build_self_map(space, {"1": "3", "2": "3", "3": "2"})
    return space, t, identity_map(space)


def harmonic_pair(n_max: int = 50) -> tuple[FiniteMetricSpace, SelfMap, SelfMap]:
    truncation = build_truncated_harmonic_space(n_max)
    return truncation.space, truncation.t, truncation.s


def thirds_grid(cells: int = 100) -> tuple[FiniteMetricSpace, SelfMap, SelfMap]:
    """Grid 0.00 .. 1.00 with T = x/3 truncated down to the grid.

    Rounding down keeps the squared contraction inequality valid on every
    pair; rounding to nearest breaks it between the two smallest positive
    grid points.
    """
    labels = [f"{k / cells:.2f}" for k in range(cells + 1)]
    values = [k / cells for k in range(cells + 1)]
    space = space_from_values(values, labels)
    t = SelfMap(space, tuple(k // 3 for k in range(cells + 1)))
    return space, t, identity_map(space)


@dataclass(frozen=True)
class Example:
    """One catalog entry: its space and operator pair, the gallery member
    (name and parameters) and c constant conventionally paired with it, and
    the theorem it illustrates with that theorem's degree ``w`` and base
    point ``x0`` where the entry fixes them."""

    build: Callable[[], tuple[FiniteMetricSpace, SelfMap, SelfMap]]
    sigma: tuple[str, dict[str, float]]
    theorem: str
    c: float = 1.0
    w: int | None = None
    x0: str | None = None


EXAMPLES = {
    "ex-3.24": Example(five_point_pair, ("linear", {"slope": 3.0 / 7.0}), "T3.18"),
    "ex-3.26": Example(three_point_cycle, ("tau", {}), "T3.18"),
    "ex-3.34": Example(harmonic_pair, ("chi", {"alpha": 1.0 / 3.0}), "T3.29", w=1),
    "ex-3.35": Example(five_point_pair, ("chi", {"alpha": 0.45}), "T3.29", w=1),
    "koparde-demo": Example(thirds_grid, ("chi", {"alpha": 0.3}), "C3.31", w=2, x0="1.00"),
    "patel-deheri-demo": Example(harmonic_pair, ("chi", {"alpha": 1.0 / 3.0}), "C3.32", w=1),
}
#: Every id ``reproduce`` accepts: the catalog entries plus the gallery sweep.
EXAMPLE_IDS = (*EXAMPLES, "classify-gallery")

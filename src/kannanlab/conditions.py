"""Exhaustive contraction-condition sweeps over finite spaces.

Every condition sees a pair (x, y) only through its two images, which give
t = d(ax, ay)^w, and its two per-point terms e(x), e(y), which give
s = e(x) + e(y).  So a sweep works on image classes: a class is one
distinct image with its multiplicity and its least term.  t is computed
once per pair of classes, and the checked pairs are counted from that
table, apart from the search.

The search goes a row at a time, in index order, and stops at the first
failing pair, so the violation reported is the lexicographically first.
The classical and squared forms, and the Kannan supremum, are monotone in
the two terms, so a class that passes at its least term passes at each of
its points (the weakest-member rule, see :meth:`Pairing.first_hit`): a
sweep that holds costs one test per pair of classes, and only a row that
fails against the class minima is searched pair by pair.  So are the sigma
forms whose sigma's ratio profile rises with s (gamma and the linear
family), and malceski is tested at the class level by the classical test
with its alpha wherever every d(Sx, Sy) is a number in [0, inf) (see
:func:`_pair_tests`).  The other sigma forms (the steps, theta-geraghty,
custom handles and callables) test every pair.

Pair skipping in the positive mode drops pairs whose image distance
(raised to the configured degree where one applies) is zero within
tolerance: the strict comparison forms are not satisfiable at such pairs
for the linear function families, and the convergence arguments only ever
invoke the condition on pairs with distinct images.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from operator import itemgetter

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
    if not (isinstance(alpha, Real) and 0.0 < alpha < 0.5):
        raise ValueError("classical condition requires 0 < alpha < 1/2")
    return ConditionSpec(ConditionKind.CLASSICAL_KANNAN, alpha=alpha)


def _require_sigma(sigma) -> None:
    if not isinstance(sigma, ComparisonFn):
        raise ValueError("sigma condition requires a comparison function")


def sigma_kannan(sigma: ComparisonFn) -> ConditionSpec:
    _require_sigma(sigma)
    return ConditionSpec(ConditionKind.SIGMA_KANNAN, sigma=sigma)


def sigma_s_kannan(sigma: ComparisonFn) -> ConditionSpec:
    _require_sigma(sigma)
    return ConditionSpec(ConditionKind.SIGMA_S_KANNAN, sigma=sigma)


def s_dominated(sigma: ComparisonFn, w: int) -> ConditionSpec:
    if not (isinstance(w, int) and w >= 1):
        raise ValueError("degree w must be a positive integer")
    _require_sigma(sigma)
    return ConditionSpec(ConditionKind.S_DOMINATED, sigma=sigma, w=w)


def malceski(alpha: float, gamma: float) -> ConditionSpec:
    if not (isinstance(alpha, Real) and alpha > 0.0):
        raise ValueError("malceski condition requires alpha > 0")
    if not isinstance(gamma, Real) or gamma < 0.0:
        raise ValueError("malceski condition requires gamma >= 0")
    if not 2.0 * alpha + gamma < 1.0:
        raise ValueError("malceski condition requires 2*alpha + gamma < 1")
    return ConditionSpec(ConditionKind.MALCESKI, alpha=alpha, gamma=gamma)


def koparde_waghmode(alpha: float) -> ConditionSpec:
    if not (isinstance(alpha, Real) and 0.0 < alpha < 0.5):
        raise ValueError("squared condition requires 0 < alpha < 1/2")
    return ConditionSpec(ConditionKind.KOPARDE_WAGHMODE, alpha=alpha)


#: Each kind's constructor and the spec fields it takes, in argument order.
#: A sweep refuses a directly built spec that its constructor refuses, and
#: a scenario's ``check`` section builds its spec through this table.
_CONSTRUCTORS = {
    ConditionKind.CLASSICAL_KANNAN: (classical_kannan, ("alpha",)),
    ConditionKind.SIGMA_KANNAN: (sigma_kannan, ("sigma",)),
    ConditionKind.SIGMA_S_KANNAN: (sigma_s_kannan, ("sigma",)),
    ConditionKind.S_DOMINATED: (s_dominated, ("sigma", "w")),
    ConditionKind.MALCESKI: (malceski, ("alpha", "gamma")),
    ConditionKind.KOPARDE_WAGHMODE: (koparde_waghmode, ("alpha",)),
}


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


def _picker(indices: Sequence[int]):
    """The function that takes a sequence to the tuple of its items at ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


class PowerOverflow(ValueError):
    """A distance raised to the condition's degree w is beyond the double range."""

    def __init__(self, w: int):
        super().__init__(f"a distance raised to w = {w} overflows a double")


def _powered(row: Sequence[float], w: int) -> Sequence[float]:
    """``d ** w`` for each d in ``row`` (w = 1 keeps the row).  A powered row
    is an array of doubles, so that a table makes no k^2 float objects:
    lists of floats raised the peak memory of a long run of sweeps."""
    try:
        return row if w == 1 else array("d", [d**w for d in row])
    except OverflowError:
        raise PowerOverflow(w) from None


@dataclass(frozen=True)
class Pairing:
    """One condition's pair terms on one space: every condition compares
    t = d(ax, ay)^w with s = ``terms[x] + terms[y]``, ``terms`` holding e(x)^w.

    Point x is in class ``classes[x]``; class c holds the points whose image
    is ``heads[c]``, ``counts[c]`` of them, and ``least[c]`` is their least
    term.  When some term is negative or NaN (a table built without
    validation, or a diagonal entry below 0 within tolerance), each point
    is its own class, so every test is per pair.
    """

    space: FiniteMetricSpace
    terms: tuple[float, ...]
    w: int
    classes: tuple[int, ...]
    heads: tuple[int, ...]
    counts: tuple[int, ...]
    least: tuple[float, ...]

    def table(self) -> list[Sequence[float]]:
        """t of every pair of classes, row a holding the pairs (a, b) in
        class order: k^2 values for k classes."""
        pick, dist, w = _picker(self.heads), self.space.dist, self.w
        return [_powered(pick(dist[h]), w) for h in self.heads]

    def t_row(self, i: int) -> list[float]:
        """t of the pairs (i, j), j in index order."""
        row, heads = self.space.dist[self.heads[self.classes[i]]], self.heads
        return list(_powered([row[heads[b]] for b in self.classes], self.w))

    def pair(self, i: int, j: int) -> tuple[float, float]:
        return self.t_row(i)[j], self.terms[i] + self.terms[j]

    def checked(self, table: list[Sequence[float]], skip_tol: float) -> int:
        """How many ordered pairs have t > skip_tol (a NaN t does not): each
        class pair (a, b) of ``table`` counts k_a * k_b times.  The pairs
        left out are few, so they are the ones counted."""
        counts = self.counts
        skipped = sum(
            ka * sum([kb for t, kb in zip(row, counts) if not t > skip_tol])
            for row, ka in zip(table, counts)
        )
        return len(self.terms) ** 2 - skipped

    def weakest(self, table: list[Sequence[float]], hit) -> Callable[[int], bool]:
        """The weakest-member test of ``hit``: whether class a hits at its
        least term, ``hit(None, least[a], table[a], least)`` (see
        :meth:`first_hit`)."""
        least = self.least
        return lambda a: hit(None, least[a], table[a], least) is not None

    def first_hit(
        self, table: list[Sequence[float]], hit, weak: Callable[[int], bool] | None, coarse=None
    ):
        """``(i, found)`` for the first row i, in index order, where
        ``found = hit(i, terms[i], t_row(i), terms)`` is not None, or None.

        ``hit(i, e, row, terms)`` searches one row: the pairs with t
        ``row[j]`` and terms ``e`` and ``terms[j]``.  Given ``weak``, the
        class-level test ``coarse`` (``hit`` itself by default) must find a
        pair wherever ``hit`` finds one, and whenever it finds one with
        smaller terms and the same t (it is monotone); ``weak(a)`` must say
        whether class a hits ``coarse`` at its least term (:meth:`weakest`).
        Then a row is searched only if its class hits there and the row hits
        ``coarse`` against the class minima, ``coarse(i, terms[i], table[a],
        least)``.  Each such test is exact: a class's least term is a
        point's term, and by monotonicity no point of a class that passes at
        the least terms can fail.  So only without ``weak`` does ``hit`` see
        each pair once, up to the one it finds: a sigma the rule decides is
        evaluated at class pairs as well, and not at every checked pair.

        The classical and squared tests are monotone for alpha > 0: for
        non-negative terms fl(alpha * fl(e_x + e_y)) is non-decreasing in
        each term, because rounding is monotone, so if t <= alpha * s holds
        at the two least terms of classes (a, b) it holds at every pair of
        their points.  With a negative or NaN term each point is its own
        class, where the class-level tests read each pair's own terms.  The
        other kinds' class-level tests are those of :func:`_pair_tests`.
        """
        classes, terms, least = self.classes, self.terms, self.least
        coarse = coarse or hit
        expand = _picker(classes)
        weak_at: dict[int, bool] = {}
        for i, a in enumerate(classes):
            class_row = table[a]
            if weak is not None:
                if a not in weak_at:
                    weak_at[a] = weak(a)
                if not weak_at[a] or coarse(i, terms[i], class_row, least) is None:
                    continue
            found = hit(i, terms[i], expand(class_row), terms)
            if found is not None:
                return i, found
        return None


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
    terms = tuple(_powered([dist[a][b] for a, b in zip(maps[left], maps[right])], w))
    image = maps[image]
    index: dict[int, int] = {}
    classes = tuple([index.setdefault(a, len(index)) for a in image])
    counts, least = [0] * len(index), [math.inf] * len(index)
    for a, e in zip(classes, terms):
        if not e >= 0.0:
            return Pairing(space, terms, w, tuple(range(n)), tuple(image), (1,) * n, terms)
        counts[a] += 1
        if e < least[a]:
            least[a] = e
    return Pairing(space, terms, w, classes, tuple(index), tuple(counts), tuple(least))


def _pair_tests(spec: ConditionSpec, p: Pairing, s_of: Sequence[int], skip_tol: float):
    """``(row_test, class_test)`` for ``spec``.

    ``row_test`` is the pair test along one row, as :meth:`Pairing.first_hit`
    takes it: a function of (i, e, row, terms) that gives (j, value, required
    alpha) for the first j in index order whose pair is checked (t >
    skip_tol) and fails, or None.  Only malceski reads i, and its u = d(Sx,
    Sy) through S's assignment ``s_of``.

    ``class_test`` stands for it at the class level under the weakest-member
    rule of :meth:`Pairing.first_hit`, or is None where every pair is
    searched.  A sigma it is None for is evaluated only on checked pairs, up
    to the first failure.

    - The classical and squared forms: their row test, monotone as
      :meth:`Pairing.first_hit` shows.
    - A sigma form whose sigma's profile rises with s
      (:attr:`~kannanlab.sigma._Ratio.rises_with_s`): its row test.  For
      non-negative terms fl(e_x + e_y) is non-decreasing in each term, and
      for each t positivity of eval only grows with s, so a pair that fails
      has a failing pair at any smaller terms and the same t.
    - malceski: the classical row test with the same alpha, where every u
      is a number in [0, inf) (:func:`_non_negative`).  Then fl(gamma * u)
      >= 0 with gamma >= 0, so fl(fl(alpha * s) + fl(gamma * u)) >= fl(alpha
      * s) by monotone rounding, and a pair that passes the classical test,
      at the same alpha and skip, passes malceski's; the classical test is
      monotone.  A negative u (a validated table's diagonal may hold one in
      [-tol, 0)) or a NaN one breaks that, and 0 * inf is NaN, so such a
      table is searched pair by pair.
    """
    kind, alpha, gamma = spec.kind, spec.alpha, spec.gamma
    if kind in (ConditionKind.CLASSICAL_KANNAN, ConditionKind.KOPARDE_WAGHMODE):
        test = _alpha_test(alpha, skip_tol)
        return test, test
    if kind is ConditionKind.MALCESKI:
        dist = p.space.dist

        def first_failure(i, ei, row, terms):
            ds = dist[s_of[i]]
            for j, t in enumerate(row):
                if t > skip_tol:
                    rhs = alpha * (ei + terms[j]) + gamma * ds[s_of[j]]
                    if not t <= rhs:
                        return j, rhs - t, None
            return None

        return first_failure, _alpha_test(alpha, skip_tol) if _non_negative(p.space, s_of) else None
    ev, profile = spec.sigma.eval, spec.sigma.profile

    def first_failure(i, ei, row, terms):
        for j, t in enumerate(row):
            if t > skip_tol:
                value = ev(t, ei + terms[j])
                if not value > 0.0:
                    return j, value, None
        return None

    return first_failure, first_failure if profile is not None and profile.rises_with_s else None


def _alpha_test(alpha: float, skip_tol: float):
    """The classical row test, t <= alpha * s, as :func:`_pair_tests` gives it."""

    def first_failure(i, ei, row, terms):
        for j, t in enumerate(row):
            if t > skip_tol and not t <= alpha * (ei + terms[j]):
                s = ei + terms[j]
                return j, alpha * s - t, _required_alpha(t, s)
        return None

    return first_failure


def _non_negative(space: FiniteMetricSpace, s_of: Sequence[int]) -> bool:
    """Whether every u = d(a, b), a and b in S's image, is a number in [0,
    inf), as far as whole rows tell: whether each image point's row is
    (``FiniteMetricSpace._bounded_rows``).  On a validated table, whose
    other distances are positive and finite, that is exact: every image
    point's diagonal entry is >= 0."""
    rows = space._bounded_rows
    return len(rows) == space.n or all([a in rows for a in s_of])


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
    :meth:`Pairing.checked` counts the checked pairs, reached or not.  A
    spec that its kind's constructor refuses raises that ``ValueError``.
    """
    build, fields = _CONSTRUCTORS[spec.kind]
    build(*(getattr(spec, field) for field in fields))
    skip_tol = tol if mode is PairMode.POSITIVE_PAIRS else -math.inf
    p = pairing(space, t_map, s_map, spec)
    table = p.table()
    s_of = range(space.n) if s_map is None else s_map.assignment
    first_failure, coarse = _pair_tests(spec, p, s_of, skip_tol)
    weak = None if coarse is None else p.weakest(table, coarse)
    found = p.first_hit(table, first_failure, weak, coarse)
    witness: PairWitness | None = None
    if found is not None:
        i, (j, value, required) = found
        t, s = table[p.classes[i]][p.classes[j]], p.terms[i] + p.terms[j]
        witness = PairWitness(space.labels[i], space.labels[j], t, s, value, required)
    checked = p.checked(table, skip_tol)
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


def _zero_sum(i, ei, row, terms) -> int | None:
    """The first j along a row with t > 0 and s == 0."""
    for j, (t, e) in enumerate(zip(row, terms)):
        if t > 0.0 and ei + e == 0.0:
            return j
    return None


def _ratios(ei, row, terms) -> list[float]:
    """t / s along a row, with t / 0 read as inf, and 0.0 where t is not positive."""
    return [
        (t / (ei + e) if ei + e else math.inf) if t > 0.0 else 0.0 for t, e in zip(row, terms)
    ]


def kannan_supremum(space: FiniteMetricSpace, t_map: SelfMap) -> KannanSupremum:
    """Supremum of d(Tx,Ty) / (d(Tx,x) + d(Ty,y)) over image-separated pairs.

    The classical condition is satisfiable with some alpha < 1/2 exactly
    when this value is below 1/2.  A pair with positive numerator and zero
    denominator makes the supremum unbounded, and the first such pair in
    index order is reported; otherwise the first pair that reaches the
    maximum is.  With no image-separated pair at all the supremum of the
    empty set is reported as 0.

    The maximum is taken over the table of classes at their least terms,
    and both searches follow the weakest-member rule of
    :meth:`Pairing.first_hit`.  For t > 0 and s >= 0, fl(t / fl(e_x + e_y))
    (inf at s == 0) is non-increasing in each term, because rounding is
    monotone, so each class pair reaches its largest ratio at its least
    terms.  For non-negative terms s == 0 exactly when both terms are 0, so
    some pair has s == 0 only if a pair of least terms does, and then the
    maximum is inf; a maximum of inf without such a pair is a quotient
    beyond the double range.
    """
    p = pairing(space, t_map, None, ConditionSpec(ConditionKind.CLASSICAL_KANNAN))
    table, least, labels = p.table(), p.least, space.labels
    row_best = [
        max([r for r in _ratios(least[a], row, least) if r > 0.0], default=0.0)
        for a, row in enumerate(table)
    ]
    best = max(row_best, default=0.0)
    if best == math.inf:
        found = p.first_hit(table, _zero_sum, p.weakest(table, _zero_sum))
        if found is not None:
            i, j = found
            return KannanSupremum(math.inf, True, (labels[i], labels[j]))
    if best == 0.0:
        return KannanSupremum(0.0, False, None)

    def reaches(i, ei, row, terms):
        # No ratio exceeds the maximum, so the first to reach it equals it.
        ratios = _ratios(ei, row, terms)
        return ratios.index(best) if best in ratios else None

    i, j = p.first_hit(table, reaches, lambda a: row_best[a] >= best)
    return KannanSupremum(best, False, (labels[i], labels[j]))

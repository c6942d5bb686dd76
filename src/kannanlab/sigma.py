"""Two-argument comparison functions and the axiom checker.

A comparison function sigma(t, s) drives every contraction condition in the
package.  The interesting axioms quantify over *all* positive sequences,
which no finite computation can certify, so verdicts form a three-way
lattice: a closed-form certificate attached to a gallery member yields
``CERTIFIED_HOLDS``, a replayable counterexample yields ``FALSIFIED``, and
an exhausted search budget yields ``UNDETERMINED``.

Falsification searches walk structured sequence families (constants,
geometric decays, harmonic approaches, linear growth) before random grids.
Constant-sequence counterexamples are exact because constant sequences
converge; family-based ones verify positivity over the realized prefix and
at sparse far-tail indices of the closed form.  Each axiom is one entry of
``_AXIOMS``, which the search, the witness replay and the classifier all
read.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

DEFAULT_BUDGET = 10_000
DEFAULT_PREFIX = 64
WITNESS_TERMS = 24

# Deterministic scan lists used before any random probing.
CANONICAL_POSITIVE = (1.0, 2.0, 0.5, 3.0, 1.5, 0.25, 4.0, 0.1, 5.0, 0.75, 8.0, 10.0)
GEOMETRIC_STARTS = (1.0, 2.0, 0.5)
GEOMETRIC_RATIOS = (0.5, 0.9)
TAIL_PROBES = (1_000, 10_000, 1_000_000)
GEOMETRIC_TAIL_PROBES = (100, 500, 1_000)


class UnknownGallery(ValueError):
    """Requested gallery name does not exist."""


class MissingParam(ValueError):
    """A gallery member needs a parameter that was not supplied."""


class ParamOutOfRange(ValueError):
    """A supplied parameter violates the member's admissible range."""


class SubUnitCWarning(UserWarning):
    """Emitted when a limit-ratio constant below 1 is supplied."""


class AxiomKind(Enum):
    SIGMA1 = "sigma1"
    SIGMA2 = "sigma2"
    DOLLAR = "dollar"
    UPPER_BOUND = "upper-bound"
    ZETA3 = "zeta3"
    ETA2 = "eta2"
    RHO1 = "rho1"
    RHO2 = "rho2"
    GERAGHTY = "geraghty"
    L_FUNCTION = "l-function"


class Outcome(Enum):
    CERTIFIED_HOLDS = "certified-holds"
    FALSIFIED = "falsified"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Interval:
    """A real interval with independently open or closed endpoints."""

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def contains(self, x: float) -> bool:
        if x < self.lo or (self.lo_open and x == self.lo):
            return False
        if x > self.hi or (self.hi_open and x == self.hi):
            return False
        return True

    def describe(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        hi = "inf" if self.hi == float("inf") else f"{self.hi:g}"
        return f"{left}{self.lo:g}, {hi}{right}"


@dataclass(frozen=True)
class WitnessSequence:
    """A closed-form sequence family together with its realized prefix.

    ``family`` is one of ``constant``, ``geometric``, ``harmonic``,
    ``harmonic-below``, ``linear`` or ``pair``; a ``pair`` witness carries
    its two component families in ``components``.
    """

    family: str
    params: tuple[tuple[str, float], ...] = ()
    first_terms: tuple[float, ...] = ()
    components: tuple["WitnessSequence", ...] = ()

    def param(self, key: str) -> float:
        return dict(self.params)[key]

    def term(self, n: int) -> float:
        return _family_term(self.family, dict(self.params), n)

    def limit(self) -> float:
        """Closed-form limit; ``inf`` for linear growth."""
        p = dict(self.params)
        if self.family == "constant":
            return p["value"]
        if self.family == "geometric":
            return 0.0 if p["ratio"] < 1.0 else float("inf")
        if self.family in ("harmonic", "harmonic-below"):
            return p["limit"]
        if self.family == "linear":
            return float("inf")
        raise ValueError(f"no scalar limit for family {self.family!r}")


def _family_term(family: str, p: dict[str, float], n: int) -> float:
    if family == "constant":
        return p["value"]
    if family == "geometric":
        return p["start"] * p["ratio"] ** (n - 1)
    if family == "harmonic":
        return p["limit"] * (1.0 + 1.0 / n)
    if family == "harmonic-below":
        return p["limit"] * (1.0 - 1.0 / (n + 1))
    if family == "linear":
        return p["scale"] * n
    raise ValueError(f"unknown family {family!r}")


def make_witness(family: str, n_terms: int = WITNESS_TERMS, **params: float) -> WitnessSequence:
    items = tuple(sorted(params.items()))
    terms = tuple(_family_term(family, dict(items), n) for n in range(1, n_terms + 1))
    return WitnessSequence(family, items, terms)


def make_pair_witness(a: WitnessSequence, b: WitnessSequence) -> WitnessSequence:
    return WitnessSequence("pair", (), (), (a, b))


@dataclass(frozen=True)
class AxiomVerdict:
    kind: AxiomKind
    outcome: Outcome
    witness: WitnessSequence | None = None
    budget_used: int = 0
    detail: str = ""


@dataclass(frozen=True)
class ComparisonFn:
    """A named two-argument real function with its analytic metadata.

    ``eval`` must be total and deterministic on [0, inf) x [0, inf).
    ``analytic_certificates`` lists parameterless axioms known to hold in
    closed form; the limit-ratio axiom carries its own certified interval
    because it is parameterized.  ``declared_c_range`` records the
    advertised membership interval for the sigma-class, when any.
    """

    name: str
    eval: Callable[[float, float], float]
    params: tuple[tuple[str, float], ...] = ()
    declared_c_range: Interval | None = None
    analytic_certificates: frozenset = frozenset()
    sigma2_certificate: Interval | None = None
    handles: tuple[tuple[str, Callable[[float], float]], ...] = ()
    notes: str = ""

    def param(self, key: str, default: float | None = None) -> float | None:
        return dict(self.params).get(key, default)

    def handle(self, key: str) -> Callable[[float], float] | None:
        return dict(self.handles).get(key)


# --------------------------------------------------------------------------
# Gallery
# --------------------------------------------------------------------------


def _half(t: float) -> float:
    return 0.5 * t


def _half_on_positive(t: float) -> float:
    return 0.5 * t if t > 0 else 0.0


def _reciprocal_decay(t: float) -> float:
    return 1.0 / (1.0 + t)


def _identity_fn(t: float) -> float:
    return t


def _make_linear(name: str, slope: float, declared: Interval | None) -> ComparisonFn:
    certs = {AxiomKind.DOLLAR}
    notes = ""
    if slope < 0.5:
        certs.add(AxiomKind.SIGMA1)
        ratio = slope / (1.0 - slope)
        notes = f"positivity along consecutive-sum pairs forces a_n < {ratio:.12g} * a_(n-1)"
    if slope < 1.0:
        certs |= {
            AxiomKind.UPPER_BOUND,
            AxiomKind.ZETA3,
            AxiomKind.ETA2,
            AxiomKind.RHO1,
            AxiomKind.RHO2,
        }

    def evaluate(t: float, s: float, a: float = slope) -> float:
        return a * s - t

    return ComparisonFn(
        name=name,
        eval=evaluate,
        params=(("slope", slope),),
        declared_c_range=declared,
        analytic_certificates=frozenset(certs),
        sigma2_certificate=Interval(0.0, 1.0 / slope),
        notes=notes,
    )


def _param(
    params: dict, member: str, key: str, ok: Callable[[float], bool], requirement: str
) -> float:
    """Pop the member's one numeric parameter, reject any other, check its range."""
    if key not in params:
        raise MissingParam(f"{member} requires parameter {key!r}")
    value = float(params.pop(key))
    _reject_extras(member, params)
    if not ok(value):
        raise ParamOutOfRange(f"{member} requires {requirement}")
    return value


def gallery(name: str, **params) -> ComparisonFn:
    """Construct a gallery member by name.

    Step functions and the piecewise average need no parameters; the linear
    families need ``alpha`` (or ``slope`` for the raw linear form); the
    theta variants additionally accept a unary handle (``pi_fn``, ``g_fn``,
    ``l_fn``) with sensible defaults.
    """
    if name not in GALLERY_NAMES:
        raise UnknownGallery(f"unknown gallery member {name!r}")
    return _GALLERY_BUILDERS[name](dict(params))


def _build_gamma(params: dict) -> ComparisonFn:
    _reject_extras("gamma", params)

    def evaluate(t: float, s: float) -> float:
        return 0.5 * s - 1.5 * t if t < s else 0.0

    return ComparisonFn(
        name="gamma",
        eval=evaluate,
        declared_c_range=Interval(0.0, 3.0),
        analytic_certificates=frozenset({AxiomKind.SIGMA1, AxiomKind.DOLLAR}),
        sigma2_certificate=Interval(0.0, 3.0),
        notes="positivity along consecutive-sum pairs forces a_n < a_(n-1) / 2",
    )


def _build_beta(params: dict) -> ComparisonFn:
    _reject_extras("beta", params)
    return _make_linear("beta", 0.5, None)


def _make_step(name: str, params: dict, evaluate: Callable[[float, float], float]) -> ComparisonFn:
    _reject_extras(name, params)
    return ComparisonFn(
        name=name,
        eval=evaluate,
        declared_c_range=Interval(1.0, float("inf")),
        analytic_certificates=frozenset({AxiomKind.SIGMA1}),
        sigma2_certificate=Interval(1.0, float("inf")),
        notes="first axiom is vacuous: consecutive-sum pairs always evaluate to -1",
    )


def _build_step_g(params: dict) -> ComparisonFn:
    return _make_step("step-g", params, lambda t, s: -1.0 if t <= s else 1.0)


def _build_step_omega(params: dict) -> ComparisonFn:
    return _make_step("step-omega", params, lambda t, s: -1.0 if t < s else 1.0)


def _build_chi(params: dict) -> ComparisonFn:
    alpha = _param(params, "chi", "alpha", lambda a: 0.0 < a < 0.5, "0 < alpha < 1/2")
    return replace(_make_linear("chi", alpha, Interval(0.0, 2.0)), params=(("alpha", alpha),))


def _build_linear(params: dict) -> ComparisonFn:
    slope = _param(params, "linear", "slope", lambda s: s > 0.0, "slope > 0")
    declared = Interval(0.0, 2.0) if slope < 0.5 else None
    return _make_linear("linear", slope, declared)


def _build_tau(params: dict) -> ComparisonFn:
    _reject_extras("tau", params)
    # Membership fails on the first axiom, but the limit-ratio axiom holds
    # up to c = 3/2 in closed form.
    return replace(_make_linear("tau", 2.0 / 3.0, None), sigma2_certificate=Interval(0.0, 1.5))


def _make_theta(
    name: str,
    params: dict,
    key: str,
    handle,
    shape: Callable[..., Callable[[float, float], float]],
    default: tuple[Callable[[float], float], AxiomKind] | None = None,
    closed: bool = False,
    notes: str = "",
) -> ComparisonFn:
    """A theta variant whose eval is ``shape(alpha, handle)``.

    ``default`` is the handle used, with the axiom it certifies, when the
    caller passes none; ``closed`` admits alpha = 1/2.
    """
    in_range = (lambda a: 0.0 < a <= 0.5) if closed else (lambda a: 0.0 < a < 0.5)
    alpha = _param(params, name, "alpha", in_range, f"0 < alpha {'<=' if closed else '<'} 1/2")
    certs = {AxiomKind.SIGMA1, AxiomKind.DOLLAR}
    if handle is None and default is not None:
        handle, certified = default
        certs.add(certified)
    if not callable(handle):
        raise ParamOutOfRange(f"{key}_fn must be callable")
    return ComparisonFn(
        name=name,
        eval=shape(alpha, handle),
        params=(("alpha", alpha),),
        declared_c_range=Interval(1.0, 2.0, lo_open=False, hi_open=False),
        analytic_certificates=frozenset(certs),
        sigma2_certificate=Interval(0.0, 1.0 / alpha, hi_open=not closed),
        handles=((key, handle),),
        notes=notes,
    )


def _build_theta_pi(params: dict) -> ComparisonFn:
    pi_fn = params.pop("pi_fn", _half)
    return _make_theta(
        "theta-pi", params, "pi", pi_fn, lambda a, pi: lambda t, s: a * pi(s) - t,
        notes="handle contract: pi(t) <= t on [0, inf)",
    )


def _build_theta_geraghty(params: dict) -> ComparisonFn:
    g_fn = params.pop("g_fn", None)
    return _make_theta(
        "theta-geraghty", params, "g", g_fn, lambda a, g: lambda t, s: a * g(s) * s - t,
        default=(_reciprocal_decay, AxiomKind.GERAGHTY),
        closed=True,
        notes="handle contract: g maps [0, inf) into [0, 1)",
    )


def _build_theta_l(params: dict) -> ComparisonFn:
    l_fn = params.pop("l_fn", None)
    return _make_theta(
        "theta-l", params, "l", l_fn, lambda a, l: lambda t, s: a * l(s) - t,
        default=(_half_on_positive, AxiomKind.L_FUNCTION),
    )


def _build_psi_phi(params: dict) -> ComparisonFn:
    psi_fn = params.pop("psi_fn", _half)
    phi_fn = params.pop("phi_fn", _identity_fn)
    _reject_extras("psi-phi", params)
    if not callable(psi_fn) or not callable(phi_fn):
        raise ParamOutOfRange("psi_fn and phi_fn must be callable")

    def evaluate(t: float, s: float) -> float:
        return psi_fn(s) - phi_fn(t)

    return ComparisonFn(
        name="psi-phi",
        eval=evaluate,
        analytic_certificates=frozenset(
            {AxiomKind.UPPER_BOUND, AxiomKind.ZETA3, AxiomKind.DOLLAR}
        ),
        handles=(("psi", psi_fn), ("phi", phi_fn)),
        notes="handle contract: psi, phi continuous, zero only at 0, psi(t) < t <= phi(t)",
    )


def _reject_extras(member: str, params: dict) -> None:
    if params:
        raise ParamOutOfRange(f"{member} got unexpected parameter(s) {sorted(params)}")


_GALLERY_BUILDERS = {
    "gamma": _build_gamma,
    "beta": _build_beta,
    "step-g": _build_step_g,
    "step-omega": _build_step_omega,
    "chi": _build_chi,
    "theta-pi": _build_theta_pi,
    "theta-geraghty": _build_theta_geraghty,
    "theta-l": _build_theta_l,
    "tau": _build_tau,
    "psi-phi": _build_psi_phi,
    "linear": _build_linear,
}
GALLERY_NAMES = tuple(_GALLERY_BUILDERS)


# --------------------------------------------------------------------------
# Axiom definitions
# --------------------------------------------------------------------------


class _Exhausted(Exception):
    """The evaluation budget ran out before the probe schedule did."""


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: float):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _Exhausted


class _Pairing(NamedTuple):
    """Witness terms to eval's (t, s): ``at`` reads term functions at an index
    n >= ``start``; ``at_constant`` takes the values of constant sequences,
    or is None when those values already are (t, s)."""

    start: int
    at: Callable[..., tuple[float, float]]
    at_constant: Callable[..., tuple[float, float]] | None


_POINTWISE = _Pairing(1, lambda a, b, n: (a(n), b(n)), None)
_CONSECUTIVE_SUM = _Pairing(2, lambda a, b, n: (a(n), a(n - 1) + a(n)), lambda a: (a, a + a))
_CONSECUTIVE = _Pairing(1, lambda a, b, n: (a(n + 1), a(n)), lambda a: (a, a))


class _Axiom(NamedTuple):
    """An axiom on eval along witness sequences, with its probe schedule.

    ``schedule`` lists ``(candidates, detail, exact)`` phases in order.
    ``candidates(c, rng)`` yields, per candidate witness, the values of its
    components when ``exact`` (constant sequences) and ``(family, params)``
    per component otherwise.  ``detail`` is formatted with the component
    limits ``a`` and ``b`` and, when exact, the probed ``t``, ``s``,
    ``value`` = eval(t, s), quantity ``q`` and ``gap`` = s - t.

    With ``threshold`` None a witness violates the axiom when t, s and
    eval(t, s) stay positive at every probed index; otherwise when the
    limsup of ``quantity(t, s, eval(t, s))`` (eval itself when None) reaches
    the threshold: exactly for constant sequences, by a tail estimate above
    ``threshold + 1e-9`` for families.  Families are probed at the first
    ``prefix_len`` indices and at the far ``tail``.  ``claim(a, b, c)`` is
    the limit statement that makes a violating witness a counterexample.
    """

    pairing: _Pairing
    claim: Callable[[WitnessSequence, WitnessSequence, float], bool]
    schedule: tuple[tuple[Callable, str, bool], ...]
    tail: tuple[int, ...] = ()
    threshold: float | None = None
    quantity: Callable[[float, float, float], float] | None = None

    def search(self, fn, c, rng, prefix_len, b):
        for candidates, detail, exact in self.schedule:
            hit = self.violation(fn.eval, candidates(c, rng), exact, prefix_len, b)
            if hit is not None:
                cand, fields = hit
                if exact:
                    parts = [make_witness("constant", value=v) for v in cand]
                else:
                    parts = [make_witness(family, **params) for family, params in cand]
                witness = make_pair_witness(*parts) if len(parts) == 2 else parts[0]
                return witness, detail.format(a=parts[0].limit(), b=parts[-1].limit(), **fields)
        return None, _NOT_FOUND

    def replay(self, fn, witness, c):
        parts = witness.components or (witness,)
        if len(parts) != (2 if self.pairing is _POINTWISE else 1):
            return False
        exact = all(w.family == "constant" for w in parts)
        if exact:
            cand = tuple(w.param("value") for w in parts)
        else:
            cand = tuple((w.family, dict(w.params)) for w in parts)
        hit = self.violation(fn.eval, (cand,), exact, DEFAULT_PREFIX, _Budget(float("inf")))
        return hit is not None and self.claim(parts[0], parts[-1], c)

    def violation(self, ev, candidates, exact, prefix_len, b):
        """The first candidate violating the axiom, with its detail fields.

        Each evaluation spends one unit of ``b`` first; overspending raises
        :class:`_Exhausted`.
        """
        quantity, threshold = self.quantity, self.threshold
        used, limit = b.used, b.limit
        try:
            if exact:
                at = self.pairing.at_constant
                for cand in candidates:
                    used += 1
                    if used > limit:
                        raise _Exhausted
                    t, s = cand if at is None else at(*cand)
                    value = ev(t, s)
                    q = value if quantity is None else quantity(t, s, value)
                    if (t > 0 and s > 0 and q > 0.0) if threshold is None else q >= threshold:
                        return cand, {"t": t, "s": s, "value": value, "q": q, "gap": s - t}
                return None
            at, start = self.pairing.at, self.pairing.start
            for cand in candidates:
                terms = [partial(_family_term, family, params) for family, params in cand]
                qs = []
                for n in itertools.chain(range(start, start + prefix_len), self.tail):
                    used += 1
                    if used > limit:
                        raise _Exhausted
                    t, s = at(terms[0], terms[-1], n)
                    if threshold is None:
                        if t <= 0 or s <= 0 or not ev(t, s) > 0.0:
                            break
                    else:
                        value = ev(t, s)
                        qs.append(value if quantity is None else quantity(t, s, value))
                else:
                    # The limsup estimate is the largest value of the last quarter.
                    if threshold is None or max(qs[-max(1, len(qs) // 4):]) > threshold + 1e-9:
                        return cand, {}
            return None
        finally:
            b.used = used


class _HandleAxiom(NamedTuple):
    """An axiom on the unary handle ``name`` of a gallery member.

    ``probes(rng)`` lists ``(family, x)`` witnesses in order: a constant
    sequence of value x, or linear growth of scale x.  ``violation(h,
    family, x, budget)`` says how that witness breaks the axiom, or is None.
    """

    name: str
    violation: Callable[..., str | None]
    probes: Callable[[random.Random], Iterable[tuple[str, float]]]

    def search(self, fn, c, rng, prefix_len, b):
        h = fn.handle(self.name)
        if h is None:
            return None, "no unary handle to check"
        for family, x in self.probes(rng):
            detail = self.violation(h, family, x, b)
            if detail is not None:
                return make_witness(family, **{_PARAM[family]: x}), detail
        return None, _NOT_FOUND

    def replay(self, fn, witness, c):
        h = fn.handle(self.name)
        if h is None or witness.family not in ("constant", "linear"):
            return False
        x = witness.param(_PARAM[witness.family])
        return self.violation(h, witness.family, x, _Budget(float("inf"))) is not None


_NOT_FOUND = "no counterexample found within budget"


def _geraghty_violation(g, family: str, x: float, b: _Budget) -> str | None:
    # g maps [0, inf) into [0, 1), and values approaching 1 far from the
    # origin contradict the decay demand.
    if family == "constant":
        b.spend()
        v = g(x)
        return f"g({x:g}) = {v:g} outside [0, 1)" if v < 0.0 or v >= 1.0 else None
    probes = []
    for k in range(1, 7):
        b.spend()
        probes.append(g(x * 10.0**k))
    return "g tends to 1 along a divergent sequence" if min(probes[-2:]) >= 1.0 - 1e-9 else None


def _l_function_violation(l, family: str, x: float, b: _Budget) -> str | None:
    # l(0) = 0 and 0 < l(x) <= x for x > 0: no window [x, x + delta] can
    # stay below x when the left endpoint already exceeds it.
    b.spend()
    v = l(x)
    if x == 0.0:
        return f"l(0) = {v:g} != 0" if abs(v) > 1e-12 else None
    if v <= 0.0:
        return f"l({x:g}) = {v:g} not strictly positive"
    return f"l({x:g}) = {v:g} > {x:g}" if v > x + 1e-12 else None


_PARAM = {"constant": "value", "harmonic": "limit", "harmonic-below": "limit", "linear": "scale"}


def _seq(family: str, x: float) -> tuple[str, dict[str, float]]:
    return family, {_PARAM[family]: x}


def _scan(rng: random.Random) -> Iterator[float]:
    yield from CANONICAL_POSITIVE
    for _ in range(200):
        yield rng.uniform(1e-6, 10.0)


def _singles(c: float, rng: random.Random) -> Iterator[tuple[float]]:
    return ((x,) for x in _scan(rng))


def _grid(c: float, rng: random.Random) -> Iterator[tuple[float, float]]:
    return itertools.product(CANONICAL_POSITIVE, CANONICAL_POSITIVE)


def _draws(c: float, rng: random.Random) -> Iterator[tuple[float, float]]:
    while True:
        yield rng.uniform(1e-6, 10.0), rng.uniform(1e-6, 10.0)


def _each(family: str) -> Callable:
    return lambda c, rng: ((_seq(family, x),) for x in CANONICAL_POSITIVE)


def _geometric_partners(firsts: list[tuple], ratios: tuple[float, ...]) -> Callable:
    """Each first family against every geometric sequence of the given ratios."""
    return lambda c, rng: (
        (a, ("geometric", {"start": start, "ratio": ratio}))
        for a in firsts
        for start in GEOMETRIC_STARTS
        for ratio in ratios
    )


def _combos(*families: tuple[str, str], scaled: bool = False) -> Callable:
    """Each pair of families at every canonical level x, the second at c * x if scaled."""
    return lambda c, rng: (
        (_seq(fa, x), _seq(fb, c * x if scaled else x))
        for x in CANONICAL_POSITIVE
        for fa, fb in families
    )


# Limit claims: what makes a witness (a, b) that violates an axiom a counterexample.


def _same_limit(a: WitnessSequence, b: WitnessSequence, c: float = 1.0) -> bool:
    return a.limit() > 0.0 and abs(b.limit() - c * a.limit()) <= 1e-9


def _prefix(w: WitnessSequence) -> list[float]:
    return [w.term(n) for n in range(1, WITNESS_TERMS + 1)]


def _same_limit_from_above(a: WitnessSequence, b: WitnessSequence, c: float) -> bool:
    return _same_limit(a, b) and all(x > a.limit() for x in _prefix(a))


def _bounded_and_non_increasing(a: WitnessSequence, b: WitnessSequence, c: float) -> bool:
    return a.limit() < float("inf") and all(x >= y for x, y in itertools.pairwise(_prefix(b)))


# Family names and canonical levels, abbreviated for the table.
_CP = CANONICAL_POSITIVE
_H, _HB, _K, _LIN = "harmonic", "harmonic-below", "constant", "linear"
_AXIOMS = {
    # Positivity along (a_n, a_(n-1) + a_n) forces a_n -> 0.
    AxiomKind.SIGMA1: _Axiom(_CONSECUTIVE_SUM, lambda a, b, c: a.limit() != 0.0, (
        (_singles, "constant sequence a_n = {a:g} stays positive under the pairing", True),
        (_each(_H), "harmonic family converges to {a:g}, not 0", False),
        (_each(_LIN), "linearly growing family diverges", False),
    ), TAIL_PROBES),
    # Positivity along a_n -> L > 0, b_n -> c * L is impossible.
    AxiomKind.SIGMA2: _Axiom(_POINTWISE, _same_limit, (
        (lambda c, rng: ((x, c * x) for x in _scan(rng)),
         "constant pair a_n = {a:g}, b_n = {b:g} with L = {a:g} > 0", True),
        (_combos((_HB, _K), (_H, _K), (_K, _H), (_K, _HB), scaled=True),
         "paired family with a_n -> {a:g} > 0, b_n -> {b:g}", False),
    ), TAIL_PROBES),
    # Positivity with b_n -> 0 forces a_n -> 0.
    AxiomKind.DOLLAR: _Axiom(_POINTWISE, lambda a, b, c: b.limit() == 0.0 and a.limit() != 0.0, (
        (_geometric_partners([_seq(_K, x) for x in _CP] + [_seq(_H, x) for x in _CP[:6]],
                             GEOMETRIC_RATIOS),
         "b_n -> 0 geometrically while a_n -> {a:g} > 0", False),
    ), GEOMETRIC_TAIL_PROBES),
    # eval(t, s) < s - t for all t, s > 0: any violating pair is a counterexample.
    # For floats, value - (s - t) >= 0 holds exactly when value >= s - t.
    AxiomKind.UPPER_BOUND: _Axiom(_POINTWISE, lambda a, b, c: True, (
        (_grid, "eval({t:g}, {s:g}) = {value:g} >= s - t = {gap:g}", True),
        (_draws, "eval({t:g}, {s:g}) >= s - t", True),
    ), threshold=0.0, quantity=lambda t, s, value: value - (s - t)),
    # limsup eval(t_n, s_n) < 0 when t_n and s_n share a positive limit.
    AxiomKind.ZETA3: _Axiom(_POINTWISE, lambda a, b, c: _same_limit(a, b), (
        (lambda c, rng: ((x, x) for x in _scan(rng)),
         "constant pair at {a:g} gives limsup {q:g} >= 0", True),
        (_combos((_H, _HB), (_HB, _H), (_H, _H)),
         "equal-limit family at {a:g} has tail estimate > 0", False),
    ), threshold=0.0),
    # limsup (t_n + eval(t_n, s_n)) / s_n < 1 for bounded t_n, non-increasing s_n.
    AxiomKind.ETA2: _Axiom(_POINTWISE, _bounded_and_non_increasing, (
        (_grid, "constant pair ({t:g}, {s:g}) gives ratio {q:g} >= 1", True),
        (_geometric_partners([_seq(_K, x) for x in _CP[:6]], (0.9,)),
         "ratio tail estimate exceeds 1", False),
    ), threshold=1.0, quantity=lambda t, s, value: (t + value) / s),
    # Positivity along (a_(n+1), a_n) forces a_n -> 0.
    AxiomKind.RHO1: _Axiom(_CONSECUTIVE, lambda a, b, c: a.limit() != 0.0, (
        (_singles, "constant sequence at {a:g} stays positive under consecutive pairing", True),
        (_each(_LIN), "linearly growing sequence keeps consecutive pairing positive", False),
        (_each(_H), "harmonic family converges to {a:g}, not 0", False),
    ), TAIL_PROBES),
    # Positivity is impossible when both sequences tend to L > 0 with a_n > L.
    AxiomKind.RHO2: _Axiom(_POINTWISE, _same_limit_from_above, (
        (_combos((_H, _K), (_H, _H), (_H, _HB)),
         "both sequences converge to {a:g} > 0 with a_n above the limit", False),
    ), TAIL_PROBES),
    AxiomKind.GERAGHTY: _HandleAxiom(
        "g",
        _geraghty_violation,
        lambda rng: [(_K, x) for x in (0.0,) + _CP] + [(_LIN, 1.0), (_LIN, 10.0)],
    ),
    AxiomKind.L_FUNCTION: _HandleAxiom(
        "l",
        _l_function_violation,
        lambda rng: ((_K, x) for x in itertools.chain((0.0,), _scan(rng))),
    ),
}


# --------------------------------------------------------------------------
# Axiom checking and witness replay
# --------------------------------------------------------------------------


def check_axiom(
    fn: ComparisonFn,
    kind: AxiomKind,
    c: float = 1.0,
    budget: int = DEFAULT_BUDGET,
    prefix_len: int = DEFAULT_PREFIX,
    seed: int = 0,
) -> AxiomVerdict:
    """Decide one axiom for one function, within an evaluation budget.

    Certificates short-circuit the search.  The limit-ratio axiom takes the
    constant ``c``; values below 1 are accepted with a warning and are
    vacuously true under the adopted reading (the paired limits cannot then
    be ordered unless both are zero).
    """
    certified = None
    if kind is AxiomKind.SIGMA2:
        if not c > 0:
            raise ValueError("c must be > 0")
        if c < 1.0:
            warnings.warn(
                f"limit-ratio constant c={c:g} below 1 is outside the usual range",
                SubUnitCWarning,
                stacklevel=2,
            )
            certified = "vacuously true for c < 1: no positive limit satisfies c*L >= L"
        elif fn.sigma2_certificate is not None and fn.sigma2_certificate.contains(c):
            certified = f"certified for c in {fn.sigma2_certificate.describe()}"
    elif kind in fn.analytic_certificates:
        certified = fn.notes
    if certified is not None:
        return AxiomVerdict(kind, Outcome.CERTIFIED_HOLDS, detail=certified)

    b = _Budget(budget)
    try:
        witness, detail = _AXIOMS[kind].search(fn, c, random.Random(seed), prefix_len, b)
    except _Exhausted:
        witness, detail = None, _NOT_FOUND
    outcome = Outcome.UNDETERMINED if witness is None else Outcome.FALSIFIED
    return AxiomVerdict(kind, outcome, witness, b.used, detail)


def replay_witness(
    fn: ComparisonFn, kind: AxiomKind, witness: WitnessSequence, c: float = 1.0
) -> bool:
    """Re-run a stored counterexample and confirm it violates the axiom.

    Re-runs the check of the axiom's definition that found the witness (the
    one-index test for constant sequences, the prefix-and-tail test at the
    default prefix length for families, the handle itself for handle
    axioms), plus the closed-form limit claim that makes the sequence a
    counterexample.
    """
    return _AXIOMS[kind].replay(fn, witness, c)


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

CLASS_CONSTITUENTS = {
    "simulation": (AxiomKind.ZETA3, AxiomKind.UPPER_BOUND),
    "manageable": (AxiomKind.UPPER_BOUND, AxiomKind.ETA2),
    "r-function": (AxiomKind.RHO1, AxiomKind.RHO2),
    "dollar": (AxiomKind.DOLLAR,),
}


@dataclass(frozen=True)
class ClassVerdict:
    name: str
    outcome: Outcome
    failing_axiom: AxiomKind | None = None
    witness: WitnessSequence | None = None
    detail: str = ""


@dataclass(frozen=True)
class ClassificationMatrix:
    fn_name: str
    sigma_c: tuple[tuple[float, ClassVerdict], ...]
    simulation: ClassVerdict
    manageable: ClassVerdict
    r_function: ClassVerdict
    dollar: ClassVerdict
    axiom_verdicts: tuple[tuple[str, AxiomVerdict], ...]

    def sigma_c_at(self, c: float) -> ClassVerdict:
        for value, verdict in self.sigma_c:
            if value == c:
                return verdict
        raise KeyError(f"no verdict computed for c = {c}")


def classify(
    fn: ComparisonFn,
    c_values: Iterable[float] = (1.0,),
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> ClassificationMatrix:
    """Classify a function across the four axiom systems plus the decay tag.

    A class verdict is certified only when every constituent axiom is, and
    is falsified as soon as any constituent is, carrying that constituent's
    witness.
    """
    cache: dict[tuple[AxiomKind, float | None], AxiomVerdict] = {}

    def combine(name: str, kinds: tuple[AxiomKind, ...], c: float | None = None) -> ClassVerdict:
        verdicts = []
        for kind in kinds:
            key = (kind, c if kind is AxiomKind.SIGMA2 else None)
            if key not in cache:
                at_c = 1.0 if key[1] is None else key[1]
                cache[key] = check_axiom(fn, kind, c=at_c, budget=budget, seed=seed)
            verdicts.append((kind, cache[key]))
        for kind, v in verdicts:
            if v.outcome is Outcome.FALSIFIED:
                return ClassVerdict(name, Outcome.FALSIFIED, kind, v.witness, v.detail)
        if all(v.outcome is Outcome.CERTIFIED_HOLDS for _, v in verdicts):
            return ClassVerdict(name, Outcome.CERTIFIED_HOLDS)
        return ClassVerdict(name, Outcome.UNDETERMINED)

    sigma_c = tuple(
        (float(c), combine(f"sigma-c({c:g})", (AxiomKind.SIGMA1, AxiomKind.SIGMA2), c))
        for c in c_values
    )
    classes = {name: combine(name, kinds) for name, kinds in CLASS_CONSTITUENTS.items()}
    origin = fn.eval(0.0, 0.0)
    if abs(origin) > 1e-12:
        classes["simulation"] = ClassVerdict(
            "simulation",
            Outcome.FALSIFIED,
            None,
            make_pair_witness(
                make_witness("constant", value=0.0), make_witness("constant", value=0.0)
            ),
            detail=f"eval(0, 0) = {origin:g} != 0",
        )

    flat = tuple(
        (f"{kind.value}" + (f"@c={c:g}" if c is not None else ""), verdict)
        for (kind, c), verdict in sorted(
            cache.items(), key=lambda kv: (kv[0][0].value, kv[0][1] or 0.0)
        )
    )
    return ClassificationMatrix(
        fn_name=fn.name,
        sigma_c=sigma_c,
        simulation=classes["simulation"],
        manageable=classes["manageable"],
        r_function=classes["r-function"],
        dollar=classes["dollar"],
        axiom_verdicts=flat,
    )

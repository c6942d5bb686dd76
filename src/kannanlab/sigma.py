"""Two-argument comparison functions and the axiom checker.

A comparison function sigma(t, s) drives every contraction condition in the
package.  The interesting axioms quantify over *all* positive sequences,
which no finite computation can certify, so verdicts form a three-way
lattice: the exact decision on a gallery member's ratio profile, or a
closed-form certificate attached to a member without one, yields
``CERTIFIED_HOLDS``; a replayable counterexample yields ``FALSIFIED``; and
an exhausted search budget yields ``UNDETERMINED``.

Gallery members whose eval is s * phi(t / s) (gamma, beta, chi, tau,
linear, and psi-phi, theta-pi and theta-l, which with the package's own
handles are the linear(m) they equal) or phi(t / s) (the step functions)
are that profile: their float eval is derived from it, and every axiom on
that eval is decided from it in exact rationals: holds with the
reduction's reason, or fails with the counterexample the search would
report, built in closed form.  Either way no evaluation is spent.
Certificates remain only for theta-geraghty, which has no profile, and for
the axioms on unary handles.

Every other cell is searched.  Falsification searches walk structured
sequence families (constants, geometric decays, harmonic approaches,
linear growth) before random grids.  Constant-sequence counterexamples are
exact because constant sequences converge; family-based ones verify
positivity over the realized prefix and at sparse far-tail indices of the
closed form.  Each axiom is one entry of ``_AXIOMS``, which the search,
the witness replay and the classifier all read, and has one reduction in
``_REDUCTIONS``.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from numbers import Real
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
        return _family(self.family).term(dict(self.params), n)

    def limit(self) -> float:
        """Closed-form limit; ``inf`` for linear growth."""
        if self.family not in _FAMILIES:
            raise ValueError(f"no scalar limit for family {self.family!r}")
        return _FAMILIES[self.family].limit(dict(self.params))


class _Family(NamedTuple):
    """A sequence family: the parameter a one-parameter witness of it sets,
    its n-th term (n >= 1) and its limit, each read from its parameters."""

    level: str
    term: Callable[[dict[str, float], int], float]
    limit: Callable[[dict[str, float]], float]


_FAMILIES = {
    "constant": _Family("value", lambda p, n: p["value"], lambda p: p["value"]),
    "geometric": _Family(
        "start",
        lambda p, n: p["start"] * p["ratio"] ** (n - 1),
        lambda p: 0.0 if p["ratio"] < 1.0 else float("inf"),
    ),
    "harmonic": _Family("limit", lambda p, n: p["limit"] * (1.0 + 1.0 / n), lambda p: p["limit"]),
    "harmonic-below": _Family(
        "limit", lambda p, n: p["limit"] * (1.0 - 1.0 / (n + 1)), lambda p: p["limit"]
    ),
    "linear": _Family("scale", lambda p, n: p["scale"] * n, lambda p: float("inf")),
}


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return _FAMILIES[name]


def make_witness(family: str, n_terms: int = WITNESS_TERMS, **params: float) -> WitnessSequence:
    items = tuple(sorted(params.items()))
    term, p = _family(family).term, dict(items)
    terms = [term(p, n) for n in range(1, n_terms + 1)]
    return WitnessSequence(family, items, tuple(terms))


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
    ``analytic_certificates`` holds ``(kind, reason)`` pairs: each
    parameterless axiom known to hold in closed form, with why it holds; the
    limit-ratio axiom carries its own certified interval because it is
    parameterized.  Only a member without a profile (theta-geraghty) and
    the axioms on unary handles have them.  ``profile`` is the ratio profile
    of a gallery member whose eval depends on t / s alone (up to the factor
    s), with the package's own handles; its axioms on eval are decided from
    it exactly instead of searched.  Such a member's eval is derived from
    its profile: the float form p * s - q * t (p, when unscaled) of the piece
    that comparing t with s picks, and phi(1) * s at t = s only where phi
    jumps at 1.  Any other function has no profile.
    """

    name: str
    eval: Callable[[float, float], float]
    params: tuple[tuple[str, float], ...] = ()
    analytic_certificates: frozenset = frozenset()
    sigma2_certificate: Interval | None = None
    handles: tuple[tuple[str, Callable[[float], float]], ...] = ()
    profile: _Ratio | None = None

    def param(self, key: str, default: float | None = None) -> float | None:
        return dict(self.params).get(key, default)

    def handle(self, key: str) -> Callable[[float], float] | None:
        return dict(self.handles).get(key)


@dataclass(frozen=True)
class _Ratio:
    """A ratio profile: on t, s > 0, eval(t, s) = s * phi(t / s) when
    ``scaled`` and phi(t / s) otherwise, where phi(r) = p - q * r for r < 1
    with ``below`` = (p, q), phi(1) = ``one``, and phi(r) = p - q * r for
    r > 1 with ``above`` = (p, q).  Every coefficient is an exact rational;
    an unscaled profile has q = 0 on both pieces.

    It is hashed once, when built: a cached decision looks its profile up by
    value, and ``Fraction.__hash__`` takes a modular inverse per coefficient.
    """

    scaled: bool
    below: tuple[Fraction, Fraction]
    one: Fraction
    above: tuple[Fraction, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.scaled, self.below, self.one, self.above)))

    def __hash__(self) -> int:
        return self._hash

    def phi(self, r: Fraction) -> Fraction:
        if r == 1:
            return self.one
        p, q = self.below if r < 1 else self.above
        return p - q * r

    def value(self, t: Fraction, s: Fraction) -> Fraction:
        v = self.phi(t / s)
        return s * v if self.scaled else v

    def positive_below(self, lo: Fraction, hi: Fraction) -> bool:
        """phi > 0 on [lo, hi) for lo < hi <= 1: phi is affine there."""
        p, q = self.below
        return p - q * lo > 0 and p - q * hi >= 0

    def positive_above(self, hi: Fraction) -> bool:
        """phi > 0 on (1, hi]: phi is affine there."""
        p, q = self.above
        return p - q >= 0 and p - q * hi > 0

    def nonpositive_near_one(self) -> bool:
        """phi <= 0 at 1 and on both sides near it.  Below 1, phi(r) = p - q *
        r tends to p - q; where that is 0, phi(r) = q * (1 - r) is <= 0 iff q
        <= 0.  Past 1 likewise, with q >= 0."""
        (p, q), (p2, q2) = self.below, self.above
        return self.one <= 0 and (p < q or p == q <= 0) and (p2 < q2 or p2 == q2 >= 0)


def _piece(scaled: bool, p: Fraction, q: Fraction) -> Callable[[float, float], float]:
    """The float form of one piece: p * s - q * t, or the constant p where
    it reads neither argument, that is unscaled (q = 0) or at p = q = 0, so
    that no sign of a zero argument leaks into 0.  A unit q is not
    multiplied: 1.0 * t is t bit for bit.  The coefficients are bound as
    defaults, which a call reads faster than closure cells: a linear(m)
    eval costs what a hand-written m * s - t does."""
    a, b = float(p), float(q)
    if not scaled or p == q == 0:
        return lambda t, s, a=a: a
    if q == 1:
        return lambda t, s, a=a: a * s - t
    return lambda t, s, a=a, b=b: a * s - b * t


def _profile_eval(f: _Ratio) -> Callable[[float, float], float]:
    """The eval of a profiled member, derived from its profile f: the float
    form of the piece below 1 where t < s and of the piece above it where t
    > s.  At t = s it is the piece below, whose value there is phi(1) * s
    (phi(1), unscaled) unless phi jumps at 1; where it jumps, phi(1) * s
    itself.  With equal pieces and no jump, as for every linear(m), that is
    one affine form with no piece test."""
    (p, q), scaled = f.below, f.scaled
    below, jumps = _piece(scaled, p, q), f.one != p - q
    if not jumps and f.above == f.below:
        return below
    above = _piece(scaled, *f.above)
    at_one = _piece(scaled, f.one, 0) if jumps else below
    return lambda t, s: below(t, s) if t < s else above(t, s) if t > s else at_one(t, s)


# --------------------------------------------------------------------------
# Gallery
# --------------------------------------------------------------------------


def _half(t: float) -> float:
    return 0.5 * t


def _half_on_positive(t: float) -> float:
    return 0.5 * t if t > 0 else 0.0


def _reciprocal_decay(t: float) -> float:
    # g(0) = 0 keeps the range inside [0, 1); eval reads g(s) only times s.
    return 1.0 / (1.0 + t) if t > 0 else 0.0


def _identity_fn(t: float) -> float:
    return t


def _linear(m: float) -> _Ratio:
    """linear(m), m * s - t: phi(r) = m - r on both pieces."""
    m = Fraction(m)
    return _Ratio(True, (m, 1), m - 1, (m, 1))


def _halved(alpha: float) -> _Ratio:
    """alpha * h(s) - t with h(s) = s / 2 is linear(alpha / 2)."""
    return _linear(_half(alpha))


def _step(at_one: int) -> _Ratio:
    """phi(r) = -1 below r = 1, ``at_one`` at 1 and +1 past it."""
    return _Ratio(False, (Fraction(-1), Fraction(0)), Fraction(at_one), (Fraction(1), Fraction(0)))


def _open_alpha(a: float) -> str | None:
    return None if 0.0 < a < 0.5 else "0 < alpha < 1/2"


def _halving_alpha(a: float) -> str | None:
    # Only a halving slope reaches 0: from alpha = 5e-324, the least double.
    return _open_alpha(a) or (None if _half(a) else f"alpha / 2 > 0; alpha={a!r} halves to 0")


def _scaled_handle(a: float, h: Callable[[float], float]) -> Callable[[float, float], float]:
    return lambda t, s: a * h(s) - t


def _geraghty(a: float, g: Callable[[float], float]) -> Callable[[float, float], float]:
    return lambda t, s: a * g(s) * s - t


def _geraghty_certificates(alpha: float) -> tuple[frozenset, Interval]:
    """theta-geraghty's certificates with its default g(t) = 1 / (1 + t),
    g(0) = 0.  alpha * g(s) * s - t is no function of t / s, so it has no
    ratio profile, and its axioms are certified by hand.

    0 <= g < 1 makes f(t, s) = alpha * g(s) * s - t lie below l(t, s) =
    alpha * s - t, which is linear(alpha), on [0, inf)^2.  If f <= l, f
    satisfies each axiom of linear(alpha) below, and alpha <= 1/2 < 1 gives
    linear(alpha) all of them:
    - upper bound: f(t, s) <= l(t, s) < s - t;
    - zeta3, eta2: the limsups of f and of (t + f) / s are at most l's;
    - $, rho1: positivity of f along a sequence is positivity of l, which
      forces the limit l's axiom names;
    - rho2: positivity of f would be positivity of l, ruled out.
    sigma1 holds even at alpha = 1/2: positivity along (a_n, a_(n-1) + a_n)
    gives a_n < g(s) (a_(n-1) + a_n) / 2 < (a_(n-1) + a_n) / 2, so a_n
    decreases to some L, and L > 0 would need g(2L) = 1.  sigma2(c) holds
    for c in (0, 1/alpha]: a_n -> L > 0 and b_n -> c * L make f tend to
    L * (alpha * c * g(c * L) - 1) < 0, as g < 1.  A custom g gets no
    certificate.
    """
    kinds = (AxiomKind.DOLLAR, AxiomKind.UPPER_BOUND, AxiomKind.ZETA3, AxiomKind.ETA2,
             AxiomKind.RHO1, AxiomKind.RHO2)
    certs = dict.fromkeys(kinds, f"dominated by linear({alpha:.12g})")
    certs |= dict.fromkeys((AxiomKind.GERAGHTY, AxiomKind.SIGMA1), "g(t) = 1 / (1 + t), g(0) = 0")
    return frozenset(certs.items()), Interval(0.0, 1.0 / alpha, hi_open=False)


class _Member(NamedTuple):
    """One gallery member.

    ``rule`` is its numeric parameter as (key, requirement), where
    ``requirement(x)`` names what x fails, or is None; a member with a
    ``fixed`` value takes no parameter but records that one under the key,
    and a member without a rule takes none.  ``profile(*x)`` is its ratio
    profile with its default handles, None for theta-geraghty.  ``defaults``
    pairs each unary handle with its default, and ``shape(*x, *handles)`` is
    the eval of custom handles.  ``own`` holds the (axiom, reason)
    certificates of the default handles' own axioms.
    """

    rule: tuple[str, Callable[[float], str | None]] | None
    profile: Callable[..., _Ratio] | None
    defaults: tuple[tuple[str, Callable[[float], float]], ...] = ()
    shape: Callable[..., Callable[[float, float], float]] | None = None
    own: frozenset = frozenset()
    fixed: float | None = None


_ALPHA = ("alpha", _open_alpha)
_HALVING_ALPHA = ("alpha", _halving_alpha)
_SLOPE = ("slope", lambda m: None if 0.0 < m < float("inf") else "finite slope > 0")
_GALLERY = {
    # phi(r) = 1/2 - 3r/2 below 1 and 0 from 1 on.
    "gamma": _Member(None, partial(
        _Ratio, True, (Fraction(1, 2), Fraction(3, 2)), Fraction(0), (Fraction(0), Fraction(0))
    )),
    "beta": _Member(_SLOPE, _linear, fixed=0.5),
    "step-g": _Member(None, partial(_step, -1)),
    "step-omega": _Member(None, partial(_step, 1)),
    "chi": _Member(_ALPHA, _linear),
    "theta-pi": _Member(_HALVING_ALPHA, _halved, (("pi", _half),), _scaled_handle),
    "theta-geraghty": _Member(
        ("alpha", lambda a: None if 0.0 < a <= 0.5 else "0 < alpha <= 1/2"), None,
        (("g", _reciprocal_decay),), _geraghty,
    ),
    "theta-l": _Member(
        _HALVING_ALPHA, _halved, (("l", _half_on_positive),), _scaled_handle,
        frozenset({(AxiomKind.L_FUNCTION, "l(t) = t / 2 for t > 0, l(0) = 0")}),
    ),
    # Membership fails on the first axiom, but the limit-ratio axiom holds
    # up to c = 3/2 in closed form.
    "tau": _Member(_SLOPE, _linear, fixed=2.0 / 3.0),
    "psi-phi": _Member(
        None, partial(_linear, 0.5), (("psi", _half), ("phi", _identity_fn)),
        lambda psi, phi: lambda t, s: psi(s) - phi(t),
    ),
    "linear": _Member(_SLOPE, _linear),
}
GALLERY_NAMES = tuple(_GALLERY)


def gallery(name: str, **params) -> ComparisonFn:
    """Construct a gallery member by name.

    Step functions and the piecewise average need no parameters; the linear
    families need ``alpha`` (or ``slope`` for the raw linear form), a real
    number and not a ``bool``; the theta variants additionally accept a
    unary handle (``pi_fn``, ``g_fn``, ``l_fn``) and psi-phi two (``psi_fn``,
    ``phi_fn``), each with a default.

    With the default handles a member is its ratio profile: theta-pi and
    theta-l are linear(alpha / 2) and psi-phi linear(1/2) under their own
    names, since pi(s) = l(s) = s / 2 and psi(s) - phi(t) = s / 2 - t, and
    eval is derived from the profile.  theta-geraghty has none and carries
    hand certificates instead.  A custom handle's contract is unchecked: the
    member gets its shape's eval, no certificate and no profile, so every
    axiom is searched.
    """
    if name not in _GALLERY:
        raise UnknownGallery(f"unknown gallery member {name!r}")
    rule, profile, defaults, shape, own, fixed = _GALLERY[name]
    given = [params.pop(f"{key}_fn", None) for key, _ in defaults]
    handles = tuple((key, d if h is None else h) for (key, d), h in zip(defaults, given))
    args = _arguments(name, params, rule, fixed)
    if not all(callable(h) for _, h in handles):
        raise ParamOutOfRange(" and ".join(f"{key}_fn" for key, _ in defaults) + " must be callable")
    named = ((rule[0], args[0]),) if args else ()
    picked = tuple(h for _, h in handles)
    if any(h is not d for h, (_, d) in zip(picked, defaults)):
        return ComparisonFn(name, shape(*args, *picked), named, handles=handles)
    if profile is None:
        return ComparisonFn(name, shape(*args, *picked), named, *_geraghty_certificates(*args), handles)
    ratio = profile(*args)
    return ComparisonFn(name, _profile_eval(ratio), named, own, None, handles, ratio)


def _arguments(member: str, params: dict, rule, fixed: float | None) -> tuple[float, ...]:
    """The member's one numeric parameter, popped from ``params`` and
    checked, or its fixed value, or none; any other parameter is refused."""
    if rule is None or fixed is not None:
        _reject_extras(member, params)
        return () if rule is None else (fixed,)
    key, requirement = rule
    if key not in params:
        raise MissingParam(f"{member} requires parameter {key!r}")
    value = params.pop(key)
    _reject_extras(member, params)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParamOutOfRange(f"{member} requires a real number {key}, not {value!r}")
    value = float(value)
    unmet = requirement(value)
    if unmet is not None:
        raise ParamOutOfRange(f"{member} requires {unmet}")
    return (value,)


def _reject_extras(member: str, params: dict) -> None:
    if params:
        raise ParamOutOfRange(f"{member} got unexpected parameter(s) {sorted(params)}")


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
    the threshold: exactly for constant sequences, and for families when its
    value at the farthest ``tail`` index, their only probe, exceeds
    ``threshold + 1e-9``.  Without a threshold, families are probed at the
    first ``prefix_len`` indices and at the far ``tail``.  A finite probe
    cannot resolve a limsup just below the threshold: at n = 10**6 a
    harmonic pair is still about 2e-6 from its limit, so zeta3 of m * s - t
    is refuted for m within about 2e-6 of 1, although it holds for every
    m < 1.  Nor can it see a sign change past its last index: sigma1 of
    m * s - t at m = 0.49999999999999994 is refuted by harmonic(1), whose
    eval turns negative only past n = 6.7e7, although sigma1 holds.
    ``claim(a, b, c)`` is the limit statement that makes a violating witness
    a counterexample.
    """

    pairing: _Pairing
    claim: Callable[[WitnessSequence, WitnessSequence, float], bool]
    schedule: tuple[tuple[Callable, str, bool], ...]
    tail: tuple[int, ...] = ()
    threshold: float | None = None
    quantity: Callable[[float, float, float], float] | None = None

    def search(self, fn, c, rng, prefix_len, b):
        for phase, (candidates, _, exact) in enumerate(self.schedule):
            hit = self.violation(fn.eval, candidates(c, rng), exact, prefix_len, b)
            if hit is not None:
                return self.counterexample(phase, *hit)
        return None, _NOT_FOUND

    def counterexample(self, phase, cand, fields):
        """The witness and detail of candidate ``cand`` of schedule phase ``phase``."""
        _, detail, exact = self.schedule[phase]
        if exact:
            parts = [make_witness("constant", value=v) for v in cand]
        else:
            parts = [make_witness(family, **params) for family, params in cand]
        witness = make_pair_witness(*parts) if len(parts) == 2 else parts[0]
        return witness, detail.format(a=parts[0].limit(), b=parts[-1].limit(), **fields)

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
        if exact:
            at = self.pairing.at_constant
            for cand in candidates:
                b.spend()
                t, s = cand if at is None else at(*cand)
                value = ev(t, s)
                q = value if quantity is None else quantity(t, s, value)
                if (t > 0 and s > 0 and q > 0.0) if threshold is None else q >= threshold:
                    return cand, {"t": t, "s": s, "value": value, "q": q, "gap": s - t}
            return None
        at, start = self.pairing.at, self.pairing.start
        for cand in candidates:
            terms = [partial(_family(family).term, params) for family, params in cand]
            if threshold is not None:
                # The limsup estimate is the value at the farthest probe.
                b.spend()
                t, s = at(terms[0], terms[-1], self.tail[-1])
                value = ev(t, s)
                if (value if quantity is None else quantity(t, s, value)) > threshold + 1e-9:
                    return cand, {}
                continue
            for n in itertools.chain(range(start, start + prefix_len), self.tail):
                b.spend()
                t, s = at(terms[0], terms[-1], n)
                if t <= 0 or s <= 0 or not ev(t, s) > 0.0:
                    break
            else:
                return cand, {}
        return None


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
                return make_witness(family, **{_FAMILIES[family].level: x}), detail
        return None, _NOT_FOUND

    def replay(self, fn, witness, c):
        h = fn.handle(self.name)
        if h is None or witness.family not in ("constant", "linear"):
            return False
        x = witness.param(_FAMILIES[witness.family].level)
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


def _seq(family: str, x: float) -> tuple[str, dict[str, float]]:
    return family, {_FAMILIES[family].level: x}


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
    ), TAIL_PROBES, threshold=0.0),
    # limsup (t_n + eval(t_n, s_n)) / s_n < 1 for bounded t_n, non-increasing s_n.
    AxiomKind.ETA2: _Axiom(_POINTWISE, _bounded_and_non_increasing, (
        (_grid, "constant pair ({t:g}, {s:g}) gives ratio {q:g} >= 1", True),
        (_geometric_partners([_seq(_K, x) for x in _CP[:6]], (0.9,)),
         "ratio tail estimate exceeds 1", False),
    ), GEOMETRIC_TAIL_PROBES, threshold=1.0, quantity=lambda t, s, value: (t + value) / s),
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
# Exact decisions on ratio profiles
# --------------------------------------------------------------------------
#
# On t, s > 0 a ratio profile's eval has the sign of phi(t / s).  Each
# reduction below reads phi on its two affine pieces and at 1, and returns
# either the reason the axiom holds, or the position (phase, index) in the
# schedule of the first candidate that violates it, which is the one the
# search would report, or None when neither follows and the search
# decides.  The constant and family phases try each canonical level x in
# turn, 1 first; sequences of every level realize the same ratios, so if
# level 1 does not violate, no level does.  Random candidates come after
# those of level 1.  A holds branch proves the axiom for phi in exact
# rationals, so no profiled member needs a certificate for an axiom on its
# eval.


def _reduce_sigma1(ax: _Axiom, f: _Ratio, c: float):
    """Along (a_n, a_(n-1) + a_n) the ratio r_n = a_n / (a_(n-1) + a_n) lies
    in (0, 1).  If phi <= 0 on [r0, 1) for some r0 < 1/2, positivity forces
    r_n < r0, that is a_n < r0 / (1 - r0) * a_(n-1) with r0 / (1 - r0) < 1,
    so a_n -> 0 geometrically: sigma1 holds.  With q > 0, phi(r) = p - q * r
    is <= 0 exactly from p / q on, so r0 = max(p / q, 0) serves when p / q <
    1/2, with r0 / (1 - r0) = max(p / (q - p), 0).  An unscaled phi constant
    at p <= 0 below 1 is eval's only value along the pairing, never
    positive.

    Every constant sequence has r_n = 1/2.  If phi(1/2) > 0 the constant
    sequence 1 stays positive and tends to 1, not 0.  If phi(1/2) = 0, every
    constant gives 0; with q > 0, phi(r) = q * (1/2 - r) > 0 on [3/7, 1/2),
    where harmonic(1) has its ratios: it stays positive and tends to 1.
    """
    p, q = f.below
    if q > 0 and 2 * p < q:
        ratio = max(p / (q - p), 0)
        return f"positivity along consecutive-sum pairs forces a_n < {float(ratio):.12g} * a_(n-1)"
    if q == 0 and p <= 0 and not f.scaled:
        return f"first axiom is vacuous: consecutive-sum pairs always evaluate to {p}"
    half = f.phi(_HALF)
    if half > 0:
        return 0, 0
    if half == 0 and q > 0:
        return 1, 0
    return None


def _reduce_sigma2(ax: _Axiom, f: _Ratio, c: float):
    """For c >= 1, a_n -> L > 0 and b_n -> c * L make r_n = a_n / b_n tend to
    1/c <= 1, so sigma2 holds when eval ends non-positive along every such
    pair.  For c > 1, r_n ends inside the piece below 1, where phi(r) = p -
    q * r with q >= 0 is <= p <= 0 if p <= 0, and < 0 near 1/c if p - q / c
    < 0, that is c < q / p.  The test is c < float(q / p): a float below the
    double nearest q / p lies below q / p.  It leaves out a c that is q / p
    rounded down, where m * c < 1 exactly but eval's rounding can make the
    float function positive (tau = linear(2/3) at c = 1.5).  At c = 1 the
    ratios may end at 1 or on either side of it, so phi must also be <= 0
    there.  c is finite, as :func:`check_axiom` requires.

    If phi(1/c) > 0 the constant pair (1, c) stays positive.  Otherwise
    constants do not, and the first level-1 family pair is tried:
    (harmonic-below(1), c) has ratios in [1/(2c), 1/c), (harmonic(1), c) at
    c = 1 has them in (1, 2].
    """
    p, q = f.below
    near_one = f.nonpositive_near_one()
    bound = float(q / p) if p > 0 and q / p <= sys.float_info.max else float("inf")
    if q >= 0 and c < bound and (c > 1 or near_one):
        return f"certified for c in {Interval(0.0 if near_one else 1.0, bound).describe()}"
    r = 1 / Fraction(c)
    if f.phi(r) > 0:
        return 0, 0
    if f.positive_below(r / 2, r):
        return 1, 0
    if c == 1 and f.positive_above(_TWO):
        return 1, 1
    return None


def _reduce_dollar(ax: _Axiom, f: _Ratio, c: float):
    """If b_n -> 0 while a_n does not tend to 0, a_n stays above some d > 0
    along a subsequence, where the ratio a_n / b_n grows without bound.  So
    if phi <= 0 at every large ratio, positivity with b_n -> 0 forces a_n ->
    0: $ holds.  Past 1, phi(r) = p - q * r ends <= 0 iff q > 0, or q = 0
    and p <= 0.

    The candidates pair the constant 1 with b_n = start * ratio^(n-1),
    starts 1, 2 and 1/2, whose ratios 1 / b_n rise from 1 / start through
    every piece above it.  On the remaining profiles constant past 1 at p >
    0 (the step functions), start 1 stays positive iff phi(1) > 0, start 2
    fails at once when phi(1/2) <= 0, and start 1/2 stays positive, with
    b_n -> 0 while a_n = 1.
    """
    p, q = f.above
    if q != 0 or p <= 0:
        return "ratio profile: phi <= 0 at every large ratio" if q >= 0 else None
    if f.one > 0:
        return 0, 0
    if f.phi(_HALF) <= 0:
        return 0, 4
    return None


def _reduce_grid(ax: _Axiom, f: _Ratio, c: float):
    """On a scaled profile, with r = t / s, eval(t, s) < s - t iff r + phi(r)
    < 1, and (t + eval(t, s)) / s = r + phi(r).  That function is affine on
    each piece: p + (1 - q) * r on [0, 1], p + (1 - q) * r on [1, inf) with
    the coefficients past 1, and 1 + phi(1) at 1.  Below 1 its ends are p
    and 1 + p - q; past 1 it starts at 1 + p - q and does not grow when q >=
    1.  If each of these and 1 + phi(1) is below 1, so is its supremum over
    r >= 0, and both axioms hold: the upper bound at every pair, eta2 at
    every limsup.

    Otherwise both test the grid's constant pairs first; its first cells
    (1, 1), (1, 2) and (1, 1/2) realize the ratios 1, 1/2 and 2.  The first
    whose exact quantity reaches the threshold is the witness: for the upper
    bound, eval(t, s) >= s - t; for eta2, (t + eval(t, s)) / s >= 1.
    """
    (p, q), (p2, q2) = f.below, f.above
    if f.scaled and f.one < 0 and p < 1 and p < q and p2 < q2 and q2 >= 1:
        return "ratio profile: t / s + phi(t / s) stays below 1 at every ratio"
    for index, (t, s) in enumerate(_GRID_HEAD):
        if ax.quantity(t, s, f.value(t, s)) >= ax.threshold:
            return 0, index
    return None


def _reduce_zeta3(ax: _Axiom, f: _Ratio, c: float):
    """Pairs with a common limit L > 0 have ratios tending to 1, so the
    limsup of eval is L (or 1, unscaled) times the largest of phi(1-),
    phi(1) and phi(1+) that some pair's ratios approach: a profile may jump
    at 1, as gamma does from -1 to 0.  If all three are < 0, so is the
    limsup: zeta3 holds.

    Constant pairs (x, x) have ratio 1, so phi(1) >= 0 refutes zeta3 at (1,
    1).  Otherwise a profile constant past 1 at p > 1e-9 and not scaled by s
    gives eval = p along (harmonic(1), harmonic-below(1)), whose ratios lie
    above 1: the tail estimate is p.
    """
    (p, q), (p2, q2) = f.below, f.above
    if max(f.one, p - q, p2 - q2) < 0:
        return "ratio profile: phi < 0 at and near ratio 1, where pairs with a common limit end"
    if f.one >= 0:
        return 0, 0
    if not f.scaled and q2 == 0 and p2 > 1e-9:
        return 1, 0
    return None


def _reduce_rho1(ax: _Axiom, f: _Ratio, c: float):
    """Along (a_(n+1), a_n) the constant sequence has ratio 1, linear(1) has
    ratios (n + 1) / n in (1, 2] and harmonic(1) has n (n + 2) / (n + 1)^2 in
    [3/4, 1): each stays positive iff phi does on its ratios.

    If phi <= 0 at 1 and on (1, inf), and on [r0, 1) for some r0 < 1,
    positivity forces a_(n+1) < r0 * a_n, so a_n -> 0 geometrically: rho1
    holds.  Once harmonic(1) fails, phi(1-) <= 0 gives such an r0: p / q if
    q > 0 (then p / q < 1), 0 otherwise, when phi < 0 on all of [0, 1).
    """
    if f.one > 0:
        return 0, 0
    if f.positive_above(_TWO):
        return 1, 0
    if f.positive_below(_THREE_QUARTERS, _ONE):
        return 2, 0
    (p, q), (p2, q2) = f.below, f.above
    if p - q <= 0 and p2 - q2 <= 0 and q2 >= 0:
        r0 = max(p / q, 0) if q > 0 else 0
        return f"ratio profile: positivity forces a_(n+1) < {float(r0):.12g} * a_n"
    return None


def _reduce_rho2(ax: _Axiom, f: _Ratio, c: float):
    """Every candidate starts with harmonic(1), above its limit 1.  Against
    the constant 1 the ratios lie in (1, 2]; against harmonic(1) they are 1;
    against harmonic-below(1) they lie in (1, 4], positive only when (1, 2]
    is, for phi is affine there.

    Sequences with a common limit L > 0 have ratios tending to 1.  If phi
    <= 0 at 1 and on both sides near it, eval ends non-positive along every
    such pair: rho2 holds.
    """
    if f.positive_above(_TWO):
        return 0, 0
    if f.one > 0:
        return 0, 1
    if f.nonpositive_near_one():
        return "ratio profile: phi <= 0 near ratio 1, where pairs with a common limit end"
    return None


_ONE, _HALF, _TWO = Fraction(1), Fraction(1, 2), Fraction(2)
_THREE_QUARTERS = Fraction(3, 4)
_GRID_HEAD = ((_ONE, _ONE), (_ONE, _TWO), (_ONE, _HALF))
_REDUCTIONS = {
    AxiomKind.SIGMA1: _reduce_sigma1,
    AxiomKind.SIGMA2: _reduce_sigma2,
    AxiomKind.DOLLAR: _reduce_dollar,
    AxiomKind.UPPER_BOUND: _reduce_grid,
    AxiomKind.ZETA3: _reduce_zeta3,
    AxiomKind.ETA2: _reduce_grid,
    AxiomKind.RHO1: _reduce_rho1,
    AxiomKind.RHO2: _reduce_rho2,
}


@functools.lru_cache(maxsize=4096)
def _reduce(kind: AxiomKind, f: _Ratio, c: float):
    """``kind``'s reduction of profile f at c.  It is pure, and a profile is
    immutable exact rationals, so repeated cells cost one lookup."""
    return _REDUCTIONS[kind](_AXIOMS[kind], f, c)


def _decide(fn: ComparisonFn, kind: AxiomKind, c: float) -> AxiomVerdict | None:
    """The verdict of ``kind``'s reduction on fn's profile, at 0 evaluations,
    or None when the search must decide.

    A refuting candidate is read off its phase's list, whose deterministic
    head needs no random generator.  A constant one is evaluated once, in
    eval's own arithmetic, for the detail; if rounding keeps it from
    violating there, the search decides instead.
    """
    ax = _AXIOMS[kind]
    found = _reduce(kind, fn.profile, c)
    if found is None:
        return None
    if isinstance(found, str):
        return AxiomVerdict(kind, Outcome.CERTIFIED_HOLDS, detail=found)
    phase, index = found
    candidates, _, exact = ax.schedule[phase]
    cand = next(itertools.islice(candidates(c, None), index, None))
    fields = {}
    if exact:
        hit = ax.violation(fn.eval, (cand,), True, 1, _Budget(1))
        if hit is None:
            return None
        fields = hit[1]
    witness, detail = ax.counterexample(phase, cand, fields)
    return AxiomVerdict(kind, Outcome.FALSIFIED, witness, 0, detail)


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

    Certificates, then the exact decision on a ratio profile, short-circuit
    the search; neither spends budget.  The limit-ratio axiom takes the
    constant ``c``, which must be finite and > 0 (``ValueError`` otherwise,
    also from :func:`classify`); values below 1 are accepted with a warning
    and are vacuously true under the adopted reading (the paired limits
    cannot then be ordered unless both are zero).
    """
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    certified = None
    if kind is AxiomKind.SIGMA2:
        if not 0 < c < float("inf"):
            raise ValueError("c must be finite and > 0")
        if c < 1.0:
            warnings.warn(
                f"limit-ratio constant c={c:g} below 1 is outside the usual range",
                SubUnitCWarning,
                stacklevel=2,
            )
            certified = "vacuously true for c < 1: no positive limit satisfies c*L >= L"
        elif fn.sigma2_certificate is not None and fn.sigma2_certificate.contains(c):
            certified = f"certified for c in {fn.sigma2_certificate.describe()}"
    else:
        certified = dict(fn.analytic_certificates).get(kind)
    if certified is not None:
        return AxiomVerdict(kind, Outcome.CERTIFIED_HOLDS, detail=certified)
    if fn.profile is not None and kind in _REDUCTIONS:
        decided = _decide(fn, kind, c)
        if decided is not None:
            return decided

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

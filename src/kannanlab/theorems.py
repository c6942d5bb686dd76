"""Theorem harness: hypothesis checklists, conclusions, and reproductions.

Each supported statement is compiled to a checklist of mechanically
verifiable hypotheses (condition sweeps, axiom verdicts, injectivity
scans, chain existence) plus a conclusion contract.  The observed
conclusion always comes from the brute-force oracle and the chain engine,
never from the hypothesis side, so counterexample scenarios report their
outcome with the same machinery as confirming ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import Callable

from . import builtins as catalog
from .conditions import (
    ConditionReport,
    ConditionSpec,
    PairMode,
    check_condition,
    classical_kannan,
    kannan_supremum,
    koparde_waghmode,
    malceski,
    pairing,
    s_dominated,
    sigma_kannan,
    sigma_s_kannan,
)
from .metric import (
    DEFAULT_TOL,
    FiniteMetricSpace,
    SelfMap,
    identity_map,
    random_space,
)
from .picard import (
    DEFAULT_MAX_ITER,
    LOWEST_INDEX,
    SolveKind,
    SolveResult,
    brute_force_points,
    diagnose,
    find_clr_base,
    run_picard_pair,
    solve,
)
from .report import (
    condition_summary,
    render_json,
    render_text,
    solve_summary,
    typed_lines,
    witness_summary,
)
from .sigma import AxiomKind, ComparisonFn, Outcome, check_axiom, classify, gallery


class MalformedScenario(ValueError):
    """Scenario is missing a field the selected theorem needs."""


class UnknownExample(ValueError):
    """No builtin entry with that identifier."""


@dataclass(frozen=True)
class Scenario:
    space: FiniteMetricSpace
    t_map: SelfMap
    s_map: SelfMap
    sigma: ComparisonFn | None = None
    c: float = 1.0
    theorem: str | None = None
    mode: PairMode = PairMode.POSITIVE_PAIRS
    w: int | None = None
    alpha: float | None = None
    x0: str | None = None
    q: str | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    policy: str = LOWEST_INDEX
    seed: int = 0
    name: str = ""


class HypothesisStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Hypothesis:
    name: str
    status: HypothesisStatus
    evidence: str = ""


@dataclass(frozen=True)
class Conclusion:
    expected: str
    observed: dict
    match: bool
    contradicted: bool


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    hypotheses: tuple[Hypothesis, ...]
    conclusion: Conclusion | None = None

    @property
    def all_hold(self) -> bool:
        return all(h.status is HypothesisStatus.HOLDS for h in self.hypotheses)

    @property
    def any_fails(self) -> bool:
        return any(h.status is HypothesisStatus.FAILS for h in self.hypotheses)

    @property
    def any_undetermined(self) -> bool:
        return any(h.status is HypothesisStatus.UNDETERMINED for h in self.hypotheses)

    def status_of(self, name: str) -> HypothesisStatus:
        for h in self.hypotheses:
            if h.name == name:
                return h.status
        raise KeyError(name)


# --------------------------------------------------------------------------
# Hypothesis builders
# --------------------------------------------------------------------------

#: A checklist entry: evaluates one hypothesis of the run's statement.
_Builder = Callable[["_Run"], Hypothesis]


def _scenario_sigma(sc: Scenario) -> ComparisonFn:
    if sc.sigma is None:
        raise MalformedScenario(f"theorem {sc.theorem} needs a comparison function")
    return sc.sigma


def _scenario_alpha(sc: Scenario) -> float:
    if sc.alpha is not None:
        return sc.alpha
    if sc.sigma is not None:
        for key in ("alpha", "slope"):
            value = sc.sigma.param(key)
            if value is not None:
                return value
    raise MalformedScenario(f"theorem {sc.theorem} needs a contraction constant alpha")


def _scenario_w(sc: Scenario) -> int:
    if sc.w is None:
        raise MalformedScenario(f"theorem {sc.theorem} needs a degree w")
    return sc.w


def _trivial(name: str, why: str) -> _Builder:
    hypothesis = Hypothesis(name, HypothesisStatus.HOLDS, why)
    return lambda run: hypothesis


def _sweep(
    name: str | Callable[[Scenario], str], spec: Callable[[Scenario], ConditionSpec]
) -> _Builder:
    """A condition sweep, kept in the run under its hypothesis name.

    A name that depends on the scenario is built before the spec, so a
    missing field is reported in reading order.  A parameter the spec's
    constructor refuses, or a power beyond the double range, makes the
    scenario malformed, with the refusal's message.
    """

    def build(run: _Run) -> Hypothesis:
        sc = run.sc
        label = name if isinstance(name, str) else name(sc)
        try:
            report = check_condition(sc.space, sc.t_map, sc.s_map, spec(sc), sc.mode, sc.tol)
        except MalformedScenario:
            raise
        except ValueError as e:
            raise MalformedScenario(f"theorem {sc.theorem}: {e}") from None
        run.sweeps[label] = report
        if report.holds:
            evidence = f"holds on {report.pairs_checked} pairs ({report.pairs_skipped} skipped)"
            return Hypothesis(label, HypothesisStatus.HOLDS, evidence)
        w = report.witness
        evidence = f"fails at ({w.x}, {w.y}): t={w.t:.12g}, s={w.s:.12g}, value={w.value:.12g}"
        return Hypothesis(label, HypothesisStatus.FAILS, evidence)

    return build


def _axiom_hypothesis(sc: Scenario, name: str, kind: AxiomKind, c: float = 1.0) -> Hypothesis:
    verdict = check_axiom(_scenario_sigma(sc), kind, c=c, seed=sc.seed)
    status = {
        Outcome.CERTIFIED_HOLDS: HypothesisStatus.HOLDS,
        Outcome.FALSIFIED: HypothesisStatus.FAILS,
        Outcome.UNDETERMINED: HypothesisStatus.UNDETERMINED,
    }[verdict.outcome]
    return Hypothesis(name, status, verdict.detail)


def _regularity_side_hypothesis(run: _Run) -> Hypothesis:
    sc = run.sc
    sigma = _scenario_sigma(sc)
    ub = check_axiom(sigma, AxiomKind.UPPER_BOUND, seed=sc.seed)
    dollar = check_axiom(sigma, AxiomKind.DOLLAR, seed=sc.seed)
    outcomes = (ub.outcome, dollar.outcome)
    if Outcome.CERTIFIED_HOLDS in outcomes:
        which = "upper-bound" if ub.outcome is Outcome.CERTIFIED_HOLDS else "dollar"
        return Hypothesis("upper-bound-or-dollar", HypothesisStatus.HOLDS, f"{which} certified")
    if all(o is Outcome.FALSIFIED for o in outcomes):
        return Hypothesis("upper-bound-or-dollar", HypothesisStatus.FAILS, "both branches falsified")
    return Hypothesis("upper-bound-or-dollar", HypothesisStatus.UNDETERMINED, "neither branch decided")


#: Membership of the scenario's function in the sigma_c class, plus the
#: upper-bound-or-dollar side condition.
_SIGMA_CLASS: tuple[_Builder, ...] = (
    lambda run: _axiom_hypothesis(run.sc, "sigma1", AxiomKind.SIGMA1),
    lambda run: _axiom_hypothesis(run.sc, f"sigma2(c={run.sc.c:g})", AxiomKind.SIGMA2, run.sc.c),
    _regularity_side_hypothesis,
)


def _clr_hypothesis(run: _Run) -> Hypothesis:
    base = run.clr_base
    if base is None:
        return Hypothesis("clr-property", HypothesisStatus.FAILS, "no chain-admitting base point")
    return Hypothesis("clr-property", HypothesisStatus.HOLDS, f"chain exists from {base}")


def _injective_hypothesis(run: _Run) -> Hypothesis:
    sc = run.sc
    labels = sc.space.labels
    seen: dict[int, int] = {}
    for i, v in enumerate(sc.s_map.assignment):
        if v in seen:
            evidence = f"S({labels[seen[v]]}) = S({labels[i]}) = {labels[v]}"
            return Hypothesis("s-injective", HypothesisStatus.FAILS, evidence)
        seen[v] = i
    return Hypothesis("s-injective", HypothesisStatus.HOLDS, f"injective on {sc.space.n} points")


def _subsequence_hypothesis(run: _Run) -> Hypothesis:
    limits = run.limits
    source, target = run.designated
    if run.contract.pair_chain:
        name, settles = "t-images-subsequence-converges", "T-images settle at"
        shown, no_target = f"S({source}) = {target}", "no point maps into the limit set"
    else:
        name, settles = "iterate-subsequence-converges", "subsequence settles at"
        shown, no_target = target, "orbit has no limit points"
    if target is None:
        return Hypothesis(name, HypothesisStatus.FAILS, no_target)
    if target in limits:
        return Hypothesis(name, HypothesisStatus.HOLDS, f"{settles} {shown}")
    evidence = f"{shown} is not among limit points {list(limits)}"
    return Hypothesis(name, HypothesisStatus.FAILS, evidence)


# --------------------------------------------------------------------------
# Conclusions
# --------------------------------------------------------------------------


def _unique_fixed_point(run: _Run, observed: dict) -> bool:
    result = run.solved
    return (
        result is not None
        and result.kind is SolveKind.FIXED_POINT
        and observed["fixed_points"] == [result.point]
    )


def _designated_point_fixed(run: _Run, observed: dict) -> bool:
    _, target = run.designated
    observed["designated"] = target
    return (
        target is not None
        and run.sc.t_map(target) == target
        and observed["fixed_points"] == [target]
    )


def _coincidence_set_nonempty(run: _Run, observed: dict) -> bool:
    result = run.solved
    return (
        result is not None
        and result.kind in (SolveKind.COINCIDENCE_POINT, SolveKind.FIXED_POINT)
        and result.point in observed["coincidence_points"]
    )


def _coincidence_or_designated_fixed(run: _Run, observed: dict) -> bool:
    sc = run.sc
    _, target = run.designated
    observed["designated"] = target
    branch_a = bool(observed["coincidence_points"])
    similar = s_fixes = t_fixes = False
    if target is not None:
        if run.solved is not None and len(run.solved.trace.points) >= 2:
            diag = diagnose(run.solved.trace, sc.space, sc.t_map, sc.s_map)
            similar = diag.s_asymptotically_similar
        s_fixes = sc.s_map(target) == target
        t_fixes = sc.t_map(target) == target
    observed.update(
        coincidence_exists=branch_a, s_asymptotically_similar=similar, designated_fixed_by_t=t_fixes
    )
    # Branch (b): S asymptotically similar implies T fixes the target;
    # branch (b*): S fixing the target implies T fixes it.
    return branch_a or ((not similar or t_fixes) and (not s_fixes or t_fixes))


@dataclass(frozen=True)
class _Contract:
    """A conclusion: its name, the chain it is read from, and its judge."""

    expected: str
    #: Read from a chain of the pair (T, S) rather than from the orbit of T.
    pair_chain: bool
    judge: Callable[[_Run, dict], bool]


_UNIQUE_FIXED = _Contract("unique-fixed-point", False, _unique_fixed_point)
_DESIGNATED_FIXED = _Contract("designated-point-fixed", False, _designated_point_fixed)
_COINCIDENCE = _Contract("coincidence-set-nonempty", True, _coincidence_set_nonempty)
_COINCIDENCE_OR_DESIGNATED = _Contract(
    "coincidence-or-designated-fixed", True, _coincidence_or_designated_fixed
)


# --------------------------------------------------------------------------
# The statements
# --------------------------------------------------------------------------

_CONTINUOUS = "every self-map of a finite space is continuous"
_COMPLETE = _trivial("space-complete", "finite spaces are complete")
_IMAGE_COMPLETE = _trivial("s-image-complete", "finite subsets are complete")
_CONTINUOUS_AT_LIMIT = _trivial("continuity-at-limit", _CONTINUOUS)
_CONTINUOUS_AT_DESIGNATED = _trivial("continuity-at-designated", _CONTINUOUS)
_S_CONTINUOUS = _trivial("s-continuous", _CONTINUOUS)
_S_CONVERGENT = _trivial(
    "s-sequentially-convergent", "finite spaces have no non-trivial convergence to break"
)
_CLASSICAL = _sweep("classical-kannan-condition", lambda sc: classical_kannan(_scenario_alpha(sc)))
_SIGMA_KANNAN = _sweep("sigma-kannan-condition", lambda sc: sigma_kannan(_scenario_sigma(sc)))
_SIGMA_S_KANNAN = _sweep(
    "sigma-s-kannan-condition", lambda sc: sigma_s_kannan(_scenario_sigma(sc))
)
_S_DOMINATED = _sweep(
    lambda sc: f"s-dominated-condition(w={_scenario_w(sc)})",
    lambda sc: s_dominated(_scenario_sigma(sc), _scenario_w(sc)),
)
_S_DOMINATED_1 = _sweep(
    "s-dominated-condition(w=1)", lambda sc: s_dominated(_scenario_sigma(sc), 1)
)
_SQUARED = _sweep("squared-kannan-condition", lambda sc: koparde_waghmode(_scenario_alpha(sc)))
_DOMINATED_SUM = _sweep("dominated-sum-condition", lambda sc: malceski(_scenario_alpha(sc), 0.0))

#: Each statement's conclusion and its hypothesis checklist, in report order.
_THEOREMS: dict[str, tuple[_Contract, tuple[_Builder, ...]]] = {
    "T2.1": (_UNIQUE_FIXED, (_COMPLETE, _CLASSICAL)),
    "T2.2": (_DESIGNATED_FIXED, (_CLASSICAL, _CONTINUOUS_AT_LIMIT, _subsequence_hypothesis)),
    "T3.17": (
        _COINCIDENCE_OR_DESIGNATED,
        (_clr_hypothesis, _SIGMA_S_KANNAN, *_SIGMA_CLASS, _CONTINUOUS_AT_DESIGNATED,
         _subsequence_hypothesis),
    ),
    "T3.18": (_COINCIDENCE, (_clr_hypothesis, _IMAGE_COMPLETE, _SIGMA_S_KANNAN, *_SIGMA_CLASS)),
    "T3.29": (_UNIQUE_FIXED, (_IMAGE_COMPLETE, _injective_hypothesis, _S_DOMINATED, *_SIGMA_CLASS)),
    "T3.33": (
        _DESIGNATED_FIXED,
        (_S_DOMINATED_1, *_SIGMA_CLASS, _subsequence_hypothesis,
         _CONTINUOUS_AT_DESIGNATED, _injective_hypothesis),
    ),
    "C3.19": (_UNIQUE_FIXED, (_COMPLETE, _SIGMA_KANNAN, *_SIGMA_CLASS)),
    "C3.31": (_UNIQUE_FIXED, (_COMPLETE, _SQUARED)),
    "C3.32": (
        _UNIQUE_FIXED,
        (_COMPLETE, _DOMINATED_SUM, _injective_hypothesis, _S_CONTINUOUS, _S_CONVERGENT),
    ),
}
THEOREM_IDS = tuple(_THEOREMS)


class _Run:
    """One evaluation of a scenario's statement.

    The statement's chain is realised at most once, by one ``solve`` call on
    first use, and both the hypotheses and the conclusion read its limit set
    and designated target from here.  Condition sweeps are kept under their
    hypothesis names.
    """

    def __init__(self, sc: Scenario):
        if sc.theorem not in _THEOREMS:
            raise MalformedScenario(f"unknown theorem id {sc.theorem!r}")
        self.sc = sc
        self.contract, self.checklist = _THEOREMS[sc.theorem]
        self.sweeps: dict[str, ConditionReport] = {}

    def hypotheses(self) -> HypothesisReport:
        return HypothesisReport(self.sc.theorem, tuple(build(self) for build in self.checklist))

    @cached_property
    def chain_s(self) -> SelfMap:
        """The second map of the statement's chain: S, or the identity on an orbit."""
        return self.sc.s_map if self.contract.pair_chain else identity_map(self.sc.space)

    @cached_property
    def clr_base(self) -> str | None:
        """The first point admitting an unbroken chain, found once per run."""
        return find_clr_base(self.sc.space, self.sc.t_map, self.chain_s)

    @cached_property
    def solved(self) -> SolveResult | None:
        """Solve along the statement's chain, or None when no point admits one."""
        sc = self.sc
        x0 = sc.x0 if sc.x0 is not None else self.clr_base
        if x0 is None:
            return None
        return solve(sc.space, sc.t_map, self.chain_s, x0, policy=sc.policy, max_iter=sc.max_iter)

    @cached_property
    def limits(self) -> tuple[str, ...]:
        """Subsequential limits along the chain.

        A chain on a finite space is eventually periodic, so these are its
        coincidence point or its cycle; along a chain of the pair, their
        T-images.
        """
        trace = self.solved.trace if self.solved is not None else None
        if trace is not None and trace.coincidence_index is not None:
            span = slice(trace.coincidence_index, trace.coincidence_index + 1)
        elif trace is not None and trace.cycle is not None:
            span = slice(trace.cycle.start, trace.cycle.start + trace.cycle.period)
        else:
            return ()
        points = trace.t_images if self.contract.pair_chain else trace.points
        return tuple(self.sc.space.labels[i] for i in points[span])

    @cached_property
    def designated(self) -> tuple[str | None, str | None]:
        """The designated point and the target it names, or (None, None).

        On an orbit the target is q itself, by default the first limit; on a
        chain of the pair it is S(q), by default S of the first point that S
        maps into the limit set.
        """
        sc = self.sc
        limits = self.limits
        if not self.contract.pair_chain:
            target = sc.q if sc.q is not None else next(iter(limits), None)
            return target, target
        if sc.q is not None:
            return sc.q, sc.s_map(sc.q)
        for label in sc.space.labels:
            if sc.s_map(label) in limits:
                return label, sc.s_map(label)
        return None, None


def check_hypotheses(sc: Scenario) -> HypothesisReport:
    """Evaluate the hypothesis checklist of the scenario's theorem."""
    return _Run(sc).hypotheses()


def run_theorem(sc: Scenario) -> HypothesisReport:
    """Hypotheses plus the oracle-checked conclusion.

    The conclusion is computed whether or not the hypotheses hold;
    ``contradicted`` flags the only alarming combination (hypotheses all
    hold, conclusion fails).
    """
    return _run_theorem(sc)[0]


def _run_theorem(sc: Scenario) -> tuple[HypothesisReport, _Run]:
    """:func:`run_theorem` plus the run, whose sweeps and chain callers may read."""
    run = _Run(sc)
    report = run.hypotheses()
    oracle = brute_force_points(sc.space, sc.t_map, sc.s_map)
    observed: dict = {
        "fixed_points": list(oracle.fixed_points),
        "coincidence_points": list(oracle.coincidence_points),
        "solve": {"error": "no-clr-base"} if run.solved is None else solve_summary(run.solved),
    }
    match = run.contract.judge(run, observed)
    conclusion = Conclusion(run.contract.expected, observed, match, report.all_hold and not match)
    return HypothesisReport(report.theorem, report.hypotheses, conclusion), run


# --------------------------------------------------------------------------
# Builtin scenario construction
# --------------------------------------------------------------------------


def builtin_scenario(example_id: str) -> Scenario:
    if example_id not in catalog.EXAMPLES:
        raise UnknownExample(f"no builtin scenario {example_id!r}")
    example = catalog.EXAMPLES[example_id]
    space, t_map, s_map = example.build()
    member, params = example.sigma
    return Scenario(
        space=space,
        t_map=t_map,
        s_map=s_map,
        sigma=gallery(member, **params),
        c=example.c,
        theorem=example.theorem,
        w=example.w,
        x0=example.x0,
        name=example_id,
    )


# --------------------------------------------------------------------------
# Reproduction against golden values
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReproduceReport:
    example_id: str
    computed: dict
    golden: dict
    mismatches: tuple[str, ...]

    @property
    def match(self) -> bool:
        return not self.mismatches


def reproduce(example_id: str) -> ReproduceReport:
    """Run a builtin entry and compare it with its stored expected values.

    The two match exactly when their JSON reports are the same text.  Each
    ``path: value`` line of the text report that only one side prints is a
    mismatch; when the sides differ only in JSON types, each line of
    :func:`~kannanlab.report.typed_lines` that only one side prints is.  A
    difference that not even those show (keys holding dots that collide
    with nested paths) is one mismatch saying that the JSON differs.
    """
    if example_id not in _COMPUTERS:
        raise UnknownExample(f"unknown example id {example_id!r}")
    computed = _COMPUTERS[example_id]()
    golden = _load_golden(example_id)
    mismatches: list[str] = []
    if render_json(golden) != render_json(computed):
        mismatches = (
            _unshared(render_text(golden).splitlines(), render_text(computed).splitlines())
            or _unshared(typed_lines(golden), typed_lines(computed))
            or ["golden and computed JSON differ"]
        )
    return ReproduceReport(example_id, computed, golden, tuple(mismatches))


def _unshared(want: list[str], got: list[str]) -> list[str]:
    """The lines that only the golden or only the computed side prints."""
    want_set, got_set = set(want), set(got)
    return [f"golden {line}" for line in want if line not in got_set] + [
        f"computed {line}" for line in got if line not in want_set
    ]


def _load_golden(example_id: str) -> dict:
    path = resources.files("kannanlab").joinpath(f"golden/{example_id}.json")
    return json.loads(path.read_text())


def _compute_ex_3_24() -> dict:
    sc = builtin_scenario("ex-3.24")
    space, t_map, s_map = sc.space, sc.t_map, sc.s_map

    sup = kannan_supremum(space, t_map)
    alphas = [round(0.05 * k, 2) for k in range(1, 10)]
    all_fail = all(
        not check_condition(space, t_map, None, classical_kannan(a)).holds
        for a in alphas
    )
    near_half = check_condition(space, t_map, None, classical_kannan(0.49))
    spot_t, spot_s = pairing(space, t_map, s_map, sigma_s_kannan(sc.sigma)).pair(
        space.index_of("4"), space.index_of("1")
    )
    theorem, run = _run_theorem(sc)
    observed = theorem.conclusion.observed
    return {
        "kannan_supremum": {
            "value": sup.value,
            "pair": list(sup.pair),
            "unbounded": sup.unbounded,
        },
        "classical_alpha_sweep": {"alphas": alphas, "all_fail": all_fail},
        "classical_at_0.49": condition_summary(near_half),
        "sigma_s_kannan": {
            **condition_summary(run.sweeps["sigma-s-kannan-condition"]),
            "sample_pair_4_1": {
                "t": spot_t,
                "s": spot_s,
                "value": sc.sigma.eval(spot_t, spot_s),
            },
        },
        "coincidence_points": observed["coincidence_points"],
        "solve": observed["solve"],
        "solve_in_oracle": observed["solve"]["point"] in observed["coincidence_points"],
        "theorem": {
            "all_hold": theorem.all_hold,
            "match": theorem.conclusion.match,
            "contradicted": theorem.conclusion.contradicted,
        },
    }


def _compute_ex_3_26() -> dict:
    sc = builtin_scenario("ex-3.26")
    space, t_map = sc.space, sc.t_map
    spec = sigma_kannan(sc.sigma)
    pairs = pairing(space, t_map, None, spec)
    pair_table = [
        {"pair": [space.labels[i], space.labels[j]], "t": t, "bound": 2.0 * s / 3.0}
        for i in range(space.n)
        for j in range(i + 1, space.n)
        for t, s in [pairs.pair(i, j)]
    ]
    sweep = check_condition(space, t_map, None, spec, sc.mode)
    sigma1 = check_axiom(sc.sigma, AxiomKind.SIGMA1, seed=sc.seed)
    theorem, run = _run_theorem(sc)
    trace = run.solved.trace
    statuses = {h.name: h.status.value for h in theorem.hypotheses}
    return {
        "pair_table": pair_table,
        "condition": condition_summary(sweep),
        "fixed_points": theorem.conclusion.observed["fixed_points"],
        "orbit": {
            "first_points": list(trace.point_labels()[:5]),
            "cycle_start": trace.cycle.start,
            "cycle_period": trace.cycle.period,
            "tail_step": trace.step_distances[-1],
        },
        "sigma1": {
            "outcome": sigma1.outcome.value,
            "witness": witness_summary(sigma1.witness),
            "eval_at_witness": sc.sigma.eval(1.0, 2.0),
        },
        "theorem": {
            "hypotheses": statuses,
            "sigma1_fails": statuses["sigma1"] == "fails",
            "others_hold": all(
                v == "holds" for k, v in statuses.items() if k != "sigma1"
            ),
            "observed_fixed": theorem.conclusion.observed["fixed_points"],
            "match": theorem.conclusion.match,
            "contradicted": theorem.conclusion.contradicted,
        },
    }


def _compute_ex_3_34() -> dict:
    sc = builtin_scenario("ex-3.34")
    space, t_map, s_map = sc.space, sc.t_map, sc.s_map

    spot_t, spot_s = pairing(space, t_map, s_map, s_dominated(sc.sigma, 1)).pair(
        space.index_of("1/4"), space.index_of("1/5")
    )
    classical = check_condition(space, t_map, None, classical_kannan(0.49))

    ident = identity_map(space)
    trace = run_picard_pair(space, t_map, ident, "1/4", max_iter=sc.max_iter)
    diag = diagnose(trace, space, t_map, ident)
    theorem, run = _run_theorem(sc)
    coincidence_at = (
        space.labels[trace.points[trace.coincidence_index]]
        if trace.coincidence_index is not None
        else None
    )
    return {
        "n_points": space.n,
        "s_dominated": condition_summary(run.sweeps["s-dominated-condition(w=1)"]),
        "spot_pair": {"x": "1/4", "y": "1/5", "t": spot_t, "s_over_3": spot_s / 3.0},
        "classical_at_0.49": condition_summary(classical),
        "picard": {
            "asymptotically_regular": diag.asymptotically_regular,
            "coincidence_point": coincidence_at,
            "first_steps": list(trace.step_distances[:5]),
        },
        "fixed_points": theorem.conclusion.observed["fixed_points"],
        "theorem": {
            "all_hold": theorem.all_hold,
            "s_injective": theorem.status_of("s-injective").value,
            "match": theorem.conclusion.match,
        },
    }


def _compute_ex_3_35() -> dict:
    sc = builtin_scenario("ex-3.35")
    theorem, run = _run_theorem(sc)
    observed = theorem.conclusion.observed
    return {
        "s_dominated": condition_summary(run.sweeps["s-dominated-condition(w=1)"]),
        "s_injective": sc.s_map.is_injective,
        "fixed_points": observed["fixed_points"],
        "coincidence_points": observed["coincidence_points"],
        "theorem": {
            "all_hold": theorem.all_hold,
            "match": theorem.conclusion.match,
            "contradicted": theorem.conclusion.contradicted,
        },
    }


def _compute_koparde() -> dict:
    sc = builtin_scenario("koparde-demo")
    theorem, run = _run_theorem(sc)
    observed = theorem.conclusion.observed
    iterations = observed["solve"]["iterations"]
    return {
        "condition": condition_summary(run.sweeps["squared-kannan-condition"]),
        "fixed_points": observed["fixed_points"],
        "picard": {
            "point": observed["solve"]["point"],
            "iterations": iterations,
            "within_15": iterations is not None and iterations <= 15,
        },
        "theorem": {"all_hold": theorem.all_hold, "match": theorem.conclusion.match},
    }


def _compute_patel_deheri() -> dict:
    sc = builtin_scenario("patel-deheri-demo")
    space, t_map, s_map = sc.space, sc.t_map, sc.s_map
    strict = check_condition(space, t_map, s_map, s_dominated(sc.sigma, 1), sc.mode)
    theorem, run = _run_theorem(sc)
    return {
        "condition": condition_summary(run.sweeps["dominated-sum-condition"]),
        "strict_condition": condition_summary(strict),
        "s_injective": s_map.is_injective,
        "fixed_points": theorem.conclusion.observed["fixed_points"],
        "theorem": {
            "all_hold": theorem.all_hold,
            "match": theorem.conclusion.match,
            "solve": theorem.conclusion.observed["solve"],
        },
    }


def _compute_classify_gallery() -> dict:
    members = {}
    for name, params in catalog.CLASSIFY_MEMBERS:
        fn = gallery(name, **params)
        matrix = classify(fn, catalog.CLASSIFY_C_VALUES, seed=0)
        key = name if not params else f"{name}-{params['alpha']:g}"
        entry = {
            "sigma_c_1": matrix.sigma_c_at(1.0).outcome.value,
            "sigma_c_2": matrix.sigma_c_at(2.0).outcome.value,
            "simulation": matrix.simulation.outcome.value,
            "manageable": matrix.manageable.outcome.value,
            "r_function": matrix.r_function.outcome.value,
            "dollar": matrix.dollar.outcome.value,
        }
        sigma1_side = matrix.sigma_c_at(1.0)
        if sigma1_side.outcome is Outcome.FALSIFIED:
            entry["sigma_c_1_failing"] = (
                sigma1_side.failing_axiom.value if sigma1_side.failing_axiom else None
            )
            entry["sigma_c_1_witness"] = witness_summary(sigma1_side.witness)
        if matrix.simulation.outcome is Outcome.FALSIFIED:
            entry["simulation_witness"] = witness_summary(matrix.simulation.witness)
            if matrix.simulation.witness is not None and matrix.simulation.witness.family == "pair":
                a, b = matrix.simulation.witness.components
                if a.family == "constant" and b.family == "constant":
                    entry["simulation_witness_value"] = fn.eval(
                        a.param("value"), b.param("value")
                    )
        if matrix.r_function.outcome is Outcome.FALSIFIED:
            entry["r_function_failing"] = (
                matrix.r_function.failing_axiom.value
                if matrix.r_function.failing_axiom
                else None
            )
            entry["r_function_witness"] = witness_summary(matrix.r_function.witness)
        members[key] = entry
    return {"members": members, "c_values": list(catalog.CLASSIFY_C_VALUES)}


_COMPUTERS = {
    "ex-3.24": _compute_ex_3_24,
    "ex-3.26": _compute_ex_3_26,
    "ex-3.34": _compute_ex_3_34,
    "ex-3.35": _compute_ex_3_35,
    "koparde-demo": _compute_koparde,
    "patel-deheri-demo": _compute_patel_deheri,
    "classify-gallery": _compute_classify_gallery,
}


# --------------------------------------------------------------------------
# Randomized soundness material
# --------------------------------------------------------------------------


def random_condition_pair(
    rng: random.Random, s_identity: bool = False, alpha: float = 0.4
) -> tuple[FiniteMetricSpace, SelfMap, SelfMap]:
    """Random space and maps filtered to satisfy the sigma condition.

    Proposes operator pairs whose first map has a one- or two-point image
    drawn from the second map's image (so chains never break), and keeps
    the first proposal whose sweep passes and which admits a chain base.
    """
    sigma = gallery("chi", alpha=alpha)
    spec = sigma_s_kannan(sigma)
    while True:
        n = rng.randint(5, 12)
        space = random_space(n, rng)
        ident = identity_map(space)
        for _ in range(300):
            if s_identity:
                s_map = ident
            else:
                s_map = SelfMap(space, tuple(rng.randrange(n) for _ in range(n)))
            s_image = sorted(set(s_map.assignment))
            size = 1 if rng.random() < 0.7 else min(2, len(s_image))
            targets = rng.sample(s_image, size)
            t_map = SelfMap(space, tuple(rng.choice(targets) for _ in range(n)))
            report = check_condition(space, t_map, s_map, spec)
            if not report.holds:
                continue
            if find_clr_base(space, t_map, s_map) is None:
                continue
            return space, t_map, s_map

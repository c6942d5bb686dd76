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
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources

from . import builtins as catalog
from .conditions import (
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
    NoClrBase,
    SolveKind,
    brute_force_points,
    diagnose,
    find_clr_base,
    run_picard_pair,
    solve,
)
from .report import condition_summary, round_floats, solve_summary, witness_summary
from .sigma import AxiomKind, ComparisonFn, Outcome, check_axiom, classify, gallery

THEOREM_IDS = ("T2.1", "T2.2", "T3.17", "T3.18", "T3.29", "T3.33", "C3.19", "C3.31", "C3.32")

NUMERIC_MATCH_TOL = 1e-12


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


def _trivial(name: str, why: str) -> Hypothesis:
    return Hypothesis(name, HypothesisStatus.HOLDS, why)


def _condition_hypothesis(sc: Scenario, name: str, spec: ConditionSpec) -> Hypothesis:
    report = check_condition(sc.space, sc.t_map, sc.s_map, spec, sc.mode, sc.tol)
    if report.holds:
        evidence = f"holds on {report.pairs_checked} pairs ({report.pairs_skipped} skipped)"
        return Hypothesis(name, HypothesisStatus.HOLDS, evidence)
    w = report.witness
    evidence = f"fails at ({w.x}, {w.y}): t={w.t:.12g}, s={w.s:.12g}, value={w.value:.12g}"
    return Hypothesis(name, HypothesisStatus.FAILS, evidence)


def _axiom_hypothesis(sc: Scenario, name: str, kind: AxiomKind, c: float | None = None) -> Hypothesis:
    verdict = check_axiom(_scenario_sigma(sc), kind, c=c if c is not None else 1.0, seed=sc.seed)
    status = {
        Outcome.CERTIFIED_HOLDS: HypothesisStatus.HOLDS,
        Outcome.FALSIFIED: HypothesisStatus.FAILS,
        Outcome.UNDETERMINED: HypothesisStatus.UNDETERMINED,
    }[verdict.outcome]
    return Hypothesis(name, status, verdict.detail)


def _regularity_side_hypothesis(sc: Scenario) -> Hypothesis:
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


def _clr_hypothesis(sc: Scenario) -> Hypothesis:
    base = find_clr_base(sc.space, sc.t_map, sc.s_map)
    if base is None:
        return Hypothesis("clr-property", HypothesisStatus.FAILS, "no chain-admitting base point")
    return Hypothesis("clr-property", HypothesisStatus.HOLDS, f"chain exists from {base}")


def _injective_hypothesis(sc: Scenario) -> Hypothesis:
    s = sc.s_map
    if s.is_injective:
        return Hypothesis("s-injective", HypothesisStatus.HOLDS, f"injective on {sc.space.n} points")
    seen: dict[int, int] = {}
    for i, v in enumerate(s.assignment):
        if v in seen:
            a, b = sc.space.labels[seen[v]], sc.space.labels[i]
            target = sc.space.labels[v]
            return Hypothesis(
                "s-injective", HypothesisStatus.FAILS, f"S({a}) = S({b}) = {target}"
            )
        seen[v] = i
    raise AssertionError("unreachable")


class _OrbitLimits:
    """The orbit limit sets of one scenario, each computed on first use."""

    def __init__(self, sc: Scenario):
        self.sc = sc

    @cached_property
    def plain(self) -> tuple[tuple[str, ...], object]:
        """Subsequential limits of the iterate sequence on a finite space.

        The orbit is eventually periodic, so the limit set is the cycle (or the
        single coincidence point when the orbit stabilizes).
        """
        sc = self.sc
        ident = identity_map(sc.space)
        base = sc.x0 if sc.x0 is not None else sc.space.labels[0]
        trace = run_picard_pair(
            sc.space, sc.t_map, ident, base, policy=sc.policy, max_iter=sc.max_iter, tol=sc.tol
        )
        if trace.coincidence_index is not None:
            idx = trace.points[trace.coincidence_index]
            return (sc.space.labels[idx],), trace
        return trace.cycle_labels(), trace

    @cached_property
    def pair_chain_t(self) -> tuple[tuple[str, ...], object]:
        """Subsequential limits of the T-images along a chain of the pair."""
        sc = self.sc
        base = sc.x0 if sc.x0 is not None else find_clr_base(sc.space, sc.t_map, sc.s_map)
        if base is None:
            return (), None
        trace = run_picard_pair(
            sc.space, sc.t_map, sc.s_map, base, policy=sc.policy, max_iter=sc.max_iter, tol=sc.tol
        )
        if trace.coincidence_index is not None:
            idx = trace.points[trace.coincidence_index]
            return (sc.space.labels[sc.t_map.assignment[idx]],), trace
        if trace.cycle is not None:
            stop = trace.cycle.start + trace.cycle.period
            return (
                tuple(
                    sc.space.labels[sc.t_map.assignment[i]]
                    for i in trace.points[trace.cycle.start : stop]
                ),
                trace,
            )
        return (), trace


def _designated_point(sc: Scenario, limits: tuple[str, ...]) -> str | None:
    if sc.q is not None:
        return sc.q
    return limits[0] if limits else None


def check_hypotheses(sc: Scenario) -> HypothesisReport:
    """Evaluate the hypothesis checklist of the scenario's theorem."""
    return _checklist(sc, _OrbitLimits(sc))


def _checklist(sc: Scenario, orbits: _OrbitLimits) -> HypothesisReport:
    if sc.theorem not in THEOREM_IDS:
        raise MalformedScenario(f"unknown theorem id {sc.theorem!r}")
    tid = sc.theorem
    complete = _trivial("space-complete", "finite spaces are complete")
    image_complete = _trivial("s-image-complete", "finite subsets are complete")
    continuous = "every self-map of a finite space is continuous"

    if tid == "T2.1":
        hyps = [
            complete,
            _condition_hypothesis(
                sc, "classical-kannan-condition", classical_kannan(_scenario_alpha(sc))
            ),
        ]
    elif tid == "T2.2":
        hyps = [
            _condition_hypothesis(
                sc, "classical-kannan-condition", classical_kannan(_scenario_alpha(sc))
            ),
            _trivial("continuity-at-limit", continuous),
            _subsequence_hypothesis(sc, orbits, plain=True),
        ]
    elif tid == "T3.17":
        hyps = [
            _clr_hypothesis(sc),
            _condition_hypothesis(
                sc, "sigma-s-kannan-condition", sigma_s_kannan(_scenario_sigma(sc))
            ),
            *_sigma_class_hypotheses(sc),
            _trivial("continuity-at-designated", continuous),
            _subsequence_hypothesis(sc, orbits, plain=False),
        ]
    elif tid == "T3.18":
        hyps = [
            _clr_hypothesis(sc),
            image_complete,
            _condition_hypothesis(
                sc, "sigma-s-kannan-condition", sigma_s_kannan(_scenario_sigma(sc))
            ),
            *_sigma_class_hypotheses(sc),
        ]
    elif tid == "T3.29":
        hyps = [
            image_complete,
            _injective_hypothesis(sc),
            _condition_hypothesis(
                sc,
                f"s-dominated-condition(w={_scenario_w(sc)})",
                s_dominated(_scenario_sigma(sc), _scenario_w(sc)),
            ),
            *_sigma_class_hypotheses(sc),
        ]
    elif tid == "T3.33":
        hyps = [
            _condition_hypothesis(
                sc, "s-dominated-condition(w=1)", s_dominated(_scenario_sigma(sc), 1)
            ),
            _regularity_side_hypothesis(sc),
            _subsequence_hypothesis(sc, orbits, plain=True),
            _trivial("continuity-at-designated", continuous),
            _injective_hypothesis(sc),
        ]
    elif tid == "C3.19":
        hyps = [
            complete,
            _condition_hypothesis(sc, "sigma-kannan-condition", sigma_kannan(_scenario_sigma(sc))),
            *_sigma_class_hypotheses(sc),
        ]
    elif tid == "C3.31":
        hyps = [
            complete,
            _condition_hypothesis(
                sc, "squared-kannan-condition", koparde_waghmode(_scenario_alpha(sc))
            ),
        ]
    else:  # C3.32
        hyps = [
            complete,
            _condition_hypothesis(
                sc, "dominated-sum-condition", malceski(_scenario_alpha(sc), 0.0)
            ),
            _injective_hypothesis(sc),
            _trivial("s-continuous", continuous),
            _trivial(
                "s-sequentially-convergent",
                "finite spaces have no non-trivial convergence to break",
            ),
        ]
    return HypothesisReport(tid, tuple(hyps))


def _sigma_class_hypotheses(sc: Scenario) -> list[Hypothesis]:
    """Membership of the scenario's function in the sigma_c class, plus the
    upper-bound-or-dollar side condition."""
    return [
        _axiom_hypothesis(sc, "sigma1", AxiomKind.SIGMA1),
        _axiom_hypothesis(sc, f"sigma2(c={sc.c:g})", AxiomKind.SIGMA2, sc.c),
        _regularity_side_hypothesis(sc),
    ]


def _subsequence_hypothesis(sc: Scenario, orbits: _OrbitLimits, plain: bool) -> Hypothesis:
    if plain:
        limits, _ = orbits.plain
        target = _designated_point(sc, limits)
        name = "iterate-subsequence-converges"
        if target is None:
            return Hypothesis(name, HypothesisStatus.FAILS, "orbit has no limit points")
        if target in limits:
            return Hypothesis(name, HypothesisStatus.HOLDS, f"subsequence settles at {target}")
        return Hypothesis(
            name, HypothesisStatus.FAILS, f"{target} is not among limit points {list(limits)}"
        )
    limits, _ = orbits.pair_chain_t
    name = "t-images-subsequence-converges"
    if sc.q is not None:
        target = sc.s_map(sc.q)
        if target in limits:
            return Hypothesis(name, HypothesisStatus.HOLDS, f"T-images settle at S({sc.q}) = {target}")
        return Hypothesis(
            name,
            HypothesisStatus.FAILS,
            f"S({sc.q}) = {target} is not among limit points {list(limits)}",
        )
    for label in sc.space.labels:
        if sc.s_map(label) in limits:
            return Hypothesis(
                name, HypothesisStatus.HOLDS, f"T-images settle at S({label}) = {sc.s_map(label)}"
            )
    return Hypothesis(name, HypothesisStatus.FAILS, "no point maps into the limit set")


# --------------------------------------------------------------------------
# Conclusions
# --------------------------------------------------------------------------

_EXPECTED = {
    "T2.1": "unique-fixed-point",
    "T2.2": "designated-point-fixed",
    "T3.17": "coincidence-or-designated-fixed",
    "T3.18": "coincidence-set-nonempty",
    "T3.29": "unique-fixed-point",
    "T3.33": "designated-point-fixed",
    "C3.19": "unique-fixed-point",
    "C3.31": "unique-fixed-point",
    "C3.32": "unique-fixed-point",
}


def run_theorem(sc: Scenario) -> HypothesisReport:
    """Hypotheses plus the oracle-checked conclusion.

    The conclusion is computed whether or not the hypotheses hold;
    ``contradicted`` flags the only alarming combination (hypotheses all
    hold, conclusion fails).
    """
    orbits = _OrbitLimits(sc)
    report = _checklist(sc, orbits)
    tid = sc.theorem
    expected = _EXPECTED[tid]

    oracle = brute_force_points(sc.space, sc.t_map, sc.s_map)
    observed: dict = {
        "fixed_points": list(oracle.fixed_points),
        "coincidence_points": list(oracle.coincidence_points),
    }

    # The coincidence statements run chains of the pair, the others plain orbits.
    s_map = sc.s_map if tid in ("T3.17", "T3.18") else identity_map(sc.space)
    try:
        result = solve(
            sc.space, sc.t_map, s_map, sc.x0, policy=sc.policy, max_iter=sc.max_iter, tol=sc.tol
        )
        observed["solve"] = solve_summary(result)
    except NoClrBase:
        result = None
        observed["solve"] = {"error": "no-clr-base"}

    if expected == "coincidence-set-nonempty":
        match = (
            bool(observed["coincidence_points"])
            and result is not None
            and result.kind in (SolveKind.COINCIDENCE_POINT, SolveKind.FIXED_POINT)
            and result.point in observed["coincidence_points"]
        )
    elif expected == "unique-fixed-point":
        fixed = observed["fixed_points"]
        match = (
            len(fixed) == 1
            and result is not None
            and result.kind is SolveKind.FIXED_POINT
            and result.point == fixed[0]
        )
    elif expected == "designated-point-fixed":
        limits, _ = orbits.plain
        target = _designated_point(sc, limits)
        observed["designated"] = target
        match = (
            target is not None
            and sc.t_map(target) == target
            and observed["fixed_points"] == [target]
        )
    else:  # coincidence-or-designated-fixed
        limits, trace = orbits.pair_chain_t
        target = None
        if sc.q is not None:
            target = sc.s_map(sc.q)
        elif limits:
            for label in sc.space.labels:
                if sc.s_map(label) in limits:
                    target = sc.s_map(label)
                    break
        observed["designated"] = target
        branch_a = bool(observed["coincidence_points"])
        if target is None:
            similar = False
            s_fixes = False
            t_fixes = False
        else:
            if trace is not None and len(trace.points) >= 2:
                diag = diagnose(trace, sc.space, sc.t_map, sc.s_map, tol=sc.tol)
                similar = diag.s_asymptotically_similar
            else:
                similar = False
            s_fixes = sc.s_map(target) == target
            t_fixes = sc.t_map(target) == target
        implication_b = (not similar) or t_fixes
        implication_b_star = (not s_fixes) or t_fixes
        observed.update(
            {
                "coincidence_exists": branch_a,
                "s_asymptotically_similar": similar,
                "designated_fixed_by_t": t_fixes,
            }
        )
        match = branch_a or (implication_b and implication_b_star)

    conclusion = Conclusion(
        expected=expected,
        observed=observed,
        match=match,
        contradicted=report.all_hold and not match,
    )
    return HypothesisReport(report.theorem, report.hypotheses, conclusion)


# --------------------------------------------------------------------------
# Builtin scenario construction
# --------------------------------------------------------------------------


def builtin_scenario(example_id: str) -> Scenario:
    if example_id not in catalog.EXAMPLES:
        raise UnknownExample(f"no builtin scenario {example_id!r}")
    example = catalog.EXAMPLES[example_id]
    space, t_map, s_map = example.build()
    sigma, c = catalog.builtin_sigma(example_id)
    return Scenario(
        space=space,
        t_map=t_map,
        s_map=s_map,
        sigma=sigma,
        c=c,
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
    """Run a builtin entry and compare against its stored expected values."""
    computers = {
        "ex-3.24": _compute_ex_3_24,
        "ex-3.26": _compute_ex_3_26,
        "ex-3.34": _compute_ex_3_34,
        "ex-3.35": _compute_ex_3_35,
        "koparde-demo": _compute_koparde,
        "patel-deheri-demo": _compute_patel_deheri,
        "classify-gallery": _compute_classify_gallery,
    }
    if example_id not in computers:
        raise UnknownExample(f"unknown example id {example_id!r}")
    computed = computers[example_id]()
    golden = _load_golden(example_id)
    mismatches: list[str] = []
    # Golden values are stored at 12 significant digits; compare at the
    # same precision so re-rendering is the identity.
    _compare("", golden, round_floats(computed), mismatches)
    return ReproduceReport(example_id, computed, golden, tuple(mismatches))


def _load_golden(example_id: str) -> dict:
    path = resources.files("kannanlab").joinpath(f"golden/{example_id}.json")
    return json.loads(path.read_text())


def _compare(path: str, want, got, out: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{path}: expected mapping, got {type(got).__name__}")
            return
        for key, sub in want.items():
            here = f"{path}.{key}" if path else key
            if key not in got:
                out.append(f"{here}: missing")
            else:
                _compare(here, sub, got[key], out)
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: expected list of {len(want)}")
            return
        for i, sub in enumerate(want):
            _compare(f"{path}[{i}]", sub, got[i], out)
        return
    if isinstance(want, bool) or want is None or isinstance(want, str):
        if got != want:
            out.append(f"{path}: expected {want!r}, got {got!r}")
        return
    if isinstance(want, (int, float)):
        try:
            delta = abs(float(got) - float(want))
        except (TypeError, ValueError):
            out.append(f"{path}: expected number {want!r}, got {got!r}")
            return
        scale = max(1.0, abs(float(want)))
        if delta > NUMERIC_MATCH_TOL * scale:
            out.append(f"{path}: expected {want!r}, got {got!r}")
        return
    out.append(f"{path}: unsupported golden type {type(want).__name__}")


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
    sweep_spec = sigma_s_kannan(sc.sigma)
    sweep = check_condition(space, t_map, s_map, sweep_spec, sc.mode)
    spot_t, spot_s = pairing(space, t_map, s_map, sweep_spec).pair(
        space.index_of("4"), space.index_of("1")
    )
    theorem = run_theorem(sc)
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
            **condition_summary(sweep),
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
    pair_table = [
        {"pair": [space.labels[i], space.labels[j]], "t": t, "bound": 2.0 * s / 3.0}
        for i, j, t, s in pairing(space, t_map, None, spec).sweep(-math.inf)
        if i < j
    ]
    sweep = check_condition(space, t_map, None, spec, sc.mode)
    trace = run_picard_pair(space, t_map, sc.s_map, "1")
    sigma1 = check_axiom(sc.sigma, AxiomKind.SIGMA1, seed=sc.seed)
    theorem = run_theorem(sc)
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

    spec = s_dominated(sc.sigma, 1)
    sweep = check_condition(space, t_map, s_map, spec, sc.mode)
    spot_t, spot_s = pairing(space, t_map, s_map, spec).pair(
        space.index_of("1/4"), space.index_of("1/5")
    )
    classical = check_condition(space, t_map, None, classical_kannan(0.49))

    ident = identity_map(space)
    trace = run_picard_pair(space, t_map, ident, "1/4", max_iter=sc.max_iter, tol=sc.tol)
    diag = diagnose(trace, space, t_map, ident, tol=sc.tol)
    theorem = run_theorem(sc)
    coincidence_at = (
        space.labels[trace.points[trace.coincidence_index]]
        if trace.coincidence_index is not None
        else None
    )
    return {
        "n_points": space.n,
        "s_dominated": condition_summary(sweep),
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
    space, t_map, s_map = sc.space, sc.t_map, sc.s_map
    sweep = check_condition(space, t_map, s_map, s_dominated(sc.sigma, 1), sc.mode)
    theorem = run_theorem(sc)
    observed = theorem.conclusion.observed
    return {
        "s_dominated": condition_summary(sweep),
        "s_injective": s_map.is_injective,
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
    space, t_map = sc.space, sc.t_map
    sweep = check_condition(space, t_map, None, koparde_waghmode(0.3), sc.mode)
    theorem = run_theorem(sc)
    observed = theorem.conclusion.observed
    iterations = observed["solve"]["iterations"]
    return {
        "condition": condition_summary(sweep),
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
    sweep = check_condition(space, t_map, s_map, malceski(1.0 / 3.0, 0.0), sc.mode)
    strict = check_condition(space, t_map, s_map, s_dominated(sc.sigma, 1), sc.mode)
    theorem = run_theorem(sc)
    return {
        "condition": condition_summary(sweep),
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

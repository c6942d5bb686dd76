"""Property-based checks of the comparison-function algebra and the engine."""

import json
import math
import random
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kannanlab import (
    DEFAULT_TOL,
    AxiomKind,
    ComparisonFn,
    ConditionKind,
    ConditionReport,
    HypothesisStatus,
    KannanSupremum,
    MalformedScenario,
    NoClrBase,
    Outcome,
    PairMode,
    PairWitness,
    Scenario,
    SelfMap,
    brute_force_points,
    build_finite_space,
    build_truncated_harmonic_space,
    check_axiom,
    check_condition,
    check_hypotheses,
    classical_kannan,
    classify,
    diagnose,
    find_clr_base,
    gallery,
    identity_map,
    kannan_supremum,
    koparde_waghmode,
    malceski,
    random_condition_pair,
    random_space,
    replay_witness,
    run_picard_pair,
    run_theorem,
    s_dominated,
    sigma_kannan,
    sigma_s_kannan,
    solve,
    space_from_values,
)
from kannanlab import builtins as catalog, metric, picard, theorems
from kannanlab.report import solve_summary, witness_summary
from kannanlab.sigma import DEFAULT_BUDGET, make_witness
from kannanlab.theorems import THEOREM_IDS
from scan_oracle import built, expected_space

positive = st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)


@given(
    alpha=st.sampled_from([0.1, 0.3, 0.45]),
    a0=positive,
    data=st.data(),
)
@settings(max_examples=200)
def test_linear_family_positivity_forces_geometric_decay(alpha, a0, data):
    chi = gallery("chi", alpha=alpha)
    bound = alpha / (1.0 - alpha)
    prev = a0
    for step in range(10):
        # Propose beyond the feasible region, then filter through eval.
        candidate = data.draw(
            st.floats(min_value=1e-12, max_value=2.0 * prev), label=f"a{step}"
        )
        if chi.eval(candidate, prev + candidate) > 0.0:
            assert candidate < prev * bound + 1e-15
            prev = candidate


@given(ratio=st.sampled_from([0.5, 0.9]), b0=positive, data=st.data())
@settings(max_examples=100)
def test_gamma_decay_tag_bounds_accepted_terms(ratio, b0, data):
    gamma = gallery("gamma")
    b = b0
    for step in range(12):
        candidate = data.draw(
            st.floats(min_value=1e-15, max_value=max(b, 1e-12)), label=f"a{step}"
        )
        if gamma.eval(candidate, b) > 0.0:
            assert candidate < b / 3.0
        b *= ratio


@given(a0=positive, data=st.data())
@settings(max_examples=100)
def test_geraghty_variant_accepted_sequences_strictly_decrease(a0, data):
    theta = gallery("theta-geraghty", alpha=0.5)
    prev = a0
    for step in range(20):
        if prev < 1e-9:
            break
        candidate = data.draw(
            st.floats(min_value=1e-12, max_value=prev), label=f"a{step}"
        )
        if theta.eval(candidate, prev + candidate) > 0.0:
            assert candidate < prev
            prev = candidate


@given(t=positive, s=positive)
@settings(max_examples=300)
def test_upper_bound_strict_for_half_and_two_thirds_slopes(t, s):
    assert gallery("beta").eval(t, s) < s - t
    assert gallery("tau").eval(t, s) < s - t


@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_random_spaces_satisfy_every_axiom(seed, n):
    space = random_space(n, random.Random(seed))
    assert space.violations() == []


# Signed zeros, subnormals, 1e-300 gaps, magnitudes whose differences
# overflow, a 1e6 diameter, and mixed magnitudes whose rounded triangles
# exceed a zero tolerance.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 2e-300, 2.2250738585072014e-308,
                1.0, 1e6, -1e6, 1e308, -1e308, 1.7976931348623157e308]
def _mixed_magnitudes(seed, k):
    rng = random.Random(seed)
    return [rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-3, 3) for _ in range(k)]


_ROW = st.one_of(
    st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_VALUES)),
        max_size=7,
    ),
    st.builds(_mixed_magnitudes, st.integers(0, 2**32), st.integers(3, 7)),
    st.builds(
        lambda base, gap, k: [base + i * gap for i in range(k)],
        st.sampled_from([0.0, -1e-300, 1.0, 1e6, -1e300, 1e308]),
        st.sampled_from([5e-324, 1e-300, 1e-12, 1.1641532182693481e-10, 0.1, 1e6 / 7, 1e300]),
        st.integers(1, 7),
    ),
)


def _assert_matches_the_full_scan(values, tol):
    labels = [f"p{i}" for i in range(len(values))]
    table = [[abs(a - b) for b in values] for a in values]
    assert built(lambda: space_from_values(values, labels, tol)) == expected_space(
        labels, table, tol
    )


@given(
    row=_ROW,
    tol=st.sampled_from([0.0, 1e-300, 1e-12, DEFAULT_TOL, 1.0, math.inf]),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_abs_diff_spaces_match_the_full_scan(row, tol, data):
    values = row + data.draw(st.lists(st.sampled_from(row), max_size=2) if row else st.just([]))
    _assert_matches_the_full_scan(data.draw(st.permutations(values), label="values"), tol)


@pytest.mark.parametrize(
    "values, tol",
    [
        ([-1e308, 1e308], math.inf),  # a distance overflows under an infinite tol
        ([0.0, -0.0, 1.0], 1.0),
        ([-0.0033909564785093373, 0.00018092983640471738, 8.111390619505176], 0.0),
        ([0.0, 5e-324, 1e-323], 0.0),
        ([], 0.0),
        ([3.0], 0.0),
        # Wider than the proved check covers at the default tol, so scanned.
        ([0.0, 5e-324, 1e-300, 1.0, 1e6], DEFAULT_TOL),
        ([1e7 * i / 99 for i in range(100)], DEFAULT_TOL),
    ],
)
def test_abs_diff_edge_cases_match_the_full_scan(values, tol):
    _assert_matches_the_full_scan(values, tol)


def test_abs_diff_spaces_skip_the_scan_when_proved():
    with mock.patch.object(metric, "_scan", side_effect=AssertionError("scanned")):
        assert space_from_values([0.0, 5e-324, 1e-300, 1.0, 1e5]).n == 5
        assert build_truncated_harmonic_space(60).space.n == 117


def test_every_falsified_verdict_replays():
    members = [
        gallery("gamma"),
        gallery("beta"),
        gallery("step-g"),
        gallery("step-omega"),
        gallery("chi", alpha=0.4),
        gallery("theta-pi", alpha=0.3),
        gallery("theta-geraghty", alpha=0.5),
        gallery("theta-l", alpha=0.3),
        gallery("tau"),
        gallery("psi-phi"),
        gallery("linear", slope=0.8),
        gallery("theta-geraghty", alpha=0.5, g_fn=lambda t: 1.2),
        gallery("theta-l", alpha=0.3, l_fn=lambda t: 2 * t),
        gallery("psi-phi", psi_fn=lambda t: 2.0 * t, phi_fn=lambda t: t),
    ]
    replayed = set()
    for fn in members:
        for kind in AxiomKind:
            for c in (1.0, 2.0, 3.0):
                verdict = check_axiom(fn, kind, c=c)
                if verdict.outcome is Outcome.FALSIFIED:
                    assert replay_witness(fn, kind, verdict.witness, c=c), (fn.name, kind, c)
                    replayed.add(kind)
    assert replayed == set(AxiomKind)


#: Every gallery member with the package's own handles, with parameters on
#: both sides of the slope thresholds (1/2 for sigma1, 1 for the rest).
DEFAULT_MEMBERS = (
    gallery("gamma"),
    gallery("beta"),
    gallery("step-g"),
    gallery("step-omega"),
    gallery("chi", alpha=0.4),
    gallery("theta-pi", alpha=0.4),
    gallery("theta-geraghty", alpha=0.3),
    gallery("theta-geraghty", alpha=0.5),
    gallery("theta-l", alpha=0.4),
    gallery("tau"),
    gallery("psi-phi"),
    gallery("linear", slope=0.3),
    gallery("linear", slope=0.8),
    gallery("linear", slope=1.5),
)


def test_no_certificate_is_refuted_by_the_falsifier():
    # With its certificates and ratio profile stripped, the search must find
    # no witness against any axiom the member certifies or decides holds.
    certified = set()
    for fn in DEFAULT_MEMBERS:
        bare = replace(fn, analytic_certificates=frozenset(), sigma2_certificate=None, profile=None)
        for kind in AxiomKind:
            for c in (1.0, 2.0, 3.0) if kind is AxiomKind.SIGMA2 else (1.0,):
                if check_axiom(fn, kind, c=c).outcome is not Outcome.CERTIFIED_HOLDS:
                    continue
                certified.add(kind)
                for seed in (0, 1, 2):
                    verdict = check_axiom(bare, kind, c=c, budget=DEFAULT_BUDGET, seed=seed)
                    assert verdict.outcome is not Outcome.FALSIFIED, (
                        fn.name, fn.params, kind, c, seed, verdict.detail
                    )
    assert certified == set(AxiomKind)


def test_classify_decides_every_default_member():
    # Certificates and the exact decision leave no cell undetermined.
    for fn in DEFAULT_MEMBERS:
        matrix = classify(fn, (1.0, 2.0, 3.0))
        undetermined = {
            key for key, verdict in matrix.axiom_verdicts
            if verdict.outcome is Outcome.UNDETERMINED
        }
        assert not undetermined, (fn.name, fn.params, undetermined)


def test_ratio_profile_members_classify_without_evaluations():
    # A certificate or the exact decision settles every cell of a member
    # with a ratio profile; only theta-geraghty is searched.
    for fn in DEFAULT_MEMBERS:
        if fn.profile is None:
            assert fn.name == "theta-geraghty"
            continue
        for c in (1.0, 2.0, 3.0):
            matrix = classify(fn, (c,))
            spent = {key: v.budget_used for key, v in matrix.axiom_verdicts if v.budget_used}
            assert not spent, (fn.name, fn.params, c, spent)


_EVAL_AXIOMS = tuple(k for k in AxiomKind if k not in (AxiomKind.GERAGHTY, AxiomKind.L_FUNCTION))
_PROFILED = st.one_of(
    st.sampled_from(DEFAULT_MEMBERS),
    st.floats(0.0, 0.5, exclude_min=True, exclude_max=True).map(lambda a: gallery("chi", alpha=a)),
    st.floats(0.0, 2.0, exclude_min=True).map(lambda m: gallery("linear", slope=m)),
)


def _linear_slope(fn: ComparisonFn) -> float | None:
    """The m of the linear(m) that a default member equals or lies below."""
    alpha = fn.param("alpha")
    if fn.name in ("theta-pi", "theta-l"):
        return alpha / 2
    if fn.name in ("chi", "theta-geraghty"):
        return alpha
    return {"beta": 0.5, "psi-phi": 0.5, "tau": 2.0 / 3.0}.get(fn.name, fn.param("slope"))


def _certified_before(fn: ComparisonFn, kind: AxiomKind, c: float) -> bool:
    """Whether the closed-form conditions known for linear(m), gamma and the
    step functions make this cell hold: the reference for the cells the
    exact decision proves."""
    m = _linear_slope(fn)
    if m is not None:
        return {AxiomKind.SIGMA1: m < 0.5, AxiomKind.SIGMA2: c < 1.0 / m, AxiomKind.DOLLAR: True}.get(
            kind, m < 1.0
        )
    if fn.name == "gamma":
        return kind in (AxiomKind.SIGMA1, AxiomKind.DOLLAR) or kind is AxiomKind.SIGMA2 and c < 3.0
    return kind is AxiomKind.SIGMA1 or kind is AxiomKind.SIGMA2 and c > 1.0


@given(fn=_PROFILED)
@example(fn=gallery("linear", slope=0.5))
@example(fn=gallery("linear", slope=2.0 / 3.0))
@example(fn=gallery("linear", slope=1.0))
@example(fn=gallery("chi", alpha=0.45))
@example(fn=gallery("chi", alpha=0.49999999999999994))
@example(fn=gallery("tau"))
@settings(max_examples=60, deadline=None)
def test_exact_decision_agrees_with_the_search(fn):
    # A cell the closed-form conditions settle must be decided to hold.
    # Every other cell is checked against the same member without its profile,
    # that is, the search: they agree wherever the search decides, down to
    # the witness and its detail, and every decided counterexample replays.
    searched_fn = replace(fn, profile=None)
    for c in (1.0, 2.0, 3.0):
        for kind in _EVAL_AXIOMS:
            decided = check_axiom(fn, kind, c=c)
            key = (fn.name, fn.params, kind, c)
            if _certified_before(fn, kind, c):
                assert decided.outcome is Outcome.CERTIFIED_HOLDS, key
                continue
            if decided.outcome is Outcome.FALSIFIED:
                assert replay_witness(fn, kind, decided.witness, c=c), key
            searched = check_axiom(searched_fn, kind, c=c)
            if searched.outcome is Outcome.UNDETERMINED:
                continue
            assert decided.outcome is searched.outcome, key
            assert (decided.witness, decided.detail) == (searched.witness, searched.detail), key


_LINEAR_MEMBERS = tuple(fn for fn in DEFAULT_MEMBERS if _linear_slope(fn) is not None)
_AXIOM_CELLS = Path(__file__).with_name("axiom_cells.json")


def axiom_cells() -> list[dict]:
    """Every default member's verdict on every eval axiom, sigma2 at c in
    {1, 1.5, 2, 3} and at each linear member's 1.0 / slope with its two float
    neighbours (those >= 1).  ``tests/axiom_cells.json`` holds the table, one
    ``json.dumps`` of a cell per line."""
    cs = {1.0, 1.5, 2.0, 3.0}
    for fn in _LINEAR_MEMBERS:
        bound = 1.0 / _linear_slope(fn)
        cs |= {math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)}
    cells = []
    for fn in DEFAULT_MEMBERS:
        for kind in _EVAL_AXIOMS:
            for c in sorted(x for x in cs if x >= 1.0) if kind is AxiomKind.SIGMA2 else (1.0,):
                v = check_axiom(fn, kind, c=c)
                cells.append({
                    "member": fn.name,
                    "params": dict(fn.params),
                    "axiom": kind.value,
                    "c": c,
                    "outcome": v.outcome.value,
                    "witness": witness_summary(v.witness),
                    "detail": v.detail if v.outcome is Outcome.FALSIFIED else None,
                    "unsearched": v.budget_used == 0,
                })
    return cells


def test_every_axiom_cell_keeps_its_pinned_verdict():
    pinned = json.loads(_AXIOM_CELLS.read_text())
    computed = axiom_cells()
    assert len(computed) == len(pinned)
    for got, want in zip(computed, pinned):
        assert got == want


_CUSTOM = (
    gallery("theta-pi", alpha=0.4, pi_fn=lambda t: 0.5 * t),
    gallery("theta-geraghty", alpha=0.4, g_fn=lambda t: 1.0 / (1.0 + t) if t > 0 else 0.0),
    gallery("theta-l", alpha=0.4, l_fn=lambda t: 0.5 * t),
    gallery("psi-phi", psi_fn=lambda t: 0.5 * t),
    gallery("psi-phi", phi_fn=lambda t: t),
)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)


@given(t=_NONNEGATIVE, s=_NONNEGATIVE)
@example(t=0.0, s=0.0)
@example(t=0.0, s=1.0)
@example(t=1.0, s=0.0)
@example(t=0.0, s=2.225073858507207e-308)
@settings(max_examples=300, deadline=None)
def test_default_members_lie_below_their_linear_member(t, s):
    # The premise of theta-geraghty's dominance certificates, in the members'
    # own float arithmetic; the other members are linear(m) bit for bit.
    for fn in _LINEAR_MEMBERS:
        assert fn.eval(t, s) <= gallery("linear", slope=_linear_slope(fn)).eval(t, s), (
            fn.name, fn.params, t, s
        )


def test_linear_dominance_certifies_default_handles_only():
    # A member with a ratio profile has its eval axioms decided from it, so
    # it carries no certificate but its handle's own; only theta-geraghty,
    # which has no profile, keeps hand certificates for them.
    for fn in DEFAULT_MEMBERS:
        if fn.profile is None:
            continue
        own = {(AxiomKind.L_FUNCTION, "l(t) = t / 2 for t > 0, l(0) = 0")} if fn.name == "theta-l" else set()
        assert fn.analytic_certificates == own, (fn.name, fn.params)
        assert fn.sigma2_certificate is None, (fn.name, fn.params)
    # A handle the package did not supply carries nothing, even when it
    # computes the same values as the default.
    for fn in _CUSTOM:
        assert fn.analytic_certificates == frozenset(), fn.handles
        assert fn.sigma2_certificate is None, fn.handles


def test_custom_handles_are_searched_not_certified():
    # Each handle breaks its member's contract; the search finds the
    # counterexamples a certificate would have hidden.
    cells = (
        (gallery("theta-pi", alpha=0.4, pi_fn=lambda t: 2.0 * t), AxiomKind.SIGMA1, 1.0),
        (gallery("theta-pi", alpha=0.4, pi_fn=lambda t: 2.0 * t), AxiomKind.SIGMA2, 2.0),
        (gallery("psi-phi", psi_fn=lambda t: 2.0 * t, phi_fn=lambda t: t), AxiomKind.UPPER_BOUND, 1.0),
        (gallery("psi-phi", psi_fn=lambda t: 2.0 * t, phi_fn=lambda t: t), AxiomKind.ZETA3, 1.0),
    )
    for fn, kind, c in cells:
        verdict = check_axiom(fn, kind, c=c)
        assert verdict.outcome is Outcome.FALSIFIED, (fn.name, kind, c)
        assert replay_witness(fn, kind, verdict.witness, c=c), (fn.name, kind, c)


def test_replay_rejects_non_witnesses_of_handle_axioms():
    # g(1) = 0.5 lies in [0, 1) and l(x) = x / 2 meets every demand.
    geraghty = gallery("theta-geraghty", alpha=0.5)
    for witness in (make_witness("constant", value=1.0), make_witness("linear", scale=1.0)):
        assert not replay_witness(geraghty, AxiomKind.GERAGHTY, witness)
    theta_l = gallery("theta-l", alpha=0.3)
    for value in (0.0, 1.0):
        witness = make_witness("constant", value=value)
        assert not replay_witness(theta_l, AxiomKind.L_FUNCTION, witness)
    stuck = gallery("theta-geraghty", alpha=0.5, g_fn=lambda t: 1.2)
    assert replay_witness(stuck, AxiomKind.GERAGHTY, make_witness("constant", value=1.0))


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=25, deadline=None)
def test_generated_pairs_reach_coincidence_with_regular_traces(seed):
    # Condition-satisfying pairs drive every chain to a coincidence that the
    # oracle confirms, and the realized trace is asymptotically regular.
    rng = random.Random(seed)
    space, t_map, s_map = random_condition_pair(rng)
    base = find_clr_base(space, t_map, s_map)
    trace = run_picard_pair(space, t_map, s_map, base)
    assert trace.coincidence_index is not None
    if len(trace.points) >= 2:
        report = diagnose(trace, space, t_map, s_map)
        assert report.asymptotically_regular
        assert report.s_cauchy
    result = solve(space, t_map, s_map)
    oracle = brute_force_points(space, t_map, s_map)
    assert result.point in oracle.coincidence_points


def test_classification_matrix_is_deterministic_per_seed():
    fn = gallery("step-g")
    first = classify(fn, (1.0, 2.0), seed=5)
    second = classify(fn, (1.0, 2.0), seed=5)
    assert first == second


def _reference_sweep(space, t_map, s_map, spec, mode, tol=1e-9):
    """Each condition's pair test written out per kind, evaluated on every
    ordered pair, with the skip decided after evaluation."""
    kind = spec.kind
    if s_map is None or kind in (
        ConditionKind.CLASSICAL_KANNAN,
        ConditionKind.SIGMA_KANNAN,
        ConditionKind.KOPARDE_WAGHMODE,
    ):
        s_map = identity_map(space)
    d = space.d
    t_of = t_map.assignment
    s_of = s_map.assignment
    st_of = tuple(s_of[v] for v in t_of)
    w = spec.w or 1
    checked = skipped = 0
    witness = None
    for i in range(space.n):
        for j in range(space.n):
            req = None
            if kind is ConditionKind.CLASSICAL_KANNAN:
                t = d(t_of[i], t_of[j])
                s = d(t_of[i], i) + d(t_of[j], j)
                value = spec.alpha * s - t
                ok = t <= spec.alpha * s
                req = t / s if s > 0.0 else (math.inf if t > 0.0 else 0.0)
            elif kind is ConditionKind.SIGMA_KANNAN:
                t = d(t_of[i], t_of[j])
                s = d(t_of[i], i) + d(t_of[j], j)
                value = spec.sigma.eval(t, s)
                ok = value > 0.0
            elif kind is ConditionKind.SIGMA_S_KANNAN:
                t = d(t_of[i], t_of[j])
                s = d(t_of[i], s_of[i]) + d(t_of[j], s_of[j])
                value = spec.sigma.eval(t, s)
                ok = value > 0.0
            elif kind is ConditionKind.S_DOMINATED:
                t = d(st_of[i], st_of[j]) ** w
                s = d(s_of[i], st_of[i]) ** w + d(s_of[j], st_of[j]) ** w
                value = spec.sigma.eval(t, s)
                ok = value > 0.0
            elif kind is ConditionKind.MALCESKI:
                t = d(st_of[i], st_of[j])
                s = d(s_of[i], st_of[i]) + d(s_of[j], st_of[j])
                rhs = spec.alpha * s + spec.gamma * d(s_of[i], s_of[j])
                value = rhs - t
                ok = t <= rhs
            else:
                t = d(t_of[i], t_of[j]) ** 2
                s = d(i, t_of[i]) ** 2 + d(j, t_of[j]) ** 2
                value = spec.alpha * s - t
                ok = t <= spec.alpha * s
                req = t / s if s > 0.0 else (math.inf if t > 0.0 else 0.0)
            if mode is PairMode.POSITIVE_PAIRS and t <= tol:
                skipped += 1
                continue
            checked += 1
            if not ok and witness is None:
                witness = PairWitness(space.labels[i], space.labels[j], t, s, value, req)
    return ConditionReport(kind, witness is None, checked, skipped, witness)


def _reference_supremum(space, t_map):
    best, best_pair = 0.0, None
    t_of = t_map.assignment
    for i in range(space.n):
        for j in range(space.n):
            t = space.d(t_of[i], t_of[j])
            if t > 0.0:
                s = space.d(t_of[i], i) + space.d(t_of[j], j)
                if s == 0.0:
                    return KannanSupremum(math.inf, True, (space.labels[i], space.labels[j]))
                if t / s > best:
                    best, best_pair = t / s, (space.labels[i], space.labels[j])
    return KannanSupremum(best, False, best_pair)


SWEEP_SIGMAS = (
    gallery("gamma"),
    gallery("beta"),
    gallery("step-g"),
    gallery("step-omega"),
    gallery("chi", alpha=0.4),
    gallery("theta-pi", alpha=0.3),
    gallery("theta-geraghty", alpha=0.5),
    gallery("theta-l", alpha=0.3),
    gallery("tau"),
    gallery("psi-phi"),
    gallery("linear", slope=0.8),
)


def _sweep_space(shape, n, seed):
    if shape == "sub-tolerance":
        return space_from_values([0.0, 5e-10, 1.0])
    if shape == "at-tolerance":  # a distance equal to the skip threshold
        return space_from_values([0.0, DEFAULT_TOL, 1.0])
    space = random_space(n, random.Random(seed))
    if shape == "random":
        return space
    # Symmetric only within tolerance, so the argument order of each
    # distance shows in the last bits.
    table = [
        [v * (1.0 + 1e-12) if i < j else v for j, v in enumerate(row)]
        for i, row in enumerate(space.dist)
    ]
    return build_finite_space(space.labels, table)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.sampled_from([*range(1, 9), 20, 30]),
    shape=st.sampled_from(["random", "asymmetric", "sub-tolerance", "at-tolerance"]),
    image_size=st.sampled_from([None, 1, 2]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_condition_sweeps_match_the_per_pair_restatement(seed, n, shape, image_size, data):
    space = _sweep_space(shape, n, seed)
    n = space.n
    point = st.integers(0, n - 1)
    if image_size is not None:
        # T onto at most one or two points: few distinct rows to count.
        image = data.draw(st.lists(point, min_size=image_size, max_size=image_size), label="image")
        point = st.sampled_from(image)
    t_map = SelfMap(space, tuple(data.draw(st.lists(point, min_size=n, max_size=n), label="T")))
    s_map = SelfMap(space, tuple(data.draw(st.lists(point, min_size=n, max_size=n), label="S")))
    sigma = data.draw(st.sampled_from(SWEEP_SIGMAS), label="sigma")
    alpha = data.draw(st.sampled_from([0.05, 0.2, 0.3]), label="alpha")
    specs = (
        classical_kannan(alpha),
        sigma_kannan(sigma),
        sigma_s_kannan(sigma),
        s_dominated(sigma, data.draw(st.integers(1, 3), label="w")),
        malceski(alpha, data.draw(st.sampled_from([0.0, 0.2, 0.3]), label="gamma")),
        koparde_waghmode(alpha),
    )
    for spec in specs:
        for mode in PairMode:
            for s in (s_map, None):
                expected = _reference_sweep(space, t_map, s, spec, mode)
                assert check_condition(space, t_map, s, spec, mode) == expected, (spec, mode)
    assert kannan_supremum(space, t_map) == _reference_supremum(space, t_map)


@pytest.mark.parametrize("n_max", [20, 120])
@pytest.mark.parametrize("w", [2, 3])
def test_positive_sweeps_skip_on_the_powered_image_distance(n_max, w):
    # d^w of the harmonic truncation's 1/n^n points falls below the
    # tolerance where d does not, and at n_max = 120 it underflows to 0.0.
    space, t_map, s_map = catalog.harmonic_pair(n_max)
    spec = s_dominated(gallery("chi", alpha=1 / 3), w)
    for mode in PairMode:
        expected = _reference_sweep(space, t_map, s_map, spec, mode)
        assert check_condition(space, t_map, s_map, spec, mode) == expected, mode


def _recording(base, calls):
    """``base`` with every evaluation's (t, s) appended to ``calls``."""

    def ev(t, s):
        calls.append((t, s))
        return base.eval(t, s)

    return ComparisonFn(name="recording", eval=ev)


@pytest.mark.parametrize(
    "make", [sigma_kannan, sigma_s_kannan, lambda sigma: s_dominated(sigma, 2)]
)
def test_sigma_is_evaluated_once_per_checked_pair_up_to_the_witness(make):
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        space = _sweep_space("sub-tolerance" if seed % 8 == 0 else "random", rng.randint(1, 9), seed)
        n = space.n
        t_map = SelfMap(space, tuple(rng.randrange(n) for _ in range(n)))
        s_map = SelfMap(space, tuple(rng.randrange(n) for _ in range(n)))
        base = SWEEP_SIGMAS[seed % len(SWEEP_SIGMAS)]
        for mode in PairMode:
            calls, reference_calls = [], []
            report = check_condition(space, t_map, s_map, make(_recording(base, calls)), mode)
            spec = make(_recording(base, reference_calls))
            assert report == _reference_sweep(space, t_map, s_map, spec, mode)
            # The reference evaluates every ordered pair, in index order.
            checked = [
                (t, s)
                for t, s in reference_calls
                if mode is PairMode.ALL_ORDERED_PAIRS or t > DEFAULT_TOL
            ]
            if report.holds:
                assert calls == checked and len(calls) == report.pairs_checked
            else:
                stop = next(k for k, (t, s) in enumerate(checked) if not base.eval(t, s) > 0.0)
                assert calls == checked[: stop + 1]
            outcomes.add((mode, report.holds))
    assert len(outcomes) == 4


# Statements whose conclusion is read from a chain of the pair (T, S); the
# others read the orbit of T alone.
PAIR_CHAIN_THEOREMS = {"T3.17", "T3.18"}
SUBSEQUENCE_HYPOTHESES = {
    "T2.2": "iterate-subsequence-converges",
    "T3.17": "t-images-subsequence-converges",
    "T3.33": "iterate-subsequence-converges",
}


def _limit_set(space, t_map, trace, pair_chain):
    """Points the chain returns to forever: its coincidence point, or every
    point from the cycle's start on; on a chain of the pair, their T-images."""
    if trace.coincidence_index is not None:
        points = {trace.points[trace.coincidence_index]}
    elif trace.cycle is not None:
        points = set(trace.points[trace.cycle.start :])
    else:
        points = set()
    if pair_chain:
        points = {t_map.assignment[i] for i in points}
    return {space.labels[i] for i in points}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(1, 7),
    sub_tolerance=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_theorem_runner_reads_one_chain(seed, n, sub_tolerance, data):
    if sub_tolerance:
        space = space_from_values([0.0, 5e-10, 1.0])
    else:
        space = random_space(n, random.Random(seed))
    n = space.n
    point = st.integers(0, n - 1)
    label = st.none() | st.sampled_from(space.labels)
    t_map = SelfMap(space, tuple(data.draw(st.lists(point, min_size=n, max_size=n), label="T")))
    s_map = SelfMap(space, tuple(data.draw(st.lists(point, min_size=n, max_size=n), label="S")))
    base = Scenario(
        space=space,
        t_map=t_map,
        s_map=s_map,
        sigma=data.draw(st.sampled_from([None, gallery("chi", alpha=0.3), gallery("gamma")])),
        alpha=data.draw(st.sampled_from([None, 0.3])),
        w=data.draw(st.sampled_from([None, 1, 2])),
        mode=data.draw(st.sampled_from(list(PairMode))),
        x0=data.draw(label, label="x0"),
        q=data.draw(label, label="q"),
        max_iter=data.draw(st.sampled_from([1, 2, 5, 10_000]), label="max_iter"),
    )
    for tid in THEOREM_IDS:
        sc = replace(base, theorem=tid)
        try:
            expected = check_hypotheses(sc)
        except MalformedScenario as e:
            with pytest.raises(MalformedScenario) as again:
                run_theorem(sc)
            assert str(again.value) == str(e)
            continue
        pair_chain = tid in PAIR_CHAIN_THEOREMS
        chain_s = s_map if pair_chain else identity_map(space)
        # One solve call realises the chain, unless no point admits one;
        # nothing iterates it again, and the chain's base point is searched
        # for at most once.
        has_base = sc.x0 is not None or find_clr_base(space, t_map, chain_s) is not None
        calls = []
        bases = []

        def counted_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        def counted_base(*args):
            bases.append(args)
            return find_clr_base(*args)

        with mock.patch.object(theorems, "solve", counted_solve), mock.patch.object(
            theorems, "run_picard_pair", side_effect=AssertionError("second chain")
        ), mock.patch.object(theorems, "find_clr_base", counted_base), mock.patch.object(
            picard, "find_clr_base", counted_base
        ):
            report = run_theorem(sc)
        assert len(calls) == (1 if has_base else 0), tid
        assert report.hypotheses == expected.hypotheses
        # The pair-chain statements carry the clr-property hypothesis, which
        # reads the base even when x0 is given.
        assert len(bases) == (1 if sc.x0 is None or pair_chain else 0), (tid, sc.x0)
        observed = report.conclusion.observed
        try:
            direct = solve(space, t_map, chain_s, sc.x0, max_iter=sc.max_iter, tol=sc.tol)
        except NoClrBase:
            assert observed["solve"] == {"error": "no-clr-base"}
            limits = set()
        else:
            assert observed["solve"] == solve_summary(direct)
            limits = _limit_set(space, t_map, direct.trace, pair_chain)
        if tid in SUBSEQUENCE_HYPOTHESES:
            holds = report.status_of(SUBSEQUENCE_HYPOTHESES[tid]) is HypothesisStatus.HOLDS
            assert holds == (observed["designated"] in limits), (tid, observed, limits)
            if sc.q is not None:
                assert observed["designated"] == (s_map(sc.q) if pair_chain else sc.q)

"""Property-based checks of the comparison-function algebra and the engine."""

import random

from hypothesis import given, settings, strategies as st

from kannanlab import (
    AxiomKind,
    Outcome,
    brute_force_points,
    check_axiom,
    classify,
    diagnose,
    find_clr_base,
    gallery,
    random_condition_pair,
    random_space,
    replay_witness,
    run_picard_pair,
    solve,
)
from kannanlab.sigma import make_witness

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

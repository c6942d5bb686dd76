import itertools
import random
from fractions import Fraction

import pytest

from kannanlab import (
    NoClrBase,
    Scenario,
    SolveKind,
    TraceTooShort,
    brute_force_points,
    build_finite_space,
    constant_map,
    diagnose,
    find_clr_base,
    gallery,
    identity_map,
    random_space,
    run_picard_pair,
    run_theorem,
    solve,
    SelfMap,
    space_from_values,
)


def test_clr_base_on_five_point(five_point):
    space, t_map, s_map = five_point
    assert find_clr_base(space, t_map, s_map) == "1"


def test_chain_breaks_from_point_without_preimage(five_point):
    # The image of point 4 is never taken by the second map, so a chain
    # started there stops immediately.
    space, t_map, s_map = five_point
    trace = run_picard_pair(space, t_map, s_map, "4")
    assert trace.chain_broken_at == 0
    assert trace.coincidence_index is None
    with pytest.raises(TraceTooShort):
        diagnose(trace, space, t_map, s_map)


def test_identity_second_map_always_admits_chains(three_point):
    space, t_map, s_map = three_point
    assert find_clr_base(space, t_map, s_map) == space.labels[0]


def test_no_base_when_image_misses_preimages():
    space = build_finite_space(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    t_map = constant_map(space, "b")
    s_map = constant_map(space, "a")
    assert find_clr_base(space, t_map, s_map) is None
    with pytest.raises(NoClrBase):
        solve(space, t_map, s_map)


def test_lowest_index_policy_skips_preimages_that_start_no_chain():
    # T(0) = 1 has the S-preimages 1 and 2.  No chain continues from 1, as
    # T(1) = 2 is no S-image, so the chain from the base 0 takes 2 and ends
    # at the coincidence point 3.
    space = space_from_values([0, 1, 2, 3])
    t_map, s_map = SelfMap(space, (1, 2, 3, 3)), SelfMap(space, (0, 1, 1, 3))
    assert find_clr_base(space, t_map, s_map) == "0"
    result = solve(space, t_map, s_map)
    assert result.kind is SolveKind.COINCIDENCE_POINT
    assert (result.trace.point_labels(), result.point) == (("0", "2", "3"), "3")
    sc = Scenario(space, t_map, s_map, sigma=gallery("chi", alpha=0.4), theorem="T3.18")
    assert run_theorem(sc).conclusion.match


@pytest.mark.parametrize("n", [3, 4])
def test_solve_never_breaks_from_the_clr_base(n):
    # Every live point has a live S-preimage of its T-image, and the default
    # policy takes one, so a chain from find_clr_base's base never breaks.
    space = space_from_values(list(range(n)))
    maps = [SelfMap(space, a) for a in itertools.product(range(n), repeat=n)]
    for t_map in maps:
        for s_map in maps:
            base = find_clr_base(space, t_map, s_map)
            if base is not None:
                kind = solve(space, t_map, s_map, base).kind
                assert kind is not SolveKind.CHAIN_BROKEN, (t_map.assignment, s_map.assignment)


def test_three_point_orbit_cycles(three_point):
    space, t_map, s_map = three_point
    trace = run_picard_pair(space, t_map, s_map, "1")
    assert trace.point_labels()[:5] == ("1", "3", "2", "3", "2")
    assert trace.cycle is not None
    assert (trace.cycle.start, trace.cycle.period) == (1, 2)
    assert trace.step_distances[0] == 2.0
    assert all(v == 1.0 for v in trace.step_distances[1:])
    report = diagnose(trace, space, t_map, s_map)
    assert not report.asymptotically_regular
    assert not report.s_cauchy
    assert report.s_bounded


def test_five_point_immediate_coincidence(five_point):
    space, t_map, s_map = five_point
    trace = run_picard_pair(space, t_map, s_map, "1")
    assert trace.coincidence_index == 0


def test_harmonic_orbit_steps_match_telescoping_oracle(harmonic50):
    space, t_map, _ = harmonic50
    ident = identity_map(space)
    trace = run_picard_pair(space, t_map, ident, "1/4")
    expected = [float(Fraction(1, (n + 4) * (n + 5))) for n in range(47)]
    for n, want in enumerate(expected):
        assert abs(trace.step_distances[n] - want) <= 1e-12
    assert trace.coincidence_index is not None
    assert space.labels[trace.points[trace.coincidence_index]] == "0"
    report = diagnose(trace, space, t_map, ident)
    assert report.asymptotically_regular
    assert report.s_cauchy


def test_constant_map_diagnostics_all_true():
    space = build_finite_space(["1", "2", "3"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    t_map = constant_map(space, "3")
    ident = identity_map(space)
    trace = run_picard_pair(space, t_map, ident, "1")
    assert trace.coincidence_index == 1
    report = diagnose(trace, space, t_map, ident)
    assert report.asymptotically_regular
    assert report.s_cauchy
    assert report.s_asymptotically_similar


def test_chain_identity_invariant_on_random_pairs():
    rng = random.Random(13)
    for _ in range(20):
        space = random_space(rng.randint(3, 9), rng)
        t_map = SelfMap(space, tuple(rng.randrange(space.n) for _ in range(space.n)))
        s_map = SelfMap(space, tuple(rng.randrange(space.n) for _ in range(space.n)))
        base = find_clr_base(space, t_map, s_map)
        if base is None:
            continue
        trace = run_picard_pair(space, t_map, s_map, base, max_iter=200)
        for n in range(1, len(trace.points)):
            assert trace.s_images[n] == trace.t_images[n - 1]
        for n in range(len(trace.points)):
            assert trace.step_distances[n] == space.d(
                trace.s_images[n], trace.t_images[n]
            )


def test_c_sequence_matches_brute_suffix_supremum(three_point):
    space, t_map, s_map = three_point
    trace = run_picard_pair(space, t_map, s_map, "1")
    for n in range(len(trace.points)):
        suffix = trace.s_images[n:]
        want = max(
            (space.d(a, b) for a in suffix for b in suffix), default=0.0
        )
        assert trace.c_sequence[n] == want


def test_brute_force_oracles(five_point, three_point):
    space, t_map, s_map = five_point
    sets = brute_force_points(space, t_map, s_map)
    # Independent scan over labels.
    manual = tuple(
        x for x in space.labels if t_map(x) == s_map(x)
    )
    assert sets.coincidence_points == manual == ("1", "2", "3", "5")

    space3, t3, _ = three_point
    assert brute_force_points(space3, t3).fixed_points == ()

    ident = identity_map(space3)
    both = brute_force_points(space3, ident, ident)
    assert both.fixed_points == space3.labels
    assert both.coincidence_points == space3.labels


def test_solve_outcomes(five_point, three_point, harmonic50):
    space, t_map, s_map = five_point
    result = solve(space, t_map, s_map)
    assert result.kind is SolveKind.COINCIDENCE_POINT
    assert result.point in brute_force_points(space, t_map, s_map).coincidence_points

    space3, t3, s3 = three_point
    cycle = solve(space3, t3, s3)
    assert cycle.kind is SolveKind.CYCLE
    assert set(cycle.cycle_points) == {"3", "2"}

    hspace, ht, hs = harmonic50
    fixed = solve(hspace, ht, hs, x0="0")
    assert fixed.kind is SolveKind.COINCIDENCE_POINT
    assert fixed.point == "0"


def test_coincidence_is_decided_by_index_not_by_tolerance():
    # d(0, 5e-10) is below the default tol, yet T moves 0 to 5e-10: the
    # chain 0 -> 5e-10 -> 0 is a 2-cycle, and T has no fixed point.
    space = space_from_values([0, 5e-10, 1])
    t_map = SelfMap(space, (1, 0, 0))
    ident = identity_map(space)
    result = solve(space, t_map, ident)
    assert result.kind is SolveKind.CYCLE
    assert set(result.cycle_points) == {"0", "5e-10"}
    assert brute_force_points(space, t_map, ident).fixed_points == ()
    report = diagnose(result.trace, space, t_map, ident)
    assert report.step_tail == report.final_c == 5e-10
    assert not report.asymptotically_regular
    assert not report.s_cauchy
    assert not report.s_asymptotically_similar


def test_solve_single_point_space():
    space = build_finite_space(["p"], [[0.0]])
    ident = identity_map(space)
    result = solve(space, ident, ident)
    assert result.kind is SolveKind.FIXED_POINT
    assert result.point == "p"


def test_supplied_preimage_policy():
    # Points 2 and 3 are both preimages of 2 under S; a supplied policy may
    # pick either, and the chain identity must hold exactly either way.
    space = build_finite_space(["1", "2", "3"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    t_map = SelfMap(space, (1, 1, 1))
    s_map = SelfMap(space, (2, 1, 1))

    def second_choice(candidates):
        return candidates[1] if len(candidates) > 1 else candidates[0]

    trace = run_picard_pair(space, t_map, s_map, "1", policy=second_choice)
    assert len(trace.points) >= 2
    assert trace.points[1] == 2  # the later preimage was taken
    for n in range(1, len(trace.points)):
        assert trace.s_images[n] == trace.t_images[n - 1]

    lowest = run_picard_pair(space, t_map, s_map, "1")
    assert lowest.points[1] == 1

    def broken_policy(candidates):
        return 0  # the first point maps to 3 under S, never a preimage of 2

    with pytest.raises(ValueError):
        run_picard_pair(space, t_map, s_map, "1", policy=broken_policy)


def test_budget_exhausted_when_cap_precedes_any_terminator():
    space = build_finite_space(
        ["1", "2", "3", "4"],
        [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
    )
    # A four-cycle with the identity partner never reaches a coincidence.
    t_map = SelfMap(space, (1, 2, 3, 0))
    result = solve(space, t_map, identity_map(space), x0="1", max_iter=3)
    assert result.kind is SolveKind.BUDGET_EXHAUSTED

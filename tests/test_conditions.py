import random
import re

import pytest

from kannanlab import (
    ConditionKind,
    ConditionSpec,
    PairMode,
    SpaceMismatch,
    brute_force_points,
    build_finite_space,
    check_condition,
    classical_kannan,
    constant_map,
    diagnose,
    find_clr_base,
    gallery,
    identity_map,
    kannan_supremum,
    koparde_waghmode,
    malceski,
    random_space,
    run_picard_pair,
    s_dominated,
    sigma_kannan,
    sigma_s_kannan,
    solve,
    SelfMap,
)
from kannanlab.conditions import PowerOverflow, pairing


def test_classical_fails_on_five_point_for_every_alpha(five_point):
    space, t_map, _ = five_point
    for k in range(1, 10):
        alpha = 0.05 * k
        report = check_condition(space, t_map, None, classical_kannan(alpha))
        assert not report.holds
    near_half = check_condition(space, t_map, None, classical_kannan(0.49))
    assert (near_half.witness.x, near_half.witness.y) == ("3", "4")
    assert near_half.witness.t == 1.0 and near_half.witness.s == 2.0


def test_sigma_s_kannan_holds_on_five_point(five_point):
    space, t_map, s_map = five_point
    sigma = gallery("linear", slope=3.0 / 7.0)
    report = check_condition(space, t_map, s_map, sigma_s_kannan(sigma))
    assert report.holds
    assert report.pairs_checked == 8
    assert report.pairs_skipped == 17
    # Independent double loop over the labels.
    for x in space.labels:
        for y in space.labels:
            i, j = space.index_of(x), space.index_of(y)
            t = space.d(t_map.assignment[i], t_map.assignment[j])
            if t <= 1e-9:
                continue
            s = space.d(t_map.assignment[i], s_map.assignment[i]) + space.d(
                t_map.assignment[j], s_map.assignment[j]
            )
            assert sigma.eval(t, s) > 0
    # Spot pair: both points map one unit apart, the image-gap sum is 3.
    i, j = space.index_of("4"), space.index_of("1")
    t = space.d(t_map.assignment[i], t_map.assignment[j])
    s = space.d(t_map.assignment[i], s_map.assignment[i]) + space.d(
        t_map.assignment[j], s_map.assignment[j]
    )
    assert (t, s) == (1.0, 3.0)
    assert abs(sigma.eval(t, s) - 2.0 / 7.0) < 1e-12


def test_three_point_positive_sweep_values(three_point):
    space, t_map, _ = three_point
    tau = gallery("tau")
    report = check_condition(space, t_map, None, sigma_kannan(tau))
    assert report.holds
    assert report.pairs_checked == 4
    assert report.pairs_skipped == 5
    everything = check_condition(
        space, t_map, None, sigma_kannan(tau), PairMode.ALL_ORDERED_PAIRS
    )
    assert everything.holds
    assert everything.pairs_checked == 9


def test_identity_with_step_omega_over_all_pairs():
    space = build_finite_space(
        ["1", "2", "3"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    )
    report = check_condition(
        space,
        identity_map(space),
        None,
        sigma_kannan(gallery("step-omega")),
        PairMode.ALL_ORDERED_PAIRS,
    )
    assert report.holds
    assert report.pairs_checked == 9


def test_supremum_below_half_brackets_satisfiable_alphas():
    rng = random.Random(17)
    bracketed = 0
    for _ in range(40):
        space = random_space(rng.randint(3, 8), rng)
        t_map = SelfMap(space, tuple(rng.randrange(space.n) for _ in range(space.n)))
        sup = kannan_supremum(space, t_map)
        if sup.unbounded or not sup.value < 0.5:
            continue
        for frac in (0.25, 0.5, 0.9):
            alpha = sup.value + frac * (0.5 - sup.value)
            if not 0.0 < alpha < 0.5:
                continue
            report = check_condition(space, t_map, None, classical_kannan(alpha))
            assert report.holds, (sup, alpha)
            bracketed += 1
    assert bracketed > 0


def test_kannan_supremum_cases(five_point):
    space, t_map, _ = five_point
    sup = kannan_supremum(space, t_map)
    assert not sup.unbounded
    assert abs(sup.value - 0.5) < 1e-12
    assert sup.pair == ("3", "4")
    # Independent ratio sweep.
    best = 0.0
    for i in range(space.n):
        for j in range(space.n):
            t = space.d(t_map.assignment[i], t_map.assignment[j])
            if t > 0:
                s = space.d(t_map.assignment[i], i) + space.d(t_map.assignment[j], j)
                best = max(best, t / s)
    assert abs(best - sup.value) < 1e-15

    small = build_finite_space(["1", "2", "3"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    ident_sup = kannan_supremum(small, identity_map(small))
    assert ident_sup.unbounded
    assert ident_sup.pair == ("1", "2")

    const_sup = kannan_supremum(small, constant_map(small, "2"))
    assert const_sup.value == 0.0
    assert const_sup.pair is None


def test_malceski_condition():
    space = build_finite_space(["1", "2", "3"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    t_map = constant_map(space, "2")
    s_map = identity_map(space)
    report = check_condition(space, t_map, s_map, malceski(0.4, 0.1))
    assert report.holds  # S.T constant makes every image distance zero
    failing = check_condition(
        space, identity_map(space), s_map, malceski(0.3, 0.3)
    )
    assert not failing.holds
    with pytest.raises(ValueError):
        malceski(0.45, 0.2)  # 2a + g >= 1


def test_condition_spec_validation():
    with pytest.raises(ValueError):
        classical_kannan(0.5)
    with pytest.raises(ValueError):
        koparde_waghmode(0.0)
    with pytest.raises(ValueError):
        s_dominated(gallery("tau"), 0)


def test_a_spec_built_directly_is_refused_as_its_constructor_refuses_it(five_point):
    # ConditionSpec is public, so a spec can skip its constructor; the sweep
    # then raises the constructor's own ValueError before any pair is read.
    space, t_map, s_map = five_point
    tau = gallery("tau")
    kind = ConditionKind
    classical = "classical condition requires 0 < alpha < 1/2"
    no_sigma = "sigma condition requires a comparison function"
    cases = [
        (ConditionSpec(kind.CLASSICAL_KANNAN), classical),
        (ConditionSpec(kind.CLASSICAL_KANNAN, alpha=-0.2), classical),
        (ConditionSpec(kind.CLASSICAL_KANNAN, alpha=float("nan")), classical),
        (ConditionSpec(kind.KOPARDE_WAGHMODE, alpha=0.5), "squared condition requires"),
        (ConditionSpec(kind.KOPARDE_WAGHMODE, alpha="0.3"), "squared condition requires"),
        (ConditionSpec(kind.SIGMA_KANNAN), no_sigma),
        (ConditionSpec(kind.SIGMA_S_KANNAN, alpha=0.3), no_sigma),
        (ConditionSpec(kind.S_DOMINATED, w=2), no_sigma),
        (ConditionSpec(kind.S_DOMINATED, sigma=tau), "degree w must be a positive integer"),
        (ConditionSpec(kind.S_DOMINATED, sigma=tau, w=0), "degree w must be a positive integer"),
        (ConditionSpec(kind.MALCESKI, alpha=0.2), "malceski condition requires gamma >= 0"),
        (ConditionSpec(kind.MALCESKI, gamma=0.1), "malceski condition requires alpha > 0"),
        (ConditionSpec(kind.MALCESKI, alpha=0.3, gamma=0.5), "2*alpha + gamma < 1"),
    ]
    for spec, message in cases:
        for mode in PairMode:
            with pytest.raises(ValueError, match=re.escape(message)):
                check_condition(space, t_map, s_map, spec, mode)
    # The constructors refuse the same fields with the same messages.
    for build, args, message in [
        (classical_kannan, (None,), classical),
        (sigma_kannan, (None,), no_sigma),
        (sigma_s_kannan, (object(),), no_sigma),
        (s_dominated, (None, 1), no_sigma),
        (malceski, (0.2, None), "malceski condition requires gamma >= 0"),
        (koparde_waghmode, (None,), "squared condition requires"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build(*args)
    # A directly built spec that its constructor accepts sweeps as the
    # constructed one does.
    direct = ConditionSpec(kind.CLASSICAL_KANNAN, alpha=0.3)
    assert check_condition(space, t_map, s_map, direct) == check_condition(
        space, t_map, s_map, classical_kannan(0.3)
    )


def test_space_mismatch_raises(five_point, three_point):
    space, t_map, s_map = five_point
    other_space, other_t, _ = three_point
    spec = sigma_s_kannan(gallery("tau"))
    trace = run_picard_pair(space, t_map, s_map, find_clr_base(space, t_map, s_map))
    for call in (
        lambda: check_condition(space, other_t, s_map, spec),
        lambda: check_condition(space, t_map, other_t, spec),
        lambda: kannan_supremum(space, other_t),
        lambda: t_map.compose(other_t),
        lambda: find_clr_base(space, t_map, other_t),
        lambda: run_picard_pair(space, other_t, s_map, "1"),
        lambda: diagnose(trace, space, t_map, other_t),
        lambda: solve(space, other_t, s_map, "1"),
        lambda: brute_force_points(space, other_t),
        lambda: brute_force_points(space, t_map, other_t),
    ):
        with pytest.raises(SpaceMismatch):
            call()


def test_squared_form_equals_degree_two_linear_reduction():
    # The squared comparison with alpha equals the degree-2 dominated sweep
    # with the matching linear function and the identity as second map.
    rng = random.Random(3)
    for trial in range(20):
        space = random_space(rng.randint(3, 8), rng)
        t_map = SelfMap(
            space, tuple(rng.randrange(space.n) for _ in range(space.n))
        )
        alpha = rng.choice([0.1, 0.3, 0.45])
        squared = check_condition(space, t_map, None, koparde_waghmode(alpha))
        dominated = check_condition(
            space,
            t_map,
            identity_map(space),
            s_dominated(gallery("chi", alpha=alpha), 2),
        )
        boundary = _has_boundary_pair(space, t_map, alpha)
        if boundary:
            continue
        assert squared.holds == dominated.holds
        assert squared.pairs_checked == dominated.pairs_checked
        assert squared.pairs_skipped == dominated.pairs_skipped
        if squared.witness is not None:
            assert (squared.witness.x, squared.witness.y) == (
                dominated.witness.x,
                dominated.witness.y,
            )


def _has_boundary_pair(space, t_map, alpha):
    for i in range(space.n):
        for j in range(space.n):
            t = space.d(t_map.assignment[i], t_map.assignment[j]) ** 2
            s = space.d(i, t_map.assignment[i]) ** 2 + space.d(j, t_map.assignment[j]) ** 2
            if abs(t - alpha * s) < 1e-12:
                return True
    return False


def test_linear_reduction_matches_classical_pairwise():
    # With the identity second map and the linear family, strict positivity
    # at a pair is exactly the strict classical inequality at that pair.
    rng = random.Random(5)
    alpha = 0.4
    chi = gallery("chi", alpha=alpha)
    for trial in range(20):
        space = random_space(rng.randint(3, 8), rng)
        t_map = SelfMap(space, tuple(rng.randrange(space.n) for _ in range(space.n)))
        for i in range(space.n):
            for j in range(space.n):
                t = space.d(t_map.assignment[i], t_map.assignment[j])
                if t <= 1e-9:
                    continue
                s = space.d(t_map.assignment[i], i) + space.d(t_map.assignment[j], j)
                assert (chi.eval(t, s) > 0) == (t < alpha * s)


def test_report_symmetry_in_the_pair():
    rng = random.Random(9)
    sigma = gallery("chi", alpha=0.4)
    for trial in range(10):
        space = random_space(rng.randint(3, 7), rng)
        t_map = SelfMap(space, tuple(rng.randrange(space.n) for _ in range(space.n)))
        s_map = SelfMap(space, tuple(rng.randrange(space.n) for _ in range(space.n)))
        for i in range(space.n):
            for j in range(space.n):
                t_ij = space.d(t_map.assignment[i], t_map.assignment[j])
                t_ji = space.d(t_map.assignment[j], t_map.assignment[i])
                s_ij = space.d(t_map.assignment[i], s_map.assignment[i]) + space.d(
                    t_map.assignment[j], s_map.assignment[j]
                )
                s_ji = space.d(t_map.assignment[j], s_map.assignment[j]) + space.d(
                    t_map.assignment[i], s_map.assignment[i]
                )
                assert t_ij == t_ji and s_ij == s_ji


def test_a_power_beyond_the_double_range_raises_from_the_count():
    # Row 0's squares (0 and 1e308) are finite and its pair (0, -1e154)
    # fails, so the search stops there; only the count reaches
    # d(-1e154, 1e154)^2 = 4e308.
    space = build_finite_space(
        ["0", "-1e154", "1e154"], [[0.0, 1e154, 1e154], [1e154, 0.0, 2e154], [1e154, 2e154, 0.0]]
    )
    spec = s_dominated(gallery("tau"), 2)
    p = pairing(space, identity_map(space), None, spec)
    assert p.t_row(0) == [0.0, 1e308, 1e308]
    assert not spec.sigma.eval(1e308, p.terms[0] + p.terms[1]) > 0.0
    with pytest.raises(PowerOverflow, match="w = 2"):
        p.t_row(1)
    for mode in PairMode:
        with pytest.raises(PowerOverflow, match="w = 2"):
            check_condition(space, identity_map(space), None, spec, mode)

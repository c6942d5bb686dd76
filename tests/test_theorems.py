import itertools
import random

import pytest

from kannanlab import (
    HypothesisStatus,
    MalformedScenario,
    Scenario,
    SelfMap,
    UnknownExample,
    brute_force_points,
    build_finite_space,
    builtin_scenario,
    check_hypotheses,
    constant_map,
    gallery,
    identity_map,
    random_condition_pair,
    reproduce,
    run_theorem,
    solve,
    space_from_values,
    theorems,
)
from kannanlab.cli import main

def test_five_point_main_theorem_all_hold_and_match():
    report = run_theorem(builtin_scenario("ex-3.24"))
    assert report.all_hold
    assert report.conclusion.match
    assert not report.conclusion.contradicted
    assert report.conclusion.observed["solve"]["point"] in (
        report.conclusion.observed["coincidence_points"]
    )


def test_three_point_counterexample_fails_only_first_axiom():
    report = run_theorem(builtin_scenario("ex-3.26"))
    assert report.status_of("sigma1") is HypothesisStatus.FAILS
    for h in report.hypotheses:
        if h.name != "sigma1":
            assert h.status is HypothesisStatus.HOLDS, h
    assert report.conclusion.observed["fixed_points"] == []
    assert not report.conclusion.match
    assert not report.conclusion.contradicted


def test_harmonic_dominated_theorem():
    report = run_theorem(builtin_scenario("ex-3.34"))
    assert report.all_hold
    assert report.status_of("s-injective") is HypothesisStatus.HOLDS
    assert report.conclusion.match
    assert report.conclusion.observed["fixed_points"] == ["0"]


def test_five_point_dominated_variant_has_fixed_point_despite_failed_injectivity():
    report = run_theorem(builtin_scenario("ex-3.35"))
    assert report.status_of("s-injective") is HypothesisStatus.FAILS
    assert report.conclusion.observed["fixed_points"] == ["3"]
    assert report.conclusion.match
    assert not report.conclusion.contradicted


def test_grid_squared_corollary():
    report = run_theorem(builtin_scenario("koparde-demo"))
    assert report.all_hold
    assert report.conclusion.match
    assert report.conclusion.observed["fixed_points"] == ["0.00"]
    assert report.conclusion.observed["solve"]["iterations"] <= 15


def test_degree_one_corollary_on_harmonic_pair():
    report = run_theorem(builtin_scenario("patel-deheri-demo"))
    assert report.all_hold
    assert report.conclusion.match


def _line_space(n=4):
    values = [float(k) for k in range(1, n + 1)]
    labels = [str(k) for k in range(1, n + 1)]
    table = [[abs(a - b) for b in values] for a in values]
    return build_finite_space(labels, table)


def test_classical_theorem_on_constant_map():
    space = _line_space()
    t_map = constant_map(space, "2")
    sc = Scenario(
        space=space,
        t_map=t_map,
        s_map=identity_map(space),
        alpha=0.3,
        theorem="T2.1",
    )
    report = run_theorem(sc)
    assert report.all_hold
    assert report.conclusion.match
    assert report.conclusion.observed["fixed_points"] == ["2"]


def test_classical_iterate_theorem_designates_the_limit():
    space = _line_space()
    t_map = constant_map(space, "3")
    sc = Scenario(
        space=space,
        t_map=t_map,
        s_map=identity_map(space),
        alpha=0.3,
        theorem="T2.2",
        x0="1",
    )
    report = run_theorem(sc)
    assert report.all_hold
    assert report.conclusion.observed["designated"] == "3"
    assert report.conclusion.match


def test_pair_theorem_with_designated_point():
    sc = builtin_scenario("ex-3.24")
    sc = Scenario(
        **{
            **sc.__dict__,
            "theorem": "T3.17",
            "q": "1",
        }
    )
    report = run_theorem(sc)
    assert report.all_hold
    assert report.conclusion.match


def test_degree_one_designated_theorem():
    sc_base = builtin_scenario("patel-deheri-demo")
    sc = Scenario(
        **{
            **sc_base.__dict__,
            "theorem": "T3.33",
            "w": 1,
            "x0": "1/4",
            "q": "0",
        }
    )
    report = run_theorem(sc)
    assert report.conclusion.observed["designated"] == "0"
    assert report.conclusion.match


def test_missing_fields_raise_malformed():
    space = _line_space()
    sc = Scenario(
        space=space,
        t_map=identity_map(space),
        s_map=identity_map(space),
        theorem="T3.18",
    )
    with pytest.raises(MalformedScenario):
        check_hypotheses(sc)  # no comparison function
    with pytest.raises(MalformedScenario):
        check_hypotheses(
            Scenario(
                space=space,
                t_map=identity_map(space),
                s_map=identity_map(space),
                sigma=gallery("tau"),
                theorem="T3.29",
            )
        )  # no degree
    with pytest.raises(MalformedScenario):
        check_hypotheses(
            Scenario(
                space=space,
                t_map=identity_map(space),
                s_map=identity_map(space),
                theorem="nope",
            )
        )
    # An alpha the statement's condition refuses: given, or read from the sigma.
    for theorem, alpha, sigma, refusal in (
        ("T2.1", 0.7, None, "classical condition"),
        ("C3.31", -1.0, None, "squared condition"),
        ("C3.32", None, gallery("linear", slope=1.2), "malceski condition"),
    ):
        with pytest.raises(MalformedScenario, match=f"theorem {theorem}: {refusal}"):
            check_hypotheses(
                Scenario(
                    space=space,
                    t_map=identity_map(space),
                    s_map=identity_map(space),
                    sigma=sigma,
                    theorem=theorem,
                    alpha=alpha,
                )
            )


def test_conclusion_is_independent_of_hypothesis_outcomes():
    # Same space and maps under two different comparison functions: the
    # hypothesis side differs, the observed conclusion must not.
    base = builtin_scenario("ex-3.26")
    alt = Scenario(**{**base.__dict__, "sigma": gallery("chi", alpha=0.4)})
    first = run_theorem(base).conclusion.observed
    second = run_theorem(alt).conclusion.observed
    assert first == second


def test_reproduce_all_examples_match():
    for example in (
        "ex-3.24",
        "ex-3.26",
        "ex-3.34",
        "ex-3.35",
        "koparde-demo",
        "patel-deheri-demo",
        "classify-gallery",
    ):
        result = reproduce(example)
        assert result.match, (example, result.mismatches)


def test_reproduce_unknown_example():
    with pytest.raises(UnknownExample):
        reproduce("ex-9.99")


_LOAD_GOLDEN = theorems._load_golden


def _reproduce_ex_3_34_against(monkeypatch, edit):
    """``reproduce("ex-3.34")`` against its golden document after ``edit``."""
    golden = _LOAD_GOLDEN("ex-3.34")
    edit(golden["spot_pair"])
    monkeypatch.setattr(theorems, "_load_golden", lambda example_id: golden)
    return reproduce("ex-3.34")


def test_reproduce_matches_only_what_it_prints_alike(monkeypatch, capsys):
    # The golden t is 0.000298566529492; one differing 10th digit is a mismatch.
    result = _reproduce_ex_3_34_against(monkeypatch, lambda spot: spot.update(t=0.0002985665299))
    assert not result.match
    assert result.mismatches == (
        "golden spot_pair.t: 0.0002985665299",
        "computed spot_pair.t: 0.000298566529492",
    )
    assert main(["reproduce", "ex-3.34", "--format", "text"]) == 1
    assert "mismatches.0: golden spot_pair.t: 0.0002985665299" in capsys.readouterr().out


def test_reproduce_matches_json_types_too(monkeypatch, capsys):
    # The text report prints the string "0.000298566529492" as it prints the
    # float; the JSON report does not.
    result = _reproduce_ex_3_34_against(monkeypatch, lambda spot: spot.update(t=str(spot["t"])))
    assert not result.match
    assert result.mismatches == (
        'golden spot_pair.t: "0.000298566529492"',
        "computed spot_pair.t: 0.000298566529492",
    )
    assert main(["reproduce", "ex-3.34"]) == 1
    capsys.readouterr()
    golden = _LOAD_GOLDEN("ex-3.34")
    golden["fixed_points"] = dict(enumerate(golden["fixed_points"]))
    monkeypatch.setattr(theorems, "_load_golden", lambda example_id: golden)
    assert reproduce("ex-3.34").mismatches == ("golden fixed_points: {}", "computed fixed_points: []")


def test_reproduce_names_a_key_only_one_side_has(monkeypatch):
    missing = _reproduce_ex_3_34_against(monkeypatch, lambda spot: spot.update(u=1))
    assert not missing.match
    assert missing.mismatches == ("golden spot_pair.u: 1",)
    extra = _reproduce_ex_3_34_against(monkeypatch, lambda spot: spot.pop("x"))
    assert not extra.match
    assert extra.mismatches == ("computed spot_pair.x: 1/4",)
    untouched = _reproduce_ex_3_34_against(monkeypatch, lambda spot: None)
    assert untouched.match and untouched.mismatches == ()


@pytest.mark.parametrize(
    "sigma", [gallery("tau"), *(gallery("linear", slope=m) for m in (0.500001, 0.6, 0.75, 0.999999))]
)
def test_t333_refuses_a_two_cycle_through_sigma1(sigma):
    # On 0, 1, 2 with S the identity, T = (1, 0, 0) cycles 0 <-> 1 and has no
    # fixed point, yet d(Tx, Ty) < m (d(x, Tx) + d(y, Ty)) on every pair with
    # distinct images once m > 1/2.  Only the sigma_c class hypotheses
    # (sigma1) rule such a linear(m) out.
    space = space_from_values([0, 1, 2])
    report = run_theorem(
        Scenario(space=space, t_map=SelfMap(space, (1, 0, 0)), s_map=identity_map(space),
                 sigma=sigma, theorem="T3.33")
    )
    status = {h.name: h.status for h in report.hypotheses}
    assert status.pop("sigma1") is HypothesisStatus.FAILS
    assert set(status.values()) == {HypothesisStatus.HOLDS}
    assert not report.conclusion.match
    assert not report.conclusion.contradicted


def test_census_slice_finds_no_contradiction():
    # Every statement on every (T, S) of two ordinary 3-point spaces: when
    # all hypotheses hold the conclusion must too, and no hypothesis is left
    # undetermined.  alpha comes from the member, T3.29 runs at w = 1.
    for values, sigma in (
        ((0.0, 1.0, 2.0), gallery("chi", alpha=0.4)),
        ((0.0, 1.0, 3.0), gallery("linear", slope=0.3)),
    ):
        space = space_from_values(values)
        maps = [SelfMap(space, a) for a in itertools.product(range(3), repeat=3)]
        for t_map, s_map in itertools.product(maps, maps):
            for theorem in theorems.THEOREM_IDS:
                report = run_theorem(Scenario(space, t_map, s_map, sigma=sigma, theorem=theorem, w=1))
                key = (values, sigma.name, t_map.assignment, s_map.assignment, theorem)
                assert not report.conclusion.contradicted, key
                assert not report.any_undetermined, key


def test_random_condition_pair_generator_properties():
    rng = random.Random(42)
    for _ in range(5):
        space, t_map, s_map = random_condition_pair(rng)
        # Image of the first map is covered by the second map's image.
        s_image = set(s_map.assignment)
        assert set(t_map.assignment) <= s_image
        result = solve(space, t_map, s_map)
        oracle = brute_force_points(space, t_map, s_map)
        assert result.point in oracle.coincidence_points

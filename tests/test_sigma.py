import warnings

import pytest

from kannanlab import (
    AxiomKind,
    ComparisonFn,
    MissingParam,
    Outcome,
    ParamOutOfRange,
    SubUnitCWarning,
    UnknownGallery,
    check_axiom,
    classify,
    gallery,
    replay_witness,
)


def test_eval_spot_values():
    assert gallery("gamma").eval(1.0, 1.0) == 0.0
    assert gallery("chi", alpha=0.3).eval(0.0, 0.0) == 0.0
    assert abs(gallery("tau").eval(1.0, 3.0) - 1.0) < 1e-15
    chi = gallery("chi", alpha=0.4)
    assert abs(chi.eval(2.0, 10.0) - (0.4 * 10.0 - 2.0)) < 1e-15


def test_gamma_piecewise_shape():
    gamma = gallery("gamma")
    assert gamma.eval(1.0, 4.0) == 0.5 * 4.0 - 1.5 * 1.0
    assert gamma.eval(4.0, 1.0) == 0.0


def test_step_functions_disagree_only_on_the_diagonal():
    g = gallery("step-g")
    omega = gallery("step-omega")
    assert g.eval(1.0, 1.0) == -1.0
    assert omega.eval(1.0, 1.0) == 1.0
    assert g.eval(2.0, 1.0) == omega.eval(2.0, 1.0) == 1.0
    assert g.eval(1.0, 2.0) == omega.eval(1.0, 2.0) == -1.0


def test_gallery_parameter_validation():
    with pytest.raises(UnknownGallery):
        gallery("no-such-member")
    with pytest.raises(MissingParam):
        gallery("chi")
    with pytest.raises(ParamOutOfRange):
        gallery("chi", alpha=0.5)
    with pytest.raises(ParamOutOfRange):
        gallery("theta-geraghty", alpha=0.51)
    for slope in (0.0, float("inf")):
        with pytest.raises(ParamOutOfRange):
            gallery("linear", slope=slope)
    with pytest.raises(ParamOutOfRange):
        gallery("gamma", alpha=0.2)
    # A parameter is a number: neither its text nor a bool is read as one.
    for name, key, value in (("chi", "alpha", "0.3"), ("linear", "slope", True),
                             ("theta-pi", "alpha", False), ("linear", "slope", "1")):
        with pytest.raises(ParamOutOfRange, match="requires a real number"):
            gallery(name, **{key: value})
    # The half-slope boundary is admissible for the Geraghty variant only.
    gallery("theta-geraghty", alpha=0.5)


@pytest.mark.parametrize("name", ["theta-pi", "theta-l"])
def test_halving_members_reject_an_alpha_that_halves_to_zero(name):
    with pytest.raises(ParamOutOfRange, match="alpha / 2 > 0"):
        gallery(name, alpha=5e-324)
    # The least alpha whose half is a double still builds.
    assert gallery(name, alpha=1e-323).param("alpha") == 1e-323


@pytest.mark.parametrize("c", [float("inf"), float("nan")])
def test_a_non_finite_c_is_rejected(c):
    beta = gallery("beta")
    with pytest.raises(ValueError, match="c must be finite"):
        check_axiom(beta, AxiomKind.SIGMA2, c=c)
    with pytest.raises(ValueError, match="c must be finite"):
        classify(beta, (1.0, c))


def test_beta_sigma1_falsified_by_harmonic_family():
    beta = gallery("beta")
    verdict = check_axiom(beta, AxiomKind.SIGMA1)
    assert verdict.outcome is Outcome.FALSIFIED
    assert verdict.witness.family == "harmonic"
    assert verdict.witness.param("limit") == 1.0
    # a_n = 1 + 1/n realized prefix.
    assert verdict.witness.first_terms[0] == 2.0
    assert abs(verdict.witness.first_terms[1] - 1.5) < 1e-15
    assert replay_witness(beta, AxiomKind.SIGMA1, verdict.witness)


def test_step_g_rho1_falsified_by_linear_growth():
    g = gallery("step-g")
    verdict = check_axiom(g, AxiomKind.RHO1)
    assert verdict.outcome is Outcome.FALSIFIED
    assert verdict.witness.family == "linear"
    assert verdict.witness.param("scale") == 1.0
    assert replay_witness(g, AxiomKind.RHO1, verdict.witness)


def test_tau_sigma1_falsified_by_constant_scan():
    tau = gallery("tau")
    verdict = check_axiom(tau, AxiomKind.SIGMA1)
    assert verdict.outcome is Outcome.FALSIFIED
    assert verdict.witness.family == "constant"
    assert verdict.witness.param("value") == 1.0
    assert abs(tau.eval(1.0, 2.0) - 1.0 / 3.0) < 1e-12


def test_chi_sigma1_certified_with_decay_ratio():
    chi = gallery("chi", alpha=0.4)
    verdict = check_axiom(chi, AxiomKind.SIGMA1)
    assert verdict.outcome is Outcome.CERTIFIED_HOLDS
    assert "0.666666666667" in verdict.detail


def test_sigma2_certificates_and_falsifications():
    gamma = gallery("gamma")
    for c in (1.0, 2.0):
        assert check_axiom(gamma, AxiomKind.SIGMA2, c=c).outcome is Outcome.CERTIFIED_HOLDS
    at_three = check_axiom(gamma, AxiomKind.SIGMA2, c=3.0)
    assert at_three.outcome is Outcome.FALSIFIED

    omega = gallery("step-omega")
    at_one = check_axiom(omega, AxiomKind.SIGMA2, c=1.0)
    assert at_one.outcome is Outcome.FALSIFIED
    wa, wb = at_one.witness.components
    assert wa.family == "constant" and wb.family == "constant"

    g = gallery("step-g")
    pair = check_axiom(g, AxiomKind.SIGMA2, c=1.0)
    assert pair.outcome is Outcome.FALSIFIED
    assert pair.witness.family == "pair"
    assert replay_witness(g, AxiomKind.SIGMA2, pair.witness, c=1.0)
    assert check_axiom(g, AxiomKind.SIGMA2, c=2.0).outcome is Outcome.CERTIFIED_HOLDS


def test_sub_unit_c_warns_and_is_vacuous():
    tau = gallery("tau")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = check_axiom(tau, AxiomKind.SIGMA2, c=0.5)
    assert verdict.outcome is Outcome.CERTIFIED_HOLDS
    assert any(issubclass(w.category, SubUnitCWarning) for w in caught)


def test_classify_gamma():
    gamma = gallery("gamma")
    matrix = classify(gamma, (1.0, 2.0))
    assert matrix.sigma_c_at(1.0).outcome is Outcome.CERTIFIED_HOLDS
    assert matrix.sigma_c_at(2.0).outcome is Outcome.CERTIFIED_HOLDS
    assert matrix.simulation.outcome is Outcome.FALSIFIED
    wa, wb = matrix.simulation.witness.components
    assert wa.param("value") == 1.0 and wb.param("value") == 1.0
    assert gamma.eval(1.0, 1.0) == 0.0
    assert matrix.dollar.outcome is Outcome.CERTIFIED_HOLDS


def test_classify_beta():
    matrix = classify(gallery("beta"), (1.0,))
    assert matrix.simulation.outcome is Outcome.CERTIFIED_HOLDS
    assert matrix.manageable.outcome is Outcome.CERTIFIED_HOLDS
    assert matrix.r_function.outcome is Outcome.CERTIFIED_HOLDS
    sigma_class = matrix.sigma_c_at(1.0)
    assert sigma_class.outcome is Outcome.FALSIFIED
    assert sigma_class.failing_axiom is AxiomKind.SIGMA1


def test_classify_step_g():
    matrix = classify(gallery("step-g"), (2.0,))
    assert matrix.sigma_c_at(2.0).outcome is Outcome.CERTIFIED_HOLDS
    assert matrix.r_function.outcome is Outcome.FALSIFIED
    assert matrix.r_function.failing_axiom is AxiomKind.RHO1


#: Gamma's eval as a function of the caller's own: no certificate and no
#: ratio profile, so every axiom is searched.
CUSTOM_GAMMA = ComparisonFn("custom-gamma", gallery("gamma").eval)


def test_undetermined_on_true_but_uncertified_axiom():
    # The piecewise average is an R-function in truth, but as a custom
    # function it carries no certificate for it, and no counterexample
    # exists to find.
    verdict = check_axiom(CUSTOM_GAMMA, AxiomKind.RHO1, budget=2000)
    assert verdict.outcome is Outcome.UNDETERMINED
    assert verdict.budget_used > 0


def test_gamma_r_function_is_decided_from_its_ratio_profile():
    gamma = gallery("gamma")
    for kind in (AxiomKind.RHO1, AxiomKind.RHO2):
        verdict = check_axiom(gamma, kind, budget=5)
        assert verdict.outcome is Outcome.CERTIFIED_HOLDS, kind
        assert verdict.budget_used == 0
        assert verdict.detail.startswith("ratio profile")
    assert "0.333333333333" in check_axiom(gamma, AxiomKind.RHO1).detail
    assert classify(gamma).r_function.outcome is Outcome.CERTIFIED_HOLDS


def test_zeta3_search_keeps_a_slope_below_one_open():
    # zeta3 holds for m * s - t at every m < 1: along sequences with a common
    # limit L, eval tends to (m - 1) * L < 0.  A harmonic pair's estimate is
    # read at its farthest probe, where it is within 2e-6 of its limit.
    fn = ComparisonFn("slope-0.96875", lambda t, s: 0.96875 * s - t)
    assert check_axiom(fn, AxiomKind.ZETA3).outcome is Outcome.UNDETERMINED


def test_zeta3_spends_one_evaluation_per_family_candidate():
    # A family's limsup estimate reads only its farthest probe, so each of
    # the 36 family candidates costs one evaluation after the 212 exact ones.
    fn = ComparisonFn("slope-0.96875", lambda t, s: 0.96875 * s - t)
    assert check_axiom(fn, AxiomKind.ZETA3).budget_used == 248


def test_check_axiom_rejects_an_empty_prefix():
    with pytest.raises(ValueError, match="prefix_len"):
        check_axiom(gallery("theta-l", alpha=0.3), AxiomKind.ZETA3, prefix_len=0)


def test_budget_exhaustion_is_an_outcome_not_an_error():
    verdict = check_axiom(CUSTOM_GAMMA, AxiomKind.RHO2, budget=5)
    assert verdict.outcome is Outcome.UNDETERMINED
    assert verdict.budget_used >= 5


def test_upper_bound_exact_falsification_point():
    verdict = check_axiom(gallery("gamma"), AxiomKind.UPPER_BOUND)
    assert verdict.outcome is Outcome.FALSIFIED
    wa, wb = verdict.witness.components
    assert (wa.param("value"), wb.param("value")) == (1.0, 1.0)


def test_unary_handle_checks():
    default_geraghty = gallery("theta-geraghty", alpha=0.5)
    assert (
        check_axiom(default_geraghty, AxiomKind.GERAGHTY).outcome
        is Outcome.CERTIFIED_HOLDS
    )
    bad = gallery("theta-geraghty", alpha=0.4, g_fn=lambda t: 1.2)
    assert check_axiom(bad, AxiomKind.GERAGHTY).outcome is Outcome.FALSIFIED

    default_l = gallery("theta-l", alpha=0.4)
    assert check_axiom(default_l, AxiomKind.L_FUNCTION).outcome is Outcome.CERTIFIED_HOLDS
    too_big = gallery("theta-l", alpha=0.4, l_fn=lambda t: 2.0 * t)
    assert check_axiom(too_big, AxiomKind.L_FUNCTION).outcome is Outcome.FALSIFIED
    # No handle at all cannot be decided.
    verdict = check_axiom(gallery("beta"), AxiomKind.GERAGHTY)
    assert verdict.outcome is Outcome.UNDETERMINED


def test_witness_prefix_matches_closed_form():
    beta = gallery("beta")
    verdict = check_axiom(beta, AxiomKind.SIGMA1)
    w = verdict.witness
    regenerated = tuple(w.term(n) for n in range(1, len(w.first_terms) + 1))
    assert regenerated == w.first_terms


def test_difference_pair_defaults_match_half_slope():
    fn = gallery("psi-phi")
    beta = gallery("beta")
    for t, s in ((0.0, 0.0), (1.0, 2.0), (3.0, 1.0), (0.5, 0.5)):
        assert fn.eval(t, s) == beta.eval(t, s)
    matrix = classify(fn, (1.0,))
    assert matrix.simulation.outcome is Outcome.CERTIFIED_HOLDS
    assert matrix.dollar.outcome is Outcome.CERTIFIED_HOLDS
    # Equal to linear(1/2), it inherits certificates that settle these cells
    # without a search.
    for kind in (AxiomKind.ETA2, AxiomKind.RHO1, AxiomKind.RHO2, AxiomKind.SIGMA2):
        verdict = check_axiom(fn, kind, c=1.0)
        assert verdict.outcome is Outcome.CERTIFIED_HOLDS, kind
        assert verdict.budget_used == 0


def test_difference_pair_custom_handles():
    fn = gallery("psi-phi", psi_fn=lambda t: t / 3.0, phi_fn=lambda t: 2.0 * t)
    assert abs(fn.eval(1.0, 3.0) - (1.0 - 2.0)) < 1e-15


def test_theta_pi_default_handle_halves_the_second_argument():
    fn = gallery("theta-pi", alpha=0.4)
    # alpha * pi(s) - t with pi(s) = s/2
    assert abs(fn.eval(1.0, 10.0) - (0.4 * 5.0 - 1.0)) < 1e-15
    assert check_axiom(fn, AxiomKind.SIGMA1).outcome is Outcome.CERTIFIED_HOLDS
    # A handle passed as None is the default one.
    assert gallery("theta-pi", alpha=0.4, pi_fn=None).profile == fn.profile is not None


def test_theta_members_inherit_the_certificates_of_linear_alpha():
    # alpha * pi(s) - t and alpha * l(s) - t are (alpha / 2) * s - t: with
    # the default handles those members are linear(alpha / 2), decided from
    # its ratio profile without an evaluation.  alpha * g(s) * s - t only
    # lies below alpha * s - t, so theta-geraghty keeps the certificates of
    # linear(alpha).
    for name in ("theta-pi", "theta-l"):
        fn = gallery(name, alpha=0.4)
        for kind in (
            AxiomKind.SIGMA1,
            AxiomKind.DOLLAR,
            AxiomKind.UPPER_BOUND,
            AxiomKind.ZETA3,
            AxiomKind.ETA2,
            AxiomKind.RHO1,
            AxiomKind.RHO2,
        ):
            verdict = check_axiom(fn, kind, budget=0)
            assert verdict.outcome is Outcome.CERTIFIED_HOLDS, (name, kind)
            assert verdict.budget_used == 0
        assert check_axiom(fn, AxiomKind.SIGMA2, c=4.0, budget=0).outcome is Outcome.CERTIFIED_HOLDS
        assert check_axiom(fn, AxiomKind.SIGMA2, c=6.0, budget=0).outcome is Outcome.FALSIFIED
    geraghty = gallery("theta-geraghty", alpha=0.4)
    for kind in (
        AxiomKind.DOLLAR,
        AxiomKind.UPPER_BOUND,
        AxiomKind.ZETA3,
        AxiomKind.ETA2,
        AxiomKind.RHO1,
        AxiomKind.RHO2,
    ):
        verdict = check_axiom(geraghty, kind)
        assert verdict.outcome is Outcome.CERTIFIED_HOLDS, kind
        assert verdict.detail == "dominated by linear(0.4)"
    # linear(1/2) has no sigma1; the Geraghty variant keeps its own.
    half = gallery("theta-geraghty", alpha=0.5)
    sigma1 = check_axiom(half, AxiomKind.SIGMA1)
    assert sigma1.outcome is Outcome.CERTIFIED_HOLDS
    assert "dominated" not in sigma1.detail
    assert check_axiom(half, AxiomKind.SIGMA2, c=2.0).outcome is Outcome.CERTIFIED_HOLDS


def test_certified_details_name_their_own_reason():
    chi = gallery("chi", alpha=0.4)
    assert "consecutive-sum" in check_axiom(chi, AxiomKind.SIGMA1).detail
    assert "consecutive-sum" not in check_axiom(chi, AxiomKind.UPPER_BOUND).detail
    for kind in (AxiomKind.SIGMA1, AxiomKind.DOLLAR, AxiomKind.L_FUNCTION):
        assert check_axiom(gallery("theta-l", alpha=0.3), kind).detail

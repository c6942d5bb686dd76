import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kannanlab import metric
from kannanlab import (
    HarmonicTruncation,
    ImageOutOfSpace,
    MetricInvalid,
    PartialAssignment,
    SelfMap,
    ViolationKind,
    build_finite_space,
    build_self_map,
    build_truncated_harmonic_space,
    constant_map,
    find_violations,
    identity_map,
    random_space,
)


def abs_diff_table(values):
    return [[abs(a - b) for b in values] for a in values]


def test_three_point_absolute_difference_space():
    space = build_finite_space(["1", "2", "3"], abs_diff_table([1.0, 2.0, 3.0]))
    assert space.n == 3
    assert space.d(0, 2) == 2.0
    assert space.violations() == []


def test_single_point_space():
    space = build_finite_space(["p"], [[0.0]])
    assert space.n == 1
    assert space.d(0, 0) == 0.0


def test_triangle_failure_is_rejected():
    table = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(MetricInvalid) as err:
        build_finite_space(["1", "2", "3"], table)
    first = err.value.violations[0]
    assert first.kind is ViolationKind.TRIANGLE_FAILURE
    # 5 = d(1,3) exceeds d(1,2) + d(2,3) = 2.
    i, j, k = first.indices
    assert table[i][k] > table[i][j] + table[j][k]


def test_shape_and_label_validation():
    with pytest.raises(ValueError):
        build_finite_space(["a", "b"], [[0.0, 1.0]])
    with pytest.raises(ValueError):
        build_finite_space(["a", "a"], abs_diff_table([1.0, 2.0]))
    with pytest.raises(ValueError):
        build_finite_space(["a", "b"], [[0.0, float("nan")], [float("nan"), 0.0]])


@pytest.mark.parametrize("table", [[[0.0, 1.0], [1.0]], [[0, 1, 2], [1, 0, 1]]])
def test_find_violations_refuses_a_non_square_table(table):
    with pytest.raises(ValueError, match="distance table must be square"):
        find_violations(table)


def test_self_map_construction_and_errors(five_point):
    space, t_map, _ = five_point
    assert t_map("4") == "2"
    assert t_map("5") == "3"
    with pytest.raises(PartialAssignment):
        build_self_map(space, {"1": "3"})
    with pytest.raises(ImageOutOfSpace):
        build_self_map(space, {k: "9" for k in space.labels})
    with pytest.raises(ImageOutOfSpace):
        build_self_map(space, [0, 1, 2, 3, 9])


def test_identity_and_constant_maps():
    space = build_finite_space(["1", "2", "3"], abs_diff_table([1.0, 2.0, 3.0]))
    ident = identity_map(space)
    assert ident.fixed_indices() == (0, 1, 2)
    const = constant_map(space, "3")
    assert const.fixed_indices() == (2,)
    # Iterating the identity any number of times is still the identity.
    composed = ident
    for _ in range(5):
        composed = composed.compose(ident)
        assert composed.assignment == ident.assignment


def test_harmonic_truncation_smallest_and_points():
    trunc = build_truncated_harmonic_space(4)
    assert "0" in trunc.space.labels
    assert "1/4" in trunc.space.labels
    assert trunc.core_labels == ("0", "1/4")
    assert trunc.t("1/4") == "1/5"
    assert trunc.s("1/4") == "1/256"


def test_harmonic_truncation_five():
    trunc = build_truncated_harmonic_space(5)
    assert {"0", "1/4", "1/5"} <= set(trunc.space.labels)
    assert trunc.t("1/4") == "1/5"
    assert trunc.s("1/4") == "1/256"
    assert trunc.s("1/5") == "1/3125"


def test_harmonic_truncation_bounds():
    with pytest.raises(ValueError):
        build_truncated_harmonic_space(3)
    with pytest.raises(ValueError):
        build_truncated_harmonic_space(121)


def test_harmonic_truncation_at_the_cap():
    # The largest admissible truncation still has strictly positive,
    # representable distances (construction checks the axioms) and a
    # bijective second map.
    trunc = build_truncated_harmonic_space(120)
    assert trunc.s.is_injective
    tiny = trunc.space.d(
        trunc.space.index_of("0"), trunc.space.index_of(f"1/{121 ** 121}")
    )
    assert 0.0 < tiny < 1e-200


def _scanned_harmonic_truncation(n_max):
    """The truncation built from its own table through the full axiom scan."""
    core = [(f"1/{n}", 1.0 / n) for n in range(4, n_max + 1)]
    boundary = (f"1/{n_max + 1}", 1.0 / (n_max + 1))
    images = [(f"1/{n ** n}", 1.0 / float(n**n)) for n in range(4, n_max + 2)]
    points = [("0", 0.0)] + core + [boundary] + images
    labels = [label for label, _ in points]
    space = build_finite_space(labels, abs_diff_table([value for _, value in points]))
    index = {label: i for i, label in enumerate(labels)}
    t_assign = [index["0"]] * len(labels)
    s_assign = [index["0"]] * len(labels)
    for n in range(4, n_max + 1):
        t_assign[index[f"1/{n}"]] = index[f"1/{n + 1}"]
    for n in range(4, n_max + 2):
        here, img = index[f"1/{n}"], index[f"1/{n ** n}"]
        s_assign[here], s_assign[img] = img, here
    core_labels = ("0",) + tuple(label for label, _ in core)
    return HarmonicTruncation(
        space, SelfMap(space, tuple(t_assign)), SelfMap(space, tuple(s_assign)), core_labels
    )


@pytest.mark.parametrize("n_max", [4, 60, 120])
def test_harmonic_truncation_matches_the_scanned_construction(n_max):
    assert build_truncated_harmonic_space(n_max) == _scanned_harmonic_truncation(n_max)


def test_harmonic_image_distance_oracle(harmonic50):
    # d(S(1/4), S(T(1/4))) computed independently with exact rationals.
    space, t_map, s_map = harmonic50
    i = space.index_of("1/4")
    si = s_map.assignment[i]
    sti = s_map.assignment[t_map.assignment[i]]
    expected = float(Fraction(1, 256) - Fraction(1, 3125))
    assert abs(space.d(si, sti) - expected) < 1e-15


def test_harmonic_maps_are_total_and_s_bijective(harmonic50):
    space, t_map, s_map = harmonic50
    assert len(t_map.assignment) == space.n
    assert len(s_map.assignment) == space.n
    assert s_map.is_injective
    assert sorted(s_map.assignment) == list(range(space.n))


def test_planted_violations_detected_first():
    rng = random.Random(7)
    space = random_space(6, rng)
    table = [list(row) for row in space.dist]

    diag = [list(row) for row in table]
    diag[2][2] = 0.5
    assert find_violations(diag)[0].kind is ViolationKind.NON_ZERO_DIAGONAL

    asym = [list(row) for row in table]
    asym[1][3] += 0.25
    assert find_violations(asym)[0].kind is ViolationKind.ASYMMETRY

    indisc = [list(row) for row in table]
    indisc[0][4] = indisc[4][0] = 0.0
    assert find_violations(indisc)[0].kind is ViolationKind.INDISCERNIBLE_PAIR

    tri = [list(row) for row in table]
    bump = 10.0 * space.diameter()
    tri[0][5] = tri[5][0] = bump
    assert find_violations(tri)[0].kind is ViolationKind.TRIANGLE_FAILURE


def test_random_space_satisfies_axioms():
    rng = random.Random(11)
    for _ in range(25):
        space = random_space(rng.randint(2, 10), rng)
        assert space.violations() == []


def _closed_by_the_plain_loop(n, rng, weight_range):
    """random_space's table: its weight draws, then the plain Floyd–Warshall
    triple loop."""
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.uniform(*weight_range)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def _hex(dist):
    return [[v.hex() for v in row] for row in dist]


_WEIGHT_RANGES = [(0.5, 2.0), (1.0, 1.0), (0.1, 10.0), (1e-3, 1e3)]


@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    weight_range=st.sampled_from(_WEIGHT_RANGES),
)
@example(n=1, seed=0, weight_range=(0.5, 2.0))
@example(n=2, seed=0, weight_range=(0.5, 2.0))
@example(n=120, seed=3, weight_range=(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_random_space_closes_its_table_as_the_plain_loop_does(n, seed, weight_range):
    space = random_space(n, random.Random(seed), weight_range)
    assert _hex(space.dist) == _hex(_closed_by_the_plain_loop(n, random.Random(seed), weight_range))


@pytest.mark.parametrize(
    "n, digest",
    [
        (120, "5be0d538315030f37ee04029fe89fb229138edafbf1353349a7887b3cf9311ac"),
        (100, "47ad52e5936f85d62d1d61231f80c885b214ad434f090848a8d807aad717c56a"),
    ],
)
def test_random_space_tables_are_pinned(n, digest):
    """sha256 of every entry's float.hex, row by row, as the plain loop left it."""
    dist = random_space(n, random.Random(7)).dist
    assert hashlib.sha256(" ".join(v.hex() for row in dist for v in row).encode()).hexdigest() == digest


@pytest.mark.parametrize("weight_range", [(0.5, math.inf), (math.inf, math.inf)])
def test_random_space_rejects_an_infinite_weight_bound(weight_range):
    with pytest.raises(ValueError, match="weight_range must be finite"):
        random_space(3, random.Random(0), weight_range)


def test_random_space_validates_its_closed_table():
    """Weights from 1e-300 to 1e300 close to a table whose rounded triangles
    fail by more than the absolute tolerance."""
    with pytest.raises(MetricInvalid) as raised:
        random_space(5, random.Random(1), (1e-300, 1e300))
    assert raised.value.total == 4
    assert raised.value.violations[0].kind is ViolationKind.TRIANGLE_FAILURE


_PROVED_WEIGHT_RANGES = [
    (0.5, 2.0),
    (1.0, 1.0),
    (1e-3, 1e3),
    (5e-324, 1e-300),
    (1e-10, 1e10),
    (1e-300, 1e300),
]


@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    weight_range=st.sampled_from(_PROVED_WEIGHT_RANGES),
)
@example(n=5, seed=1, weight_range=(1e-300, 1e300))
@example(n=60, seed=0, weight_range=(5e-324, 1e-300))
@settings(max_examples=80, deadline=None)
def test_random_space_builds_what_validation_of_its_table_builds(n, seed, weight_range):
    """Proved or scanned, random_space returns the space that validating the
    same closed table returns, or raises the same MetricInvalid."""
    table = _closed_by_the_plain_loop(n, random.Random(seed), weight_range)
    labels = [f"p{i}" for i in range(n)]
    try:
        expected = build_finite_space(labels, table)
    except MetricInvalid as invalid:
        with pytest.raises(MetricInvalid) as raised:
            random_space(n, random.Random(seed), weight_range)
        assert (raised.value.total, raised.value.violations) == (invalid.total, invalid.violations)
        return
    space = random_space(n, random.Random(seed), weight_range)
    assert space == expected
    if metric._closure_is_metric(n, max(map(max, table)), metric.DEFAULT_TOL):
        assert find_violations(space.dist) == []


@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    weight_range=st.sampled_from(_PROVED_WEIGHT_RANGES),
)
@settings(max_examples=80, deadline=None)
def test_a_closed_table_passes_the_scan_at_the_proved_tolerance(n, seed, weight_range):
    """_closure_is_metric's bound itself: the least tol it accepts for the
    table passes the scan, whatever the scale of the weights."""
    table = _closed_by_the_plain_loop(n, random.Random(seed), weight_range)
    top = max(map(max, table))
    tol = 8 * n * 2**-53 * top
    assert metric._closure_is_metric(n, top, tol)
    assert find_violations(table, tol) == []


def _refuse_to_scan(*args):
    raise AssertionError("the table was scanned")


@pytest.mark.parametrize("n", [120, 100])
def test_random_space_skips_the_scan_on_a_proved_table(n, monkeypatch):
    monkeypatch.setattr(metric, "_scan", _refuse_to_scan)
    random_space(n, random.Random(7))


def test_random_space_scans_a_table_the_proof_does_not_cover(monkeypatch):
    monkeypatch.setattr(metric, "_scan", _refuse_to_scan)
    with pytest.raises(AssertionError, match="the table was scanned"):
        random_space(5, random.Random(1), (1e-300, 1e300))

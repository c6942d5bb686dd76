import json
import math
import random
import re
from pathlib import Path

import pytest

from kannanlab import (
    ConditionKind,
    MetricInvalid,
    PairMode,
    build_finite_space,
    find_violations,
    reproduce,
)
from kannanlab.builtins import EXAMPLE_IDS, EXAMPLES
from kannanlab.cli import main
from kannanlab.report import render_json
from kannanlab.scenario import ParseError, ValidationError, parse_scenario, parse_scenario_dict
from kannanlab.sigma import GALLERY_NAMES
from kannanlab.theorems import _COMPUTERS, THEOREM_IDS, builtin_scenario, run_theorem


_EXPLICIT = {
    "space": {"type": "finite", "points": [1, 2, 3]},
    "maps": {"T": "identity"},
    "sigma": {"name": "chi", "alpha": 0.4},
}

#: (field, document) pairs giving a JSON boolean where an integer belongs.
BOOLEAN_INTEGERS = [
    (field, doc)
    for flag in (True, False)
    for field, doc in (
        ("max_iter", {**_EXPLICIT, "max_iter": flag}),
        ("seed", {**_EXPLICIT, "seed": flag}),
        ("theorem.w", {**_EXPLICIT, "theorem": {"id": "T3.29", "w": flag}}),
        ("check.w", {**_EXPLICIT, "check": {"condition": "s-dominated", "w": flag}}),
        ("space.n_max", {"space": {"type": "harmonic-truncation", "n_max": flag}}),
    )
]

#: (field, document) pairs giving a list or object where a name belongs.
NON_STRING_CHOICES = [
    (field, doc)
    for bad in (["ex-3.24"], {"name": "ex-3.24"})
    for field, doc in (
        ("space.name", {"space": {"type": "builtin", "name": bad}}),
        ("check.condition", {**_EXPLICIT, "check": {"condition": bad}}),
        ("theorem.id", {**_EXPLICIT, "theorem": {"id": bad}}),
        ("mode", {**_EXPLICIT, "mode": bad}),
    )
]

#: (check section, the key it carries that its condition does not take).
UNTAKEN_KEYS = [
    ({"condition": condition, **taken, key: value}, key)
    for condition, taken in (
        ("classical-kannan", {"alpha": 0.3}),
        ("koparde-waghmode", {"alpha": 0.3}),
        ("malceski", {"alpha": 0.3, "gamma": 0.1}),
        ("sigma-kannan", {}),
        ("sigma-s-kannan", {}),
        ("s-dominated", {"w": 2}),
    )
    for key, value in (("alpha", 0.3), ("gamma", 0.1), ("w", 2))
    if key not in taken
]

#: (field, document) pairs giving null where a point belongs.
NULL_POINTS = [
    ("theorem.x0", {"space": {"type": "builtin", "name": "koparde-demo"}, "theorem": {"x0": None}}),
    ("theorem.q", {**_EXPLICIT, "theorem": {"id": "T3.29", "q": None}}),
    ("solve.x0", {**_EXPLICIT, "solve": {"x0": None}}),
]


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_builtin_reference(tmp_path):
    path = write(tmp_path, "s.json", {"space": {"type": "builtin", "name": "ex-3.24"}})
    doc = parse_scenario(path)
    sc = doc.scenario
    assert sc.space.labels == ("1", "2", "3", "4", "5")
    assert sc.t_map("4") == "2"
    assert sc.sigma is not None and sc.sigma.name == "linear"
    assert sc.theorem == "T3.18"


def test_chi_alpha_at_half_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario_dict(
            {
                "space": {"type": "finite", "points": [1, 2, 3]},
                "maps": {"T": "identity"},
                "sigma": {"name": "chi", "alpha": 0.5},
            }
        )
    assert "alpha" in str(err.value)


def test_minimal_single_point_scenario():
    doc = parse_scenario_dict(
        {
            "space": {"type": "finite", "points": [0]},
            "maps": {"T": "identity", "S": "identity"},
        }
    )
    assert doc.scenario.space.n == 1
    assert doc.scenario.t_map.is_identity


def test_abs_diff_points_labels_and_errors(tmp_path, capsys):
    def space(**section):
        doc = parse_scenario_dict(
            {"space": {"type": "finite", **section}, "maps": {"T": "identity"}}
        )
        return doc.scenario.space

    assert space(points=[1, 2.5], labels=[]).labels == ("1", "2.5")
    assert space(points=[1, 2.5], labels=["a", "b"]).labels == ("a", "b")
    assert space(points=[0, 3]).dist == ((0.0, 3.0), (3.0, 0.0))
    for bad in ({"points": [1, 1]}, {"points": [1, 2], "labels": ["a"]}, {"points": ["x"]}):
        with pytest.raises(ValidationError) as err:
            space(**bad)
        assert err.value.field == "space.points"

    table = [[0, 1], [1, 0]]
    assert space(dist=table, labels=[1, "b"]).labels == ("1", "b")
    for field, bad in (
        ("space.labels", {"points": [1, 2], "labels": 5}),
        ("space.labels", {"points": [1, 2], "labels": "ab"}),
        ("space.labels", {"points": [1, 2], "labels": [True, False]}),
        ("space.labels", {"dist": table, "labels": 7}),
        ("space.labels", {"dist": table, "labels": [["a"], "b"]}),
        ("space.points", {"dist": table, "points": 7}),
    ):
        with pytest.raises(ValidationError) as err:
            space(**bad)
        assert err.value.field == field

    path = write(
        tmp_path,
        "labels.json",
        {"space": {"type": "finite", "points": [1, 2], "labels": 5}, "maps": {"T": "identity"}},
    )
    assert main(["validate", path]) == 3
    assert "space.labels" in json.loads(capsys.readouterr().out)["error"]


def test_unknown_keys_and_bad_numbers_rejected():
    with pytest.raises(ValidationError):
        parse_scenario_dict({"space": {"type": "finite", "points": [1, 2]}, "mystery": 1})
    with pytest.raises(ValidationError):
        parse_scenario_dict(
            {
                "space": {"type": "finite", "points": [1, 2]},
                "maps": {"T": "identity"},
                "tol": float("inf"),
            }
        )
    with pytest.raises(ValidationError):
        parse_scenario_dict(
            {
                "space": {"type": "harmonic-truncation", "n_max": 2},
            }
        )


def test_cli_rejects_integers_beyond_the_double_range(tmp_path, capsys):
    big = 10**400  # written as a 401-digit integer, which float() cannot hold
    for field, doc in (
        ("space.points", {"space": {"type": "finite", "points": [1, big]}}),
        ("space.dist", {"space": {"type": "finite", "labels": ["a", "b"], "dist": [[0, big], [big, 0]]}}),
        ("tol", {"space": {"type": "finite", "points": [1, 2]}, "tol": big}),
    ):
        doc["maps"] = {"T": "identity"}
        assert main(["validate", write(tmp_path, "big.json", doc)]) == 3, field
        assert json.loads(capsys.readouterr().out)["error"] == f"{field}: must be finite"


@pytest.mark.parametrize(
    "bad, reason",
    [
        (True, "must be a number"),
        ("1.0", "must be a number"),
        (None, "required"),
        ([1.0], "must be a number"),
        (10**400, "must be finite"),
        (math.nan, "must be finite"),
        (math.inf, "must be finite"),
        (-math.inf, "must be finite"),
    ],
)
def test_cli_rejects_a_bad_distance_entry_in_a_row_of_floats(tmp_path, capsys, bad, reason):
    # json.dumps writes NaN and +-inf as the NaN/Infinity literals json.loads reads.
    dist = [[0.0, 1.0, 1.0], [1.0, 0.0, bad], [1.0, bad, 0.0]]
    doc = {"space": {"type": "finite", "labels": ["a", "b", "c"], "dist": dist}}
    doc["maps"] = {"T": "identity"}
    assert main(["validate", write(tmp_path, "bad.json", doc)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == f"space.dist: {reason}"


def test_cli_accepts_integer_distance_entries(tmp_path, capsys):
    doc = {
        "space": {"type": "finite", "labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0.0, 1], [2, 1, 0]]},
        "maps": {"T": "identity"},
    }
    assert main(["validate", write(tmp_path, "ints.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": }')
    with pytest.raises(ParseError) as err:
        parse_scenario(str(path))
    assert "line 1" in str(err.value)


def test_cli_rejects_duplicate_keys(tmp_path, capsys):
    top = (
        '{"space": {"type": "finite", "points": [1, 2]}, "maps": {"T": "identity"}, '
        '"maps": {"T": {"constant": "2"}}}'
    )
    nested = (
        '{"space": {"type": "finite", "points": [1, 2], "points": [3, 4]}, '
        '"maps": {"T": "identity"}}'
    )
    for name, text, key in (("top.json", top, "maps"), ("nested.json", nested, "points")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError, match=f"duplicate key '{key}'"):
            parse_scenario(str(path))
        assert main(["solve", str(path)]) == 3
        assert f"duplicate key '{key}'" in json.loads(capsys.readouterr().out)["error"]


def test_explicit_distance_table_and_maps():
    doc = parse_scenario_dict(
        {
            "space": {
                "type": "finite",
                "labels": ["a", "b"],
                "dist": [[0.0, 2.0], [2.0, 0.0]],
            },
            "maps": {"T": {"a": "b", "b": "a"}, "S": {"constant": "a"}},
        }
    )
    assert doc.scenario.t_map("a") == "b"
    assert doc.scenario.s_map("b") == "a"


def test_cli_reproduce_counterexample_contract(capsys):
    code = main(["reproduce", "ex-3.26"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["computed"]["fixed_points"] == []
    assert doc["computed"]["sigma1"]["outcome"] == "falsified"
    assert doc["match"] is True


def test_cli_reproduce_all_exit_zero(capsys):
    for example in EXAMPLE_IDS:
        assert main(["reproduce", example]) == 0
        capsys.readouterr()
        r = reproduce(example)
        assert render_json(r.computed) == render_json(r.golden)


def test_example_ids_are_the_ids_reproduce_accepts():
    assert set(EXAMPLE_IDS) == set(_COMPUTERS)


def test_cli_reproduce_unknown_is_input_error(capsys):
    assert main(["reproduce", "ex-0.0"]) == 3
    capsys.readouterr()


def test_cli_check_witness_and_exit(tmp_path, capsys):
    path = write(
        tmp_path,
        "check.json",
        {
            "space": {"type": "builtin", "name": "ex-3.24"},
            "check": {"condition": "classical-kannan", "alpha": 0.49},
        },
    )
    code = main(["check", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["holds"] is False
    assert out["witness"]["pair"] == ["3", "4"]

    path2 = write(
        tmp_path,
        "check2.json",
        {
            "space": {"type": "builtin", "name": "ex-3.24"},
            "check": {"condition": "sigma-s-kannan"},
        },
    )
    assert main(["check", path2]) == 0
    capsys.readouterr()


def test_cli_solve_single_point(tmp_path, capsys):
    path = write(
        tmp_path,
        "solve.json",
        {
            "space": {"type": "finite", "points": [0]},
            "maps": {"T": "identity"},
            "solve": {},
        },
    )
    code = main(["solve", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["kind"] == "fixed-point"


def test_cli_validate_and_invalid_table(tmp_path, capsys):
    good = write(
        tmp_path,
        "good.json",
        {
            "space": {"type": "finite", "points": [1, 2, 3]},
            "maps": {"T": "identity"},
        },
    )
    assert main(["validate", good]) == 0
    capsys.readouterr()

    bad = write(
        tmp_path,
        "bad.json",
        {
            "space": {
                "type": "finite",
                "labels": ["1", "2", "3"],
                "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            },
            "maps": {"T": "identity"},
        },
    )
    code = main(["validate", bad])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["valid"] is False
    assert out["violations"][0]["kind"] == "TriangleFailure"
    assert out["violations_total"] == len(out["violations"]) == 2
    assert out["violations_truncated"] is False


def test_cli_caps_the_violations_of_a_large_invalid_table(tmp_path, capsys):
    # Raw random weights on 60 points, never shortest-path completed.
    rng = random.Random(5)
    n = 60
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.uniform(0.5, 2.0)
    path = write(
        tmp_path,
        "raw.json",
        {"space": {"type": "finite", "labels": [f"q{i}" for i in range(n)], "dist": dist},
         "maps": {"T": "identity"}},
    )
    code = main(["validate", path])
    out = json.loads(capsys.readouterr().out)
    every = find_violations(dist)
    assert code == 1 and out["valid"] is False
    assert len(every) > 100
    first = [
        {"kind": v.kind.value, "indices": list(v.indices), "values": list(v.values)}
        for v in every[:100]
    ]
    assert out["violations"] == json.loads(render_json({"v": first}))["v"]
    assert out["violations_total"] == len(every)
    assert out["violations_truncated"] is True
    with pytest.raises(MetricInvalid) as err:
        build_finite_space([f"q{i}" for i in range(n)], dist)
    assert err.value.violations == tuple(every[:100])
    assert err.value.total == len(every)
    assert str(err.value).startswith(f"{len(every)} metric violation(s); first is ")


def test_cli_theorem_exit_codes(tmp_path, capsys):
    confirming = write(
        tmp_path, "t.json", {"space": {"type": "builtin", "name": "ex-3.24"}}
    )
    assert main(["theorem", confirming]) == 0
    capsys.readouterr()
    counterexample = write(
        tmp_path, "c.json", {"space": {"type": "builtin", "name": "ex-3.26"}}
    )
    assert main(["theorem", counterexample]) == 1
    capsys.readouterr()


def test_cli_theorem_constants_out_of_range_are_input_errors(tmp_path, capsys):
    line = {"space": {"type": "finite", "points": [0, 1, 3]}, "maps": {"T": {"constant": 0}}}
    for doc, message in (
        ({**line, "theorem": {"id": "T2.1", "alpha": 0.7}}, "theorem T2.1: classical condition"),
        ({**line, "theorem": {"id": "C3.31", "alpha": -1}}, "theorem C3.31: squared condition"),
        # C3.32 takes the linear function's slope as its alpha.
        (
            {**line, "sigma": {"name": "linear", "slope": 1.2}, "theorem": {"id": "C3.32"}},
            "theorem C3.32: malceski condition",
        ),
        ({**line, "sigma": {"name": "tau"}, "theorem": {"id": "T3.18", "c": -1}}, "theorem.c: must be > 0"),
    ):
        assert main(["theorem", write(tmp_path, "bad.json", doc)]) == 3, doc
        assert json.loads(capsys.readouterr().out)["error"].startswith(message)


def test_cli_power_beyond_the_double_range_is_input_error(tmp_path, capsys):
    # d(0, 1e200)^2 overflows a double: the s-dominated terms cannot be formed.
    doc = {
        "space": {"type": "finite", "points": [0, 1e200, 2e200]},
        "maps": {"T": {"constant": 0}},
        "sigma": {"name": "tau"},
    }
    for command, section, prefix in (
        ("check", {"check": {"condition": "s-dominated", "w": 2}}, ""),
        ("theorem", {"theorem": {"id": "T3.29", "w": 2}}, "theorem T3.29: "),
    ):
        assert main([command, write(tmp_path, "big.json", {**doc, **section})]) == 3, command
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"{prefix}a distance raised to w = 2 overflows a double"


def test_cli_classify_and_determinism(tmp_path, capsys):
    path = write(
        tmp_path,
        "classify.json",
        {
            "space": {"type": "finite", "points": [1, 2]},
            "maps": {"T": "identity"},
            "sigma": {"name": "chi", "alpha": 0.4},
            "classify": {"c_values": [1.0]},
        },
    )
    code = main(["classify", path, "--seed", "7"])
    first = capsys.readouterr().out
    code2 = main(["classify", path, "--seed", "7"])
    second = capsys.readouterr().out
    assert code == code2 == 0
    assert first == second
    doc = json.loads(first)
    assert doc["classes"]["sigma-c(1)"]["outcome"] == "certified-holds"


def test_cli_classify_certifies_theta_members_by_dominance(tmp_path, capsys):
    path = write(
        tmp_path,
        "theta.json",
        {
            "space": {"type": "finite", "points": [1, 2]},
            "maps": {"T": "identity"},
            "sigma": {"name": "theta-pi", "alpha": 0.4},
            "classify": {"c_values": [1.0, 3.0]},
        },
    )
    code = main(["classify", path])
    classes = json.loads(capsys.readouterr().out)["classes"]
    # theta-pi equals linear(alpha / 2), whose sigma2 interval (0, 5) holds c = 3.
    for name in ("simulation", "manageable", "r-function", "dollar", "sigma-c(1)", "sigma-c(3)"):
        assert classes[name]["outcome"] == "certified-holds", name
    assert code == 0


@pytest.mark.parametrize("name", ["theta-pi", "theta-l"])
def test_cli_classify_rejects_an_alpha_that_halves_to_zero(tmp_path, capsys, name):
    doc = {**_EXPLICIT, "sigma": {"name": name, "alpha": 5e-324}}
    assert main(["classify", write(tmp_path, "tiny.json", doc)]) == 3
    assert "alpha / 2 > 0" in json.loads(capsys.readouterr().out)["error"]


def test_cli_out_file_and_text_format(tmp_path, capsys):
    path = write(
        tmp_path,
        "echo.json",
        {
            "space": {"type": "finite", "points": [1, 2]},
            "maps": {"T": {"constant": "1"}},
            "solve": {},
        },
    )
    target = tmp_path / "report.json"
    code = main(["solve", path, "--out", str(target)])
    printed = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == printed
    assert main(["solve", path, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "result.kind: fixed-point" in text


def test_cli_missing_file_is_input_error(capsys):
    assert main(["check", "/nonexistent/scenario.json"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == (
        "[Errno 2] No such file or directory: '/nonexistent/scenario.json'"
    )


def test_cli_unreadable_target_is_input_error(tmp_path, capsys):
    directory = tmp_path / "scenario.json"
    directory.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"space": {"type": "builtin", "name": "\u00e9"}}'.encode("latin-1"))
    for target, error in (
        (directory, f"[Errno 21] Is a directory: '{directory}'"),
        (latin1, "byte 39: not UTF-8 (invalid continuation byte)"),
    ):
        assert main(["check", str(target)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == error


def test_cli_unwritable_out_path_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"space": {"type": "builtin", "name": "ex-3.24"}})
    for out, error in (
        (tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'"),
        (tmp_path / "missing" / "report.json",
         f"[Errno 2] No such file or directory: '{tmp_path / 'missing' / 'report.json'}'"),
    ):
        assert main(["validate", path, "--out", str(out)]) == 3
        # stdout carries the error document alone, not the report.
        assert json.loads(capsys.readouterr().out) == {
            "command": "validate", "error": error, "format_version": "1",
        }


def test_cli_theorem_without_sigma_is_input_error(tmp_path, capsys):
    path = write(
        tmp_path,
        "nosigma.json",
        {
            "space": {"type": "finite", "points": [1, 2, 3]},
            "maps": {"T": "identity"},
            "theorem": {"id": "T3.18"},
        },
    )
    code = main(["theorem", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert "comparison function" in out["error"]


def test_condition_section_covers_all_forms(tmp_path):
    base = {
        "space": {"type": "builtin", "name": "ex-3.24"},
        "sigma": {"name": "chi", "alpha": 0.45},
    }
    for section, kind in (
        ({"condition": "classical-kannan", "alpha": 0.3}, "classical-kannan"),
        ({"condition": "koparde-waghmode", "alpha": 0.3}, "koparde-waghmode"),
        ({"condition": "malceski", "alpha": 0.3, "gamma": 0.1}, "malceski"),
        ({"condition": "sigma-kannan"}, "sigma-kannan"),
        ({"condition": "sigma-s-kannan"}, "sigma-s-kannan"),
        ({"condition": "s-dominated", "w": 2}, "s-dominated"),
    ):
        doc = parse_scenario_dict({**base, "check": section})
        assert doc.condition.kind.value == kind
    with pytest.raises(ValidationError):
        parse_scenario_dict({**base, "check": {"condition": "malceski", "alpha": 0.45, "gamma": 0.2}})
    with pytest.raises(ValidationError):
        parse_scenario_dict({**base, "check": {"condition": "banach"}})


def test_cli_check_refuses_a_key_its_condition_does_not_take(tmp_path, capsys):
    assert len(UNTAKEN_KEYS) == 13
    for section, key in UNTAKEN_KEYS:
        path = write(tmp_path, "untaken.json", {**_EXPLICIT, "check": section})
        assert main(["check", path]) == 3, section
        assert json.loads(capsys.readouterr().out)["error"] == f"check: unknown key(s) [{key!r}]"
    # Values no reader would take are refused by key, not read.
    section = {"condition": "sigma-kannan", "alpha": "abc", "gamma": None, "w": -4}
    assert main(["check", write(tmp_path, "untaken.json", {**_EXPLICIT, "check": section})]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == (
        "check: unknown key(s) ['alpha', 'gamma', 'w']"
    )


def test_check_section_errors_come_in_their_order():
    # A key outside every condition is refused first, a missing sigma next;
    # a key the condition does not take only when nothing else is at fault.
    no_sigma = {"space": {"type": "finite", "points": [1, 2, 3]}, "maps": {"T": "identity"}}
    for base, section, message in (
        (_EXPLICIT, {"condition": "banach", "bogus": 1}, "check: unknown key(s) ['bogus']"),
        (no_sigma, {"condition": "sigma-kannan", "alpha": 0.3},
         "sigma: sigma-kannan needs a sigma section"),
        (_EXPLICIT, {"condition": "classical-kannan", "gamma": 0.1}, "check.alpha: required"),
        (_EXPLICIT, {"condition": "classical-kannan", "alpha": 0.6, "w": 2},
         "check: classical condition requires 0 < alpha < 1/2"),
        (_EXPLICIT, {"condition": "s-dominated", "w": 0, "alpha": 0.3},
         "check.w: must be a positive integer"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_scenario_dict({**base, "check": section})
        assert str(err.value) == message, section


def test_numbers_name_points_as_the_space_names_them():
    base = {"space": {"type": "finite", "points": [1.0, 2.5]}, "maps": {"T": "identity"}}
    assert parse_scenario_dict({**base, "solve": {"x0": 1.0}}).solve_x0 == "1"
    theorem = parse_scenario_dict({**base, "theorem": {"id": "T2.2", "x0": 2.5, "q": 1.0}})
    assert (theorem.scenario.x0, theorem.scenario.q) == ("2.5", "1")
    for maps, images in (
        ({"T": {"1": 2.5, "2.5": 1.0}}, (1, 0)),
        ({"T": {"constant": 1.0}}, (0, 0)),
        ({"T": [2.5, 1.0]}, (1, 0)),
        # Integer entries of a positional list stay indices.
        ({"T": [1, 0], "S": [0, 0]}, (1, 0)),
    ):
        assert parse_scenario_dict({**base, "maps": maps}).scenario.t_map.assignment == images
    table = {"type": "finite", "labels": [1.0, 1e16, 0.5], "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
    doc = parse_scenario_dict({"space": table, "maps": {"T": {"1": 1e16, "10000000000000000": 0.5, "0.5": 1}}})
    assert doc.scenario.space.labels == ("1", "10000000000000000", "0.5")
    # A number in a label-to-label object names a point, integers included.
    assert doc.scenario.t_map.assignment == (1, 2, 0)
    with pytest.raises(ValidationError) as err:
        parse_scenario_dict({"space": table, "maps": {"T": {"constant": 2.0}}})
    assert str(err.value) == "maps.T: constant 2.0 not in space"


def test_null_is_not_a_point(tmp_path, capsys):
    for field, doc in NULL_POINTS:
        with pytest.raises(ValidationError) as err:
            parse_scenario_dict(doc)
        assert err.value.field == field, doc
        assert main(["solve", write(tmp_path, "null.json", doc)]) == 3
        assert json.loads(capsys.readouterr().out)["error"].startswith(f"{field}: ")


def test_booleans_are_not_integers():
    for field, doc in BOOLEAN_INTEGERS:
        with pytest.raises(ValidationError) as err:
            parse_scenario_dict(doc)
        assert err.value.field == field, doc


def test_cli_rejects_non_string_names(tmp_path, capsys):
    for field, doc in NON_STRING_CHOICES:
        assert main(["validate", write(tmp_path, "bad.json", doc)]) == 3, doc
        assert json.loads(capsys.readouterr().out)["error"].startswith(f"{field}: ")


def test_cli_flags_are_read_like_document_keys(tmp_path, capsys):
    base = {
        "space": {"type": "finite", "points": [1, 2, 3, 4]},
        "maps": {"T": {"1": "2", "2": "3", "3": "4", "4": "1"}},
        "solve": {"x0": "1"},
    }
    plain = write(tmp_path, "plain.json", base)
    for flag, key, text, value in (
        *(("--tol", "tol", text, float(text)) for text in ("nan", "inf", "-1", "0", "1e-6")),
        *(("--max-iter", "max_iter", text, int(text)) for text in ("0", "-1", "3")),
        ("--seed", "seed", "-3", -3),
    ):
        code = main(["solve", plain, flag, text])
        from_flag = capsys.readouterr().out
        keyed = write(tmp_path, "keyed.json", {**base, key: value})
        assert main(["solve", keyed]) == code, (flag, text)
        assert capsys.readouterr().out == from_flag, (flag, text)

    # A flag replaces a document value only after that value has been read.
    keyed = write(tmp_path, "keyed.json", {**base, "tol": -1})
    assert main(["solve", keyed, "--tol", "0"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "tol: must be >= 0"


def test_builtin_scenario_files_carry_the_catalog_entry(tmp_path, capsys):
    for example in EXAMPLES:
        path = write(tmp_path, "builtin.json", {"space": {"type": "builtin", "name": example}})
        parsed = parse_scenario(path).scenario
        want = builtin_scenario(example)
        assert (parsed.sigma.name, parsed.sigma.params) == (want.sigma.name, want.sigma.params)
        for field in ("c", "theorem", "w", "x0"):
            assert getattr(parsed, field) == getattr(want, field), (example, field)

        main(["theorem", path])
        out = json.loads(capsys.readouterr().out)
        report = run_theorem(want)
        expected = {
            "hypotheses": [
                {"name": h.name, "status": h.status.value, "evidence": h.evidence}
                for h in report.hypotheses
            ],
            "conclusion": {
                "expected": report.conclusion.expected,
                "observed": report.conclusion.observed,
                "match": report.conclusion.match,
                "contradicted": report.conclusion.contradicted,
            },
        }
        assert {key: out[key] for key in expected} == json.loads(render_json(expected)), example


def test_cli_solve_budget_exhausted_is_undetermined(tmp_path, capsys):
    path = write(
        tmp_path,
        "cycle.json",
        {
            "space": {"type": "finite", "points": [1, 2, 3, 4]},
            "maps": {"T": {"1": "2", "2": "3", "3": "4", "4": "1"}},
            "solve": {"x0": "1"},
        },
    )
    code = main(["solve", path, "--max-iter", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["result"]["kind"] == "budget-exhausted"


def test_schema_accepts_what_the_parser_accepts():
    jsonschema = pytest.importorskip("jsonschema")
    root = Path(__file__).resolve().parents[1]
    schema = json.loads((root / "docs" / "scenario.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    validator = jsonschema.Draft202012Validator(schema)

    readme = (root / "README.md").read_text()
    accepted = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert accepted, "README has no scenario example"
    accepted += [
        {"space": {"type": "finite", "points": [0, 1.5, 4]}, "maps": {"T": [1, 1, 0]}},
        {
            "space": {"type": "finite", "labels": ["a", 2], "dist": [[0, 2], [2, 0]]},
            "maps": {"T": {"a": "2", "2": "2"}, "S": {"constant": "a"}},
            "mode": "all",
        },
        {
            "space": {"type": "harmonic-truncation", "n_max": 6},
            "sigma": {"name": "chi", "alpha": 0.3},
            "check": {"condition": "s-dominated", "w": 2},
            "theorem": {"id": "T3.29", "w": 2},
        },
        {"space": {"type": "builtin", "name": "koparde-demo"}, "solve": {"x0": "1.00"}},
        # A diagonal entry within tolerance of zero.
        {
            "space": {"type": "finite", "labels": ["a", "b"], "dist": [[-1e-10, 1], [1, 0]]},
            "maps": {"T": "identity"},
        },
    ]
    for doc in accepted:
        parse_scenario_dict(doc)
        assert validator.is_valid(doc), doc

    rejected = [
        {"space": {"type": "finite", "points": [1, 2], "labels": 5}, "maps": {"T": "identity"}},
        {**_EXPLICIT, "theorem": {"id": "T3.18", "c": 0}},
        *(doc for _, doc in BOOLEAN_INTEGERS + NON_STRING_CHOICES + NULL_POINTS),
        *({**_EXPLICIT, "check": section} for section, _ in UNTAKEN_KEYS),
        {**_EXPLICIT, "check": {"condition": "malceski", "gamma": 0.1}},
    ]
    for doc in rejected:
        with pytest.raises(ValidationError):
            parse_scenario_dict(doc)
        assert not validator.is_valid(doc), doc

    # Every enumeration in the schema is the package's own list.
    props = schema["properties"]
    enums = {
        "space.name": props["space"]["oneOf"][0]["properties"]["name"]["enum"],
        "sigma.name": props["sigma"]["properties"]["name"]["enum"],
        "check.condition": props["check"]["properties"]["condition"]["enum"],
        "theorem.id": props["theorem"]["properties"]["id"]["enum"],
        "mode": props["mode"]["enum"],
    }
    assert enums == {
        "space.name": list(EXAMPLES),
        "sigma.name": list(GALLERY_NAMES),
        "check.condition": [kind.value for kind in ConditionKind],
        "theorem.id": list(THEOREM_IDS),
        "mode": [mode.value for mode in PairMode],
    }

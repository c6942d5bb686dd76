import json

import pytest

from kannanlab import reproduce
from kannanlab.builtins import EXAMPLE_IDS
from kannanlab.cli import main
from kannanlab.report import render_json
from kannanlab.scenario import ParseError, ValidationError, parse_scenario, parse_scenario_dict


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


def test_abs_diff_points_labels_and_errors():
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


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": }')
    with pytest.raises(ParseError) as err:
        parse_scenario(str(path))
    assert "line 1" in str(err.value)


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
    capsys.readouterr()


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

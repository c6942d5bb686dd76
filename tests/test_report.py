"""Report rendering: pinned CLI bytes, the old renderer as oracle, no garbage."""

import gc
import json
import math
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kannanlab import HypothesisStatus, ViolationKind
from kannanlab.builtins import EXAMPLE_IDS
from kannanlab.cli import main
from kannanlab.report import render_json, render_text

GOLDEN_DIR = Path(__file__).parent / "cli_golden"
PIN_DIR = Path(__file__).parent / "cli_pins"


def round_floats_restated(value):
    """The renderer's rounding before the one-pass writer, kept as the oracle."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): round_floats_restated(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats_restated(v) for v in value]
    return value


def render_json_restated(doc) -> str:
    return json.dumps(round_floats_restated(doc), sort_keys=True, indent=2) + "\n"


def render_text_restated(doc) -> str:
    def flatten(prefix, value, lines):
        if isinstance(value, dict):
            for key in sorted(value):
                flatten(f"{prefix}{key}." if prefix else f"{key}.", value[key], lines)
            return
        if isinstance(value, list):
            for i, item in enumerate(value):
                flatten(f"{prefix}{i}.", item, lines)
            return
        lines.append(f"{prefix.rstrip('.')}: {value}")

    lines: list[str] = []
    flatten("", round_floats_restated(doc), lines)
    return "\n".join(lines) + "\n"


# -- pinned CLI bytes ---------------------------------------------------------

GOLDEN_CASES = [(example_id, fmt) for example_id in EXAMPLE_IDS for fmt in ("json", "text")]


def test_cli_golden_files_cover_every_builtin_id():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(
        f"{example_id}.{fmt}" for example_id, fmt in GOLDEN_CASES
    )


@pytest.mark.parametrize("example_id,fmt", GOLDEN_CASES)
def test_cli_reproduce_output_is_byte_identical_to_the_pinned_file(example_id, fmt, capsys):
    code = main(["reproduce", example_id, "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / f"{example_id}.{fmt}").read_bytes()


#: Each pinned command with its exit code; ``PIN_DIR`` holds its scenario
#: ``<command>.scenario.json`` and its report in both formats.
PINNED_COMMANDS = {"solve": 0, "theorem": 0, "validate": 1}


def test_cli_pins_cover_exactly_the_pinned_commands():
    assert sorted(p.name for p in PIN_DIR.iterdir()) == sorted(
        f"{command}.{suffix}" for command in PINNED_COMMANDS
        for suffix in ("scenario.json", "json", "text")
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", sorted(PINNED_COMMANDS))
def test_cli_command_output_is_byte_identical_to_the_pinned_file(command, fmt, capsys):
    # solve reaches the diagnostics, theorem T3.18 the hypotheses and the
    # conclusion, validate the violations of a rejected table.
    scenario = PIN_DIR / f"{command}.scenario.json"
    assert main([command, str(scenario), "--format", fmt]) == PINNED_COMMANDS[command]
    assert capsys.readouterr().out.encode() == (PIN_DIR / f"{command}.{fmt}").read_bytes()


# -- the writer against the old renderer ---------------------------------------

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1e22, 1e16, 0.1, 1 / 3, 123456789012.5,
]
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200) | st.integers(max_value=-(2**63)),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé€\U0001f600\ud800', max_size=8),
)
keys = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.booleans(), st.none(), st.floats())
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)
documents = st.dictionaries(keys, trees, max_size=5)


@settings(max_examples=300, deadline=None)
@given(documents)
@example({1: "a", "1": "b"})
@example({"1": "a", 1: "b", True: [(), {}, []], "x": (math.nan, -math.inf, math.inf, -0.0)})
@example({"s": "é\"\\\n", "n": [2**64, -(2**70), 5e-324, 1e22]})
def test_render_json_matches_the_old_renderer(doc):
    assert render_json(doc) == render_json_restated(doc)


@settings(max_examples=150, deadline=None)
@given(documents)
@example({1: "a", "1": "b"})
def test_render_text_matches_the_old_renderer(doc):
    assert render_text(doc) == render_text_restated(doc)


@pytest.mark.parametrize("doc", [{"a": object()}, {"a": [1, {2: {3}}]}, {"a": (1j,)}])
def test_render_json_rejects_unsupported_leaves(doc):
    with pytest.raises(TypeError):
        render_json_restated(doc)
    with pytest.raises(TypeError):
        render_json(doc)


def test_an_enum_member_renders_as_its_value():
    ratio = Enum("Ratio", {"THIRD": 1 / 3})
    doc = {"kind": ViolationKind.ASYMMETRY, "statuses": (HypothesisStatus.HOLDS,), "r": ratio.THIRD}
    plain = {"kind": "Asymmetry", "statuses": ["holds"], "r": 1 / 3}
    assert render_json(doc) == render_json(plain)
    assert render_text(doc) == render_text(plain)


# -- no cyclic garbage ---------------------------------------------------------


def test_cli_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    def scenario(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    builtin = scenario("builtin.json", {
        "space": {"type": "builtin", "name": "ex-3.24"},
        "check": {"condition": "sigma-s-kannan"},
    })
    invalid = scenario("invalid.json", {
        "space": {"type": "finite", "labels": ["a", "b", "c"],
                  "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]},
        "maps": {"T": "identity"},
    })
    malformed = scenario("malformed.json", "{not json")
    calls = [
        (["validate", builtin], 0),
        (["classify", builtin], 0),
        (["check", builtin], 0),
        (["solve", builtin], 0),
        (["theorem", builtin], 0),
        (["reproduce", "ex-3.24"], 0),
        (["validate", invalid], 1),
        (["check", malformed], 3),
        (["solve", builtin, "--format", "text"], 0),
    ]
    gc.collect()
    gc.disable()
    try:
        for argv, want in calls:
            assert main(argv) == want, argv
            capsys.readouterr()
            assert gc.collect() == 0, argv
    finally:
        gc.enable()

"""Scenario files: strict JSON descriptions of spaces, maps, and tasks.

A scenario document carries a space (explicit, truncated-harmonic, or a
builtin catalog name), the operator pair, an optional comparison function,
and per-command sections.  Unknown keys are rejected and every numeric
field must be finite, so a scenario that parses is fully resolved: all
gallery names exist and each parameter is in range for its own section.
A theorem checks the alpha it takes (``theorem.alpha``, or the sigma's
alpha or slope) when it runs, and raises ``MalformedScenario`` if refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from . import builtins as catalog
from .conditions import _CONSTRUCTORS, ConditionKind, ConditionSpec, PairMode
from .metric import (
    FiniteMetricSpace,
    MetricInvalid,
    SelfMap,
    _number_label,
    build_finite_space,
    build_self_map,
    build_truncated_harmonic_space,
    constant_map,
    identity_map,
    space_from_values,
)
from .sigma import (
    ComparisonFn,
    MissingParam,
    ParamOutOfRange,
    UnknownGallery,
    gallery,
)
from .theorems import THEOREM_IDS, THEOREM_KEYS, Scenario, builtin_scenario


class ParseError(ValueError):
    """The file is not well-formed JSON."""


class ValidationError(ValueError):
    """The document parsed but a field is missing, unknown, or out of range."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


TOP_KEYS = {
    "space",
    "maps",
    "sigma",
    "check",
    "solve",
    "theorem",
    "classify",
    "mode",
    "tol",
    "max_iter",
    "seed",
}

_MODES = tuple(mode.value for mode in PairMode)
_CONDITIONS = tuple(kind.value for kind in ConditionKind)


@dataclass(frozen=True)
class ScenarioDoc:
    """A parsed scenario plus its optional per-command sections."""

    scenario: Scenario
    condition: ConditionSpec | None = None
    solve_x0: str | None = None
    classify_c_values: tuple[float, ...] = (1.0,)


def parse_scenario(path, overrides: dict | None = None) -> ScenarioDoc:
    try:
        raw = json.loads(Path(path).read_text("utf-8"), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as e:
        raise ParseError(f"byte {e.start}: not UTF-8 ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ValidationError("$", "scenario document must be a JSON object")
    return parse_scenario_dict(raw, overrides)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """Build a JSON object, refusing a key that appears twice in it."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_scenario_dict(raw: dict, overrides: dict | None = None) -> ScenarioDoc:
    """Read a scenario document into a fully resolved scenario.

    ``overrides`` maps run-setting keys (``mode``, ``tol``, ``max_iter``,
    ``seed``) to values that replace the document's; they are read by the
    same rules, after the whole document.  Settings neither gives take the
    ``Scenario`` defaults; a builtin space starts from its catalog entry.
    """
    _reject_unknown("$", raw, TOP_KEYS)
    if "space" not in raw:
        raise ValidationError("space", "section is required")

    fields = _parse_space_and_maps(raw)
    space = fields["space"]
    if "sigma" in raw:
        fields["sigma"], fields["c"] = _parse_sigma(raw)
    fields.update(_read_settings(raw))
    if "theorem" in raw:
        point = partial(_point, space)
        readers = {
            "id": _theorem_id, "w": _positive_integer, "alpha": _finite, "c": _c, "x0": point, "q": point
        }
        section = _section(raw, "theorem", readers, {"id": fields.get("theorem")})
        fields["theorem"] = section.pop("id")
        fields.update(section)
        # Refused after the keys are read, so that a key the statement does
        # not read is reported only when no key's value is at fault.
        _reject_unknown("theorem", raw["theorem"], THEOREM_KEYS[fields["theorem"]])

    condition = None
    if "check" in raw:
        condition = _parse_condition(raw, fields.get("sigma"))

    solve, classify = {}, {}
    if "solve" in raw:
        solve = _section(raw, "solve", {"x0": partial(_point, space)})
    if "classify" in raw:
        classify = _section(raw, "classify", {"c_values": _c_values})
    fields.update(_read_settings(overrides or {}))
    return ScenarioDoc(
        Scenario(**fields), condition, solve.get("x0"), classify.get("c_values", (1.0,))
    )


def _section(raw: dict, field: str, readers: dict, defaults: dict | None = None) -> dict:
    """Section ``field`` of ``raw``, a JSON object whose keys all have a
    reader, read by :func:`_read_keys`."""
    section = raw[field]
    _require_mapping(field, section)
    _reject_unknown(field, section, set(readers))
    return _read_keys(section, field, readers, defaults)


def _read_keys(section: dict, field: str, readers: dict, defaults: dict | None = None) -> dict:
    """The keys of ``section`` that have a reader, read in the order of ``readers``.

    Each reader takes the key's value and its field name ``<field>.<key>``.
    A key the section lacks takes its entry of ``defaults`` if it has one,
    and is left out of the result otherwise.
    """
    if defaults:
        section = {**defaults, **section}
    return {
        key: read(section[key], f"{field}.{key}") for key, read in readers.items() if key in section
    }


def _c_values(values, field: str) -> tuple[float, ...]:
    if not isinstance(values, list) or not values:
        raise ValidationError(field, "must be a non-empty list")
    c_values = tuple(_finite(v, field) for v in values)
    for v in c_values:
        if v <= 0:
            raise ValidationError(field, "entries must be > 0")
    return c_values


def _tol(value) -> float:
    tol = _finite(value, "tol")
    if tol < 0:
        raise ValidationError("tol", "must be >= 0")
    return tol


#: Reader of each run setting, shared by document keys and CLI overrides.
_SETTINGS = {
    "mode": lambda v: PairMode(_choice(v, "mode", _MODES, "must be 'positive' or 'all'")),
    "tol": _tol,
    "max_iter": lambda v: _integer(v, "max_iter", positive=True),
    "seed": lambda v: _integer(v, "seed"),
}


def _read_settings(source: dict) -> dict:
    return {key: read(source[key]) for key, read in _SETTINGS.items() if key in source}


def _parse_space_and_maps(raw: dict) -> dict:
    """``Scenario`` fields for the space and operator pair: a builtin's whole
    catalog entry, or the given space with identity S; then any maps the
    document gives."""
    section = raw["space"]
    _require_mapping("space", section)
    kind = section.get("type")
    fields: dict = {}

    if kind == "builtin":
        _reject_unknown("space", section, {"type", "name"})
        name = section.get("name")
        fields = vars(
            builtin_scenario(
                _choice(name, "space.name", catalog.EXAMPLES, f"unknown builtin {name!r}")
            )
        )
        space, t_map, s_map = fields["space"], fields["t_map"], fields["s_map"]
    elif kind == "finite":
        _reject_unknown("space", section, {"type", "points", "labels", "dist", "metric"})
        space = _parse_finite_space(section)
        t_map = s_map = None
    elif kind == "harmonic-truncation":
        _reject_unknown("space", section, {"type", "n_max"})
        n_max = _integer(section.get("n_max"), "space.n_max")
        try:
            truncation = build_truncated_harmonic_space(n_max)
        except ValueError as e:
            raise ValidationError("space.n_max", str(e)) from None
        space, t_map, s_map = truncation.space, truncation.t, truncation.s
    else:
        raise ValidationError(
            "space.type", "must be one of finite, harmonic-truncation, builtin"
        )

    if "maps" in raw:
        parse = partial(_parse_map, space)
        maps = _section(raw, "maps", {"T": parse, "S": parse})
        t_map, s_map = maps.get("T", t_map), maps.get("S", s_map)
    if t_map is None:
        raise ValidationError("maps.T", "required for non-builtin spaces")
    if s_map is None:
        s_map = identity_map(space)
    return {**fields, "space": space, "t_map": t_map, "s_map": s_map}


def _parse_finite_space(section: dict) -> FiniteMetricSpace:
    if "dist" in section:
        labels = _labels(section, "labels") or _labels(section, "points")
        if labels is None:
            raise ValidationError("space.labels", "required alongside a distance table")
        table = section["dist"]
        if not isinstance(table, list):
            raise ValidationError("space.dist", "must be a square list of lists")
        for row in table:
            if not isinstance(row, list):
                raise ValidationError("space.dist", "must be a square list of lists")
            # Only a row that is not all finite floats needs _finite's verdict.
            if not (set(map(type, row)) <= {float} and all(map(math.isfinite, row))):
                for v in row:
                    _finite(v, "space.dist")
        try:
            return build_finite_space(labels, table)
        except MetricInvalid:
            raise
        except ValueError as e:
            raise ValidationError("space.dist", str(e)) from None
    metric = section.get("metric", "abs-diff")
    if metric != "abs-diff":
        raise ValidationError("space.metric", "only abs-diff is supported without a table")
    points = section.get("points")
    if not isinstance(points, list) or not points:
        raise ValidationError("space.points", "must be a non-empty list of numbers")
    values = [_finite(v, "space.points") for v in points]
    labels = _labels(section, "labels")
    try:
        return space_from_values(values, labels)
    except ValueError as e:
        raise ValidationError("space.points", str(e)) from None


def _labels(section: dict, key: str) -> list[str] | None:
    """Point labels from ``section[key]``; a missing or empty list gives None."""
    value = section.get(key, [])
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in value
    ):
        raise ValidationError(f"space.{key}", "must be a list of strings or numbers")
    return [_name(v) for v in value] or None


def _parse_map(space: FiniteMetricSpace, entry, field: str) -> SelfMap:
    if entry == "identity":
        return identity_map(space)
    if isinstance(entry, dict) and set(entry) == {"constant"}:
        try:
            return constant_map(space, _name(entry["constant"]))
        except KeyError:
            raise ValidationError(field, f"constant {entry['constant']!r} not in space") from None
    if isinstance(entry, dict):
        entry = {key: _name(v) for key, v in entry.items()}
    elif isinstance(entry, list):
        # Integer entries of a positional list are indices, not names.
        entry = [v if isinstance(v, int) else _name(v) for v in entry]
    else:
        raise ValidationError(
            field, "must be 'identity', {'constant': label}, a mapping, or a list"
        )
    try:
        return build_self_map(space, entry)
    except ValueError as e:
        raise ValidationError(field, str(e)) from None


def _parse_sigma(raw: dict) -> tuple[ComparisonFn, float]:
    # ``c`` is read after gallery(), so a bad name or parameter is reported first.
    readers = {"name": _sigma_name, "alpha": _finite, "slope": _finite, "c": lambda v, field: v}
    params = _section(raw, "sigma", readers, {"name": None, "c": 1.0})
    c = params.pop("c")
    try:
        fn = gallery(**params)
    except (UnknownGallery, MissingParam, ParamOutOfRange) as e:
        raise ValidationError("sigma", str(e)) from None
    return fn, _c(c, "sigma.c")


def _sigma_name(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, "required")
    return value


def _c(value, field: str) -> float:
    """A sigma_c class constant: a finite number > 0."""
    c = _finite(value, field)
    if c <= 0:
        raise ValidationError(field, "must be > 0")
    return c


def _parse_condition(raw: dict, sigma: ComparisonFn | None) -> ConditionSpec:
    section = raw["check"]
    _require_mapping("check", section)
    _reject_unknown("check", section, {"condition", *_CHECK_DEFAULTS})
    kind = ConditionKind(_condition(section.get("condition"), "check.condition"))
    (build, fields), readers = _CONSTRUCTORS[kind], _CHECKS[kind]
    if "sigma" in fields and sigma is None:
        raise ValidationError("sigma", f"{kind.value} needs a sigma section")
    values = {"sigma": sigma, **_read_keys(section, "check", readers, _CHECK_DEFAULTS)}
    try:
        spec = build(*(values[field] for field in fields))
    except ValueError as e:
        raise ValidationError("check", str(e)) from None
    # Refused last, so that a key the condition does not take is reported
    # only when nothing it does take is at fault.
    _reject_unknown("check", section, {"condition", *readers})
    return spec


def _name(value):
    """The point name a JSON value gives: a number is named as
    :func:`space_from_values` names its points (so ``1.0`` is ``"1"``); a
    string, and anything else, is left as it is."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _number_label(value)
    return value


def _point(space: FiniteMetricSpace, value, field: str) -> str:
    if value is None:
        raise ValidationError(field, "must be a point label, not null")
    label = str(_name(value))
    try:
        space.index_of(label)
    except KeyError:
        raise ValidationError(field, f"{label!r} is not a point of the space") from None
    return label


def _require_mapping(field: str, value) -> None:
    if not isinstance(value, dict):
        raise ValidationError(field, "must be a JSON object")


def _reject_unknown(field: str, mapping: dict, allowed: set[str]) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ValidationError(field, f"unknown key(s) {unknown}")


def _finite(value, field: str) -> float:
    if value is None:
        raise ValidationError(field, "required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, "must be a number")
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the double range
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(field, "must be finite")
    return out


def _integer(value, field: str, positive: bool = False) -> int:
    """``value`` when it is a JSON integer (not a boolean), >= 1 if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, int) or (positive and value < 1):
        reason = "must be a positive integer" if positive else "must be an integer"
        raise ValidationError(field, reason)
    return value


def _choice(value, field: str, choices, reason: str) -> str:
    """``value`` when it is a string among ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(field, reason)
    return value


_theorem_id = partial(_choice, choices=THEOREM_IDS, reason=f"must be one of {list(THEOREM_IDS)}")
_positive_integer = partial(_integer, positive=True)

_condition = partial(_choice, choices=_CONDITIONS, reason=f"must be one of {sorted(_CONDITIONS)}")

#: Per condition: a reader for each key it takes, in reading order; its
#: constructor, and whether it takes the scenario's sigma, come from
#: :data:`conditions._CONSTRUCTORS`.  A key the section lacks takes its entry
#: of ``_CHECK_DEFAULTS``; ``alpha``'s None is read as missing, so ``alpha``
#: is required.
_CHECKS = {
    ConditionKind.CLASSICAL_KANNAN: {"alpha": _finite},
    ConditionKind.SIGMA_KANNAN: {},
    ConditionKind.SIGMA_S_KANNAN: {},
    ConditionKind.S_DOMINATED: {"w": _positive_integer},
    ConditionKind.MALCESKI: {"alpha": _finite, "gamma": _finite},
    ConditionKind.KOPARDE_WAGHMODE: {"alpha": _finite},
}
_CHECK_DEFAULTS = {"alpha": None, "gamma": 0.0, "w": 1}

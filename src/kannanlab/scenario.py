"""Scenario files: strict JSON descriptions of spaces, maps, and tasks.

A scenario document carries a space (explicit, truncated-harmonic, or a
builtin catalog name), the operator pair, an optional comparison function,
and per-command sections.  Unknown keys are rejected and every numeric
field must be finite, so a scenario that parses is fully resolved: all
gallery names exist and all parameters are in range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import builtins as catalog
from .conditions import (
    ConditionKind,
    ConditionSpec,
    PairMode,
    classical_kannan,
    koparde_waghmode,
    malceski,
    s_dominated,
    sigma_kannan,
    sigma_s_kannan,
)
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
from .theorems import THEOREM_IDS, Scenario, builtin_scenario


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
    text = Path(path).read_text()
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
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
        fields["sigma"], fields["c"] = _parse_sigma(raw["sigma"])
    fields.update(_read_settings(raw))
    if "theorem" in raw:
        fields.update(_parse_theorem(raw["theorem"], space, fields.get("theorem")))

    condition = None
    if "check" in raw:
        condition = _parse_condition(raw["check"], fields.get("sigma"))

    solve_x0 = None
    if "solve" in raw:
        section = raw["solve"]
        _require_mapping("solve", section)
        _reject_unknown("solve", section, {"x0"})
        if "x0" in section:
            solve_x0 = _point(space, section["x0"], "solve.x0")

    c_values: tuple[float, ...] = (1.0,)
    if "classify" in raw:
        section = raw["classify"]
        _require_mapping("classify", section)
        _reject_unknown("classify", section, {"c_values"})
        values = section.get("c_values", [1.0])
        if not isinstance(values, list) or not values:
            raise ValidationError("classify.c_values", "must be a non-empty list")
        c_values = tuple(_finite(v, "classify.c_values") for v in values)
        for v in c_values:
            if v <= 0:
                raise ValidationError("classify.c_values", "entries must be > 0")

    fields.update(_read_settings(overrides or {}))
    return ScenarioDoc(Scenario(**fields), condition, solve_x0, c_values)


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


def _parse_theorem(section, space: FiniteMetricSpace, default_id: str | None) -> dict:
    _require_mapping("theorem", section)
    _reject_unknown("theorem", section, {"id", "w", "alpha", "x0", "q", "c"})
    fields = {
        "theorem": _choice(
            section.get("id", default_id),
            "theorem.id",
            THEOREM_IDS,
            f"must be one of {list(THEOREM_IDS)}",
        )
    }
    if "w" in section:
        fields["w"] = _integer(section["w"], "theorem.w", positive=True)
    if "alpha" in section:
        fields["alpha"] = _finite(section["alpha"], "theorem.alpha")
    if "c" in section:
        fields["c"] = _finite(section["c"], "theorem.c")
    for key in ("x0", "q"):
        if key in section:
            fields[key] = _point(space, section[key], f"theorem.{key}")
    return fields


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
        maps = raw["maps"]
        _require_mapping("maps", maps)
        _reject_unknown("maps", maps, {"T", "S"})
        if "T" in maps:
            t_map = _parse_map(space, maps["T"], "maps.T")
        if "S" in maps:
            s_map = _parse_map(space, maps["S"], "maps.S")
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


def _parse_sigma(section) -> tuple[ComparisonFn, float]:
    _require_mapping("sigma", section)
    _reject_unknown("sigma", section, {"name", "alpha", "slope", "c"})
    name = section.get("name")
    if not isinstance(name, str):
        raise ValidationError("sigma.name", "required")
    params = {}
    if "alpha" in section:
        params["alpha"] = _finite(section["alpha"], "sigma.alpha")
    if "slope" in section:
        params["slope"] = _finite(section["slope"], "sigma.slope")
    try:
        fn = gallery(name, **params)
    except (UnknownGallery, MissingParam, ParamOutOfRange) as e:
        raise ValidationError("sigma", str(e)) from None
    c = _finite(section.get("c", 1.0), "sigma.c")
    if c <= 0:
        raise ValidationError("sigma.c", "must be > 0")
    return fn, c


def _parse_condition(section, sigma: ComparisonFn | None) -> ConditionSpec:
    _require_mapping("check", section)
    _reject_unknown("check", section, {"condition", "alpha", "gamma", "w"})
    kind = ConditionKind(
        _choice(
            section.get("condition"),
            "check.condition",
            _CONDITIONS,
            f"must be one of {sorted(_CONDITIONS)}",
        )
    )
    try:
        if kind is ConditionKind.CLASSICAL_KANNAN:
            return classical_kannan(_finite(section.get("alpha"), "check.alpha"))
        if kind is ConditionKind.KOPARDE_WAGHMODE:
            return koparde_waghmode(_finite(section.get("alpha"), "check.alpha"))
        if kind is ConditionKind.MALCESKI:
            return malceski(
                _finite(section.get("alpha"), "check.alpha"),
                _finite(section.get("gamma", 0.0), "check.gamma"),
            )
        if sigma is None:
            raise ValidationError("sigma", f"{kind.value} needs a sigma section")
        if kind is ConditionKind.SIGMA_KANNAN:
            return sigma_kannan(sigma)
        if kind is ConditionKind.SIGMA_S_KANNAN:
            return sigma_s_kannan(sigma)
        return s_dominated(sigma, _integer(section.get("w", 1), "check.w", positive=True))
    except ValidationError:
        raise
    except ValueError as e:
        raise ValidationError("check", str(e)) from None


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

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
    build_finite_space,
    build_self_map,
    build_truncated_harmonic_space,
    constant_map,
    identity_map,
    space_from_values,
)
from .picard import DEFAULT_MAX_ITER
from .sigma import (
    ComparisonFn,
    MissingParam,
    ParamOutOfRange,
    UnknownGallery,
    gallery,
)
from .theorems import THEOREM_IDS, Scenario


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

CONDITION_NAMES = {
    "classical-kannan",
    "sigma-kannan",
    "sigma-s-kannan",
    "s-dominated",
    "malceski",
    "koparde-waghmode",
}


@dataclass(frozen=True)
class ScenarioDoc:
    """A parsed scenario plus its optional per-command sections."""

    scenario: Scenario
    condition: ConditionSpec | None = None
    solve_x0: str | None = None
    classify_c_values: tuple[float, ...] = (1.0,)


def parse_scenario(path) -> ScenarioDoc:
    text = Path(path).read_text()
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ValidationError("$", "scenario document must be a JSON object")
    return parse_scenario_dict(raw)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """Build a JSON object, refusing a key that appears twice in it."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_scenario_dict(raw: dict) -> ScenarioDoc:
    _reject_unknown("$", raw, TOP_KEYS)
    if "space" not in raw:
        raise ValidationError("space", "section is required")

    space, t_map, s_map, builtin_sigma, builtin_theorem = _parse_space_and_maps(raw)

    sigma: ComparisonFn | None = builtin_sigma
    c = 1.0
    if "sigma" in raw:
        sigma, c = _parse_sigma(raw["sigma"])

    tol = _finite(raw.get("tol", 1e-9), "tol")
    if tol < 0:
        raise ValidationError("tol", "must be >= 0")
    max_iter = raw.get("max_iter", DEFAULT_MAX_ITER)
    if not isinstance(max_iter, int) or max_iter < 1:
        raise ValidationError("max_iter", "must be a positive integer")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ValidationError("seed", "must be an integer")
    mode = _parse_mode(raw.get("mode", "positive"))

    theorem_id = builtin_theorem
    w = None
    alpha = None
    x0 = None
    q = None
    if "theorem" in raw:
        section = raw["theorem"]
        _require_mapping("theorem", section)
        _reject_unknown("theorem", section, {"id", "w", "alpha", "x0", "q", "c"})
        theorem_id = section.get("id", theorem_id)
        if theorem_id not in THEOREM_IDS:
            raise ValidationError("theorem.id", f"must be one of {list(THEOREM_IDS)}")
        if "w" in section:
            if not isinstance(section["w"], int) or section["w"] < 1:
                raise ValidationError("theorem.w", "must be a positive integer")
            w = section["w"]
        if "alpha" in section:
            alpha = _finite(section["alpha"], "theorem.alpha")
        if "c" in section:
            c = _finite(section["c"], "theorem.c")
        x0 = _optional_point(space, section.get("x0"), "theorem.x0")
        q = _optional_point(space, section.get("q"), "theorem.q")

    condition = None
    if "check" in raw:
        condition = _parse_condition(raw["check"], sigma)

    solve_x0 = None
    if "solve" in raw:
        section = raw["solve"]
        _require_mapping("solve", section)
        _reject_unknown("solve", section, {"x0"})
        solve_x0 = _optional_point(space, section.get("x0"), "solve.x0")

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

    scenario = Scenario(
        space=space,
        t_map=t_map,
        s_map=s_map,
        sigma=sigma,
        c=c,
        theorem=theorem_id,
        mode=mode,
        w=w,
        alpha=alpha,
        x0=x0,
        q=q,
        tol=tol,
        max_iter=max_iter,
        seed=seed,
        name=raw.get("space", {}).get("name", "") if isinstance(raw.get("space"), dict) else "",
    )
    return ScenarioDoc(scenario, condition, solve_x0, c_values)


def _parse_space_and_maps(raw: dict):
    section = raw["space"]
    _require_mapping("space", section)
    kind = section.get("type")
    builtin_sigma = None
    builtin_theorem = None

    if kind == "builtin":
        _reject_unknown("space", section, {"type", "name"})
        name = section.get("name")
        if name not in catalog.BUILTIN_SPACES:
            raise ValidationError("space.name", f"unknown builtin {name!r}")
        space, t_map, s_map = catalog.builtin_triple(name)
        builtin_sigma, _ = catalog.builtin_sigma(name)
        builtin_theorem = catalog.builtin_theorem_id(name)
    elif kind == "finite":
        _reject_unknown("space", section, {"type", "points", "labels", "dist", "metric"})
        space = _parse_finite_space(section)
        t_map = s_map = None
    elif kind == "harmonic-truncation":
        _reject_unknown("space", section, {"type", "n_max"})
        n_max = section.get("n_max")
        if not isinstance(n_max, int):
            raise ValidationError("space.n_max", "must be an integer")
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
    return space, t_map, s_map, builtin_sigma, builtin_theorem


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
    return [str(v) for v in value] or None


def _parse_map(space: FiniteMetricSpace, entry, field: str) -> SelfMap:
    if entry == "identity":
        return identity_map(space)
    if isinstance(entry, dict) and set(entry) == {"constant"}:
        try:
            return constant_map(space, entry["constant"])
        except KeyError:
            raise ValidationError(field, f"constant {entry['constant']!r} not in space") from None
    if isinstance(entry, (dict, list)):
        try:
            return build_self_map(space, entry)
        except ValueError as e:
            raise ValidationError(field, str(e)) from None
    raise ValidationError(field, "must be 'identity', {'constant': label}, a mapping, or a list")


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
    name = section.get("condition")
    if name not in CONDITION_NAMES:
        raise ValidationError("check.condition", f"must be one of {sorted(CONDITION_NAMES)}")
    try:
        if name == "classical-kannan":
            return classical_kannan(_finite(section.get("alpha"), "check.alpha"))
        if name == "koparde-waghmode":
            return koparde_waghmode(_finite(section.get("alpha"), "check.alpha"))
        if name == "malceski":
            return malceski(
                _finite(section.get("alpha"), "check.alpha"),
                _finite(section.get("gamma", 0.0), "check.gamma"),
            )
        if sigma is None:
            raise ValidationError("sigma", f"{name} needs a sigma section")
        if name == "sigma-kannan":
            return sigma_kannan(sigma)
        if name == "sigma-s-kannan":
            return sigma_s_kannan(sigma)
        w = section.get("w", 1)
        if not isinstance(w, int) or w < 1:
            raise ValidationError("check.w", "must be a positive integer")
        return s_dominated(sigma, w)
    except ValidationError:
        raise
    except ValueError as e:
        raise ValidationError("check", str(e)) from None


def _parse_mode(value) -> PairMode:
    if value == "positive":
        return PairMode.POSITIVE_PAIRS
    if value == "all":
        return PairMode.ALL_ORDERED_PAIRS
    raise ValidationError("mode", "must be 'positive' or 'all'")


def _optional_point(space: FiniteMetricSpace, value, field: str) -> str | None:
    if value is None:
        return None
    label = str(value)
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
    out = float(value)
    if not math.isfinite(out):
        raise ValidationError(field, "must be finite")
    return out

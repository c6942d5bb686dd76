"""Stable report rendering.

Reports are plain dictionaries rendered as sorted, indented JSON with every
float rounded to 12 significant digits, so identical runs produce
byte-identical documents suitable for golden-file comparison.
"""

from __future__ import annotations

import json

FORMAT_VERSION = "1"


def round_floats(value):
    """Recursively round floats to 12 significant digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def render_json(doc: dict) -> str:
    return json.dumps(round_floats(doc), sort_keys=True, indent=2) + "\n"


def render_text(doc: dict) -> str:
    lines: list[str] = []
    _flatten("", round_floats(doc), lines)
    return "\n".join(lines) + "\n"


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}{key}." if prefix else f"{key}.", value[key], lines)
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}{i}.", item, lines)
        return
    lines.append(f"{prefix.rstrip('.')}: {value}")


def witness_summary(w, first_terms: int = 0) -> dict | None:
    """Family and parameters of a sequence witness, pairs recursively.

    ``first_terms`` > 0 adds that many terms of each realized prefix.
    """
    if w is None:
        return None
    if w.family == "pair":
        a, b = w.components
        return {
            "family": "pair",
            "a": witness_summary(a, first_terms),
            "b": witness_summary(b, first_terms),
        }
    out = {"family": w.family, **dict(w.params)}
    if first_terms:
        out["first_terms"] = list(w.first_terms[:first_terms])
    return out


def condition_summary(report) -> dict:
    """Outcome, pair counts and first failing pair of a condition sweep."""
    out = {
        "holds": report.holds,
        "pairs_checked": report.pairs_checked,
        "pairs_skipped": report.pairs_skipped,
    }
    if report.witness is not None:
        w = report.witness
        out["witness"] = {"pair": [w.x, w.y], "t": w.t, "s": w.s, "value": w.value}
        if w.required_alpha is not None:
            out["witness"]["required_alpha"] = w.required_alpha
    return out


def solve_summary(result) -> dict:
    """Kind, point, iteration count and cycle of a Picard solve."""
    return {
        "kind": result.kind.value,
        "point": result.point,
        "iterations": result.iterations,
        "cycle_points": list(result.cycle_points),
    }


def document(command: str, body: dict) -> dict:
    doc = {"format_version": FORMAT_VERSION, "command": command}
    doc.update(body)
    return doc

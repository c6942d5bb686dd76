"""Stable report rendering.

Reports are plain dictionaries, rendered as JSON (sorted keys, 2-space
indent, ASCII-escaped strings) or as one ``path: value`` line per leaf.
Floats are written at 12 significant digits, and NaN, inf and -inf as the
strings ``"nan"``, ``"inf"`` and ``"-inf"``; keys are stringified, the last
one winning when two stringify alike (``1`` and ``"1"``); tuples are written
as lists, and an ``Enum`` member as its value.  So identical runs produce
byte-identical documents suitable for golden-file comparison.
"""

from __future__ import annotations

import math
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote

FORMAT_VERSION = "1"


def _round(x: float):
    """``x`` at 12 significant digits, or its name if it is not finite."""
    return float(f"{x:.12g}") if math.isfinite(x) else repr(x)


def render_json(doc: dict) -> str:
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out) + "\n"


def _write(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value``; ``newline`` ends with its indent."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        items = dict(zip(map(str, value), value.values()))
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(items):
            out += sep, _quote(key), ": "
            _write(items[key], inner, out)
            sep = "," + inner
        out.append(newline + "}" if items else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, float):
        x = _round(value)
        out.append(_quote(x) if isinstance(x, str) else repr(x))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, Enum):
        _write(value.value, newline, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_text(doc: dict) -> str:
    lines: list[str] = []
    _flatten("", doc, lines, str)
    return "\n".join(lines) + "\n"


def typed_lines(doc: dict) -> list[str]:
    """The lines of :func:`render_text` with each value as its JSON text, so
    that ``"1"`` and ``1`` print differently, and a line ``path: {}`` or
    ``path: []`` before the lines of each object or array."""
    lines: list[str] = []
    _flatten("", doc, lines, _json_text)
    return lines


def _json_text(value) -> str:
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _flatten(prefix: str, value, lines: list[str], leaf) -> None:
    if leaf is _json_text and isinstance(value, (dict, list, tuple)):
        lines.append(f"{prefix.rstrip('.')}: {'{}' if isinstance(value, dict) else '[]'}")
    if isinstance(value, dict):
        items = dict(zip(map(str, value), value.values()))
        for key in sorted(items):
            _flatten(f"{prefix}{key}." if prefix else f"{key}.", items[key], lines, leaf)
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}{i}.", item, lines, leaf)
        return
    if isinstance(value, float):
        value = _round(value)
    elif isinstance(value, Enum):
        _flatten(prefix, value.value, lines, leaf)
        return
    lines.append(f"{prefix.rstrip('.')}: {leaf(value)}")


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

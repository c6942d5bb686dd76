"""Output checks that decide whether a benchmark operation failed.

Every check compares an operation's output with an answer the package
computes another way (``brute_force_points``, ``kannan_supremum``, the
reproduce golden comparison), with a direct scan of the distance table, or
with a property of the input.  None compares
against stored output digests, so a later fix that changes a verdict is not
counted as a failure.

Failures of the two tolerance checks on a space that has two distinct
points within the tolerance are the defect of ROADMAP open item 2
(point identity decided by tolerance).  They count as failed operations
like any other; :attr:`Tally.unexplained` leaves them out, and the
benchmark's ``correct`` flag is false only when it is non-zero.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from kannanlab import (
    DEFAULT_TOL,
    ConditionReport,
    KannanSupremum,
    brute_force_points,
    kannan_supremum,
)

CHECKS = (
    "raised",
    "document",
    "exit_code",
    "reproduce_match",
    "solve_point_in_oracle",
    "classical_vs_supremum",
    "pair_count",
    "supremum_by_scan",
)
TOLERANCE_CHECKS = frozenset({"solve_point_in_oracle", "classical_vs_supremum"})

# Expected input classes of a CLI operation.
OK = "ok"  # exit 0, 1 or 2, whichever the report's own content implies
INVALID_METRIC = "invalid-metric"  # exit 1 with the violations listed
MALFORMED = "malformed"  # exit 3 with an error message


class Subject:
    """The space and maps an operation works on, built when a check first needs them."""

    def __init__(self, build: Callable[[], tuple]):
        self._build = build
        self._triple = None
        self._points = None
        self._supremum = None
        self._scanned = None
        self._gap = None

    @property
    def triple(self):
        if self._triple is None:
            self._triple = self._build()
        return self._triple

    @property
    def n(self) -> int:
        return self.triple[0].n

    def oracle_points(self):
        """(fixed points of T, coincidence points of T and S), by full scan."""
        if self._points is None:
            space, t_map, s_map = self.triple
            fixed = brute_force_points(space, t_map).fixed_points
            coincidence = brute_force_points(space, t_map, s_map).coincidence_points
            self._points = (set(fixed), set(coincidence))
        return self._points

    def supremum(self) -> KannanSupremum:
        if self._supremum is None:
            space, t_map, _ = self.triple
            self._supremum = kannan_supremum(space, t_map)
        return self._supremum

    def scanned_supremum(self) -> float:
        """The largest d(Tx,Ty) / (d(Tx,x) + d(Ty,y)) over pairs with d(Tx,Ty) > 0,
        read straight off the distance table (infinite if a denominator is 0)."""
        if self._scanned is None:
            space, t_map, _ = self.triple
            dist, t_of = space.dist, t_map.assignment
            best = 0.0
            for i, ti in enumerate(t_of):
                for j, tj in enumerate(t_of):
                    if dist[ti][tj] > 0.0:
                        denominator = dist[ti][i] + dist[tj][j]
                        ratio = dist[ti][tj] / denominator if denominator else math.inf
                        best = max(best, ratio)
            self._scanned = best
        return self._scanned

    def has_sub_tolerance_gap(self) -> bool:
        """Whether two distinct points lie within the default tolerance."""
        if self._gap is None:
            dist = self.triple[0].dist
            self._gap = any(
                0.0 < dist[i][j] <= DEFAULT_TOL
                for i in range(len(dist))
                for j in range(i + 1, len(dist))
            )
        return self._gap


def check_solve_point(kind: str, point, subject: Subject) -> bool:
    fixed, coincidence = subject.oracle_points()
    if kind == "fixed-point":
        return point in fixed
    if kind == "coincidence-point":
        return point in coincidence
    return True


def check_classical(holds: bool, alpha: float, subject: Subject) -> bool:
    # Alphas are drawn from a continuous range, so the supremum never sits
    # within rounding of alpha and the two forms cannot differ by rounding.
    return holds == (subject.supremum().value <= alpha)


def implied_exit_code(doc: dict) -> int | None:
    """The exit code a report's own content implies (``cli`` module docstring)."""
    command = doc.get("command")
    if "error" in doc:
        return 1 if command == "solve" else 3
    if command == "validate":
        return 0 if doc["valid"] else 1
    if command == "check":
        return 0 if doc["holds"] else 1
    if command == "solve":
        kind = doc["result"]["kind"]
        if kind in ("fixed-point", "coincidence-point"):
            return 0
        return 2 if kind == "budget-exhausted" else 1
    if command == "classify":
        outcomes = {c["outcome"] for c in doc["classes"].values()}
        if "falsified" in outcomes:
            return 1
        return 2 if "undetermined" in outcomes else 0
    if command == "theorem":
        statuses = {h["status"] for h in doc["hypotheses"]}
        match = doc["conclusion"]["match"]
        if statuses <= {"holds"} and match:
            return 0
        return 1 if "fails" in statuses or not match else 2
    if command == "reproduce":
        return 0 if doc["match"] else 1
    return None


@dataclass
class CliCase:
    """What the checker needs to know about one CLI invocation."""

    argv: list[str]
    expect: str = OK
    subject: Subject | None = None
    alpha: float | None = None  # set for classical-kannan checks

    def check(self, outcome: tuple[int, str]) -> list[str]:
        code, text = outcome
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return ["document"]
        if not isinstance(doc, dict) or "format_version" not in doc:
            return ["document"]
        if doc.get("command") != self.argv[0]:
            return ["document"]
        failed = []
        if self.expect == MALFORMED:
            ok = code == 3 and "error" in doc
        elif self.expect == INVALID_METRIC:
            ok = code == 1 and doc.get("valid") is False and bool(doc.get("violations"))
        else:
            try:
                ok = code in (0, 1, 2) and code == implied_exit_code(doc)
            except (KeyError, TypeError):
                ok = False
        if not ok:
            failed.append("exit_code")
        if code == 3 or self.expect != OK:
            return failed
        try:
            return failed + self._check_content(doc)
        except (KeyError, TypeError):
            return failed + ["document"]

    def _check_content(self, doc: dict) -> list[str]:
        failed = []
        command = self.argv[0]
        if command == "reproduce" and doc["match"] is not True:
            failed.append("reproduce_match")
        if command == "solve" and "result" in doc:
            result = doc["result"]
            if not check_solve_point(result["kind"], result["point"], self.subject):
                failed.append("solve_point_in_oracle")
        if command == "theorem":
            solved = doc["conclusion"]["observed"].get("solve", {})
            if "kind" in solved and not check_solve_point(
                solved["kind"], solved["point"], self.subject
            ):
                failed.append("solve_point_in_oracle")
        if command == "check":
            if doc["pairs_checked"] + doc["pairs_skipped"] != self.subject.n ** 2:
                failed.append("pair_count")
            if self.alpha is not None and not check_classical(
                doc["holds"], self.alpha, self.subject
            ):
                failed.append("classical_vs_supremum")
        return failed


@dataclass
class SweepCase:
    """What the checker needs to know about one direct sweep call."""

    subject: Subject
    alpha: float | None = None  # set for classical-kannan sweeps

    def check(self, result) -> list[str]:
        if isinstance(result, KannanSupremum):
            expected = self.subject.scanned_supremum()
            ok = result.unbounded == math.isinf(expected) and math.isclose(
                result.value, expected, rel_tol=1e-9
            )
            return [] if ok else ["supremum_by_scan"]
        if not isinstance(result, ConditionReport):
            return ["document"]
        failed = []
        if result.pairs_checked + result.pairs_skipped != self.subject.n ** 2:
            failed.append("pair_count")
        if self.alpha is not None and not check_classical(result.holds, self.alpha, self.subject):
            failed.append("classical_vs_supremum")
        return failed


@dataclass
class Tally:
    """Attempted and failed operations, with failures counted per check."""

    attempted: int = 0
    failed: int = 0
    unexplained: int = 0
    by_check: Counter = field(default_factory=Counter)
    tolerance_defect: int = 0

    def record(self, failed_checks: list[str], subject: Subject | None) -> None:
        self.attempted += 1
        if not failed_checks:
            return
        self.failed += 1
        self.by_check.update(failed_checks)
        if (
            subject is not None
            and set(failed_checks) <= TOLERANCE_CHECKS
            and subject.has_sub_tolerance_gap()
        ):
            self.tolerance_defect += 1
        else:
            self.unexplained += 1

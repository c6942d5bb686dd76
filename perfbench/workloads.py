"""Seeded inputs for the three benchmark workloads.

Each workload function takes the seed, a :class:`ScenarioFiles` to put its
scenario documents in and a size table, and returns one pass of operations in
a fixed order.  Sizes and the
mix of commands are fixed; the seed chooses only the contents (points,
distances, maps, parameters), so every seed costs about the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from kannanlab import (
    DEFAULT_TOL,
    ComparisonFn,
    FiniteMetricSpace,
    PairMode,
    SelfMap,
    build_truncated_harmonic_space,
    classical_kannan,
    gallery,
    identity_map,
    koparde_waghmode,
    malceski,
    random_space,
    s_dominated,
    sigma_kannan,
    sigma_s_kannan,
)
from kannanlab import builtins as catalog
import kannanlab.cli  # noqa: F401  (run_cli reaches it through sys.modules)

from oracles import INVALID_METRIC, MALFORMED, CliCase, Subject, SweepCase

# (member, parameter drawn per seed) for all eleven gallery members.
GALLERY = (
    ("gamma", None),
    ("beta", None),
    ("step-g", None),
    ("step-omega", None),
    ("chi", "alpha"),
    ("theta-pi", "alpha"),
    ("theta-geraghty", "alpha"),
    ("theta-l", "alpha"),
    ("tau", None),
    ("psi-phi", None),
    ("linear", "slope"),
)
THEOREM_IDS = ("T2.1", "T2.2", "T3.17", "T3.18", "T3.29", "T3.33", "C3.19", "C3.31", "C3.32")
ALPHA_THEOREMS = {"T2.1", "T2.2", "C3.31", "C3.32"}
CONDITIONS = (
    "classical-kannan",
    "sigma-kannan",
    "sigma-s-kannan",
    "s-dominated",
    "malceski",
    "koparde-waghmode",
)

SIZES = {
    "large-space": {"harmonic_n_max": (60, 75), "table": 120, "points": 120, "invalid": 60},
    "sweep-many": {"harmonic_n_max": 50, "grid_cells": 100, "random": 100, "pairs": 3},
    "scenario-batch": {"pool": 10, "min_points": 3},
}


@dataclass
class Op:
    """One benchmark operation: a CLI call or a direct sweep call."""

    label: str
    call: Callable[[], object]
    case: CliCase | SweepCase



def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``kannanlab.cli.main`` in-process and capture its stdout.

    The function is looked up at call time so a traced run sees the
    tracer's wrapper.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["kannanlab.cli"].main(argv)
    return code, buf.getvalue()


def cli_op(case: CliCase) -> Op:
    return Op(f"cli:{case.argv[0]}", partial(run_cli, case.argv), case)


def _alpha(rng: random.Random, hi: float = 0.45) -> float:
    return rng.uniform(0.05, hi)


def _sigma_section(rng: random.Random, member: int) -> dict:
    name, param = GALLERY[member % len(GALLERY)]
    section = {"name": name}
    if param == "alpha":
        section["alpha"] = _alpha(rng)
    elif param == "slope":
        section["slope"] = rng.uniform(0.1, 1.5)
    return section


class ScenarioFiles:
    """Scenario documents of one set-up, written to disk by :meth:`write`.

    Set-up time covers making the documents but not writing them, so that
    file-system noise stays out of ``setup_s``.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.pending: dict[Path, str] = {}

    def add(self, name: str, doc) -> str:
        path = self.directory / f"{name}.json"
        self.pending[path] = doc if isinstance(doc, str) else json.dumps(doc)
        return str(path)

    def write(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        for path, text in self.pending.items():
            path.write_text(text)


def _table_subject(labels, dist, t_assign, s_assign=None) -> Subject:
    """Oracle subject for an explicit table; the CLI validates the same table."""

    def build():
        space = FiniteMetricSpace(tuple(labels), tuple(tuple(row) for row in dist))
        t_map = SelfMap(space, tuple(t_assign))
        s_map = identity_map(space) if s_assign is None else SelfMap(space, tuple(s_assign))
        return space, t_map, s_map

    return Subject(build)


def _harmonic_subject(n_max: int) -> Subject:
    def build():
        h = build_truncated_harmonic_space(n_max)
        return h.space, h.t, h.s

    return Subject(build)


def _point_table(values) -> list[list[float]]:
    return [[abs(a - b) for b in values] for a in values]


def _image_map(rng: random.Random, n: int, s_assign=None) -> list[int]:
    """A map whose image is one or two points of S's image, so chains never break."""
    pool = sorted(set(s_assign)) if s_assign is not None else list(range(n))
    targets = rng.sample(pool, min(len(pool), rng.choice((1, 2))))
    return [rng.choice(targets) for _ in range(n)]


# --------------------------------------------------------------------------
# large-space: CLI commands on large spaces, where metric validation dominates
# --------------------------------------------------------------------------


def large_space(seed: int, files: ScenarioFiles, sizes: dict) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    commands = ("validate", "check", "solve", "theorem")

    theorems = ({"id": "T3.17"}, {"id": "T3.29", "w": 1})
    checks = ({"condition": "sigma-s-kannan"}, {"condition": "s-dominated", "w": 1})
    for k, n_max in enumerate(sizes["harmonic_n_max"]):
        doc = {
            "space": {"type": "harmonic-truncation", "n_max": n_max},
            "sigma": {"name": "chi", "alpha": _alpha(rng)},
            "check": checks[k % 2],
            "theorem": theorems[k % 2],
            "mode": rng.choice(("positive", "all")),
        }
        path = files.add(f"harmonic-{n_max}", doc)
        subject = _harmonic_subject(n_max)
        ops += [cli_op(CliCase([c, path], subject=subject)) for c in commands]

    n = sizes["table"]
    space = random_space(n, rng)
    t_assign = [rng.randrange(n) for _ in range(n)]
    alpha = _alpha(rng)
    doc = {
        "space": {"type": "finite", "labels": list(space.labels), "dist": [list(r) for r in space.dist]},
        "maps": {"T": t_assign},
        "check": {"condition": "classical-kannan", "alpha": alpha},
        "theorem": {"id": "T2.1", "alpha": alpha},
        "mode": rng.choice(("positive", "all")),
    }
    path = files.add("table", doc)
    subject = _table_subject(space.labels, space.dist, t_assign)
    for c in commands:
        ops.append(cli_op(CliCase([c, path], subject=subject, alpha=alpha if c == "check" else None)))

    n = sizes["points"]
    values = [v / 100 for v in sorted(rng.sample(range(100 * n * 10), n))]
    labels = [f"x{i}" for i in range(n)]
    # Halfway towards the middle point, its unique fixed point.
    t_assign = [(i + n // 2) // 2 for i in range(n)]
    alpha = _alpha(rng)
    doc = {
        "space": {"type": "finite", "points": values, "labels": labels},
        "maps": {"T": t_assign},
        "check": {"condition": "koparde-waghmode", "alpha": alpha},
        "theorem": {"id": "C3.31", "alpha": alpha},
    }
    path = files.add("points", doc)
    subject = _table_subject(labels, _point_table(values), t_assign)
    ops += [cli_op(CliCase([c, path], subject=subject)) for c in commands]

    # Raw random weights, never shortest-path completed: the triangle scan
    # collects and prints thousands of violations.
    n = sizes["invalid"]
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.uniform(0.5, 2.0)
    doc = {
        "space": {"type": "finite", "labels": [f"q{i}" for i in range(n)], "dist": dist},
        "maps": {"T": "identity"},
    }
    path = files.add("invalid", doc)
    ops.append(cli_op(CliCase(["validate", path], expect=INVALID_METRIC)))

    for example in ("ex-3.34", "koparde-demo", "patel-deheri-demo"):
        ops.append(cli_op(CliCase(["reproduce", example])))
    return ops


# --------------------------------------------------------------------------
# sweep-many: condition sweeps on pre-built spaces
# --------------------------------------------------------------------------


def _custom_eval(t: float, s: float) -> float:
    return 0.45 * s - t - t * t


# A comparison function outside the gallery, evaluated only through the
# scalar callable path.
CUSTOM_SIGMA = ComparisonFn(name="custom-quadratic", eval=_custom_eval)


def _sweep_sigma(rng: random.Random, slot: int) -> ComparisonFn:
    if slot % (len(GALLERY) + 1) == len(GALLERY):
        return CUSTOM_SIGMA
    section = _sigma_section(rng, slot)
    return gallery(section.pop("name"), **section)


def _sweep(name: str, *args):
    # Looked up at call time, like run_cli, so a traced run sees the wrapper.
    return getattr(sys.modules["kannanlab.conditions"], name)(*args)


def _close_pair_swap(rng: random.Random, space: FiniteMetricSpace) -> SelfMap | None:
    """T swaps two distinct points closer than the default tolerance and sends
    every other point to the first of them, or None if the space has no such pair.

    This is the ROADMAP open item 2 shape (a <-> b, c -> a): every image
    distance is within the tolerance, so the positive-mode classical sweep
    skips every pair and passes, while the supremum is 1/2, above any alpha
    drawn here.  The defect therefore fails exactly one operation per pass
    on every seed.
    """
    close = [
        (i, j)
        for i, row in enumerate(space.dist)
        for j, d in enumerate(row)
        if 0.0 < d <= DEFAULT_TOL
    ]
    if not close:
        return None
    a, b = rng.choice(close)
    assignment = [a] * space.n
    assignment[a] = b
    return SelfMap(space, tuple(assignment))


def sweep_many(seed: int, files: ScenarioFiles, sizes: dict) -> list[Op]:
    rng = random.Random(seed)
    spaces = [
        catalog.harmonic_pair(sizes["harmonic_n_max"]),
        catalog.thirds_grid(sizes["grid_cells"]),
        (random_space(sizes["random"], rng), None, None),
    ]
    ops: list[Op] = []
    slot = 0
    for space, own_t, own_s in spaces:
        n = space.n
        for k in range(sizes["pairs"]):
            if k == 0 and own_t is not None:
                t_map, s_map = own_t, own_s
            else:
                s_map = SelfMap(space, tuple(rng.randrange(n) for _ in range(n)))
                if k == 1:
                    t_map = SelfMap(space, tuple(rng.randrange(n) for _ in range(n)))
                else:
                    t_map = _close_pair_swap(rng, space)
                    if t_map is None:
                        t_map = SelfMap(space, tuple(_image_map(rng, n, s_map.assignment)))
            subject = Subject(lambda triple=(space, t_map, s_map): triple)
            alpha = _alpha(rng)
            specs = [(classical_kannan(alpha), alpha)]
            for make in (sigma_kannan, sigma_s_kannan):
                specs.append((make(_sweep_sigma(rng, slot)), None))
                slot += 1
            specs.append((s_dominated(_sweep_sigma(rng, slot), 1 + slot % 3), None))
            slot += 1
            specs.append((malceski(_alpha(rng, 0.3), rng.uniform(0.0, 0.3)), None))
            specs.append((koparde_waghmode(_alpha(rng)), None))
            for spec, spec_alpha in specs:
                for mode in PairMode:
                    call = partial(_sweep, "check_condition", space, t_map, s_map, spec, mode)
                    ops.append(Op(f"check_condition:{spec.kind.value}", call,
                                  SweepCase(subject, spec_alpha)))
            call = partial(_sweep, "kannan_supremum", space, t_map)
            ops.append(Op("kannan_supremum", call, SweepCase(subject)))
    return ops


# --------------------------------------------------------------------------
# scenario-batch: thousands of small CLI calls
# --------------------------------------------------------------------------


def _small_space(rng: random.Random, i: int, n: int) -> tuple[dict, Subject]:
    """A 3..12-point scenario skeleton (space, maps, mode) and its oracle subject."""
    if i % 2 == 0:
        values = [v / 10 for v in sorted(rng.sample(range(1000), n))]
        labels = [f"x{k}" for k in range(n)]
        section = {"type": "finite", "points": values, "labels": labels}
        dist = _point_table(values)
    else:
        space = random_space(n, rng)
        labels, dist = list(space.labels), [list(r) for r in space.dist]
        section = {"type": "finite", "labels": labels, "dist": dist}
    s_assign = None
    if i % 3 == 0:
        t_assign = _image_map(rng, n)
    elif i % 3 == 1:
        t_assign = [rng.randrange(n) for _ in range(n)]
    else:
        s_assign = [rng.randrange(n) for _ in range(n)]
        t_assign = _image_map(rng, n, s_assign)
    maps = {"T": t_assign, "S": s_assign if s_assign is not None else "identity"}
    doc = {"space": section, "maps": maps, "mode": rng.choice(("positive", "all"))}
    return doc, _table_subject(labels, dist, t_assign, s_assign)


def _sub_tolerance_space(rng: random.Random, n: int) -> tuple[dict, Subject, float]:
    """Points with one pair closer than the default tolerance; T swaps that pair.

    This is the ROADMAP open item 2 shape (0, 5e-10, 1 with a <-> b, c -> a)
    with seeded positions: tolerance-based identity makes ``solve`` report a
    fixed point the oracle rejects and the positive-mode classical sweep
    skip every pair.
    """
    base = rng.uniform(0.0, 1.0)
    values = [base, base + rng.uniform(1e-11, 9e-10)]
    values += [base + 1.0 + k + rng.random() for k in range(n - 2)]
    labels = [chr(ord("a") + k) for k in range(n)]
    t_assign = [1, 0] + [0] * (n - 2)
    alpha = _alpha(rng)
    doc = {
        "space": {"type": "finite", "points": values, "labels": labels},
        "maps": {"T": t_assign},
        "mode": "positive",
        "check": {"condition": "classical-kannan", "alpha": alpha},
        "theorem": {"id": "T2.1", "alpha": alpha},
    }
    return doc, _table_subject(labels, _point_table(values), t_assign), alpha


def _malformed(rng: random.Random, good: dict) -> list:
    """Eleven documents the parser must reject (exit 3), one per rule."""
    n = len(good["maps"]["T"])
    return [
        json.dumps(good)[: rng.randrange(5, 40)],
        json.dumps([good]),
        {**good, "bogus": rng.random()},
        {k: v for k, v in good.items() if k != "space"},
        {**good, "space": {"type": "sphere"}},
        {**good, "space": {"type": "harmonic-truncation", "n_max": rng.choice((2, 3, 500))}},
        {**good, "maps": {"T": {"constant": "nowhere"}}},
        {**good, "maps": {"T": good["maps"]["T"][: rng.randrange(n)]}},
        {**good, "sigma": {"name": "omega-prime"}},
        {**good, "check": {"condition": "banach", "alpha": 0.3}},
        {**good, "tol": -0.01 - rng.random()},
    ]


def scenario_batch(seed: int, files: ScenarioFiles, sizes: dict) -> list[Op]:
    rng = random.Random(seed)
    pool = [
        _small_space(rng, i, sizes["min_points"] + i % 10) for i in range(sizes["pool"])
    ]
    ops: list[Op] = []

    def add(command: str, doc, subject: Subject | None, **case):
        path = files.add(f"op{len(ops):04d}", doc)
        ops.append(cli_op(CliCase([command, path], subject=subject, **case)))

    def space(k: int) -> dict:
        return pool[k % len(pool)][0]

    def subject(k: int) -> Subject:
        return pool[k % len(pool)][1]

    for member in range(len(GALLERY)):
        for c in (1.0, 2.0, 3.0):
            k = member * 3 + int(c)
            doc = {**space(k), "sigma": _sigma_section(rng, member),
                   "classify": {"c_values": [c]}, "seed": rng.randrange(1000)}
            add("classify", doc, subject(k))

    for k in range(3 * len(CONDITIONS)):
        condition = CONDITIONS[k % len(CONDITIONS)]
        section = {"condition": condition}
        alpha = None
        if condition in ("classical-kannan", "koparde-waghmode"):
            section["alpha"] = alpha = _alpha(rng)
        elif condition == "malceski":
            section.update(alpha=_alpha(rng, 0.3), gamma=rng.uniform(0.0, 0.3))
        elif condition == "s-dominated":
            section["w"] = 1 + k % 3
        doc = {**space(k), "check": section, "sigma": _sigma_section(rng, k)}
        add("check", doc, subject(k), alpha=alpha if condition == "classical-kannan" else None)

    for k in range(sizes["pool"]):
        doc = dict(space(k))
        if k % 2:
            doc["solve"] = {"x0": rng.choice(doc["space"]["labels"])}
        add("solve", doc, subject(k))
        add("validate", space(k), subject(k))

    for k in range(2 * len(THEOREM_IDS)):
        tid = THEOREM_IDS[k % len(THEOREM_IDS)]
        section = {"id": tid}
        doc = {**space(k), "theorem": section}
        if tid in ALPHA_THEOREMS:
            section["alpha"] = _alpha(rng)
        else:
            doc["sigma"] = _sigma_section(rng, k)
            if tid == "T3.29":
                section["w"] = 1 + k % 3
        add("theorem", doc, subject(k))

    for example in ("ex-3.24", "ex-3.26", "ex-3.35", "classify-gallery"):
        ops.append(cli_op(CliCase(["reproduce", example])))

    for n in (3, 6):
        doc, tiny_gap, alpha = _sub_tolerance_space(rng, n)
        add("solve", doc, tiny_gap)
        add("check", doc, tiny_gap, alpha=alpha)
        add("theorem" if n == 3 else "validate", doc, tiny_gap)

    for k, doc in enumerate(_malformed(rng, space(0))):
        add(("validate", "check", "solve", "theorem", "classify")[k % 5], doc, None,
            expect=MALFORMED)
    return ops


WORKLOADS = {
    "large-space": large_space,
    "sweep-many": sweep_many,
    "scenario-batch": scenario_batch,
}

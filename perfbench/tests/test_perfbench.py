"""Benchmark harness tests: tiny workloads, metric names and the output checker.

Nothing here asserts on timings.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402
from oracles import MALFORMED, CliCase, Subject, SweepCase, Tally  # noqa: E402

import kannanlab  # noqa: E402
from kannanlab import (  # noqa: E402
    KannanSupremum,
    SelfMap,
    check_condition,
    classical_kannan,
    identity_map,
    kannan_supremum,
    space_from_values,
)

TINY = {
    "large-space": {"harmonic_n_max": (5,), "table": 6, "points": 8, "invalid": 12},
    "sweep-many": {"harmonic_n_max": 5, "grid_cells": 6, "random": 6, "pairs": 3},
    "scenario-batch": {"pool": 10, "min_points": 3},
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_prints_every_named_metric_with_its_unit(
    workload, trace, monkeypatch, capsys
):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "CLI_ROUNDS", 1)
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=TINY[workload])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["attempted"] >= 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result
    # The traced run leaves the package as it found it.
    assert not hasattr(kannanlab.cli.main, "__wrapped__")


def test_speed_scale_scales_each_stretch_by_the_reference_times_around_it(monkeypatch):
    readings = iter([2e-3, 4e-3, 1e-3])
    monkeypatch.setattr(timing, "reference_s", lambda: next(readings))
    scale = timing.SpeedScale()
    scale.add(0.1)
    scale.add(0.2)
    nominal = timing.NOMINAL_S
    assert scale.flush() == pytest.approx([0.1 * nominal / 3e-3, 0.2 * nominal / 3e-3])
    scale.add(0.3)
    assert scale.flush() == pytest.approx([0.3 * nominal / 2.5e-3])
    assert scale.flush() == []


def test_an_operation_that_blocks_is_timed_by_the_wall_clock():
    mark = timing.start()
    time.sleep(0.05)
    took, wall = timing.stop(mark)
    assert took == wall >= 0.05


def test_workloads_in_benchmark_json_exist():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _five_points(t_images, s_images=None):
    space = space_from_values([0.0, 1.0, 2.0, 3.0, 4.0], ["x0", "x1", "x2", "x3", "x4"])
    t_map = SelfMap(space, tuple(t_images))
    s_map = identity_map(space) if s_images is None else SelfMap(space, tuple(s_images))
    return Subject(lambda: (space, t_map, s_map))


def _solve_report(point):
    return json.dumps({
        "format_version": "1",
        "command": "solve",
        "result": {"kind": "fixed-point", "point": point, "iterations": 1, "cycle_points": []},
    })


def test_checker_fails_a_solve_point_outside_the_oracle_set():
    subject = _five_points([2, 2, 2, 2, 2])
    case = CliCase(["solve", "scenario.json"], subject=subject)
    assert case.check((0, _solve_report("x2"))) == []
    failed = case.check((0, _solve_report("x0")))
    assert failed == ["solve_point_in_oracle"]
    tally = Tally()
    tally.record(failed, subject)
    assert (tally.attempted, tally.failed, tally.unexplained) == (1, 1, 1)


def test_checker_attributes_tolerance_failures_only_on_sub_tolerance_spaces():
    space = space_from_values([0.0, 5e-10, 1.0], ["a", "b", "c"])
    t_map = SelfMap(space, (1, 0, 0))
    subject = Subject(lambda: (space, t_map, identity_map(space)))
    failed = CliCase(["solve", "s.json"], subject=subject).check((0, _solve_report("a")))
    assert failed == ["solve_point_in_oracle"]
    tally = Tally()
    tally.record(failed, subject)
    assert (tally.failed, tally.tolerance_defect, tally.unexplained) == (1, 1, 0)
    # The same sub-tolerance space makes the positive-mode sweep disagree
    # with the supremum (ROADMAP open item 2).
    report = check_condition(space, t_map, None, classical_kannan(0.3))
    assert SweepCase(subject, alpha=0.3).check(report) == ["classical_vs_supremum"]


def test_sweep_many_fails_one_positive_classical_sweep_per_pass_on_a_sub_tolerance_space():
    # harmonic_pair(10) has points 1/10**10 and 1/11**11, closer than the tolerance.
    sizes = {"harmonic_n_max": 10, "grid_cells": 6, "random": 6, "pairs": 3}
    for seed in (1, 2, 3):
        tally = Tally()
        ops = workloads.sweep_many(seed, None, sizes)
        run.run_passes(ops, tally, passes=1)
        assert (tally.failed, tally.tolerance_defect) == (1, 1)
        assert dict(tally.by_check) == {"classical_vs_supremum": 1}


def test_checker_fails_wrong_exit_codes_and_unparseable_documents():
    subject = _five_points([2, 2, 2, 2, 2])
    solve = CliCase(["solve", "scenario.json"], subject=subject)
    assert solve.check((1, _solve_report("x2"))) == ["exit_code"]
    assert solve.check((0, "not json")) == ["document"]
    malformed = CliCase(["check", "bad.json"], expect=MALFORMED)
    error = json.dumps({"format_version": "1", "command": "check", "error": "tol: must be >= 0"})
    assert malformed.check((3, error)) == []
    assert malformed.check((0, error)) == ["exit_code"]


def test_checker_fails_a_pair_count_that_is_not_n_squared():
    subject = _five_points([2, 2, 2, 2, 2])
    report = check_condition(*subject.triple, classical_kannan(0.3))
    assert SweepCase(subject, alpha=0.3).check(report) == []
    short = type(report)(report.kind, report.holds, report.pairs_checked - 1,
                         report.pairs_skipped, report.witness)
    assert SweepCase(subject).check(short) == ["pair_count"]


def test_checker_fails_a_supremum_that_disagrees_with_the_scan():
    subject = _five_points([1, 2, 3, 4, 4])
    space, t_map, _ = subject.triple
    supremum = kannan_supremum(space, t_map)
    assert supremum.value > 0.0
    assert SweepCase(subject).check(supremum) == []
    wrong = KannanSupremum(supremum.value * 0.9, False, supremum.pair)
    assert SweepCase(subject).check(wrong) == ["supremum_by_scan"]
    assert SweepCase(subject).check(KannanSupremum(math.inf, True, None)) == ["supremum_by_scan"]


def test_run_without_the_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

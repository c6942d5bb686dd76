"""Command-line front end.

Subcommands consume a scenario file (or, for ``reproduce``, a builtin id)
and emit one structured report document to stdout, optionally copied to a
file.  Exit codes: 0 when the checked property holds or the reproduction
matches, 1 on a falsified condition, violation, or mismatch, 2 when the
outcome is undetermined, and 3 on input errors.
"""

from __future__ import annotations

import argparse
import sys

from .conditions import PairMode, PowerOverflow, check_condition
from .metric import MetricInvalid
from .picard import NoClrBase, SolveKind, diagnose, solve
from .report import (
    condition_summary,
    document,
    render_json,
    render_text,
    solve_summary,
    witness_summary,
)
from .scenario import ParseError, ScenarioDoc, ValidationError, parse_scenario
from .sigma import classify
from .theorems import MalformedScenario, UnknownExample, reproduce, run_theorem

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3


def _exit_code(falsified: bool, undetermined: bool = False) -> int:
    """The exit code of an outcome: falsified before undetermined before ok."""
    if falsified:
        return EXIT_FALSIFIED
    return EXIT_UNDETERMINED if undetermined else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kannanlab",
        description="Fixed-point and coincidence-point checks on finite metric spaces",
    )
    parser.add_argument(
        "command", choices=["validate", "classify", "check", "solve", "theorem", "reproduce"]
    )
    parser.add_argument(
        "target", help="scenario file (JSON), or a builtin example id for reproduce"
    )
    parser.add_argument(
        "--mode", choices=[mode.value for mode in PairMode], help="pair sweep mode override"
    )
    parser.add_argument("--tol", type=float, help="tolerance override")
    parser.add_argument("--max-iter", type=int, help="iteration cap override")
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", help="also write the report to this path")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "reproduce":
            code, body = _cmd_reproduce(args)
        else:
            doc = _load(args)
            handler = {
                "validate": _cmd_validate,
                "classify": _cmd_classify,
                "check": _cmd_check,
                "solve": _cmd_solve,
                "theorem": _cmd_theorem,
            }[args.command]
            code, body = handler(args, doc)
    except (
        ParseError,
        ValidationError,
        MalformedScenario,
        UnknownExample,
        PowerOverflow,
        OSError,
    ) as e:
        body = {"error": str(e)}
        code = EXIT_INPUT
    except MetricInvalid as e:
        body = {
            "valid": False,
            "violations": [vars(v) for v in e.violations],
            "violations_total": e.total,
            "violations_truncated": e.total > len(e.violations),
        }
        code = EXIT_FALSIFIED

    render = render_json if args.format == "json" else render_text
    text = render(document(args.command, body))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            code, text = EXIT_INPUT, render(document(args.command, {"error": str(e)}))
    sys.stdout.write(text)
    return code


def _load(args) -> ScenarioDoc:
    flags = {"mode": args.mode, "tol": args.tol, "max_iter": args.max_iter, "seed": args.seed}
    return parse_scenario(args.target, {k: v for k, v in flags.items() if v is not None})


def _scenario_echo(doc: ScenarioDoc) -> dict:
    sc = doc.scenario
    echo = {
        "n_points": sc.space.n,
        "labels": list(sc.space.labels),
        "mode": sc.mode.value,
        "tol": sc.tol,
        "max_iter": sc.max_iter,
        "seed": sc.seed,
    }
    if sc.name:
        echo["name"] = sc.name
    if sc.sigma is not None:
        echo["sigma"] = {"name": sc.sigma.name, **{k: v for k, v in sc.sigma.params}, "c": sc.c}
    if sc.theorem:
        echo["theorem"] = sc.theorem
    return echo


def _cmd_validate(args, doc: ScenarioDoc):
    # Parsing validated the axioms: a table that breaks one raised MetricInvalid.
    return EXIT_OK, {"scenario": _scenario_echo(doc), "valid": True, "violations": []}


def _cmd_classify(args, doc: ScenarioDoc):
    sc = doc.scenario
    if sc.sigma is None:
        raise ValidationError("sigma", "classify needs a sigma section")
    matrix = classify(sc.sigma, doc.classify_c_values, seed=sc.seed)
    classes = {}
    for c, verdict in matrix.sigma_c:
        classes[f"sigma-c({c:g})"] = _class_dict(verdict)
    classes["simulation"] = _class_dict(matrix.simulation)
    classes["manageable"] = _class_dict(matrix.manageable)
    classes["r-function"] = _class_dict(matrix.r_function)
    classes["dollar"] = _class_dict(matrix.dollar)
    outcomes = [v["outcome"] for v in classes.values()]
    body = {"scenario": _scenario_echo(doc), "classes": classes}
    return _exit_code("falsified" in outcomes, "undetermined" in outcomes), body


def _class_dict(verdict) -> dict:
    out = {"outcome": verdict.outcome.value}
    if verdict.failing_axiom is not None:
        out["failing_axiom"] = verdict.failing_axiom.value
    if verdict.witness is not None:
        out["witness"] = witness_summary(verdict.witness, first_terms=8)
    if verdict.detail:
        out["detail"] = verdict.detail
    return out


def _cmd_check(args, doc: ScenarioDoc):
    sc = doc.scenario
    if doc.condition is None:
        raise ValidationError("check", "scenario has no check section")
    report = check_condition(sc.space, sc.t_map, sc.s_map, doc.condition, sc.mode, sc.tol)
    body = {
        "scenario": _scenario_echo(doc),
        "condition": doc.condition.describe(),
        **condition_summary(report),
    }
    return _exit_code(not report.holds), body


def _trace_summary(trace) -> dict:
    steps = list(trace.step_distances)
    cs = list(trace.c_sequence)
    summary = {
        "length": len(trace.points),
        "points_head": list(trace.point_labels()[:20]),
        "step_distances_head": steps[:20],
        "step_distances_tail": steps[-10:],
        "c_sequence_head": cs[:20],
        "c_sequence_tail": cs[-10:],
        "coincidence_index": trace.coincidence_index,
        "chain_broken_at": trace.chain_broken_at,
    }
    if trace.cycle is not None:
        summary["cycle"] = {
            "start": trace.cycle.start,
            "period": trace.cycle.period,
            "points": list(trace.cycle_labels()),
        }
    return summary


def _cmd_solve(args, doc: ScenarioDoc):
    sc = doc.scenario
    try:
        result = solve(
            sc.space, sc.t_map, sc.s_map, doc.solve_x0,
            policy=sc.policy, max_iter=sc.max_iter,
        )
    except NoClrBase as e:
        return EXIT_FALSIFIED, {"scenario": _scenario_echo(doc), "error": str(e)}
    body = {
        "scenario": _scenario_echo(doc),
        "result": solve_summary(result),
        "trace": _trace_summary(result.trace),
    }
    if len(result.trace.points) >= 2:
        diag = diagnose(result.trace, sc.space, sc.t_map, sc.s_map)
        body["diagnostics"] = vars(diag)
    falsified = result.kind in (SolveKind.CYCLE, SolveKind.CHAIN_BROKEN)
    return _exit_code(falsified, result.kind is SolveKind.BUDGET_EXHAUSTED), body


def _cmd_theorem(args, doc: ScenarioDoc):
    sc = doc.scenario
    if sc.theorem is None:
        raise ValidationError("theorem", "scenario has no theorem section")
    report = run_theorem(sc)
    body = {
        "scenario": _scenario_echo(doc),
        "theorem": report.theorem,
        "hypotheses": [vars(h) for h in report.hypotheses],
        "conclusion": vars(report.conclusion),
    }
    falsified = report.any_fails or not report.conclusion.match
    return _exit_code(falsified, not report.all_hold), body


def _cmd_reproduce(args):
    result = reproduce(args.target)
    body = {
        "example": result.example_id,
        "match": result.match,
        "mismatches": list(result.mismatches),
        "computed": result.computed,
        "golden": result.golden,
    }
    return _exit_code(not result.match), body


if __name__ == "__main__":
    raise SystemExit(main())

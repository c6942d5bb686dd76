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
from dataclasses import replace

from .conditions import PairMode, check_condition
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kannanlab",
        description="Fixed-point and coincidence-point checks on finite metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--mode", choices=["positive", "all"], help="pair sweep mode override")
        p.add_argument("--tol", type=float, help="tolerance override")
        p.add_argument("--max-iter", type=int, help="iteration cap override")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", help="also write the report to this path")

    for name, needs_file in (
        ("validate", True),
        ("classify", True),
        ("check", True),
        ("solve", True),
        ("theorem", True),
        ("reproduce", False),
    ):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="scenario file (JSON)")
        else:
            p.add_argument("example_id", help="builtin example id")
        add_common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        FileNotFoundError,
    ) as e:
        body = {"error": str(e)}
        code = EXIT_INPUT
    except MetricInvalid as e:
        body = {
            "valid": False,
            "violations": [_violation_dict(v) for v in e.violations],
        }
        code = EXIT_FALSIFIED

    out = document(args.command, body)
    text = render_json(out) if args.format == "json" else render_text(out)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return code


def _load(args) -> ScenarioDoc:
    doc = parse_scenario(args.file)
    sc = doc.scenario
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = (
            PairMode.POSITIVE_PAIRS if args.mode == "positive" else PairMode.ALL_ORDERED_PAIRS
        )
    if args.tol is not None:
        if args.tol < 0:
            raise ValidationError("tol", "must be >= 0")
        overrides["tol"] = args.tol
    if args.max_iter is not None:
        if args.max_iter < 1:
            raise ValidationError("max_iter", "must be a positive integer")
        overrides["max_iter"] = args.max_iter
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        sc = replace(sc, **overrides)
        doc = ScenarioDoc(sc, doc.condition, doc.solve_x0, doc.classify_c_values)
    return doc


def _violation_dict(v) -> dict:
    return {"kind": v.kind.value, "indices": list(v.indices), "values": list(v.values)}


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
    # Construction already validated the axioms; re-assert and report.
    violations = doc.scenario.space.violations()
    body = {
        "scenario": _scenario_echo(doc),
        "valid": not violations,
        "violations": [_violation_dict(v) for v in violations],
    }
    return (EXIT_OK if not violations else EXIT_FALSIFIED), body


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
    if "falsified" in outcomes:
        code = EXIT_FALSIFIED
    elif "undetermined" in outcomes:
        code = EXIT_UNDETERMINED
    else:
        code = EXIT_OK
    body = {"scenario": _scenario_echo(doc), "classes": classes}
    return code, body


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
    return (EXIT_OK if report.holds else EXIT_FALSIFIED), body


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
            policy=sc.policy, max_iter=sc.max_iter, tol=sc.tol,
        )
    except NoClrBase as e:
        return EXIT_FALSIFIED, {"scenario": _scenario_echo(doc), "error": str(e)}
    body = {
        "scenario": _scenario_echo(doc),
        "result": solve_summary(result),
        "trace": _trace_summary(result.trace),
    }
    if len(result.trace.points) >= 2:
        diag = diagnose(result.trace, sc.space, sc.t_map, sc.s_map, tol=sc.tol)
        body["diagnostics"] = {
            "asymptotically_regular": diag.asymptotically_regular,
            "step_tail": diag.step_tail,
            "s_bounded": diag.s_bounded,
            "s_diameter": diag.s_diameter,
            "s_cauchy": diag.s_cauchy,
            "final_c": diag.final_c,
            "s_asymptotically_similar": diag.s_asymptotically_similar,
            "similarity_tail": diag.similarity_tail,
        }
    if result.kind in (SolveKind.FIXED_POINT, SolveKind.COINCIDENCE_POINT):
        code = EXIT_OK
    elif result.kind is SolveKind.BUDGET_EXHAUSTED:
        code = EXIT_UNDETERMINED
    else:
        code = EXIT_FALSIFIED
    return code, body


def _cmd_theorem(args, doc: ScenarioDoc):
    sc = doc.scenario
    if sc.theorem is None:
        raise ValidationError("theorem", "scenario has no theorem section")
    report = run_theorem(sc)
    hypotheses = [
        {"name": h.name, "status": h.status.value, "evidence": h.evidence}
        for h in report.hypotheses
    ]
    body = {
        "scenario": _scenario_echo(doc),
        "theorem": report.theorem,
        "hypotheses": hypotheses,
        "conclusion": {
            "expected": report.conclusion.expected,
            "observed": report.conclusion.observed,
            "match": report.conclusion.match,
            "contradicted": report.conclusion.contradicted,
        },
    }
    if report.all_hold and report.conclusion.match:
        code = EXIT_OK
    elif report.any_fails or not report.conclusion.match:
        code = EXIT_FALSIFIED
    else:
        code = EXIT_UNDETERMINED
    return code, body


def _cmd_reproduce(args):
    result = reproduce(args.example_id)
    body = {
        "example": result.example_id,
        "match": result.match,
        "mismatches": list(result.mismatches),
        "computed": result.computed,
        "golden": result.golden,
    }
    return (EXIT_OK if result.match else EXIT_FALSIFIED), body


if __name__ == "__main__":
    raise SystemExit(main())

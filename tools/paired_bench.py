"""Run one perfbench workload on two checkouts in alternating pairs and
compare them seed by seed.

Usage, from the repository root:

    python3 tools/paired_bench.py PARENT CHANGE --workload sweep-many \\
        --seeds 2801-2810 [--seconds 26] [--json BENCH_n.json]

PARENT and CHANGE are two checkouts, each with its own ``perfbench/run.py``
and ``src/``.  For each seed both run ``perfbench/run.py --workload W --seed
S --seconds X --trace 0`` in their own directory, one after the other: the
parent first at the first, third, ... seed, the change first at the others.
Then, for each end-to-end metric of ``BENCHMARK.json``, it prints the
change/parent ratio per seed, how many pairs the change wins, and each
side's median and quartiles; and whether the change's median is better than
the parent's by more than the parent's quartile spread.  ``--json`` writes
the runs and these figures to a file.  Neither checkout is changed, apart
from what perfbench itself writes under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"3,7-9"`` -> ``[3, 7, 8, 9]``: comma-separated seeds and ranges."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``, by the
    default (exclusive) method of :func:`statistics.quantiles`; a single
    value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The paired comparison of one metric: ``parent[k]`` and ``change[k]``
    are the two runs of pair k, and ``better`` is ``"higher"`` or
    ``"lower"``.  A pair is won when the change is strictly better; the gain
    clears the spread when the medians differ, the change's way, by more
    than the parent's quartile spread."""
    sign = 1.0 if better == "higher" else -1.0
    sides = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
    gain = sign * (sides["change"]["median"] - sides["parent"]["median"])
    return {
        **sides,
        "per_seed_ratio": [c / p if p else float("nan") for p, c in zip(parent, change)],
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "clears_spread": gain > sides["parent"]["q3"] - sides["parent"]["q1"],
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: the JSON object of its last line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            results[side].append(run_side(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {k + 1}, seed {seed}: {order[0]} first", file=sys.stderr)

    report = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
              "pairs": len(args.seeds), "metrics": {}}
    for side in SIDES:
        report[f"{side}_failed_share"] = [r["failed"] / r["attempted"] for r in results[side]]
        report[f"{side}_correct"] = all(r["correct"] for r in results[side])
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {len(args.seeds)} pairs, "
          f"--seconds {args.seconds:g}")
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        runs = [[r["metrics"][name]["value"] for r in results[side]] for side in SIDES]
        row = compare(*runs, metric["better"])
        report["metrics"][name] = row
        p, c = row["parent"], row["change"]
        print(f"{name} ({metric['better']} is better): change wins {row['change_better_pairs']}"
              f" of {len(args.seeds)}; ratios "
              + " ".join(f"{x:.3f}" for x in row["per_seed_ratio"]))
        print(f"  parent median {p['median']:.6g} (q1 {p['q1']:.6g}, q3 {p['q3']:.6g}); change "
              f"median {c['median']:.6g} (q1 {c['q1']:.6g}, q3 {c['q3']:.6g}); gain clears the "
              f"parent's spread: {row['clears_spread']}")
    for side in SIDES:
        shares = sorted(set(report[f"{side}_failed_share"]))
        print(f"{side}: failed share {', '.join(f'{s:.6g}' for s in shares)}; "
              f"correct {report[f'{side}_correct']}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

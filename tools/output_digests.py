"""Print one sha256 digest per benchmark output, to compare two commits.

Usage, from the repository root:

    python3 tools/output_digests.py > digests.txt

It builds every workload's operations of ``perfbench/workloads.py`` at
seeds 1-3, with the scenario files in a temporary directory, and runs each
operation once.  A CLI call's digest covers its exit code and stdout; a
direct call's covers the ``repr`` of its result.  Then it runs
``reproduce`` of every catalog id in both formats, and evaluates each
profiled gallery parametrisation of ``tests/eval_grid.py`` on its fixed
grid; that digest covers ``float.hex`` of each value, so it pins signed
zeros too.  Each line reads ``<sha256>  <workload> <seed> <index> <label>``.
Two commits whose outputs agree print the same lines.  The script imports
only public names of the package, so it can be run against an older
``src/`` by copying it, with ``tests/eval_grid.py``, into that checkout.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from eval_grid import GRID, PARAMETRISATIONS  # noqa: E402
from oracles import CliCase  # noqa: E402
from workloads import SIZES, WORKLOADS, ScenarioFiles, run_cli  # noqa: E402

from kannanlab import gallery  # noqa: E402
from kannanlab.builtins import EXAMPLE_IDS  # noqa: E402

SEEDS = (1, 2, 3)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_text(result: tuple[int, str]) -> str:
    code, stdout = result
    return f"{code}\n{stdout}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in WORKLOADS.items():
            for seed in SEEDS:
                files = ScenarioFiles(Path(tmp) / f"{name}-{seed}")
                ops = build(seed, files, SIZES[name])
                files.write()
                for index, op in enumerate(ops):
                    result = op.call()
                    text = cli_text(result) if isinstance(op.case, CliCase) else repr(result)
                    print(f"{digest(text)}  {name} {seed} {index} {op.label}")
    for example_id in EXAMPLE_IDS:
        for fmt in ("json", "text"):
            text = cli_text(run_cli(["reproduce", example_id, "--format", fmt]))
            print(f"{digest(text)}  reproduce - {fmt} {example_id}")
    for name, params in PARAMETRISATIONS:
        ev = gallery(name, **params).eval
        text = "\n".join(ev(t, s).hex() for t, s in GRID)
        label = ",".join(f"{key}={value!r}" for key, value in params.items()) or "-"
        print(f"{digest(text)}  eval - {name} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

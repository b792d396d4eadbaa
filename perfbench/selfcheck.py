"""
The benchmark's own check: every workload at minimal length.

    python3 perfbench/selfcheck.py

For each workload it runs run.py untraced with two different seeds and once
traced, each with --seconds 1, and checks that

- every run exits 0 and reports correct=true with no failed op;
- every metric named in BENCHMARK.json is printed with its unit;
- the quality totals and the outputs digest repeat exactly across the two
  untraced runs (they are deterministic and do not depend on the seed).

The cli workload still runs until p90 has ten samples beyond it, so the
whole check takes a few minutes.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "tables", "compare", "cli")
DETERMINISTIC = ("n2_total", "wtqc_total", "xc_total", "outputs_digest")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict[str, str]]:
    """The final JSON object and the `name = value ...` lines of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep:
            printed[name] = rest
    return json.loads(lines[-1]), printed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        runs = [run(workload, seed, 0) for seed in (1, 2)] + [run(workload, 1, 1)]
        for (result, printed), trace in zip(runs, (0, 0, 1)):
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                if result["metrics"].get(name, {}).get("unit") != unit:
                    problems.append(f"{workload}: {name} missing from the JSON result")
                if not printed.get(name, "").endswith(f" {unit}"):
                    problems.append(f"{workload}: {name} not printed with unit {unit}")
        for key in DETERMINISTIC:
            first, second = (printed.get(key) for _, printed in runs[:2])
            if first is None or first != second:
                problems.append(f"{workload}: {key} differs between runs: {first} vs {second}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

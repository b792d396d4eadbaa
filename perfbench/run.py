"""
The blochsynth benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/blochsynth``.  With
``--trace 0`` it prints every end-to-end metric named in BENCHMARK.json; with
``--trace 1`` every per-layer metric.  Each line before the last names one
value with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op passed its output check.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from workloads import SRC, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170

# The layer each workload was predicted to spend most of its time in.
PREDICTED = {
    "catalog": "synthesis.solve_phase_system",
    "tables": "synthesis.solve_phase_system",
    "compare": "transpile",
    "cli": "start-up + import",
}


def run_workload(argv: list[str]) -> str | None:
    """Run the workload process; on a timeout kill it and every CLI call it started."""
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"error: workload process ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
    if child.returncode != 0 or not stdout.strip():
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return None
    return stdout


def dominant(workload: str, values: dict) -> str:
    """The measured counterpart of PREDICTED."""
    if workload == "cli":
        start = values["cli.start_ms"]
        return "start-up + import" if start >= values["cli.command_ms"] else "command"
    busy = {k[:-len(".busy_ms")]: v for k, v in values.items()
            if k.endswith(".busy_ms") and not k.startswith("cli.")}
    if workload == "compare":
        modules: dict[str, float] = {}
        for name, ms in busy.items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + ms
        busy = modules
    return max(busy, key=busy.get)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "tables", "compare", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blochsynth" / "__init__.py").is_file():
        print(f"error: no blochsynth sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    workdir = WORKDIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stdout = run_workload(
        [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir)])
    if stdout is None:
        return 1
    values = json.loads(stdout.splitlines()[-1])

    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    report = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}

    attempted, failed = values["attempted"], values["failed"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, entry in report.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if args.trace:
        print(f"traced_passes = {values['traced_passes']}, "
              f"counts repeat across passes: {values['counts_repeat']}")
        measured = dominant(args.workload, values)
        verdict = "agrees" if measured == PREDICTED[args.workload] else "DISAGREES"
        print(f"dominant layer = {measured} (predicted {PREDICTED[args.workload]}: {verdict})")
    else:
        print(f"samples = {values['samples']} ({values['beyond_p90']} beyond p90)")
        print(f"xc_total = {values['xc_total']} count")
        print(f"outputs_digest = {values['outputs_digest']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

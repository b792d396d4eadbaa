"""
One benchmark workload, run in a fresh single-threaded process.

    python3 perfbench/workloads.py --workload catalog --seed 1 --seconds 20 \
        --trace 0 --workdir .perfbench_work/catalog

run.py starts this with the thread pools pinned to one thread and the
absolute ``src`` path on PYTHONPATH.  The last line of standard output is one
JSON object with the measured values; problems go to standard error.

Every op is checked after its pass, outside the timed passes: the equator
tracker must give the truth table computed from this file's own Boolean
definitions, and a digest of the emitted circuit text and (N1, N2, XC, D)
must match the digest recorded in golden.json.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import NARROW_ATTEMPTS, NARROW_HITS, Tracer, zero_layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

MIN_SAMPLES = 100       # p90 then has at least ten samples beyond it
HARD_CAP_S = 120.0      # stop timing here whatever the sample count
TRACE_MIN_PASSES = 2
PROBE_REPS = 7
SETUP_REPS = 20         # set-up processes per untraced run, spread over the run
CLI_TIMEOUT_S = 60

# What a user's process does before its first op: import the package and load
# the bundled layouts.
SETUP_CODE = """\
import blochsynth
from blochsynth.cli import parse_bundled
parse_bundled("ibm_torino")
parse_bundled("star5")
"""

# The benchmark's own Boolean operators; bits[0] is control 1.
BOOLEAN = {
    "toffoli": all,
    "and": all,
    "nand": lambda bits: not all(bits),
    "or": any,
    "nor": lambda bits: not any(bits),
    "implication": lambda bits: (not bits[0]) or bits[1],
    "inhibition": lambda bits: bits[0] and not bits[1],
}

# Truth tables for the tables workload come from fixed pools so that each one
# has a recorded digest: every table for n <= 4 and a sample of n = 5 tables.
TABLE_POOL_SEED = 20260101
N5_POOL_SIZE = 512
# Tables per size n in each pass of the timed stream.  The n = 5 tables are
# the solver's widen path, the reason for this workload, so they are the
# majority: p50 and p90 both lie inside the n = 5 group.  (With the four
# sizes equally often, the median falls exactly between the n = 3 and n = 4
# latencies and measures the gap between them; millisecond-scale ops also
# drift more with machine load than the n = 5 ops do.)
TABLES_PER_PASS = {2: 1, 3: 1, 4: 1, 5: 5}
FIXED_PER_SIZE = 16     # per size (at most) in the fixed warm-up pass

CLI_COMMANDS = (
    (("synth-toffoli-3", ("synth", "--op", "toffoli", "--n", "3")),),
    (("synth-and-4-out", ("synth", "--op", "and", "--n", "4", "--out", "and4.bsc")),
     ("verify-and-4", ("verify", "and4.bsc", "--op", "and", "--n", "4"))),
    (("trace-and-2", ("trace", "--op", "and", "--n", "2")),),
    (("cost-and-3", ("cost", "--op", "and", "--n", "3", "--layout", "ibm_torino")),),
    (("compare-and-3", ("compare", "--op", "and", "--n", "3", "--layout", "ibm_torino")),),
    (("synth-and-5", ("synth", "--op", "and", "--n", "5")),),
    (("compare-and-5", ("compare", "--op", "and", "--n", "5", "--layout", "ibm_torino")),),
)

STARTUP_PROBES = (
    ("cli.interpreter_ms", "pass"),
    ("cli.numpy_import_ms", "import numpy"),
    ("cli.package_import_ms", "import blochsynth.cli"),
)


def truth_table(kind: str, n_controls: int) -> tuple[bool, ...]:
    fn = BOOLEAN[kind]
    return tuple(bool(fn([bool(m >> i & 1) for i in range(n_controls)]))
                 for m in range(2 ** n_controls))


def table_pools() -> dict[int, list[int]]:
    """Table codes per size n; bit x of a code is the output for control input x."""
    rng = random.Random(TABLE_POOL_SEED)
    pools = {n: rng.sample(range(2 ** 2 ** (n - 1)), 2 ** 2 ** (n - 1)) for n in (2, 3, 4)}
    pools[5] = rng.sample(range(2 ** 16), N5_POOL_SIZE)
    return pools


def table_outputs(n: int, code: int) -> tuple[bool, ...]:
    return tuple(bool(code >> x & 1) for x in range(2 ** (n - 1)))


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def child_env() -> dict[str, str]:
    """Single-threaded numeric libraries and the absolute src path on PYTHONPATH."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_process(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run, killing the process after CLI_TIMEOUT_S.

    subprocess.run's own timeout waits by polling with sleeps of up to 50 ms,
    which would round every measured process time up to that step.
    """
    with subprocess.Popen(argv, env=child_env(), **kwargs) as proc:
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


class Library:
    """The blochsynth modules and bundled layouts; building one is the set-up."""

    def __init__(self):
        import blochsynth
        from blochsynth import baselines, cli, cost, synthesis, textio, tracker
        self.package = blochsynth
        self.baselines, self.cli, self.cost = baselines, cli, cost
        self.synthesis, self.textio, self.tracker = synthesis, textio, tracker
        self.torino = cli.parse_bundled("ibm_torino")
        self.star5 = cli.parse_bundled("star5")

    def bundled_layout(self, n: int):
        return self.star5 if n == 5 else self.torino

    def pairs(self) -> list[tuple[str, int]]:
        return [(kind, n) for kind, sizes in self.synthesis.OPERATOR_RANGES.items()
                for n in sizes]

    def tracker_problems(self, circuit, expected: tuple[bool, ...]) -> list[str]:
        problems = []
        for mask, want in enumerate(expected):
            got = self.tracker.trace(circuit, mask)
            if not got.closed or got.output is not want:
                problems.append(f"tracker input {mask}: got {got.output}, want {want}")
        return problems

    def outcome(self, key, circuits, reports, problems):
        """(key, digest, (n2, xc, wtqc), problems) for an in-process op."""
        text = "".join(self.textio.emit_circuit(c) for c in circuits)
        text += "".join(f"{r.n1},{r.n2},{r.xc},{r.d}\n" for r in reports)
        quality = (sum(r.n2 for r in reports), sum(r.xc for r in reports),
                   sum(r.n1 + r.n2 + r.xc + r.d for r in reports))
        return key, digest_text(text), quality, problems


class Catalog:
    """synth_detailed then cost_pipeline on the bundled layout, every (operator, n)."""

    def __init__(self, lib: Library):
        self.lib = lib
        self.items = lib.pairs()

    def fixed_pass(self):
        return list(self.items)

    def passes(self, rng: random.Random):
        """Every pair once and the n >= 4 pairs a second time, in seeded order.

        With every pair once, half the pairs are n <= 3 and the median falls
        in the gap between the n = 3 and n = 4 latencies (6 ms against 13 ms
        on compare), so it jumped between them from run to run.  With the
        n >= 4 pairs twice, p50 lies inside the n = 4 group and p90 inside
        the n = 5 group.
        """
        while True:
            items = self.items + [(kind, n) for kind, n in self.items if n >= 4]
            rng.shuffle(items)
            yield items

    def run(self, item):
        kind, n = item
        result = self.lib.synthesis.synth_detailed(kind, n)
        report = self.lib.cost.cost_pipeline(result.circuit, self.lib.bundled_layout(n))
        return (result.circuit,), (report,)

    def check(self, item, output):
        kind, n = item
        circuits, reports = output
        problems = []
        if kind in BOOLEAN:
            problems = self.lib.tracker_problems(circuits[0], truth_table(kind, n - 1))
        return self.lib.outcome(f"{kind}/{n}", circuits, reports, problems)


class Compare(Catalog):
    """Template and textbook circuits of every (operator, n), both costed on ibm_torino.

    The tracker checks the template circuit; the textbook one acts on control
    wires and is checked by its digest alone.
    """

    def run(self, item):
        kind, n = item
        bsa = self.lib.synthesis.synth_detailed(kind, n).circuit
        naive = self.lib.baselines.naive_synth(kind, n)
        reports = tuple(self.lib.cost.cost_pipeline(c, self.lib.torino) for c in (bsa, naive))
        return (bsa, naive), reports


class Tables:
    """synth_table then cost_pipeline on seeded truth tables of n = 2..5 qubits."""

    def __init__(self, lib: Library):
        self.lib = lib
        self.pools = table_pools()

    def fixed_pass(self):
        return [(n, code) for n, pool in self.pools.items() for code in pool[:FIXED_PER_SIZE]]

    def passes(self, rng: random.Random):
        orders = {}
        for n, pool in self.pools.items():
            orders[n] = list(pool)
            rng.shuffle(orders[n])
        position = dict.fromkeys(orders, 0)
        while True:
            items = []
            for n, order in orders.items():
                items += [(n, order[(position[n] + k) % len(order)])
                          for k in range(TABLES_PER_PASS[n])]
                position[n] += TABLES_PER_PASS[n]
            rng.shuffle(items)
            yield items

    def run(self, item):
        n, code = item
        result = self.lib.synthesis.synth_table(table_outputs(n, code))
        report = self.lib.cost.cost_pipeline(result.circuit, self.lib.bundled_layout(n))
        return (result.circuit,), (report,)

    def check(self, item, output):
        n, code = item
        circuits, reports = output
        problems = self.lib.tracker_problems(circuits[0], table_outputs(n, code))
        return self.lib.outcome(f"{n}:{code:x}", circuits, reports, problems)


class Cli:
    """The README invocations plus two n = 5 commands, one subprocess each."""

    OUT_FILE = "and4.bsc"

    def __init__(self, lib: Library, workdir: Path):
        self.lib = lib
        self.workdir = workdir
        self.in_process = False

    def fixed_pass(self):
        return [cmd for group in CLI_COMMANDS for cmd in group]

    def passes(self, rng: random.Random):
        """Every command group once and compare-and-5 a second time, in seeded order.

        With every command once, the slowest command is one op in eight and
        p90 fell just inside its group, jumping between it and synth-and-5
        from run to run.  Twice puts p90 well inside the compare-and-5 group.
        """
        while True:
            groups = list(CLI_COMMANDS) + [CLI_COMMANDS[-1]]
            rng.shuffle(groups)
            yield [cmd for group in groups for cmd in group]

    def run(self, item):
        _, argv = item
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        proc = run_process([sys.executable, "-m", "blochsynth.cli", *argv], cwd=self.workdir,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, output):
        label, argv = item
        code, stdout, stderr = output
        problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[:200]}"]
        out_file = self.workdir / self.OUT_FILE
        text = stdout
        if "--out" in argv:
            text += out_file.read_text()
        elif argv[0] == "verify":
            out_file.unlink()
        kind, n = argv[argv.index("--op") + 1], int(argv[argv.index("--n") + 1])
        if argv[0] == "synth":
            circuit = self.lib.textio.parse_circuit(text)
            problems += self.lib.tracker_problems(circuit, truth_table(kind, n - 1))
        elif argv[0] == "trace":
            problems += _trace_table_problems(stdout, truth_table(kind, n - 1))
        return label, digest_text(text), _printed_quality(argv[0], stdout), problems


def _trace_table_problems(text: str, expected: tuple[bool, ...]) -> list[str]:
    rows = text.splitlines()[2:]
    got = tuple(row.split()[-1] == "True" for row in rows)
    return [] if got == expected else [f"trace table outputs {got}, want {expected}"]


def _printed_quality(command: str, stdout: str) -> tuple[int, int, int]:
    """(n2, xc, wtqc) summed over the reports a cost or compare command prints."""
    totals = {"n2": 0, "xc": 0, "wtqc": 0}
    for line in stdout.splitlines():
        if command == "cost" and "=" in line:
            name, _, value = line.partition("=")
            if name in totals:
                totals[name] += int(float(value))
        elif command == "compare":
            cells = line.split()
            if cells and cells[0] in totals:
                totals[cells[0]] += sum(int(float(v)) for v in cells[1:])
    return totals["n2"], totals["xc"], totals["wtqc"]


class Runner:
    """Runs the ops of a pass back to back, then checks their outputs."""

    def __init__(self, workload, golden: dict[str, str]):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, items, tracer=None) -> tuple[int, list]:
        """Wall ns of the pass, and (item, elapsed ns, output) for each op that returned.

        With a tracer, each op gets its own id.
        """
        done = []
        start = time.perf_counter_ns()
        for k, item in enumerate(items):
            if tracer is not None:
                tracer.op = k
            self.attempted += 1
            op_start = time.perf_counter_ns()
            try:
                output = self.workload.run(item)
            except Exception as exc:
                self._fail(item, [f"raised {exc!r}"])
                continue
            done.append((item, time.perf_counter_ns() - op_start, output))
        return time.perf_counter_ns() - start, done

    def check_pass(self, done) -> list[tuple[int, str, str, tuple]]:
        """(elapsed ns, key, digest, quality) for each op whose output passed its checks."""
        passed = []
        for item, elapsed, output in done:
            try:
                key, digest, quality, problems = self.workload.check(item, output)
            except Exception as exc:
                self._fail(item, [f"check raised {exc!r}"])
                continue
            if self.golden.get(key) != digest:
                problems = problems + [f"digest {digest} != recorded {self.golden.get(key)}"]
            if problems:
                self._fail(item, problems)
            else:
                passed.append((elapsed, key, digest, quality))
        return passed

    def _fail(self, item, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item}: {'; '.join(problems)}")


def quality(passed) -> dict:
    """Quality totals and the outputs digest over the distinct inputs of one pass."""
    totals = [0, 0, 0]
    digests = {}
    for _, key, digest, values in passed:
        if key not in digests:
            digests[key] = digest
            for k, value in enumerate(values):
                totals[k] += value
    return {"n2_total": totals[0], "xc_total": totals[1], "wtqc_total": totals[2],
            "outputs_digest": digest_text("\n".join(f"{k}={v}" for k, v in sorted(digests.items())))}


def fresh_process_s(code: str, reps: int = 1) -> list[float]:
    """Wall seconds of each of `reps` fresh `python -c code` processes, run one after another."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        run_process([sys.executable, "-c", code], stdout=subprocess.DEVNULL).check_returncode()
        times.append(time.perf_counter() - start)
    return times


def timed_run(runner: Runner, passes, seconds: float, first_pass_quality: bool) -> dict:
    """Whole passes until `seconds` of passes have run and p90 has ten samples beyond it.

    The set-up probes run between passes, spread over the run, outside the
    passes' wall time.
    """
    ms, setup = [], []
    result = {}
    pass_ns = 0
    attempted = runner.attempted
    for items in passes:
        elapsed, done = runner.run_pass(items)
        pass_ns += elapsed
        passed = runner.check_pass(done)
        if first_pass_quality and not result:
            result.update(quality(passed))
        ms += [ns / 1e6 for ns, *_ in passed]
        share = min(1.0, pass_ns / 1e9 / seconds)
        while len(setup) < SETUP_REPS * share:
            setup += fresh_process_s(SETUP_CODE)
        enough = runner.attempted - attempted >= MIN_SAMPLES
        if pass_ns / 1e9 >= HARD_CAP_S or (pass_ns / 1e9 >= seconds and enough):
            break
    setup += fresh_process_s(SETUP_CODE, SETUP_REPS - len(setup))
    samples = len(ms)
    ms = ms or [0.0]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    result.update({
        "ops_per_s": samples / (pass_ns / 1e9),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "samples": samples,
        "beyond_p90": sum(1 for v in ms if v > p90),
        "setup_s": statistics.median(setup),
    })
    return result


def startup_probes(reps: int) -> dict[str, float]:
    """Interpreter start, numpy import and package import, from fresh processes."""
    walls: dict[str, list[float]] = {name: [] for name, _ in STARTUP_PROBES}
    for _ in range(reps):
        for name, code in STARTUP_PROBES:
            walls[name] += fresh_process_s(code)
    medians = [statistics.median(walls[name]) * 1e3 for name, _ in STARTUP_PROBES]
    return {
        "cli.interpreter_ms": medians[0],
        "cli.numpy_import_ms": medians[1] - medians[0],
        "cli.package_import_ms": medians[2] - medians[1],
        "cli.start_ms": medians[2],
    }


def traced_run(runner: Runner, lib: Library, items, seconds: float, workdir: Path,
               name: str) -> dict:
    """Alternate untraced and traced passes over the same fixed inputs."""
    tracer = Tracer(lib.package)
    untraced, traced, busy, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed, done = runner.run_pass(items)
        runner.check_pass(done)
        untraced.append(elapsed)
        with tracer:
            first = tracer.begin_pass()
            elapsed, done = runner.run_pass(items, tracer)
            pass_busy, pass_counts = tracer.end_pass(first)
        runner.check_pass(done)
        traced.append(elapsed)
        busy.append(pass_busy)
        counts.append(pass_counts)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(traced) >= TRACE_MIN_PASSES):
            break
    tracer.write(workdir / f"{name}-spans.tsv")
    layers = zero_layers()
    layers.update(counts[0])
    for key in {k for b in busy for k in b}:
        layers[f"{key}.busy_ms"] = statistics.median(b.get(key, 0.0) for b in busy)
    attempts = layers[NARROW_ATTEMPTS]
    layers["synthesis.narrow_hit_ratio"] = layers[NARROW_HITS] / attempts if attempts else 0.0
    layers["untraced_pass_ms"] = statistics.median(untraced) / 1e6
    layers["trace_overhead"] = statistics.median(traced) / 1e6 - layers["untraced_pass_ms"]
    layers["traced_passes"] = len(traced)
    layers["counts_repeat"] = all(c == counts[0] for c in counts)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "tables", "compare", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    lib = Library()

    golden = json.loads(GOLDEN.read_text())[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli":
        os.chdir(args.workdir)
        workload = Cli(lib, args.workdir)
    else:
        workload = {"catalog": Catalog, "tables": Tables, "compare": Compare}[args.workload](lib)
    runner = Runner(workload, golden)

    result = {}
    if args.workload != "cli":
        # The warm-up pass, over the fixed inputs.
        result.update(quality(runner.check_pass(runner.run_pass(workload.fixed_pass())[1])))
    if args.trace:
        result.update(startup_probes(PROBE_REPS))
        items = workload.fixed_pass()
        if args.workload == "cli":
            workload.in_process = True
        result.update(traced_run(runner, lib, items, args.seconds, args.workdir, args.workload))
        # The command's share of a call: cli.main(argv) run in process, untraced.
        # The in-process workloads make no CLI call.
        result["cli.command_ms"] = (result["untraced_pass_ms"] / len(items)
                                    if args.workload == "cli" else 0.0)
    else:
        result.update(timed_run(runner, workload.passes(rng), args.seconds,
                                first_pass_quality=args.workload == "cli"))
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024

    result.update(attempted=runner.attempted, failed=runner.failed)
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

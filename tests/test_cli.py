"""CLI subcommands: golden outputs, exit codes, and determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochsynth
from blochsynth import synthesis
from blochsynth.cli import main, parse_bundled

AND3_TEXT = """\
# op: and
# n: 3
# thetas: -1/4 1/4 -1/4 1/4
# ax2: I
qubits 3
h 1
tdg 1
cx 2 1
t 1
cx 0 1
tdg 1
cx 2 1
t 1
h 1
"""

COST_AND3_TORINO = """\
op=and
n=3
layout=ibm_torino
mapping=0,1,2
n1=20
n2=3
xc=0
d=23
weights=1,1,1,1
wtqc=46
deviation=n1: ours=20 reference=34
deviation=d: ours=23 reference=29
"""

COMPARE_AND3 = """\
op=and
n=3
layout=ibm_torino
weights=1,1,1,1
metric  bsa  naive
n1      20   37
n2      3    6
xc      0    1
d       23   53
wtqc    46   97
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_synth_golden(capsys):
    rc, out, err = run(capsys, "synth", "--op", "and", "--n", "3")
    assert rc == 0 and err == ""
    assert out == AND3_TEXT


def test_synth_table_golden(capsys):
    rc, out, _ = run(capsys, "synth", "--table", "0,1,1,0")
    assert rc == 0
    assert out.startswith("# op: table 0,1,1,0\n# n: 3\n# thetas: 0 -1/2 0 1/2\n")
    assert "sdg 1" in out


def test_synth_writes_a_file(capsys, tmp_path):
    path = tmp_path / "and3.txt"
    rc, out, _ = run(capsys, "synth", "--op", "and", "--n", "3", "--out", str(path))
    assert rc == 0 and out == ""
    assert path.read_text() == AND3_TEXT


def test_synth_usage_errors(capsys):
    rc, _, err = run(capsys, "synth", "--op", "and", "--n", "3", "--table", "0,1")
    assert rc == 2 and "mutually exclusive" in err
    rc, _, err = run(capsys, "synth", "--n", "3")
    assert rc == 2 and "--op and --n are required" in err
    rc, _, err = run(capsys, "synth", "--op", "and", "--n", "9")
    assert rc == 2 and "supports n in" in err
    for bits in ("0,0,0,2", "0,0,0,-1"):
        rc, out, err = run(capsys, "synth", "--table", bits)
        assert rc == 2 and out == "" and err == (
            f"error: --table expects comma-separated 0/1 bits, got '{bits}'\n")
    rc, out, err = run(capsys, "synth", "--table", "0,0,0,1", "--n", "5")
    assert rc == 2 and out == "" and "mutually exclusive" in err
    with pytest.raises(SystemExit):
        main(["synth", "--op", "parity", "--n", "3"])


def test_empty_option_strings_are_usage_errors(capsys, tmp_path, monkeypatch):
    # An empty string is a given value, not an absent option: each call exits
    # 2 with one line naming the option, and writes nothing.
    monkeypatch.chdir(tmp_path)
    cases = (
        (("synth", "--op", "and", "--n", "3", "--table", ""),
         "--op and --table are mutually exclusive"),
        (("synth", "--table", ""), "--table expects comma-separated 0/1 bits, got ''"),
        (("synth", "--op", "and", "--n", "3", "--out", ""), "--out expects a file name, got ''"),
        (("trace", "--op", "and", "--n", "3", "--out", ""), "--out expects a file name, got ''"),
        (("cost", "--op", "and", "--n", "3", "--layout", ""),
         "layout '' is neither a file nor a bundled name"),
        (("cost", "--op", "and", "--n", "3", "--heavy-hex", ""), "--heavy-hex expects RxC, got ''"),
        (("compare", "--op", "and", "--n", "3", "--basis", ""),
         "--basis expects a file name, got ''"),
        (("verify", "", "--op", "and", "--n", "3"), "circuit expects a file name, got ''"),
        (("trace", ""), "circuit expects a file name, got ''"),
        (("cost", ""), "circuit expects a file name, got ''"),
    )
    for argv, message in cases:
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_verify_pass_and_fail(capsys, tmp_path):
    path = tmp_path / "c.txt"
    assert run(capsys, "synth", "--op", "and", "--n", "3", "--out", str(path))[0] == 0
    rc, out, _ = run(capsys, "verify", str(path), "--op", "and", "--n", "3")
    assert rc == 0
    assert out == f"op=and\nn=3\ncircuit={path}\nverdict=PASS\n"
    rc, out, _ = run(capsys, "verify", str(path), "--op", "or", "--n", "3")
    assert rc == 1
    assert "verdict=FAIL" in out and "reason=truth table mismatch" in out
    rc, out, _ = run(capsys, "verify", str(path), "--op", "and", "--n", "4")
    assert rc == 1 and "reason=circuit has 3 qubits, expected 4" in out
    rc, out, _ = run(capsys, "verify", str(path), "--op", "implication", "--n", "4")
    assert rc == 1 and "reason=implication supports n in [3]\n" in out


def test_verify_relative_phase_operators(capsys, tmp_path):
    for op, n in (("cv", 2), ("cvdg", 2), ("fredkin", 3), ("miller", 4)):
        path = tmp_path / f"{op}{n}.txt"
        run(capsys, "synth", "--op", op, "--n", str(n), "--out", str(path))
        rc, out, _ = run(capsys, "verify", str(path), "--op", op, "--n", str(n))
        assert rc == 0 and "verdict=PASS" in out, (op, n)
    cv = tmp_path / "cv2.txt"
    rc, out, _ = run(capsys, "verify", str(cv), "--op", "cvdg", "--n", "2")
    assert rc == 1 and out.endswith(
        "verdict=FAIL\nreason=unitary does not match the operator up to relative phase\n")
    rc, out, _ = run(capsys, "verify", str(cv), "--op", "and", "--n", "2")
    assert rc == 1 and "reason=not a Boolean operator: input row 1 leaves target" in out


def test_wrong_design_is_an_internal_error(capsys, monkeypatch):
    right = synthesis.OPERATORS["and"]
    wrong = synthesis.Operator(right.sizes, lambda kind, n: synthesis.synth_detailed("nor", n),
                               right.columns, right.inverted, right.complemented)
    monkeypatch.setitem(synthesis.OPERATORS, "and", wrong)
    with pytest.raises(synthesis.SynthVerificationError,
                       match=r"^and\(3\): truth table mismatch$"):
        synthesis.synth("and", 3)
    rc, out, err = run(capsys, "synth", "--op", "and", "--n", "3")
    assert rc == 3 and out == ""
    assert err == "internal error: and(3): truth table mismatch\n"


def test_trace_golden(capsys):
    rc, out, _ = run(capsys, "trace", "--op", "toffoli", "--n", "3")
    assert rc == 0
    assert out == (
        "controls  SP1  θ1(T†)  CNOT(c2)  θ2(T)  CNOT(c1)  θ3(T†)  CNOT(c2)  θ4(T)  SP2  output\n"
        "--------------------------------------------------------------------------------------\n"
        "|00⟩      0    7π/4    –         0      –         7π/4    –         0      |0⟩  False\n"
        "|01⟩      0    7π/4    –         0      0         7π/4    –         0      |0⟩  False\n"
        "|10⟩      0    7π/4    π/4       π/2    –         π/4     7π/4      0      |0⟩  False\n"
        "|11⟩      0    7π/4    π/4       π/2    3π/2      5π/4    3π/4      π      |1⟩  True\n")


def test_trace_from_file_uses_derived_labels(capsys, tmp_path):
    path = tmp_path / "c.txt"
    run(capsys, "synth", "--op", "and", "--n", "3", "--out", str(path))
    rc, out, _ = run(capsys, "trace", str(path))
    assert rc == 0
    header = out.splitlines()[0]
    assert header.split() == ["controls", "SP1", "θ(T†)", "CNOT(c2)", "θ(T)",
                              "CNOT(c1)", "θ(T†)", "CNOT(c2)", "θ(T)",
                              "SP2", "output"]
    assert len(out.splitlines()) == 6    # header, rule, four rows


def test_trace_rejects_wide_files(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("qubits 30\nh 0\n")
    rc, out, err = run(capsys, "trace", str(path))
    assert rc == 2 and out == ""
    assert err == "error: trace table supports at most 10 qubits, got 30\n"


def test_trace_rejects_composites(capsys):
    rc, _, err = run(capsys, "trace", "--op", "fredkin", "--n", "3")
    assert rc == 2 and "no single-template trace" in err


def test_cost_golden(capsys):
    rc, out, _ = run(capsys, "cost", "--op", "and", "--n", "3",
                     "--layout", "ibm_torino")
    assert rc == 0 and out == COST_AND3_TORINO


def test_cost_without_layout(capsys):
    rc, out, _ = run(capsys, "cost", "--op", "and", "--n", "3")
    assert rc == 0
    assert "layout=" not in out and "mapping=" not in out
    assert "xc=0" in out and "wtqc=46" in out


def test_cost_heavy_hex_matches_bundled_torino(capsys):
    _, bundled, _ = run(capsys, "cost", "--op", "and", "--n", "4",
                        "--layout", "ibm_torino")
    _, generated, _ = run(capsys, "cost", "--op", "and", "--n", "4",
                          "--heavy-hex", "6x3")
    assert generated.replace("heavy_hex_6x3", "ibm_torino") == bundled
    assert "mapping=3,5,4,16" in bundled


@pytest.mark.parametrize("size", ["65x65", "65x1", "1x65"])
def test_heavy_hex_above_the_size_bound_is_a_usage_error(capsys, monkeypatch, size):
    # Rejected with one line before any edge is generated.
    monkeypatch.setattr(blochsynth.layout, "make_layout", None)
    rc, out, err = run(capsys, "cost", "--op", "and", "--n", "3", "--heavy-hex", size)
    assert (rc, out, err) == (2, "", f"error: rows and cols must be <= 64, got {size}\n")


def test_cost_explicit_map_and_xc_mode(capsys):
    rc, out, _ = run(capsys, "cost", "--op", "and", "--n", "2",
                     "--heavy-hex", "1x1", "--map", "0,2")
    assert rc == 0 and "xc=1" in out and "mapping=0,2" in out
    rc, cnots, _ = run(capsys, "cost", "--op", "and", "--n", "2",
                       "--heavy-hex", "1x1", "--map", "0,2",
                       "--xc-mode", "cnots")
    assert rc == 0 and "xc=3" in cnots


def test_cost_from_file(capsys, tmp_path):
    path = tmp_path / "c.txt"
    run(capsys, "synth", "--op", "cv", "--n", "2", "--out", str(path))
    rc, out, _ = run(capsys, "cost", str(path))
    assert rc == 0
    assert out.startswith(f"circuit={path}\n")
    assert "n1=10" in out and "n2=1" in out
    assert "deviation" not in out   # file inputs have no reference row


@pytest.mark.parametrize("layout", ["star5", "ibm_torino"])
def test_cost_one_qubit_file_on_a_layout(capsys, tmp_path, layout):
    path = tmp_path / "one.txt"
    path.write_text("qubits 1\nh 0\n")
    rc, out, err = run(capsys, "cost", str(path), "--layout", layout)
    assert rc == 0 and err == ""
    assert out == (f"circuit={path}\nlayout={layout}\nmapping=0\n"
                   "n1=3\nn2=0\nxc=0\nd=3\nweights=1,1,1,1\nwtqc=6\n")


def test_cost_usage_errors(capsys):
    rc, _, err = run(capsys, "cost", "--op", "and", "--n", "3",
                     "--layout", "ibm_torino", "--heavy-hex", "6x3")
    assert rc == 2 and "mutually exclusive" in err
    rc, _, err = run(capsys, "cost", "--op", "and", "--n", "3",
                     "--heavy-hex", "axb")
    assert rc == 2 and "expects RxC" in err
    rc, _, err = run(capsys, "cost", "--op", "and", "--n", "3",
                     "--weights", "1,2")
    assert rc == 2 and "four numbers" in err
    rc, _, err = run(capsys, "cost", "--op", "and", "--n", "3",
                     "--layout", "no_such_layout")
    assert rc == 2 and "neither a file nor a bundled name" in err
    for command, weights in (("cost", "nan,1,1,1"), ("cost", "1,inf,1,1"),
                             ("compare", "-1,1,1,1")):
        rc, out, err = run(capsys, command, "--op", "and", "--n", "3",
                           f"--weights={weights}")
        assert rc == 2 and out == ""
        assert err == "error: weights must be finite and non-negative\n"
    for command in ("cost", "compare"):
        rc, out, err = run(capsys, command, "--op", "and", "--n", "3",
                           "--weights", "1,x,1,1")
        assert rc == 2 and out == ""
        assert err == "error: --weights expects four numbers, got '1,x,1,1'\n"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--op", "and", "--n", "3", "--map", "0,1,2"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, out, err = run(capsys, "cost", "--op", "and", "--n", "3", "--map", "0,1")
    assert rc == 2 and out == ""
    assert err == "error: --map needs --layout or --heavy-hex\n"
    for ids in ("0,1", "0,1,2,3"):
        rc, out, err = run(capsys, "cost", "--op", "and", "--n", "3",
                           "--layout", "ibm_torino", "--map", ids)
        assert rc == 2 and out == ""
        assert err == f"error: mapping covers {ids.count(',') + 1} wires, circuit has 3\n"
    rc, out, err = run(capsys, "cost", "--op", "and", "--n", "3",
                       "--layout", "star5", "--map", "0,x,1")
    assert rc == 2 and out == ""
    assert err == "error: --map expects comma-separated qubit ids, got '0,x,1'\n"
    rc, out, err = run(capsys, "cost", "--op", "and", "--n", "3",
                       "--layout", "star5", "--map", "")
    assert rc == 2 and out == ""
    assert err == "error: --map expects comma-separated qubit ids, got ''\n"
    rc, out, err = run(capsys, "cost", "--op", "and", "--n", "3", "--map", "")
    assert rc == 2 and out == ""
    assert err == "error: --map needs --layout or --heavy-hex\n"


def test_compare_golden(capsys):
    rc, out, _ = run(capsys, "compare", "--op", "and", "--n", "3",
                     "--layout", "ibm_torino")
    assert rc == 0 and out == COMPARE_AND3


@pytest.mark.parametrize("kind,n", [(kind, n) for kind, sizes in synthesis.OPERATOR_RANGES.items()
                                    for n in (4, 5) if n in sizes])
def test_compare_on_star5(capsys, kind, n):
    # The textbook circuit does not fit a star: it is placed on a connected
    # set and routed, while the design stays SWAP-free.
    rc, out, err = run(capsys, "compare", "--op", kind, "--n", str(n),
                       "--layout", "star5")
    assert rc == 0 and err == ""
    xc = next(line.split() for line in out.splitlines() if line.startswith("xc "))
    assert xc[1] == "0"


def test_compare_requires_op(capsys):
    rc, _, err = run(capsys, "compare", "--n", "3")
    assert rc == 2 and "--op and --n are required" in err


def test_custom_weights_reach_the_output(capsys):
    rc, out, _ = run(capsys, "cost", "--op", "and", "--n", "3",
                     "--weights", "2,1,1,0.5")
    assert rc == 0
    assert "weights=2,1,1,0.5" in out
    assert "wtqc=54.5" in out


def test_an_overflowing_weighted_sum_is_a_usage_error(capsys):
    # Each weight passes the finiteness check, but the weighted sum is inf.
    for command in ("cost", "compare"):
        rc, out, err = run(capsys, command, "--op", "and", "--n", "3",
                           "--weights", "1e308,0,0,0")
        assert rc == 2 and out == ""
        assert err.startswith("error: weighted sum overflows") and err.count("\n") == 1


def test_custom_basis_file(capsys, tmp_path):
    path = tmp_path / "hcz.basis"
    path.write_text("single h\nsingle rz\nsingle sx\nsingle x\nsingle i\ntwo cz\n")
    rc, out, _ = run(capsys, "cost", "--op", "and", "--n", "2",
                     "--basis", str(path))
    assert rc == 0
    # H survives lowering in this basis, so N1 shrinks below the default 10
    n1 = int(out.split("n1=")[1].split()[0])
    assert 0 < n1 < 10


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "cost", "--op", "or", "--n", "4", "--layout", "ibm_torino")
    second = run(capsys, "cost", "--op", "or", "--n", "4", "--layout", "ibm_torino")
    assert first == second


def test_parse_bundled():
    torino = parse_bundled("ibm_torino")
    assert torino.name == "ibm_torino" and len(torino.qubits) == 129
    with pytest.raises(FileNotFoundError):
        parse_bundled("missing")


# Run in a fresh interpreter: the package import and each command in turn,
# checking after each that numpy was never loaded.
def _run_probe(probe: str, commands: list[list[str]]) -> list[str]:
    """Run a probe script over the commands in a fresh interpreter; return what it found."""
    package_root = str(Path(blochsynth.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


_NUMPY_PROBE = """\
import contextlib, io, json, sys
import blochsynth, blochsynth.cli
loaded = ["import blochsynth"] if "numpy" in sys.modules else []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = blochsynth.cli.main(argv)
    if rc != 0 or "numpy" in sys.modules:
        loaded.append(f"{' '.join(argv)} (exit {rc})")
        break
print(json.dumps(loaded))
"""


def test_no_command_loads_numpy(tmp_path):
    circuit = str(tmp_path / "and5.txt")
    commands = [
        ["synth", "--op", "and", "--n", "5", "--out", circuit],
        ["synth", "--table", "0,1,1,0,1,0,0,1"],
        ["synth", "--op", "cv", "--n", "4"],
        ["verify", circuit, "--op", "and", "--n", "5"],
        ["trace", "--op", "and", "--n", "5"],
        ["trace", circuit],
        ["cost", "--op", "and", "--n", "5", "--layout", "ibm_torino"],
        ["compare", "--op", "and", "--n", "5", "--layout", "ibm_torino"],
        ["compare", "--op", "fredkin", "--n", "4", "--layout", "ibm_torino"],
        ["compare", "--op", "miller", "--n", "4", "--layout", "ibm_torino"],
        ["compare", "--op", "cv", "--n", "4", "--layout", "ibm_torino"],
    ]
    assert _run_probe(_NUMPY_PROBE, commands) == []


# Importing the package loads none of its submodules, no command loads
# dataclasses, and synth, verify and trace (run first here, since a module
# stays loaded) load no placement, lowering or cost code.
_STARTUP_PROBE = """\
import contextlib, io, json, sys
import blochsynth
found = [f"import blochsynth: {m}" for m in sys.modules if m.startswith("blochsynth.")]
import blochsynth.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = blochsynth.cli.main(argv)
    unwanted = ["dataclasses"]
    if argv[0] in ("synth", "verify", "trace"):
        unwanted += ["blochsynth.cost", "blochsynth.layout", "blochsynth.transpile"]
    found += [f"{' '.join(argv)}: {m}" for m in unwanted if m in sys.modules]
    if rc != 0:
        found.append(f"{' '.join(argv)}: exit {rc}")
print(json.dumps(found))
"""


def test_commands_load_only_what_they_run(tmp_path):
    circuit = str(tmp_path / "and4.txt")
    commands = [
        ["synth", "--op", "and", "--n", "4", "--out", circuit],
        ["synth", "--table", "0,1,1,0"],
        ["verify", circuit, "--op", "and", "--n", "4"],
        ["trace", "--op", "and", "--n", "3"],
        ["trace", circuit],
        ["cost", "--op", "and", "--n", "3", "--layout", "ibm_torino"],
        ["compare", "--op", "and", "--n", "3", "--layout", "ibm_torino"],
    ]
    assert _run_probe(_STARTUP_PROBE, commands) == []

"""
Command-line interface: synth, verify, trace, cost, and compare.

Every subcommand prints a deterministic flat block (or the circuit/trace
text itself), so identical invocations are byte-identical.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 internal error.
"""
from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .baselines import naive_synth
from .cost import REFERENCE_COSTS, check_weights, cost_pipeline, report_deviations
from .layout import Layout, Mapping, heavy_hex, load_layout, parse_layout
# perfbench/tracing.py wraps these two names here, so they stay importable.
from .simulator import boolean_action, unitary_of  # noqa: F401
from .synthesis import (OPERATORS, SynthResult, SynthVerificationError, check,
                        synth_detailed, synth_table)
from .textio import emit_circuit, parse_circuit
from .tracker import render_trace_table
from .transpile import DEFAULT_BASIS, load_basis


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except SynthVerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochsynth",
        description="Layout-aware Clifford+T synthesis of multi-control gates.")
    sub = parser.add_subparsers(dest="command", required=True)

    op = argparse.ArgumentParser(add_help=False)
    op.add_argument("--op", choices=sorted(OPERATORS), help="operator name")
    op.add_argument("--n", type=int, help="total qubits (controls + target)")

    place = argparse.ArgumentParser(add_help=False)
    place.add_argument("--layout", metavar="FILE", help="layout file (or bundled name)")
    place.add_argument("--heavy-hex", metavar="RxC", help="generate a heavy-hex layout")

    weights = argparse.ArgumentParser(add_help=False)
    weights.add_argument("--weights", metavar="W1,W2,W3,W4", default="1,1,1,1",
                         help="WTQC component weights")
    weights.add_argument("--xc-mode", choices=("swaps", "cnots"), default="swaps",
                         help="count XC as SWAPs or as their CNOTs")
    weights.add_argument("--basis", metavar="FILE", help="native basis definition file")

    p = sub.add_parser("synth", parents=[op], help="synthesize an operator")
    p.add_argument("--table", metavar="BITS", help="explicit truth table, e.g. 0,0,0,1")
    p.add_argument("--out", metavar="FILE", help="write the circuit here instead of stdout")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("verify", parents=[op], help="check a circuit file against an operator")
    p.add_argument("circuit", metavar="FILE", help="circuit file to verify")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("trace", parents=[op], help="print the equator phase trace table")
    p.add_argument("circuit", metavar="FILE", nargs="?", help="circuit file (default: synthesize)")
    p.add_argument("--out", metavar="FILE", help="write the table here instead of stdout")
    p.set_defaults(run=_cmd_trace)

    p = sub.add_parser("cost", parents=[op, place, weights], help="report N1/N2/XC/D and WTQC")
    p.add_argument("circuit", metavar="FILE", nargs="?", help="circuit file (default: synthesize)")
    p.add_argument("--map", metavar="IDS", help="comma-separated physical ids per wire")
    p.set_defaults(run=_cmd_cost)

    p = sub.add_parser("compare", parents=[op, place, weights],
                       help="cost the template design against the textbook one")
    p.set_defaults(run=_cmd_compare)
    return parser


def _require_op(args) -> tuple[str, int]:
    if not args.op or args.n is None:
        raise ValueError("--op and --n are required here")
    return args.op, args.n


def _synth_from_args(args) -> SynthResult:
    op, n = _require_op(args)
    return synth_detailed(op, n)


def _path(name: str, option: str) -> Path:
    """A file named on the command line; an empty name is a usage error, not "absent"."""
    if not name:
        raise ValueError(f"{option} expects a file name, got ''")
    return Path(name)


def _read_circuit(name: str):
    return parse_circuit(_path(name, "circuit").read_text())


def _load_basis(args):
    return DEFAULT_BASIS if args.basis is None else load_basis(_path(args.basis, "--basis"))


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _path(out, "--out").write_text(text)


def _resolve_layout(args) -> Layout | None:
    if args.layout is not None and args.heavy_hex is not None:
        raise ValueError("--layout and --heavy-hex are mutually exclusive")
    if args.heavy_hex is not None:
        rows, sep, cols = args.heavy_hex.partition("x")
        if not sep or not rows.isdigit() or not cols.isdigit():
            raise ValueError(f"--heavy-hex expects RxC, got {args.heavy_hex!r}")
        return heavy_hex(int(rows), int(cols))
    if args.layout is not None:
        path = Path(args.layout)
        if path.is_file():
            return load_layout(path)
        bundled = resources.files("blochsynth") / "data" / f"{args.layout}.layout"
        if bundled.is_file():
            return parse_bundled(args.layout)
        raise ValueError(f"layout {args.layout!r} is neither a file nor a bundled name")
    return None


def parse_bundled(name: str) -> Layout:
    """Load one of the layouts shipped in the package data directory."""
    text = (resources.files("blochsynth") / "data" / f"{name}.layout").read_text()
    return parse_layout(text, name=name)


def _parse_weights(text: str) -> tuple[float, float, float, float]:
    try:
        weights = tuple(float(p) for p in text.split(","))
    except ValueError:
        weights = ()
    if len(weights) != 4:
        raise ValueError(f"--weights expects four numbers, got {text!r}")
    return check_weights(weights)


def _parse_map(text: str) -> Mapping:
    try:
        ids = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--map expects comma-separated qubit ids, got {text!r}") from None
    return Mapping(ids)


def _format_weights(weights) -> str:
    return ",".join(f"{w:g}" for w in weights)


def _cmd_synth(args) -> int:
    if args.table is not None and args.op:
        raise ValueError("--op and --table are mutually exclusive")
    if args.table is not None and args.n is not None:
        raise ValueError("--n and --table are mutually exclusive")
    if args.table is not None:
        bits = args.table.split(",")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"--table expects comma-separated 0/1 bits, got {args.table!r}")
        result = synth_table(tuple(b == "1" for b in bits))
        header = [f"op: table {args.table}", f"n: {result.n_qubits}"]
    else:
        result = _synth_from_args(args)
        header = [f"op: {result.kind}", f"n: {result.n_qubits}"]
    header.append("thetas: " + " ".join(str(t) for t in result.assignment.thetas))
    header.append(f"ax2: {result.assignment.ax2.value}")
    header += [f"note: {note}" for note in result.notes]
    _write(emit_circuit(result.circuit, header=tuple(header)), args.out)
    return 0


def _cmd_verify(args) -> int:
    op, n = _require_op(args)
    circuit = _read_circuit(args.circuit)
    reason = check(op, n, circuit)
    print(f"op={op}")
    print(f"n={n}")
    print(f"circuit={args.circuit}")
    print(f"verdict={'FAIL' if reason else 'PASS'}")
    if reason:
        print(f"reason={reason}")
    return 1 if reason else 0


def _cmd_trace(args) -> int:
    if args.circuit is not None:
        circuit = _read_circuit(args.circuit)
        text = render_trace_table(circuit)
    else:
        result = _synth_from_args(args)
        text = render_trace_table(result.circuit, labels=result.trace_labels())
    _write(text, args.out)
    return 0


def _cmd_cost(args) -> int:
    lines = []
    if args.circuit is not None:
        circuit = _read_circuit(args.circuit)
        kind = None
        lines.append(f"circuit={args.circuit}")
    else:
        result = _synth_from_args(args)
        circuit, kind = result.circuit, result.kind
        lines += [f"op={kind}", f"n={result.n_qubits}"]
    layout = _resolve_layout(args)
    if args.map is not None and layout is None:
        raise ValueError("--map needs --layout or --heavy-hex")
    mapping = _parse_map(args.map) if args.map is not None else None
    basis = _load_basis(args)
    report = cost_pipeline(circuit, layout, mapping,
                           weights=_parse_weights(args.weights),
                           xc_mode=args.xc_mode, basis=basis)
    if layout is not None:
        lines.append(f"layout={layout.name}")
        lines.append("mapping=" + ",".join(str(p) for p in report.mapping.physical))
    for name, value in zip(("n1", "n2", "xc", "d"), report.counts):
        lines.append(f"{name}={value}")
    lines.append(f"weights={_format_weights(report.weights)}")
    lines.append(f"wtqc={report.wtqc:g}")
    if kind is not None and (kind, circuit.n_qubits) in REFERENCE_COSTS:
        deviations = report_deviations(kind, circuit.n_qubits, report)
        for item in deviations:
            lines.append(f"deviation={item}")
        if not deviations:
            lines.append("deviation=none")
    print("\n".join(lines))
    return 0


def _cmd_compare(args) -> int:
    op, n = _require_op(args)
    layout = _resolve_layout(args)
    basis = _load_basis(args)
    weights = _parse_weights(args.weights)
    reports = {}
    for label, circuit in (("bsa", synth_detailed(op, n).circuit),
                           ("naive", naive_synth(op, n))):
        reports[label] = cost_pipeline(circuit, layout, None, weights=weights,
                                       xc_mode=args.xc_mode, basis=basis)
    print(f"op={op}")
    print(f"n={n}")
    if layout is not None:
        print(f"layout={layout.name}")
    print(f"weights={_format_weights(weights)}")
    rows = [("metric", "bsa", "naive")]
    for name, bsa_value, naive_value in zip(("n1", "n2", "xc", "d"),
                                            reports["bsa"].counts,
                                            reports["naive"].counts):
        rows.append((name, str(bsa_value), str(naive_value)))
    rows.append(("wtqc", f"{reports['bsa'].wtqc:g}", f"{reports['naive'].wtqc:g}"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())

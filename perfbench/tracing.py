"""
Span tracing of blochsynth's public functions, installed from outside the
package.

The package imports names with ``from .x import y``, so each function is
wrapped at every module attribute a caller looks it up from (for example
``blochsynth.cost.route``, not only ``blochsynth.layout.route``).  Each call
records a span ``(name, start_ns, end_ns, parent, op)`` in memory; self
time is a span's duration minus the part its child spans cover.  A few
wrappers also count what went in or came out (gates emitted, SWAPs
inserted, unsatisfiable solves, narrow solves that succeeded).
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter_ns


def _gates_out(result) -> dict[str, int]:
    return {"gates_out": len(result.gates)}


def _route_counts(result) -> dict[str, int]:
    routed, swaps = result
    return {"swaps": swaps, "width": routed.n_qubits}


# (span name, modules whose attribute is replaced, attribute, result counter,
#  key under which a raised exception is counted as "<span name>.<key>")
WRAPPED = (
    ("synthesis.solve_phase_system", ("synthesis",), "solve_phase_system", None, "unsat"),
    ("synthesis.synth_detailed", ("synthesis", "cli"), "synth_detailed", None, None),
    ("synthesis.synth_table", ("synthesis", "cli"), "synth_table", None, None),
    ("templates.instantiate", ("synthesis",), "instantiate", _gates_out, None),
    ("simulator.boolean_action", ("synthesis", "cli"), "boolean_action", None, None),
    ("simulator.unitary_of", ("synthesis", "baselines", "cli"), "unitary_of", None, None),
    ("baselines.naive_synth", ("baselines", "cli"), "naive_synth", None, None),
    ("transpile.rewrite_to_basis", ("cost",), "rewrite_to_basis", _gates_out, None),
    ("transpile.canonicalize", ("cost",), "canonicalize", _gates_out, None),
    ("layout.find_placement", ("cost",), "find_placement", None, "fail"),
    ("layout.route", ("cost",), "route", _route_counts, None),
    ("cost.cost_pipeline", ("cost", "cli"), "cost_pipeline", None, None),
    ("cost.depth", ("cost",), "depth", None, None),
    ("tracker.render_trace_table", ("cli",), "render_trace_table", None, None),
    ("textio.emit_circuit", ("cli",), "emit_circuit", None, None),
    ("textio.parse_circuit", ("cli",), "parse_circuit", None, None),
)

# The keys each result counter returns.
_COUNTER_KEYS = {_gates_out: ("gates_out",), _route_counts: ("swaps", "width")}

# Counted per result across a pass: "width" is a maximum, the rest are sums.
_MAX_COUNTS = frozenset({"layout.route.width"})

SHORTEST_PATH = "layout.Layout.shortest_path.calls"
NARROW_ATTEMPTS, NARROW_HITS = "synthesis.narrow_attempts", "synthesis.narrow_hits"


def zero_layers() -> dict[str, float]:
    """Every value a traced pass can report, at zero: a layer no op reaches reads 0."""
    layers = dict.fromkeys((SHORTEST_PATH, NARROW_ATTEMPTS, NARROW_HITS), 0)
    for name, _, _, counter, exc_key in WRAPPED:
        layers[f"{name}.calls"] = 0
        layers[f"{name}.busy_ms"] = 0.0
        for key in _COUNTER_KEYS.get(counter, ()) + ((exc_key,) if exc_key else ()):
            layers[f"{name}.{key}"] = 0
    return layers


class Tracer:
    """Records spans and counts while installed; restores every attribute on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = {name: getattr(self.package, name)
                   for name in ("synthesis", "baselines", "cost", "cli")}
        for name, owners, attr, counter, exc in WRAPPED:
            original = getattr(getattr(self.package, name.split(".")[0]), attr)
            wrapper = self._wrap(name, original, counter, exc)
            for owner in owners:
                module = modules[owner]
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        layout_cls = self.package.layout.Layout
        self._saved.append((layout_cls, "shortest_path", layout_cls.shortest_path))
        layout_cls.shortest_path = self._count_only(SHORTEST_PATH, layout_cls.shortest_path)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, fn, counter, exc_key):
        spans, stack, counts = self.spans, self._stack, self.counts
        narrow = name == "synthesis.solve_phase_system"

        def wrapper(*args, **kwargs):
            # A solve without widen enumerates the narrowed candidate set first.
            attempt = narrow and not kwargs.get("widen", len(args) > 2 and args[2])
            if attempt:
                counts[NARROW_ATTEMPTS] += 1
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                spans[index] = (name, start, perf_counter_ns(), parent, self.op)
                stack.pop()
                if exc_key is not None:
                    counts[f"{name}.{exc_key}"] += 1
                raise
            spans[index] = (name, start, perf_counter_ns(), parent, self.op)
            stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    full = f"{name}.{key}"
                    if full in _MAX_COUNTS:
                        counts[full] = max(counts[full], value)
                    else:
                        counts[full] += value
            if attempt:
                counts[NARROW_HITS] += 1
            return result
        return wrapper

    def _count_only(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- per-pass aggregation ---------------------------------------------
    def begin_pass(self) -> int:
        """Reset the counts; return the span index where the pass starts."""
        self.counts.clear()
        return len(self.spans)

    def end_pass(self, first: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self time in ms per span name, and every count, since `first`."""
        spans = self.spans[first:]
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        busy: Counter = Counter()
        counts = Counter(self.counts)
        for k, (name, start, end, _, _) in enumerate(spans):
            busy[name] += end - start - covered[k]
            counts[f"{name}.calls"] += 1
        return {name: ns / 1e6 for name, ns in busy.items()}, dict(counts)

    def write(self, path: Path) -> None:
        """Write every recorded span as one tab-separated line."""
        with path.open("w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                out.write("\t".join(str(v) for v in span) + "\n")

"""In-memory spans around the public functions of the gselc layers.

A span is (name, parent span, start, end). Spans are appended to flat arrays
while a pass runs and turned into per-layer totals afterwards, so nothing is
written until the run ends. A layer's self time is the duration of its spans
minus the part covered by their child spans.

Wrapping replaces every binding of a function in the loaded ``gselc``
modules, so names one module imported from another (``encoding.apply_gate``,
``statevector.mask_vertices``, ``gselc.verify_theorem1``) are traced too.
``Graph`` methods, including ``__post_init__``, are wrapped on the class.
``Gate`` and ``StateVector`` construction is not wrapped: it is charged to
the span that creates the object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

AMP_ITEM_BYTES = 16  # complex128

# statevector functions outside these two layers and the comparisons are
# verification glue and count as the "statevector.verify" layer
_STATEVECTOR_LAYERS = {
    "statevector.apply_gate": "statevector.apply_gate",
    "statevector.graph_state": "statevector.graph_state",
    "statevector.plus_state": "statevector.graph_state",
    "statevector.amp_distance": "statevector.compare",
    "statevector.equal_exact": "statevector.compare",
    "statevector.equal_up_to_global_phase": "statevector.compare",
}

LAYERS = (
    "statevector.apply_gate",
    "statevector.graph_state",
    "statevector.compare",
    "statevector.verify",
    "graph",
    "cli",
    "encoding",
)


def layer_of(span_name: str) -> str:
    if span_name.startswith("statevector."):
        return _STATEVECTOR_LAYERS.get(span_name, "statevector.verify")
    return span_name.partition(".")[0]


def _gselc_modules():
    return [m for name, m in sys.modules.items() if name == "gselc" or name.startswith("gselc.")]


def _module_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return {
        f"{module.__name__.removeprefix('gselc.')}.{name}": getattr(module, name)
        for name in names
        if inspect.isfunction(getattr(module, name, None))
        and getattr(module, name).__module__ == module.__name__
    }


def traced_targets() -> dict[str, object]:
    """Span name -> function, for every function the tracer wraps."""
    from gselc import cli, encoding, graph, statevector

    targets = {}
    for module in (graph, statevector, encoding, cli):
        targets.update(_module_functions(module))
    for name, fn in vars(graph.Graph).items():
        if inspect.isfunction(fn) and (not name.startswith("_") or name == "__post_init__"):
            targets[f"graph.Graph.{name}"] = fn
    targets["encoding.CircuitLog.append"] = encoding.CircuitLog.append
    return targets


class Patch:
    """Replace every binding of some functions in the gselc modules; undo on exit."""

    def __init__(self, replacements):
        # (original, replacement) pairs
        self._by_id = {id(orig): (orig, new) for orig, new in replacements}
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        from gselc import encoding, graph

        owners = _gselc_modules() + [graph.Graph, encoding.CircuitLog]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = self._by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._undo.append((owner, attr, value))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


def _count_apply_gate(counters, args, out):
    from gselc.statevector import GateKind

    gate = args[1]
    counters["statevector.gates.cz" if gate.kind is GateKind.CZ else "statevector.gates.single"] += 1
    counters["statevector.apply_gate.amp_bytes"] += AMP_ITEM_BYTES << out.n_qubits


def _count_graph_state(counters, args, out):
    counters["statevector.graph_state.edges"] += args[0].edge_count
    counters["statevector.graph_state.amp_bytes"] += AMP_ITEM_BYTES << out.n_qubits


def _count_plus_state(counters, args, out):
    counters["statevector.graph_state.amp_bytes"] += AMP_ITEM_BYTES << out.n_qubits


_HOOKS = {
    "statevector.apply_gate": _count_apply_gate,
    "statevector.graph_state": _count_graph_state,
    "statevector.plus_state": _count_plus_state,
}


class Tracer:
    """Records spans for one pass at a time; ``summary`` turns them into layer totals."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self._replacements = [(fn, self._wrap(fn, name)) for name, fn in traced_targets().items()]

    def patch(self) -> Patch:
        return Patch(self._replacements)

    def reset(self) -> None:
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
        self._stack.clear()
        self.counters.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, counters, hook = self._stack, self.counters, _HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, plus counters, for the spans recorded so far."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        n_names = len(self.names)
        calls_by_name = np.bincount(name, minlength=n_names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)

        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [i for i, n in enumerate(self.names) if layer_of(n) == layer]
            out[f"{layer}.calls"] = int(calls_by_name[members].sum())
            out[f"{layer}.self_s"] = float(self_by_name[members].sum())

        ids = {n: i for i, n in enumerate(self.names)}

        def calls(*span_names):
            return int(sum(calls_by_name[ids[n]] for n in span_names if n in ids))

        out["graph.constructs"] = calls("graph.Graph.__post_init__")
        out["graph.lc.calls"] = calls("graph.local_complement")
        out["graph.elc.calls"] = calls("graph.edge_local_complement", "graph.elc_via_lcs")
        out["graph.mask_vertices.calls"] = calls("graph.mask_vertices")
        out["encoding.gates_logged"] = calls("encoding.CircuitLog.append")

        # shared-neighbour scan: graphs drawn (one new_empty each) against graphs
        # that had a candidate edge (one ELC each)
        scan_spans = name[parent[has_parent]] == ids.get(
            "statevector.scan_theorem1_shared_neighbors", -1
        )
        child_names = name[has_parent][scan_spans]
        generated = int(np.count_nonzero(child_names == ids.get("graph.new_empty", -1)))
        accepted = int(np.count_nonzero(child_names == ids.get("graph.edge_local_complement", -1)))
        out["statevector.scan.generated"] = generated
        out["statevector.scan.accepted"] = accepted
        out["statevector.scan.accept_ratio"] = accepted / generated if generated else 0.0

        for key in (
            "statevector.gates.cz",
            "statevector.gates.single",
            "statevector.apply_gate.amp_bytes",
            "statevector.graph_state.edges",
            "statevector.graph_state.amp_bytes",
        ):
            out[key] = int(self.counters[key])
        out["trace.spans"] = len(name)
        return out

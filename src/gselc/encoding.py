"""Five-qubit-code logical cluster states built two ways: direct logical CZs
versus the Hadamard-pair (edge local complementation) shortcut.

A logical block is five physical qubits, core first. Encoding a block is the
GHZ-type fan-out (H, four CZs from the core, H) followed by the pentagon of
five CZs. The direct construction entangles encoded blocks with 25 inter-block
CZs each; the shortcut seeds one physical CZ between cores before encoding and
lets the Hadamards inside the encoders do the rest.

``build_logical_cluster`` checks the qubit cap before it records a gate, then
records both constructions in CircuitLogs and compares the two gate lists on
|+>^n. Past one tile (16 qubits and up) they run side by side over cache-sized
tiles, keeping only the largest deviation and the norms, so neither 2^n state
is made; a smaller chain goes to the dense oracle. Gate-count claims are
audited against the same gate lists that make the compared states.
"""

from __future__ import annotations

from . import graph as gr
from .errors import OddChainError
from .report import Report
from .statevector import (
    DEFAULT_MAX_QUBITS,
    Gate,
    GateKind,
    _check_cap,
    _streamed_distance,
    amp_distance,
    apply_gates,
    graph_state,
)

__all__ = [
    "IDENTITY_H",
    "block",
    "CircuitLog",
    "record_ghz",
    "record_pentagon",
    "record_logical_cz",
    "counts_match",
    "verify_chain_elc_steps",
    "build_logical_cluster",
]

BLOCK_SIZE = 5


def block(j: int) -> range:
    """The qubits of logical block j: 5j to 5j+4, core first."""
    return range(BLOCK_SIZE * j, BLOCK_SIZE * (j + 1))


# Tag of a Hadamard recorded at a position where the pair provably acts as identity
IDENTITY_H = "identity_h"


class CircuitLog:
    """Append-only gate record with CZ and Hadamard accounting; ``tags[i]`` tags ``gates[i]``."""

    def __init__(self):
        self.gates: list[Gate] = []
        self.tags: list[str | None] = []

    def append(self, gate: Gate, tag: str | None = None) -> None:
        self.gates.append(gate)
        self.tags.append(tag)

    def count_cz(self, tag: str | None = None) -> int:
        return sum(
            1
            for gate, t in zip(self.gates, self.tags)
            if gate.kind is GateKind.CZ and (tag is None or t == tag)
        )

    @property
    def hadamard_count(self) -> int:
        """Effective Hadamards; identity-position pairs are excluded."""
        return sum(
            1
            for gate, t in zip(self.gates, self.tags)
            if gate.kind is GateKind.H and t != IDENTITY_H
        )


def _record_fan_out(log: CircuitLog, j: int) -> None:
    """The four core-to-ancilla CZs of block j, shared by the GHZ encoder and ``_record_elc``."""
    core, *ancillae = block(j)
    for anc in ancillae:
        log.append(Gate.cz(core, anc), tag="ghz")


def record_ghz(log: CircuitLog, j: int) -> None:
    """Classical (repetition) encoding of block j: H, core-to-ancilla CZs, H.

    On a core in |0> with ancillae in |+>^4 this gives the five-qubit GHZ state.
    """
    core = block(j)[0]
    log.append(Gate.h(core))
    _record_fan_out(log, j)
    log.append(Gate.h(core))


def record_pentagon(log: CircuitLog, j: int) -> None:
    """The five-CZ cycle over block j, the quantum half of the encoding."""
    q = block(j)
    for i in range(BLOCK_SIZE):
        log.append(Gate.cz(q[i], q[(i + 1) % BLOCK_SIZE]), tag="pentagon")


def record_logical_cz(log: CircuitLog, a: int, b: int) -> None:
    """Logical CZ between encoded blocks a and b: all 25 inter-block physical CZs.

    This is the unique pattern consistent with conjugating the single
    core-core CZ by both block encoders, so the direct and shortcut builds
    target the same operator.
    """
    for qa in block(a):
        for qb in block(b):
            log.append(Gate.cz(qa, qb), tag="logical_cz")


def _check_chain_length(n_logical: int) -> None:
    if n_logical < 2 or n_logical % 2:
        raise OddChainError(f"logical chains must have an even length of at least 2, got {n_logical}")


def _record_direct(n_logical: int) -> CircuitLog:
    """Reference construction: encode every block, then one logical CZ per chain edge.

    On the all-plus input the GHZ fan-out stage acts as identity, so only the
    pentagons and the 25-CZ logical gates are recorded (and counted).
    """
    log = CircuitLog()
    for j in range(n_logical):
        record_pentagon(log, j)
    for j in range(n_logical - 1):
        record_logical_cz(log, j, j + 1)
    return log


def _record_elc(n_logical: int) -> CircuitLog:
    """Shortcut construction: physical core chain first, then the block encoders.

    Gate order per the encoders: first Hadamard set on the cores, GHZ-type
    CZs, second Hadamard set, pentagons. For a 2-chain the first Hadamard pair
    leaves the seeded two-qubit cluster state invariant and is tagged
    ``IDENTITY_H``; longer chains permute the core graph with it.
    """
    cores = [block(j)[0] for j in range(n_logical)]
    log = CircuitLog()
    for a, b in zip(cores, cores[1:]):
        log.append(Gate.cz(a, b), tag="core")
    first_h_tag = IDENTITY_H if n_logical == 2 else None
    for core in cores:
        log.append(Gate.h(core), tag=first_h_tag)
    for j in range(n_logical):
        _record_fan_out(log, j)
    for core in cores:
        log.append(Gate.h(core))
    for j in range(n_logical):
        record_pentagon(log, j)
    return log


def verify_chain_elc_steps(
    n_logical: int, tol: float = 1e-9, max_qubits: int = DEFAULT_MAX_QUBITS
) -> Report:
    """Sweep Hadamard pairs left to right over the core chain, checking each step.

    Each pair lands on an edge whose endpoint neighborhoods are disjoint, so
    the state after the pair must equal the graph state of the edge-locally-
    complemented graph, exactly. Step graphs are recorded for inspection.
    """
    _check_chain_length(n_logical)
    g = gr.path(n_logical)
    sv = graph_state(g, max_qubits)
    steps = []
    worst = 0.0
    for k in range(0, n_logical - 1, 2):
        sv = apply_gates(sv, [Gate.h(k), Gate.h(k + 1)])
        g = gr.edge_local_complement(g, k, k + 1)
        diff = amp_distance(sv, graph_state(g, max_qubits))
        worst = max(worst, diff)
        steps.append(
            {
                "edge": [k, k + 1],
                "graph_edges": [list(e) for e in g.edges()],
                "max_amp_diff": diff,
            }
        )
    return Report(
        passed=worst <= tol,
        details={"n_logical": n_logical, "steps": steps, "max_amp_diff": worst, "tol": tol},
    )


def counts_match(n_logical: int, direct_log: CircuitLog, elc_log: CircuitLog) -> bool:
    """The two logs of an N-block chain hold their closed-form gate counts.

    Direct build: 5N + 25(N-1) CZs, 25(N-1) of them logical. Shortcut build:
    10N - 1 CZs and 2N Hadamards, less the two ``IDENTITY_H`` ones at N = 2.
    At N = 2 that is the paper's 35/25/19/2.
    """
    n_edges = n_logical - 1
    return (
        direct_log.count_cz() == 5 * n_logical + 25 * n_edges
        and direct_log.count_cz("logical_cz") == 25 * n_edges
        and elc_log.count_cz() == 10 * n_logical - 1
        and elc_log.hadamard_count == 2 * n_logical - 2 * (n_logical == 2)
    )


def build_logical_cluster(
    n_logical: int, tol: float = 1e-9, max_qubits: int = DEFAULT_MAX_QUBITS
) -> tuple[Report, CircuitLog, CircuitLog]:
    """Even-length logical cluster state built both ways: (report, direct log, elc log).

    The report passes when the shortcut state equals the direct one within
    ``tol`` and both logs pass ``counts_match``. Past one tile the two gate
    lists run side by side, tile by tile, so neither 2^n state is made; the
    deviation equals ``amp_distance`` of the two logs run on ``plus_state`` bit
    for bit.
    """
    _check_chain_length(n_logical)
    n_qubits = BLOCK_SIZE * n_logical
    _check_cap(n_qubits, max_qubits)
    direct_log, elc_log = _record_direct(n_logical), _record_elc(n_logical)
    diff = _streamed_distance(n_qubits, direct_log.gates, elc_log.gates)
    details = {"n_logical": n_logical, "n_qubits": n_qubits, "max_amp_diff": diff, "tol": tol}
    for name, log in (("direct", direct_log), ("elc", elc_log)):
        details[name] = {
            "construction": name,
            "n_logical": n_logical,
            "cz_count": log.count_cz(),
            "hadamard_count": log.hadamard_count,
            "equal_to_reference": diff <= tol,
            "max_amp_diff": diff,
        }
    passed = diff <= tol and counts_match(n_logical, direct_log, elc_log)
    return Report(passed, details), direct_log, elc_log

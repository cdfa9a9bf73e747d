"""Five-qubit-code logical cluster states built two ways: direct logical CZs
versus the Hadamard-pair (edge local complementation) shortcut.

A logical block is five physical qubits, core first. Encoding a block is the
GHZ-type fan-out (H, four CZs from the core, H) followed by the pentagon of
five CZs. The direct construction entangles encoded blocks with 25 inter-block
CZs each; the shortcut seeds one physical CZ between cores before encoding and
lets the Hadamards inside the encoders do the rest.

Every build first records its gates in a CircuitLog, then runs the whole gate
list once with ``apply_gates``, so gate-count claims are audited against the
exact states those same gates produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph as gr
from .errors import OddChainError, VertexRangeError
from .report import Report
from .statevector import (
    DEFAULT_MAX_QUBITS,
    Gate,
    GateKind,
    StateVector,
    amp_distance,
    apply_gates,
    graph_state,
    plus_state,
)

__all__ = [
    "IDENTITY_H",
    "LogicalRegister",
    "CircuitLog",
    "record_ghz",
    "record_pentagon",
    "record_logical_cz",
    "build_cs2_direct",
    "build_cs2_elc",
    "verify_cs2_equivalence",
    "verify_chain_elc_steps",
    "build_logical_cluster",
    "construction_summary",
]

BLOCK_SIZE = 5


@dataclass(frozen=True)
class LogicalRegister:
    """One code block: the core qubit plus its four ancillae."""

    core: int
    ancillae: tuple[int, int, int, int]

    def __post_init__(self):
        if len({self.core, *self.ancillae}) != BLOCK_SIZE:
            raise VertexRangeError(f"register indices must be distinct: {self}")

    @classmethod
    def block(cls, j: int) -> LogicalRegister:
        """Register j in the standard layout: indices [5j, 5j+4], core first."""
        base = BLOCK_SIZE * j
        return cls(base, (base + 1, base + 2, base + 3, base + 4))

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.core, *self.ancillae)


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
    def cz_count(self) -> int:
        return self.count_cz()

    @property
    def hadamard_count(self) -> int:
        """Effective Hadamards; identity-position pairs are excluded."""
        return sum(
            1
            for gate, t in zip(self.gates, self.tags)
            if gate.kind is GateKind.H and t != IDENTITY_H
        )


def record_ghz(log: CircuitLog, reg: LogicalRegister) -> None:
    """Classical (repetition) encoding of a block: H, core-to-ancilla CZs, H.

    On a core in |0> with ancillae in |+>^4 this produces the five-qubit GHZ
    state.
    """
    log.append(Gate.h(reg.core))
    for anc in reg.ancillae:
        log.append(Gate.cz(reg.core, anc), tag="ghz")
    log.append(Gate.h(reg.core))


def record_pentagon(log: CircuitLog, reg: LogicalRegister) -> None:
    """The five-CZ cycle over the block, the quantum half of the encoding."""
    q = reg.qubits
    for i in range(BLOCK_SIZE):
        log.append(Gate.cz(q[i], q[(i + 1) % BLOCK_SIZE]), tag="pentagon")


def record_logical_cz(log: CircuitLog, reg_a: LogicalRegister, reg_b: LogicalRegister) -> None:
    """Logical CZ between two encoded blocks: all 25 inter-block physical CZs.

    This is the unique pattern consistent with conjugating the single
    core-core CZ by both block encoders, so the direct and shortcut builds
    target the same operator.
    """
    for qa in reg_a.qubits:
        for qb in reg_b.qubits:
            log.append(Gate.cz(qa, qb), tag="logical_cz")


def _check_chain_length(n_logical: int) -> None:
    if n_logical < 2 or n_logical % 2:
        raise OddChainError(
            f"logical chains must have an even length of at least 2, got {n_logical}"
        )


def _build_direct(
    n_logical: int, max_qubits: int
) -> tuple[StateVector, CircuitLog]:
    """Reference build: encode every block, then one logical CZ per chain edge.

    On the all-plus input the GHZ fan-out stage acts as identity, so only the
    pentagons and the 25-CZ logical gates are applied (and counted).
    """
    regs = [LogicalRegister.block(j) for j in range(n_logical)]
    log = CircuitLog()
    for reg in regs:
        record_pentagon(log, reg)
    for j in range(n_logical - 1):
        record_logical_cz(log, regs[j], regs[j + 1])
    return apply_gates(plus_state(BLOCK_SIZE * n_logical, max_qubits), log.gates), log


def _build_elc(n_logical: int, max_qubits: int) -> tuple[StateVector, CircuitLog]:
    """Shortcut build: physical core chain first, then the block encoders.

    Gate order per the encoders: first Hadamard set on the cores, GHZ-type
    CZs, second Hadamard set, pentagons. For a 2-chain the first Hadamard pair
    leaves the seeded two-qubit cluster state invariant and is tagged
    ``IDENTITY_H``; longer chains permute the core graph with it.
    """
    regs = [LogicalRegister.block(j) for j in range(n_logical)]
    log = CircuitLog()
    for j in range(n_logical - 1):
        log.append(Gate.cz(regs[j].core, regs[j + 1].core), tag="core")
    first_h_tag = IDENTITY_H if n_logical == 2 else None
    for reg in regs:
        log.append(Gate.h(reg.core), tag=first_h_tag)
    for reg in regs:
        for anc in reg.ancillae:
            log.append(Gate.cz(reg.core, anc), tag="ghz")
    for reg in regs:
        log.append(Gate.h(reg.core))
    for reg in regs:
        record_pentagon(log, reg)
    return apply_gates(plus_state(BLOCK_SIZE * n_logical, max_qubits), log.gates), log


def build_cs2_direct(max_qubits: int = DEFAULT_MAX_QUBITS) -> tuple[StateVector, CircuitLog]:
    """Two-block logical cluster state the expensive way (35 CZs)."""
    return _build_direct(2, max_qubits)


def build_cs2_elc(max_qubits: int = DEFAULT_MAX_QUBITS) -> tuple[StateVector, CircuitLog]:
    """Two-block logical cluster state via one seed CZ and Hadamards (19 CZs)."""
    return _build_elc(2, max_qubits)


def verify_cs2_equivalence(
    tol: float = 1e-9, max_qubits: int = DEFAULT_MAX_QUBITS
) -> Report:
    """Direct and shortcut two-block builds must agree amplitude for amplitude."""
    direct_sv, direct_log = build_cs2_direct(max_qubits)
    elc_sv, elc_log = build_cs2_elc(max_qubits)
    diff = amp_distance(direct_sv, elc_sv)
    return Report(
        passed=diff <= tol,
        details={
            "n_logical": 2,
            "direct": construction_summary("direct", 2, direct_log, diff <= tol, diff),
            "elc": construction_summary("elc", 2, elc_log, diff <= tol, diff),
            "logical_cz_count": direct_log.count_cz("logical_cz"),
            "cz_saving": direct_log.cz_count - elc_log.cz_count,
            "max_amp_diff": diff,
            "tol": tol,
        },
    )


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


def build_logical_cluster(
    n_logical: int, tol: float = 1e-9, max_qubits: int = DEFAULT_MAX_QUBITS
) -> tuple[StateVector, CircuitLog, Report]:
    """Full even-length logical cluster state, shortcut build, checked against direct.

    Returns the shortcut state and log plus a report comparing it to the
    reference construction (encode all blocks, then 25-CZ logical gates) at
    ``tol``.
    """
    _check_chain_length(n_logical)
    elc_sv, elc_log = _build_elc(n_logical, max_qubits)
    direct_sv, direct_log = _build_direct(n_logical, max_qubits)
    diff = amp_distance(direct_sv, elc_sv)
    report = Report(
        passed=diff <= tol,
        details={
            "n_logical": n_logical,
            "n_qubits": BLOCK_SIZE * n_logical,
            "direct": construction_summary(
                "direct", n_logical, direct_log, diff <= tol, diff
            ),
            "elc": construction_summary("elc", n_logical, elc_log, diff <= tol, diff),
            "max_amp_diff": diff,
            "tol": tol,
        },
    )
    return elc_sv, elc_log, report


def construction_summary(
    construction: str,
    n_logical: int,
    log: CircuitLog,
    equal_to_reference: bool,
    max_amp_diff: float,
) -> dict:
    """The CLI-facing per-construction record."""
    return {
        "construction": construction,
        "n_logical": n_logical,
        "cz_count": log.cz_count,
        "hadamard_count": log.hadamard_count,
        "equal_to_reference": bool(equal_to_reference),
        "max_amp_diff": float(max_amp_diff),
    }

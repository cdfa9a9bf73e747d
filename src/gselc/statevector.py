"""Exact dense-amplitude oracle for graph states and local Clifford gates.

Ground truth for every claim in the package: builds graph states, applies
single-qubit Cliffords and CZ exactly, and checks the Hadamard-pair /
edge-local-complementation identity, the local-complementation unitary with
its residual Z gates, and stabilizer fixed points.

Gates run in place: ``apply_gates`` copies its input once per gate list. Each
run of consecutive CZs is XORed into bit rows and applied as one multiply by
the int8 sign vector (-1)^(x^T U x) that ``_sign_vector`` builds by doubling
(``graph_state`` is 2^(-n/2) times it); a run that reduces to one CZ negates a
strided view. Single-qubit gates write into two half-size scratch buffers made
once per gate list. The tests keep index-based reference kernels that these
must match bit for bit.

Amplitudes stay float64 while they are all real: ``plus_state`` and
``graph_state`` return float64, and ``apply_gates`` keeps float64 when every
gate of the list is real (H, X, Z, CZ), else it promotes its copy once to
complex128. This is exact: for a real matrix entry c and a real amplitude x the
complex product (c+0j)(x+0j) has real part c*x - 0*0, the float64 product, and
an imaginary part of +-0. The public ``StateVector(n, amps)`` stores complex128.

Qubit convention: bit i of a basis-state index is qubit i (little endian), and
qubit i is graph vertex i. Every cross-module index map goes through this one
convention.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum
from itertools import groupby

import numpy as np

from . import graph as gr
from .errors import (
    BadArityError,
    SizeMismatchError,
    TooManyQubitsError,
    VertexRangeError,
)
from .graph import Graph, mask_vertices
from .report import Report

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "GateKind",
    "Gate",
    "StateVector",
    "plus_state",
    "graph_state",
    "apply_gate",
    "apply_gates",
    "amp_distance",
    "equal_exact",
    "equal_up_to_global_phase",
    "verify_theorem1",
    "verify_vertex_lc",
    "verify_stabilizers",
    "ghz_amplitude_check",
    "scan_theorem1_shared_neighbors",
]

DEFAULT_MAX_QUBITS = 20

_SQRT2 = np.sqrt(2.0)


class GateKind(Enum):
    H = "H"
    X = "X"
    Z = "Z"
    CZ = "CZ"
    SQRT_MINUS_IX = "SqrtMinusIX"
    SQRT_IZ = "SqrtIZ"


_MATRICES = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    # sqrt(-iX) = (-I + iX)/sqrt(2), sqrt(iZ) = (iI + Z)/sqrt(2)
    GateKind.SQRT_MINUS_IX: np.array([[-1, 1j], [1j, -1]], dtype=complex) / _SQRT2,
    GateKind.SQRT_IZ: np.array([[1j + 1, 0], [0, 1j - 1]], dtype=complex) / _SQRT2,
}
# the real parts of the real matrices (H, X, Z): on real amplitudes their float64
# products equal the real parts of the complex products bit for bit
_REAL = {kind: m.real.copy() for kind, m in _MATRICES.items() if not m.imag.any()}


@dataclass(frozen=True)
class Gate:
    """A gate instance: CZ takes 2 distinct targets, everything else takes 1."""

    kind: GateKind
    targets: tuple[int, ...]

    def __post_init__(self):
        want = 2 if self.kind is GateKind.CZ else 1
        if len(self.targets) != want:
            raise BadArityError(f"{self.kind.value} needs {want} target(s), got {self.targets}")
        if self.kind is GateKind.CZ and self.targets[0] == self.targets[1]:
            raise BadArityError(f"CZ targets must be distinct, got {self.targets}")

    @classmethod
    def h(cls, q: int) -> Gate:
        return cls(GateKind.H, (q,))

    @classmethod
    def x(cls, q: int) -> Gate:
        return cls(GateKind.X, (q,))

    @classmethod
    def z(cls, q: int) -> Gate:
        return cls(GateKind.Z, (q,))

    @classmethod
    def cz(cls, a: int, b: int) -> Gate:
        return cls(GateKind.CZ, (a, b))

    @classmethod
    def sqrt_minus_ix(cls, q: int) -> Gate:
        return cls(GateKind.SQRT_MINUS_IX, (q,))

    @classmethod
    def sqrt_iz(cls, q: int) -> Gate:
        return cls(GateKind.SQRT_IZ, (q,))

    def label(self) -> str:
        return f"{self.kind.value}({', '.join(map(str, self.targets))})"


@dataclass(frozen=True)
class StateVector:
    """Dense 2^n amplitude vector; unit norm, read-only.

    The public constructor stores a complex128 copy of ``amps``. States this
    module builds are float64 while every amplitude is real.
    """

    n_qubits: int
    amps: np.ndarray
    _owned: InitVar[bool] = False  # a buffer this module just allocated: keep, do not copy

    def __post_init__(self, _owned):
        if not _owned:
            object.__setattr__(self, "amps", np.array(self.amps, dtype=complex))
        if self.amps.shape != (1 << self.n_qubits,):
            raise SizeMismatchError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {self.amps.shape}"
            )
        if abs(float(np.vdot(self.amps, self.amps).real) - 1.0) > 1e-9:
            raise ValueError("state vector is not normalized")
        self.amps.setflags(write=False)


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Popcount parity of each int64 entry, as 0/1."""
    out = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        out ^= out >> shift
    return out & 1


def _check_cap(n: int, max_qubits: int) -> None:
    if n > max_qubits:
        raise TooManyQubitsError(f"{n} qubits exceeds the cap of {max_qubits}")


def plus_state(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """|+>^n, the blank slate every graph state starts from."""
    _check_cap(n, max_qubits)
    return StateVector(n, np.full(1 << n, 2.0 ** (-n / 2)), _owned=True)


def _single_qubit_inplace(amps: np.ndarray, n: int, q: int, matrix, scratch) -> None:
    # each product goes through out= into a scratch half, the reference's
    # arithmetic: in-place products differ from it in the last bit
    view = amps.reshape(1 << (n - q - 1), 2, 1 << q)
    a0, a1 = view[:, 0, :], view[:, 1, :]
    t0, t1 = scratch.reshape(2, *a0.shape)
    np.multiply(matrix[0, 0], a0, out=t0)
    np.multiply(matrix[0, 1], a1, out=t1)
    t0 += t1
    np.multiply(matrix[1, 0], a0, out=t1)
    a0[...] = t0
    np.multiply(matrix[1, 1], a1, out=t0)
    np.add(t0, t1, out=a1)


def _sign_vector(n: int, lower: list[int]) -> np.ndarray:
    """int8 (-1)^(x^T U x) for all x by doubling; bit j of ``lower[i]`` is U[j, i], j < i."""
    sign = np.empty(1 << n, dtype=np.int8)
    sign[0] = 1
    for i in range(n):
        half = sign[1 << i : 2 << i]
        half[:] = sign[: 1 << i]
        for j in mask_vertices(lower[i]):
            half.reshape(1 << (i - j - 1), 2, 1 << j)[:, 1, :] *= -1
    return sign


def graph_state(g: Graph, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """|G> = product of CZ over the edges on |+>^n: 2^(-n/2) times the sign vector, float64."""
    _check_cap(g.n, max_qubits)
    lower = [row & ((1 << i) - 1) for i, row in enumerate(g.rows)]
    amps = _sign_vector(g.n, lower) * 2.0 ** (-g.n / 2)
    return StateVector(g.n, amps, _owned=True)


def apply_gates(sv: StateVector, gates) -> StateVector:
    """Exact unitary action of a gate list, run in order on one private copy.

    Every target is checked before any work; the input state is never written.
    The copy stays float64 when the input is float64 and every gate is real
    (H, X, Z, CZ); otherwise it is promoted once to complex128.
    """
    gates = list(gates)
    n = sv.n_qubits
    for gate in gates:
        for t in gate.targets:
            if not 0 <= t < n:
                raise VertexRangeError(f"target {t} out of range for {n} qubits")
    real = sv.amps.dtype == np.float64 and all(
        gate.kind is GateKind.CZ or gate.kind in _REAL for gate in gates
    )
    matrices = _REAL if real else _MATRICES
    amps = sv.amps.astype(np.float64 if real else complex)
    single = any(gate.kind is not GateKind.CZ for gate in gates)
    scratch = np.empty((2, 1 << (n - 1)), dtype=amps.dtype) if single else None
    for is_cz, run in groupby(gates, key=lambda gate: gate.kind is GateKind.CZ):
        if not is_cz:
            for gate in run:
                _single_qubit_inplace(amps, n, gate.targets[0], matrices[gate.kind], scratch)
            continue
        lower = [0] * n  # the run as bit rows: a repeated pair cancels
        for gate in run:
            lower[max(gate.targets)] ^= 1 << min(gate.targets)
        pairs = [(j, i) for i, row in enumerate(lower) if row for j in mask_vertices(row)]
        if len(pairs) == 1:  # one CZ: negate a strided view
            (lo, hi), = pairs
            amps.reshape(1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)[:, 1, :, 1, :] *= -1
        elif pairs:
            amps *= _sign_vector(n, lower)
    return StateVector(n, amps, _owned=True)


def apply_gate(sv: StateVector, gate: Gate) -> StateVector:
    """Exact unitary action of one gate; returns a new state."""
    return apply_gates(sv, [gate])


def _check_same_size(a: StateVector, b: StateVector) -> None:
    if a.n_qubits != b.n_qubits:
        raise SizeMismatchError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")


def amp_distance(a: StateVector, b: StateVector) -> float:
    """Largest component-wise amplitude deviation."""
    _check_same_size(a, b)
    diff = a.amps - b.amps
    mags = np.abs(diff, out=diff) if diff.dtype == np.float64 else np.abs(diff)
    return float(mags.max())


def equal_exact(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """Component-wise equality; global phase matters here."""
    return amp_distance(a, b) <= tol


def equal_up_to_global_phase(
    a: StateVector, b: StateVector, tol: float = 1e-9
) -> tuple[bool, complex]:
    """Best unit phase lambda for a ~ lambda * b, and whether the residual fits tol.

    The phase is read off the largest-magnitude component of b; near-orthogonal
    states make that ill-conditioned, but then the residual fails anyway.
    """
    _check_same_size(a, b)
    k = int(np.argmax(np.abs(b.amps)))
    lam = a.amps[k] * np.conj(b.amps[k])
    mag = abs(lam)
    if mag == 0.0:
        return False, 1 + 0j
    lam /= mag
    ok = float(np.max(np.abs(a.amps - lam * b.amps))) <= tol
    return ok, complex(lam)


def verify_theorem1(
    g1: Graph,
    c1: int,
    g2: Graph,
    c2: int,
    tol: float = 1e-9,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Report:
    """Check H x H on the CZ-joined cores against the ELC'd graph state, exactly.

    LHS: CZ between the cores of |G1>|G2>, then a Hadamard on each core.
    RHS: the graph state of the edge-locally-complemented joined graph.
    """
    g1.check_vertex(c1)
    g2.check_vertex(c2)
    _check_cap(g1.n + g2.n, max_qubits)
    c2_global = c2 + g1.n
    joined = gr.toggle_edge(gr.disjoint_union(g1, g2), c1, c2_global)

    lhs_gates = [Gate.cz(c1, c2_global), Gate.h(c1), Gate.h(c2_global)]
    lhs = apply_gates(graph_state(gr.disjoint_union(g1, g2), max_qubits), lhs_gates)
    elc_graph = gr.edge_local_complement(joined, c1, c2_global)
    rhs = graph_state(elc_graph, max_qubits)

    diff = amp_distance(lhs, rhs)
    return Report(
        passed=diff <= tol,
        details={
            "n_qubits": g1.n + g2.n,
            "cores": [c1, c2_global],
            "lhs_gates": [gate.label() for gate in lhs_gates],
            "rhs_graph_edges": [list(e) for e in elc_graph.edges()],
            "max_amp_diff": diff,
            "tol": tol,
        },
    )


def verify_vertex_lc(
    g: Graph,
    a: int,
    tol: float = 1e-9,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Report:
    """Check the local-complementation unitary against the LC graph plus Z gates.

    sqrt(-iX) on the vertex with sqrt(iZ) on each neighbor reproduces the
    locally complemented graph state once a Z is applied to every neighbor,
    up to a global phase.
    """
    g.check_vertex(a)
    _check_cap(g.n, max_qubits)
    nbrs = mask_vertices(gr.neighborhood(g, a))

    lhs = apply_gates(graph_state(g, max_qubits), [*map(Gate.sqrt_iz, nbrs), Gate.sqrt_minus_ix(a)])
    rhs = apply_gates(graph_state(gr.local_complement(g, a), max_qubits), map(Gate.z, nbrs))

    ok, phase = equal_up_to_global_phase(lhs, rhs, tol)
    return Report(
        passed=ok,
        details={
            "vertex": a,
            "z_corrections": list(nbrs),
            "global_phase": [phase.real, phase.imag],
            "tol": tol,
        },
    )


def verify_stabilizers(
    g: Graph, tol: float = 1e-9, max_qubits: int = DEFAULT_MAX_QUBITS
) -> Report:
    """Check X_a prod_{b in N(a)} Z_b fixes |G> for every vertex a."""
    _check_cap(g.n, max_qubits)
    base = graph_state(g, max_qubits)
    worst = 0.0
    failures = []
    for a in range(g.n):
        nbrs = mask_vertices(gr.neighborhood(g, a))
        sv = apply_gates(base, [*map(Gate.z, nbrs), Gate.x(a)])
        diff = amp_distance(sv, base)
        worst = max(worst, diff)
        if diff > tol:
            failures.append(a)
    return Report(
        passed=not failures,
        details={
            "n_qubits": g.n,
            "generators_checked": g.n,
            "failed_vertices": failures,
            "max_amp_diff": worst,
            "tol": tol,
        },
    )


def ghz_amplitude_check(
    n_leaves: int, tol: float = 1e-12, max_qubits: int = DEFAULT_MAX_QUBITS
) -> Report:
    """Check star-graph amplitudes and that H on the hub gives the GHZ form.

    The star state carries sign (-1)^(hub bit times leaf parity); after H on
    the hub it becomes (|+>^(n+1) + |->^(n+1)) / sqrt(2).
    """
    n = n_leaves + 1
    _check_cap(n, max_qubits)
    sv = graph_state(gr.star(n_leaves), max_qubits)

    idx = np.arange(1 << n, dtype=np.int64)
    hub = idx & 1
    leaf_parity = _bit_parity(idx >> 1)
    expected_star = ((-1.0) ** (hub * leaf_parity)) * 2.0 ** (-n / 2)
    star_diff = float(np.max(np.abs(sv.amps - expected_star)))

    ghz = apply_gate(sv, Gate.h(0))
    expected_ghz = (1.0 + (-1.0) ** _bit_parity(idx)) * 2.0 ** (-(n + 1) / 2)
    ghz_diff = float(np.max(np.abs(ghz.amps - expected_ghz)))

    return Report(
        passed=star_diff <= tol and ghz_diff <= tol,
        details={
            "n_leaves": n_leaves,
            "star_max_amp_diff": star_diff,
            "ghz_max_amp_diff": ghz_diff,
            "tol": tol,
        },
    )


def scan_theorem1_shared_neighbors(
    trials: int = 50,
    seed: int = 0,
    max_n: int = 8,
    tol: float = 1e-9,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> Report:
    """Probe the excluded regime: Hadamard pairs on edges whose endpoints share a neighbor.

    The main identity is only claimed for disjoint neighborhoods. Here random
    graphs with a shared-neighbor edge are checked and the equality status is
    recorded, never asserted; ``passed`` just means the scan ran.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    equal_exact_count = 0
    equal_up_to_phase_count = 0
    first_counterexample = None
    attempts = 0
    while checked < trials and attempts < trials * 200:
        attempts += 1
        n = int(rng.integers(3, max_n + 1))
        g = gr.random_graph(rng, n)
        candidates = [
            (a, b)
            for a, b in g.edges()
            if (g.rows[a] & g.rows[b] & ~(1 << a) & ~(1 << b))
        ]
        if not candidates:
            continue
        a, b = candidates[int(rng.integers(0, len(candidates)))]
        lhs = apply_gates(graph_state(g, max_qubits), [Gate.h(a), Gate.h(b)])
        rhs = graph_state(gr.edge_local_complement(g, a, b), max_qubits)
        checked += 1
        if equal_exact(lhs, rhs, tol):
            equal_exact_count += 1
        ok_phase, _ = equal_up_to_global_phase(lhs, rhs, tol)
        if ok_phase:
            equal_up_to_phase_count += 1
        elif first_counterexample is None:
            first_counterexample = {
                "n": n,
                "edges": [list(e) for e in g.edges()],
                "edge": [a, b],
            }
    return Report(
        passed=True,
        details={
            "seed": seed,
            "cases_checked": checked,
            "equal_exact": equal_exact_count,
            "equal_up_to_phase": equal_up_to_phase_count,
            "first_counterexample": first_counterexample,
            "tol": tol,
        },
    )

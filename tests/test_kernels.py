"""The in-place kernels against the index-mask and per-edge references, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from gselc import graph as gr
from gselc import statevector as sv
from gselc.errors import VertexRangeError
from gselc.graph import all_graphs, random_graph

from conftest import reference_graph_state, reference_run

GATE_KINDS = list(sv.GateKind)


def random_state(rng: np.random.Generator, n: int) -> sv.StateVector:
    raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return sv.StateVector(n, raw / np.linalg.norm(raw))


def random_circuit(rng: np.random.Generator, n: int, length: int) -> list[sv.Gate]:
    gates = []
    for _ in range(length):
        kind = GATE_KINDS[int(rng.integers(len(GATE_KINDS)))]
        if kind is sv.GateKind.CZ:
            if n < 2:
                continue
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(sv.Gate.cz(a, b))
        else:
            gates.append(sv.Gate(kind, (int(rng.integers(n)),)))
    return gates


@pytest.mark.parametrize("n", range(1, 13))
def test_gate_kernels_match_reference(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        state = random_state(rng, n)
        gates = random_circuit(rng, n, 40)
        got = sv.apply_gates(state, gates)
        assert np.array_equal(got.amps, reference_run(state.amps, n, gates))
        one_by_one = state
        for gate in gates:
            one_by_one = sv.apply_gate(one_by_one, gate)
        assert np.array_equal(one_by_one.amps, got.amps)


def test_cz_every_pair_matches_reference():
    rng = np.random.default_rng(7)
    n = 6
    state = random_state(rng, n)
    for a in range(n):
        for b in range(n):
            if a != b:
                gate = sv.Gate.cz(a, b)
                got = sv.apply_gate(state, gate).amps
                assert np.array_equal(got, reference_run(state.amps, n, [gate]))


@pytest.mark.parametrize("n", range(0, 6))
def test_graph_state_matches_reference_on_all_small_graphs(n):
    for g in all_graphs(n):
        assert np.array_equal(sv.graph_state(g).amps, reference_graph_state(g))


def test_graph_state_matches_reference_on_random_graphs():
    rng = np.random.default_rng(12)
    for n in range(6, 13):
        for _ in range(4):
            g = random_graph(rng, n)
            assert np.array_equal(sv.graph_state(g).amps, reference_graph_state(g))
    dense = gr.from_edges(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    assert np.array_equal(sv.graph_state(dense).amps, reference_graph_state(dense))


def test_apply_gates_leaves_input_unchanged_and_read_only():
    rng = np.random.default_rng(3)
    state = random_state(rng, 5)
    before = state.amps.copy()
    out = sv.apply_gates(state, random_circuit(rng, 5, 30))
    assert np.array_equal(state.amps, before)
    assert not state.amps.flags.writeable
    assert not out.amps.flags.writeable
    assert not np.shares_memory(out.amps, state.amps)
    assert np.array_equal(sv.apply_gates(state, []).amps, before)


def test_apply_gates_checks_every_target_first():
    state = sv.plus_state(3)
    before = state.amps.copy()
    with pytest.raises(VertexRangeError):
        sv.apply_gates(state, [sv.Gate.h(0), sv.Gate.cz(1, 3)])
    assert np.array_equal(state.amps, before)


SINGLE_KINDS = [kind for kind in GATE_KINDS if kind is not sv.GateKind.CZ]


def cz_run(rng: np.random.Generator, n: int, length: int) -> list[sv.Gate]:
    if n < 2:
        return []
    return [sv.Gate.cz(*(int(q) for q in rng.choice(n, size=2, replace=False))) for _ in range(length)]


def assert_matches_reference(state: sv.StateVector, gates: list[sv.Gate]) -> None:
    got = sv.apply_gates(state, gates)
    assert np.array_equal(got.amps, reference_run(state.amps, state.n_qubits, gates))


@pytest.mark.parametrize("n", range(1, 13))
def test_fused_cz_runs_match_reference(n):
    rng = np.random.default_rng(2000 + n)
    state = random_state(rng, n)
    # runs of every length 0..40, each followed by a single-qubit gate of every kind in turn
    gates = []
    for length in range(41):
        gates += cz_run(rng, n, length)
        gates.append(sv.Gate(SINGLE_KINDS[length % len(SINGLE_KINDS)], (int(rng.integers(n)),)))
    assert_matches_reference(state, gates)
    # lists that begin or end with a run, or are one run
    run = cz_run(rng, n, 7)
    h = sv.Gate.h(int(rng.integers(n)))
    for case in (run + [h], [h] + run, run + [h] + run, run):
        assert_matches_reference(state, case)


@pytest.mark.parametrize("n", range(2, 13))
def test_fused_cz_runs_that_cancel_or_cover_every_pair(n):
    rng = np.random.default_rng(3000 + n)
    state = random_state(rng, n)
    run = cz_run(rng, n, 12)
    flipped = [sv.Gate.cz(b, a) for a, b in (gate.targets for gate in run)]
    single = sv.Gate.sqrt_iz(n - 1)
    # the run followed by itself reversed cancels to nothing, also between gates
    cancelled = run + flipped[::-1]
    assert np.array_equal(sv.apply_gates(state, cancelled).amps, state.amps)
    assert_matches_reference(state, [single] + cancelled + [single])
    # repeated pairs that leave exactly one CZ
    assert_matches_reference(state, [single] + cancelled + run[:1] + [single])
    every_pair = [sv.Gate.cz(a, b) for a in range(n) for b in range(a + 1, n)]
    assert_matches_reference(state, every_pair)
    assert_matches_reference(state, [single] + every_pair + [sv.Gate.x(0)] + every_pair[::-1])


REAL_KINDS = [sv.GateKind.H, sv.GateKind.X, sv.GateKind.Z]
COMPLEX_KINDS = [sv.GateKind.SQRT_MINUS_IX, sv.GateKind.SQRT_IZ]


def real_circuit(rng: np.random.Generator, n: int, length: int) -> list[sv.Gate]:
    """Real single-qubit gates, each after a CZ run of length 0-6."""
    gates = []
    for _ in range(length):
        gates += cz_run(rng, n, int(rng.integers(0, 7)))
        gates.append(sv.Gate(REAL_KINDS[int(rng.integers(len(REAL_KINDS)))], (int(rng.integers(n)),)))
    return gates


def real_inputs(rng: np.random.Generator, n: int) -> list[sv.StateVector]:
    return [sv.plus_state(n), sv.graph_state(random_graph(rng, n))]


@pytest.mark.parametrize("n", range(1, 13))
def test_real_circuits_stay_float64_and_match_reference(n):
    rng = np.random.default_rng(4000 + n)
    for state in real_inputs(rng, n):
        assert state.amps.dtype == np.float64
        for _ in range(3):
            gates = real_circuit(rng, n, 15)
            got = sv.apply_gates(state, gates)
            assert got.amps.dtype == np.float64
            assert np.array_equal(got.amps, reference_run(state.amps.astype(complex), n, gates))


@pytest.mark.parametrize("n", range(1, 13))
def test_mixed_circuits_promote_and_match_reference(n):
    rng = np.random.default_rng(5000 + n)
    for state in real_inputs(rng, n):
        for kind in COMPLEX_KINDS:
            gates = real_circuit(rng, n, 8)
            odd = sv.Gate(kind, (int(rng.integers(n)),))
            for at in (0, len(gates) // 2, len(gates)):  # first, middle, last
                mixed = gates[:at] + [odd] + gates[at:]
                want = reference_run(state.amps.astype(complex), n, mixed)
                got = sv.apply_gates(state, mixed)
                assert got.amps.dtype == np.complex128
                assert np.array_equal(got.amps, want)
                # gate by gate, the state is promoted at the complex gate
                one_by_one = state
                for gate in mixed:
                    one_by_one = sv.apply_gate(one_by_one, gate)
                assert np.array_equal(one_by_one.amps, want)

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

"""Logical block encoding, the two cluster-state constructions, and gate counts."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from gselc import encoding as enc
from gselc import graph as gr
from gselc import statevector as sv
from gselc.errors import OddChainError, TooManyQubitsError

from conftest import MINUS, ONE, PLUS, ZERO, complete_bipartite, kron_state


def state_of(amps):
    amps = np.asarray(amps, dtype=complex)
    return sv.StateVector(int(np.log2(amps.size)), amps)


def block5(core_factor):
    """Five-qubit register state: the core factor on qubit 0, |+> ancillae."""
    return kron_state(core_factor, PLUS, PLUS, PLUS, PLUS)


def plus_pow(n):
    return kron_state(*([PLUS] * n))


def minus_pow(n):
    return kron_state(*([MINUS] * n))


def record_encoder(log, j):
    """Full block encoder: GHZ fan-out then pentagon (9 CZ, 2 H per block)."""
    enc.record_ghz(log, j)
    enc.record_pentagon(log, j)


def replay(n_logical, log):
    """The state a logged N-block build makes: its gates run on |+>^(5N)."""
    return sv.apply_gates(sv.plus_state(5 * n_logical), log.gates)


def run_recorded(state, record, *blocks):
    """Record ``record``'s gates for each block index in a fresh log, then run them."""
    log = enc.CircuitLog()
    for j in blocks:
        record(log, j)
    return sv.apply_gates(state, log.gates), log


def test_register_layout():
    assert tuple(enc.block(0)) == (0, 1, 2, 3, 4)
    assert tuple(enc.block(2)) == (10, 11, 12, 13, 14)
    # the core comes first: the GHZ encoder's Hadamards and fan-out start there
    log = enc.CircuitLog()
    enc.record_ghz(log, 2)
    assert [g.targets for g in log.gates] == [(10,), (10, 11), (10, 12), (10, 13), (10, 14), (10,)]


def test_ghz_encode_on_zero():
    out, log = run_recorded(state_of(block5(ZERO)), enc.record_ghz, 0)
    expected = (plus_pow(5) + minus_pow(5)) / np.sqrt(2)
    assert np.max(np.abs(out.amps - expected)) <= 1e-12
    assert log.count_cz() == 4 and log.hadamard_count == 2


def test_ghz_encode_on_one():
    out, _ = run_recorded(state_of(block5(ONE)), enc.record_ghz, 0)
    expected = (plus_pow(5) - minus_pow(5)) / np.sqrt(2)
    assert np.max(np.abs(out.amps - expected)) <= 1e-12


def test_pentagon_on_plus_gives_cycle_state():
    out, log = run_recorded(sv.plus_state(5), enc.record_pentagon, 0)
    assert sv.equal_exact(out, sv.graph_state(gr.cycle(5)), 1e-12)
    assert log.count_cz() == 5


def test_pentagon_on_minus_gives_z_dressed_cycle_state():
    out, _ = run_recorded(state_of(minus_pow(5)), enc.record_pentagon, 0)
    dressed = sv.graph_state(gr.cycle(5))
    for q in range(5):
        dressed = sv.apply_gates(dressed, [sv.Gate.z(q)])
    assert sv.equal_exact(out, dressed, 1e-12)


def test_pentagon_twice_is_identity():
    twice, log = run_recorded(sv.plus_state(5), enc.record_pentagon, 0, 0)
    assert sv.equal_exact(twice, sv.plus_state(5), 1e-12)
    assert log.count_cz() == 10


def test_encode_logical_maps_plus_minus():
    plus_l, log = run_recorded(state_of(block5(PLUS)), record_encoder, 0)
    assert log.count_cz() == 9 and log.hadamard_count == 2
    assert sv.equal_exact(plus_l, sv.graph_state(gr.cycle(5)), 1e-12)

    minus_l, _ = run_recorded(state_of(block5(MINUS)), record_encoder, 0)
    dressed = sv.graph_state(gr.cycle(5))
    for q in range(5):
        dressed = sv.apply_gates(dressed, [sv.Gate.z(q)])
    assert sv.equal_exact(minus_l, dressed, 1e-12)
    # the logical basis pair is orthogonal
    assert abs(np.vdot(minus_l.amps, plus_l.amps)) <= 1e-9


def test_cs2_direct_counts():
    _, log, _ = enc.build_logical_cluster(2)
    state = replay(2, log)
    assert log.count_cz() == 35
    assert log.count_cz("logical_cz") == 25
    assert log.hadamard_count == 0
    assert state.amps.size == 1024
    assert abs(np.vdot(state.amps, state.amps).real - 1.0) <= 1e-9


def test_cs2_elc_counts():
    _, _, log = enc.build_logical_cluster(2)
    assert log.count_cz() == 19
    assert log.hadamard_count == 2
    assert log.tags.count(enc.IDENTITY_H) == 2


def test_cs2_constructions_agree():
    _, direct_log, elc_log = enc.build_logical_cluster(2)
    assert sv.equal_exact(replay(2, direct_log), replay(2, elc_log), 1e-9)


def test_cs2_elc_pre_pentagon_state():
    _, _, log = enc.build_logical_cluster(2)
    prefix = [gate for gate, tag in zip(log.gates, log.tags) if tag != "pentagon"]
    mid = sv.apply_gates(sv.plus_state(10), prefix)

    plus5, minus5 = plus_pow(5), minus_pow(5)
    expected = 0.5 * (
        np.kron(plus5 + minus5, plus5) + np.kron(plus5 - minus5, minus5)
    )
    assert np.max(np.abs(mid.amps - expected)) <= 1e-9

    # same state as the complete-bipartite graph state on the two blocks
    two = gr.toggle_edge(gr.disjoint_union(gr.star(4), gr.star(4)), 0, 5)
    k55 = gr.edge_local_complement(two, 0, 5)
    assert k55 == complete_bipartite(5, 5)
    assert sv.equal_exact(mid, sv.graph_state(k55), 1e-9)


def test_first_hadamard_pair_leaves_two_qubit_cluster_invariant():
    seeded = sv.apply_gates(sv.plus_state(2), [sv.Gate.cz(0, 1)])
    after = sv.apply_gates(seeded, [sv.Gate.h(0), sv.Gate.h(1)])
    assert sv.equal_exact(after, seeded, 1e-12)


def test_encoders_act_as_pentagons_on_all_plus():
    state, _ = run_recorded(sv.plus_state(10), record_encoder, 0, 1)
    pent, _ = run_recorded(sv.plus_state(10), enc.record_pentagon, 0, 1)
    assert sv.equal_exact(state, pent, 1e-12)


def test_logical_cz_identity_on_random_states():
    # conjugating the core-core CZ through both encoders gives the 25-CZ
    # inter-block pattern, as an operator identity
    rng = np.random.default_rng(59)
    for _ in range(3):
        raw = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        psi = state_of(raw / np.linalg.norm(raw))

        lhs = sv.apply_gates(psi, [sv.Gate.cz(enc.block(0)[0], enc.block(1)[0])])
        lhs, _ = run_recorded(lhs, record_encoder, 0, 1)

        rhs, _ = run_recorded(psi, record_encoder, 0, 1)
        logical_cz = enc.CircuitLog()
        enc.record_logical_cz(logical_cz, 0, 1)
        rhs = sv.apply_gates(rhs, logical_cz.gates)

        assert sv.equal_exact(lhs, rhs, 1e-9)


def test_cs2_is_the_two_block_logical_build():
    rep, direct_log, elc_log = enc.build_logical_cluster(2)
    assert rep.passed
    assert rep.details["direct"]["cz_count"] == direct_log.count_cz() == 35
    assert direct_log.count_cz("logical_cz") == 25
    assert rep.details["elc"]["cz_count"] == elc_log.count_cz() == 19
    assert rep.details["elc"]["hadamard_count"] == elc_log.hadamard_count == 2
    assert direct_log.count_cz() - elc_log.count_cz() == 16


def test_construction_summary_schema():
    rep, _, _ = enc.build_logical_cluster(2)
    for name in ("direct", "elc"):
        doc = rep.details[name]
        assert set(doc) == {
            "construction",
            "n_logical",
            "cz_count",
            "hadamard_count",
            "equal_to_reference",
            "max_amp_diff",
        }
        assert doc["construction"] == name and doc["n_logical"] == 2
    assert rep.details["elc"]["cz_count"] == 19


@pytest.mark.parametrize("n", [2, 4])
def test_closed_form_counts(n):
    rep, direct_log, elc_log = enc.build_logical_cluster(n)
    assert rep.passed and enc.counts_match(n, direct_log, elc_log)
    assert direct_log.count_cz() == 5 * n + 25 * (n - 1)
    assert direct_log.count_cz("logical_cz") == 25 * (n - 1)
    assert direct_log.hadamard_count == 0
    assert elc_log.count_cz() == 10 * n - 1
    assert elc_log.hadamard_count == 2 * n - (2 if n == 2 else 0)
    assert (direct_log.count_cz(), elc_log.count_cz()) == {2: (35, 19), 4: (95, 39)}[n]
    # one surplus gate in either log breaks the match
    for log, gate in ((direct_log, sv.Gate.cz(0, 5)), (elc_log, sv.Gate.h(0))):
        log.append(gate)
        assert not enc.counts_match(n, direct_log, elc_log)
        log.gates.pop()
        log.tags.pop()
    assert enc.counts_match(n, direct_log, elc_log)


def test_chain_elc_steps_rejects_odd_lengths():
    for bad in (3, 1, 0, -2):
        with pytest.raises(OddChainError):
            enc.verify_chain_elc_steps(bad)


def test_chain_elc_steps_reference_case():
    rep = enc.verify_chain_elc_steps(4)
    assert rep.passed
    steps = rep.details["steps"]
    assert steps[0]["graph_edges"] == [[0, 1], [0, 2], [2, 3]]
    assert steps[1]["graph_edges"] == [[0, 1], [0, 3], [2, 3]]


def test_chain_elc_steps_two_and_six():
    rep2 = enc.verify_chain_elc_steps(2)
    assert rep2.passed
    assert rep2.details["steps"][0]["graph_edges"] == [[0, 1]]  # ELC fixed point
    assert enc.verify_chain_elc_steps(6).passed


def test_build_logical_cluster_two_blocks():
    rep, direct_log, log = enc.build_logical_cluster(2)
    assert rep.passed
    assert log.count_cz() == 19
    assert rep.details["direct"]["cz_count"] == 35
    # log/compute consistency: the logged gates, replayed, make the states the report compared
    replayed = replay(2, log)
    assert sv.amp_distance(replayed, replay(2, direct_log)) == rep.details["max_amp_diff"]
    assert len(log.tags) == len(log.gates)
    assert log.count_cz() == sum(1 for gate in log.gates if gate.kind is sv.GateKind.CZ)


def test_build_logical_cluster_rejects_odd():
    for n_logical in (-1, 0, 3):
        with pytest.raises(OddChainError):
            enc.build_logical_cluster(n_logical)


def test_circuit_log_counts_never_decrease():
    log = enc.CircuitLog()
    seen = []
    state = sv.plus_state(3)
    for gate in (sv.Gate.h(0), sv.Gate.cz(0, 1), sv.Gate.cz(1, 2), sv.Gate.h(2)):
        log.append(gate)
        seen.append((log.count_cz(), log.hadamard_count))
    assert seen == [(0, 1), (1, 1), (2, 1), (2, 2)]


def test_over_cap_builds_fail_before_recording_a_gate(monkeypatch):
    # 5 * 10**5 qubits: recording the gates alone would take seconds and hundreds of MB
    def no_recording(self, gate, tag=None):
        raise AssertionError("a gate was recorded before the cap check")

    monkeypatch.setattr(enc.CircuitLog, "append", no_recording)
    with pytest.raises(TooManyQubitsError, match="exceeds the cap of 20"):
        enc.build_logical_cluster(10**5)


@pytest.mark.parametrize("n_logical", [2, 4])
def test_streamed_comparison_equals_amp_distance_of_both_builds(n_logical):
    # the materialised reference: both returned logs replayed into full states
    rep, direct_log, elc_log = enc.build_logical_cluster(n_logical)
    diff = sv.amp_distance(replay(n_logical, direct_log), replay(n_logical, elc_log))
    assert rep.passed
    assert rep.details["max_amp_diff"] == diff  # the same bits: a maximum of the same exact values
    assert rep.details["direct"]["max_amp_diff"] == rep.details["elc"]["max_amp_diff"] == diff


def test_streamed_comparison_fails_without_one_pentagon_cz(monkeypatch):
    # negative control: the shortcut log less its last pentagon CZ makes a different state
    record = enc._record_elc

    def short_one(n_logical):
        log = record(n_logical)
        last = max(i for i, tag in enumerate(log.tags) if tag == "pentagon")
        del log.gates[last], log.tags[last]
        return log

    monkeypatch.setattr(enc, "_record_elc", short_one)
    rep, _, _ = enc.build_logical_cluster(2)
    assert not rep.passed
    assert rep.details["max_amp_diff"] > 1e-3  # amplitudes are 2^-5: whole sign flips
    assert rep.details["elc"]["equal_to_reference"] is False


def test_streamed_comparison_checks_both_norms(monkeypatch):
    # an H without its 1/sqrt(2) doubles the norm: the same error StateVector raises
    monkeypatch.setitem(sv._REAL, sv.GateKind.H, (1.0, 1.0, 1.0, -1.0))
    with pytest.raises(ValueError, match="not normalized"):
        enc.build_logical_cluster(2)
    with pytest.raises(ValueError, match="not normalized"):
        replay(2, enc._record_elc(2))
    with pytest.raises(ValueError, match="not normalized"):
        sv._streamed_distance(3, [], [sv.Gate.h(0)])
    with pytest.raises(ValueError, match="not normalized"):
        sv._streamed_distance(3, [sv.Gate.h(0)], [])
    with pytest.raises(ValueError, match="not normalized"):  # past one tile: the norm of each class tile
        sv._streamed_distance(17, [sv.Gate.cz(0, 16)], [sv.Gate.cz(0, 16), sv.Gate.h(0)])


def test_logical_cluster_build_makes_no_full_state():
    # the parent build made both 20-qubit float64 states (8 MB each) and a copy
    enc.build_logical_cluster(4)  # warm
    tracemalloc.start()
    try:
        rep, _, _ = enc.build_logical_cluster(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 3 << 20

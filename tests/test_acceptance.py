"""Acceptance criteria, one test each, with stated tolerances and time budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see one status line per
criterion.
"""

from __future__ import annotations

import time

import numpy as np

from gselc import encoding as enc
from gselc import graph as gr
from gselc import statevector as sv
from gselc.graph import all_graphs, random_graph

from conftest import MINUS, PLUS, ZERO, complete_bipartite, kron_state


def _criterion(label: str, ok: bool, note: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"acceptance {label}: {status}{suffix}")
    return ok


def test_c01_linear_chain_replay():
    g = gr.path(4)
    gr.local_complement(g, 1)  # warm-up

    t0 = time.perf_counter()
    step1 = gr.local_complement(g, 1)
    step2 = gr.local_complement(step1, 2)
    final = gr.local_complement(step2, 1)
    elapsed = time.perf_counter() - t0

    ok = (
        step1.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]
        and step2.edges() == [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        and final.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
        and final.edge_count == 4
        and final == gr.edge_local_complement(g, 1, 2)
        and elapsed < 1e-3
    )
    assert _criterion("01 linear-chain replay", ok, f"{elapsed * 1e3:.3f} ms")


def test_c02_theorem1_randomized_suite():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    all_passed = True
    for _ in range(200):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        g1, g2 = random_graph(rng, n1), random_graph(rng, n2)
        c1, c2 = int(rng.integers(0, n1)), int(rng.integers(0, n2))
        rep = sv.verify_theorem1(g1, c1, g2, c2, tol=1e-9)
        worst = max(worst, rep.details["max_amp_diff"])
        all_passed = all_passed and rep.passed
    elapsed = time.perf_counter() - t0
    ok = all_passed and worst <= 1e-9 and elapsed < 10.0
    assert _criterion(
        "02 theorem1 200 trials", ok, f"max diff {worst:.2e}, {elapsed:.2f} s"
    )


def test_c03_complete_bipartite_claim():
    joined = gr.toggle_edge(gr.disjoint_union(gr.star(4), gr.star(4)), 0, 5)
    gr.edge_local_complement(joined, 0, 5)  # warm-up

    t0 = time.perf_counter()
    k = gr.edge_local_complement(joined, 0, 5)
    elapsed = time.perf_counter() - t0

    ok = (
        k == complete_bipartite(5, 5)
        and k.edge_count == 25
        and elapsed < 1e-3
    )
    assert _criterion("03 complete bipartite", ok, f"{elapsed * 1e3:.3f} ms")


def test_c04_gate_counts():
    rep, direct_log, elc_log = enc.build_logical_cluster(2)
    ok = (
        rep.passed
        and direct_log.count_cz() == 35
        and direct_log.count_cz("logical_cz") == 25
        and elc_log.count_cz() == 19
        and elc_log.hadamard_count == 2
    )
    assert _criterion(
        "04 gate counts",
        ok,
        f"direct {direct_log.count_cz()}/{direct_log.count_cz('logical_cz')}, "
        f"elc {elc_log.count_cz()} cz + {elc_log.hadamard_count} H",
    )


def test_c05_cs2_construction_identity():
    t0 = time.perf_counter()
    _, direct_log, elc_log = enc.build_logical_cluster(2)
    direct = sv.apply_gates(sv.plus_state(10), direct_log.gates)
    shortcut = sv.apply_gates(sv.plus_state(10), elc_log.gates)
    diff = sv.amp_distance(direct, shortcut)
    elapsed = time.perf_counter() - t0
    ok = direct.amps.size == 1024 and diff <= 1e-9 and elapsed < 1.0
    assert _criterion("05 cs2 identity", ok, f"diff {diff:.2e}, {elapsed:.2f} s")


def test_c06_ghz_encode():
    core_zero = kron_state(ZERO, PLUS, PLUS, PLUS, PLUS)
    state = sv.StateVector(5, core_zero)
    log = enc.CircuitLog()
    enc.record_ghz(log, 0)
    out = sv.apply_gates(state, log.gates)
    expected = (kron_state(*([PLUS] * 5)) + kron_state(*([MINUS] * 5))) / np.sqrt(2)
    diff = float(np.max(np.abs(out.amps - expected)))
    ok = diff <= 1e-12
    assert _criterion("06 ghz encode", ok, f"diff {diff:.2e}")


def test_c07_pre_pentagon_intermediate():
    _, _, log = enc.build_logical_cluster(2)
    prefix = [gate for gate, tag in zip(log.gates, log.tags) if tag != "pentagon"]
    mid = sv.apply_gates(sv.plus_state(10), prefix)
    plus5 = kron_state(*([PLUS] * 5))
    minus5 = kron_state(*([MINUS] * 5))
    expected = 0.5 * (np.kron(plus5 + minus5, plus5) + np.kron(plus5 - minus5, minus5))
    diff = float(np.max(np.abs(mid.amps - expected)))
    ok = diff <= 1e-9
    assert _criterion("07 pre-pentagon state", ok, f"diff {diff:.2e}")


def test_c08_chain_steps():
    rep = enc.verify_chain_elc_steps(4)
    steps = rep.details["steps"]
    ok = (
        rep.passed
        and steps[0]["graph_edges"] == [[0, 1], [0, 2], [2, 3]]
        and steps[1]["graph_edges"] == [[0, 1], [0, 3], [2, 3]]
    )
    assert _criterion("08 chain elc steps", ok)


def test_c09_four_block_logical_cluster():
    t0 = time.perf_counter()
    rep, _, _ = enc.build_logical_cluster(4)
    elapsed = time.perf_counter() - t0
    diff = rep.details["max_amp_diff"]
    ok = (
        rep.passed
        and rep.details["n_qubits"] == 20
        and diff <= 1e-9
        and elapsed < 60.0
    )
    assert _criterion("09 cs4 on 20 qubits", ok, f"diff {diff:.2e}, {elapsed:.1f} s")


def test_c10_property_suites():
    t0 = time.perf_counter()

    lc_involution = True
    elc_involution = True
    braid = True
    for n in range(0, 6):
        for g in all_graphs(n):
            for a in range(n):
                lc_involution &= gr.local_complement(gr.local_complement(g, a), a) == g
            for a, b in g.edges():
                elc_involution &= (
                    gr.edge_local_complement(gr.edge_local_complement(g, a, b), a, b) == g
                )
                lhs = gr.local_complement(
                    gr.local_complement(gr.local_complement(g, a), b), a
                )
                rhs = gr.local_complement(
                    gr.local_complement(gr.local_complement(g, b), a), b
                )
                braid &= lhs == rhs

    rng = np.random.default_rng(0)
    stabilizers = True
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(1, 9)))
        stabilizers &= sv.verify_stabilizers(g, tol=1e-9).passed

    elapsed = time.perf_counter() - t0
    ok = lc_involution and elc_involution and braid and stabilizers and elapsed < 30.0
    assert _criterion(
        "10 property suites",
        ok,
        f"lc² {lc_involution}, elc² {elc_involution}, braid {braid}, "
        f"stabilizers {stabilizers}, {elapsed:.1f} s",
    )

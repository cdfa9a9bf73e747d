"""Dense-amplitude oracle: gate algebra, graph states, and the verification ops."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from gselc import graph as gr
from gselc import statevector as sv
from gselc.errors import (
    BadArityError,
    GselcError,
    SizeMismatchError,
    TooManyQubitsError,
    TooSmallError,
    VertexRangeError,
)
from gselc.graph import all_graphs, random_graph

from conftest import MINUS, ONE, PLUS, ZERO, edge_parity, kron_state


def state_of(amps):
    amps = np.asarray(amps, dtype=complex)
    return sv.StateVector(int(np.log2(amps.size)), amps)


def test_plus_state_single_qubit():
    assert np.allclose(sv.plus_state(1).amps, PLUS)
    assert np.allclose(sv.graph_state(gr.new_empty(1)).amps, PLUS)


def test_single_edge_graph_state():
    got = sv.graph_state(gr.from_edges(2, [(0, 1)]))
    assert np.allclose(got.amps, np.array([1, 1, 1, -1]) / 2)


def test_cycle5_graph_state_signs():
    got = sv.graph_state(gr.cycle(5))
    expected = (-1.0) ** edge_parity(gr.cycle(5)) / np.sqrt(32)
    assert np.max(np.abs(got.amps - expected)) < 1e-12
    assert edge_parity(gr.cycle(5))[0b11111] == 1  # all five edges inside


def test_graph_state_amplitudes_match_form_exhaustive():
    # <x|G> = 2^(-n/2) (-1)^(number of edges inside the support of x)
    for n in range(0, 7):
        for g in all_graphs(n):
            state = sv.graph_state(g)
            expected = (-1.0) ** edge_parity(g) * 2.0 ** (-n / 2)
            assert np.max(np.abs(state.amps - expected)) < 1e-12


def test_gate_arity_validation():
    with pytest.raises(BadArityError):
        sv.Gate(sv.GateKind.CZ, (1,))
    with pytest.raises(BadArityError):
        sv.Gate(sv.GateKind.H, (0, 1))
    with pytest.raises(BadArityError):
        sv.Gate.cz(2, 2)
    with pytest.raises(VertexRangeError):
        sv.apply_gates(sv.plus_state(2), [sv.Gate.h(2)])


def test_non_integer_targets_fail_when_the_gate_is_built():
    # a float target would pass the range check and fail later inside the planner
    for make in (lambda: sv.Gate.h(1.5), lambda: sv.Gate.cz(0, 1.0), lambda: sv.Gate(sv.GateKind.X, ("0",))):
        with pytest.raises(BadArityError, match="must be integers"):
            make()
    # numpy integers are indices: they pass, stored as ints, so that 1 << 9 is not a uint8 0
    gate = sv.Gate.cz(np.int64(0), np.uint8(9))
    assert gate.targets == (0, 9) and all(type(t) is int for t in gate.targets)
    assert gate == sv.Gate.cz(0, 9) and gate.label() == "CZ(0, 9)"
    plus = sv.plus_state(10)
    got = sv.apply_gates(plus, [sv.Gate.h(np.uint8(0)), gate]).amps
    assert np.array_equal(got, sv.apply_gates(plus, [sv.Gate.h(0), sv.Gate.cz(0, 9)]).amps)
    with pytest.raises(VertexRangeError, match="not an integer"):
        sv.verify_theorem1(gr.path(2), 1.0, gr.path(2), 0)


def test_gate_matrix_identities():
    eye = np.eye(2)
    for kind in (sv.GateKind.H, sv.GateKind.X, sv.GateKind.Z):
        m = sv._MATRICES[kind]
        assert np.max(np.abs(m @ m - eye)) <= 1e-12
    sqx = sv._MATRICES[sv.GateKind.SQRT_MINUS_IX]
    assert np.max(np.abs(sqx @ sqx - (-1j) * sv._MATRICES[sv.GateKind.X])) <= 1e-12
    sqz = sv._MATRICES[sv.GateKind.SQRT_IZ]
    assert np.max(np.abs(sqz @ sqz - 1j * sv._MATRICES[sv.GateKind.Z])) <= 1e-12


def test_cz_involution_on_state():
    rng = np.random.default_rng(41)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = state_of(amps / np.linalg.norm(amps))
    twice = sv.apply_gates(sv.apply_gates(state, [sv.Gate.cz(0, 2)]), [sv.Gate.cz(0, 2)])
    assert np.max(np.abs(twice.amps - state.amps)) <= 1e-12


def test_h_and_sqrt_on_basis_states():
    zero = state_of(ZERO)
    assert np.allclose(sv.apply_gates(zero, [sv.Gate.h(0)]).amps, PLUS)
    once = sv.apply_gates(zero, [sv.Gate.sqrt_minus_ix(0)])
    twice = sv.apply_gates(once, [sv.Gate.sqrt_minus_ix(0)])
    assert np.max(np.abs(twice.amps - (-1j) * ONE)) <= 1e-12


def test_norm_preserved_over_random_circuit():
    rng = np.random.default_rng(43)
    state = sv.plus_state(4)
    single = [sv.GateKind.H, sv.GateKind.X, sv.GateKind.Z, sv.GateKind.SQRT_MINUS_IX, sv.GateKind.SQRT_IZ]
    for _ in range(100):
        if rng.integers(0, 4) == 0:
            a, b = rng.choice(4, size=2, replace=False)
            gate = sv.Gate.cz(int(a), int(b))
        else:
            gate = sv.Gate(single[int(rng.integers(0, len(single)))], (int(rng.integers(0, 4)),))
        state = sv.apply_gates(state, [gate])
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) <= 1e-9


def test_equal_exact():
    a = sv.plus_state(1)
    assert sv.equal_exact(a, a, 1e-12)
    minus_a = state_of(-a.amps)
    assert not sv.equal_exact(a, minus_a, 1e-9)  # global phase matters here
    with pytest.raises(SizeMismatchError):
        sv.equal_exact(a, sv.plus_state(2))


def test_equal_up_to_global_phase():
    a = sv.graph_state(gr.cycle(5))
    rotated = state_of(1j * a.amps)
    ok, phase = sv.equal_up_to_global_phase(a, rotated, 1e-12)
    assert ok and abs(phase - (-1j)) <= 1e-12
    ok_rev, phase_rev = sv.equal_up_to_global_phase(rotated, a, 1e-12)
    assert ok_rev and abs(phase_rev - 1j) <= 1e-12
    ok, _ = sv.equal_up_to_global_phase(state_of(ZERO), state_of(ONE), 1e-9)
    assert not ok


def test_qubit_cap_enforced():
    with pytest.raises(TooManyQubitsError):
        sv.plus_state(5, max_qubits=4)
    with pytest.raises(TooManyQubitsError):
        sv.graph_state(gr.path(5), max_qubits=4)
    with pytest.raises(TooManyQubitsError):
        sv.verify_theorem1(gr.path(3), 0, gr.path(3), 0, max_qubits=5)


@pytest.mark.parametrize(
    "build",
    [sv.plus_state, pytest.param(lambda n: sv.StateVector(n, [1.0]), id="StateVector")],
)
def test_negative_qubit_counts_fail_with_one_line(build):
    with pytest.raises(TooSmallError, match="non-negative") as info:
        build(-1)
    assert isinstance(info.value, GselcError)
    assert "\n" not in str(info.value)


def test_theorem1_single_vertices():
    rep = sv.verify_theorem1(gr.new_empty(1), 0, gr.new_empty(1), 0)
    assert rep.passed
    assert rep.details["rhs_graph_edges"] == [[0, 1]]


def test_theorem1_joined_stars():
    rep = sv.verify_theorem1(gr.star(4), 0, gr.star(4), 0)
    assert rep.passed
    assert len(rep.details["rhs_graph_edges"]) == 25


def test_theorem1_joined_paths():
    # four-vertex chain split into two halves, cores at the cut
    rep = sv.verify_theorem1(gr.path(2), 1, gr.path(2), 0)
    assert rep.passed
    assert len(rep.details["rhs_graph_edges"]) == 4


def test_theorem1_randomized():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        g1, g2 = random_graph(rng, n1), random_graph(rng, n2)
        rep = sv.verify_theorem1(g1, int(rng.integers(0, n1)), g2, int(rng.integers(0, n2)))
        assert rep.passed, rep.details


def check_theorem1_against_dense(g1, c1, g2, c2) -> None:
    """The streamed report keeps the dense oracle's bits, and a toggled ELC edge
    gives the dense distance through the same walk, above ``tol``."""
    rep = sv.verify_theorem1(g1, c1, g2, c2)
    n, c2 = g1.n + g2.n, c2 + g1.n
    union = gr.disjoint_union(g1, g2)
    lhs_gates = [sv.Gate.cz(c1, c2), sv.Gate.h(c1), sv.Gate.h(c2)]
    elc = gr.edge_local_complement(gr.toggle_edge(union, c1, c2), c1, c2)
    assert rep.passed
    assert rep.details["lhs_gates"] == [gate.label() for gate in lhs_gates]
    assert rep.details["rhs_graph_edges"] == [list(e) for e in elc.edges()]
    lhs = sv.apply_gates(sv.graph_state(union), lhs_gates)
    assert rep.details["max_amp_diff"].hex() == sv.amp_distance(lhs, sv.graph_state(elc)).hex()
    wrong = gr.toggle_edge(elc, 0, n - 1)
    streamed = sv._streamed_distance(n, [union, *lhs_gates], [wrong])
    assert streamed.hex() == sv.amp_distance(lhs, sv.graph_state(wrong)).hex()
    assert streamed > rep.details["tol"]


def test_theorem1_matches_the_dense_oracle_on_every_small_case():
    # every labelled (G1, c1, G2, c2) with n1 + n2 <= 5
    cases = 0
    for n1 in range(1, 5):
        for n2 in range(1, 6 - n1):
            for g1 in all_graphs(n1):
                for g2 in all_graphs(n2):
                    for c1 in range(n1):
                        for c2 in range(n2):
                            check_theorem1_against_dense(g1, c1, g2, c2)
                            cases += 1
    assert cases == 777


@pytest.mark.parametrize("n1, n2", [(8, 8), (8, 9), (9, 9), (9, 10), (10, 10)])
def test_theorem1_matches_the_dense_oracle_past_one_tile(n1, n2):
    # from 17 qubits the second core sits at qubit 16 or above, so the qubit map moves
    # it into the tile; at 16 it is the top qubit, and the state is one tile
    rng = np.random.default_rng(4100 + 10 * n1 + n2)
    g1, g2 = random_graph(rng, n1), random_graph(rng, n2)
    c2 = int(rng.integers(min(16 - n1, n2 - 1), n2))
    check_theorem1_against_dense(g1, int(rng.integers(n1)), g2, c2)


def test_theorem1_reads_its_tolerance(monkeypatch):
    # a deviation far below one amplitude still fails the default tol
    monkeypatch.setattr(sv, "_streamed_distance", lambda n, a, b: 1e-6)
    rep = sv.verify_theorem1(gr.path(2), 1, gr.path(2), 0)
    assert not rep.passed and rep.details["max_amp_diff"] == 1e-6
    assert sv.verify_theorem1(gr.path(2), 1, gr.path(2), 0, tol=1e-5).passed
    # and compares with <= against tol itself
    assert sv.verify_theorem1(gr.path(2), 1, gr.path(2), 0, tol=1e-6).passed
    assert not sv.verify_theorem1(gr.path(2), 1, gr.path(2), 0, tol=np.nextafter(1e-6, 0)).passed


def test_theorem1_builds_no_full_state():
    # 20 qubits, second core at qubit 19: the traced peak stays under a quarter of one float64 state
    rng = np.random.default_rng(4200)
    g1, g2 = random_graph(rng, 10), random_graph(rng, 10)
    tracemalloc.start()
    try:
        assert sv.verify_theorem1(g1, 3, g2, 9).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_theorem1_checks_the_cap_before_any_sign_vector(monkeypatch):
    def no_sign_vector(*args):
        raise AssertionError("a sign vector was built over the cap")

    monkeypatch.setattr(sv, "_sign_vector", no_sign_vector)
    with pytest.raises(TooManyQubitsError):
        sv.verify_theorem1(gr.path(10), 0, gr.path(11), 0)
    with pytest.raises(TooManyQubitsError):
        sv.verify_theorem1(gr.path(3), 0, gr.path(3), 0, max_qubits=5)


def test_vertex_lc_isolated():
    rep = sv.verify_vertex_lc(gr.new_empty(2), 0)
    assert rep.passed
    assert rep.details["z_corrections"] == []


def test_vertex_lc_single_edge():
    rep = sv.verify_vertex_lc(gr.from_edges(2, [(0, 1)]), 0)
    assert rep.passed


def test_vertex_lc_star_hub():
    rep = sv.verify_vertex_lc(gr.star(4), 0)
    assert rep.passed
    assert rep.details["z_corrections"] == [1, 2, 3, 4]
    assert gr.local_complement(gr.star(4), 0).edge_count == 10


def test_vertex_lc_exhaustive_small():
    for n in range(1, 6):
        for g in all_graphs(n):
            for a in range(n):
                assert sv.verify_vertex_lc(g, a).passed


def test_stabilizers_fix_graph_states():
    assert sv.verify_stabilizers(gr.new_empty(3)).passed
    rep = sv.verify_stabilizers(gr.cycle(5))
    assert rep.passed and rep.details["generators_checked"] == 5
    rng = np.random.default_rng(53)
    assert sv.verify_stabilizers(random_graph(rng, 6)).passed


def test_stabilizer_check_of_no_generators_does_not_pass():
    # a check of zero cases must not report PASS
    rep = sv.verify_stabilizers(gr.new_empty(0))
    assert rep.passed is False
    assert rep.details["generators_checked"] == 0 and rep.details["failed_vertices"] == []
    assert sv.verify_stabilizers(gr.new_empty(1)).passed


def test_stabilizer_negative_control():
    # X alone, without the neighbor Z dressing, must not fix the state
    base = sv.graph_state(gr.path(5))
    got = sv.apply_gates(base, [sv.Gate.x(1)])
    assert not sv.equal_exact(got, base, 1e-9)


def test_ghz_amplitude_check():
    # the star state with hub 0 is (|0>|+>^L + |1>|->^L) / sqrt(2), and H on
    # the hub turns it into the GHZ form (|+>^n + |->^n) / sqrt(2)
    for leaves in (1, 2, 4):
        star = sv.graph_state(gr.star(leaves))
        expected_star = (
            kron_state(ZERO, *[PLUS] * leaves) + kron_state(ONE, *[MINUS] * leaves)
        ) / np.sqrt(2)
        assert np.max(np.abs(star.amps - expected_star)) <= 1e-12
        ghz = sv.apply_gates(star, [sv.Gate.h(0)])
        n = leaves + 1
        expected_ghz = (kron_state(*[PLUS] * n) + kron_state(*[MINUS] * n)) / np.sqrt(2)
        assert np.max(np.abs(ghz.amps - expected_ghz)) <= 1e-12


def test_star1_graph_state_amplitudes():
    got = sv.graph_state(gr.star(1))
    expected = (kron_state(ZERO, PLUS) + kron_state(ONE, MINUS)) / np.sqrt(2)
    assert np.max(np.abs(got.amps - expected)) < 1e-12


def test_shared_neighborhood_scan_passes_only_with_every_case_checked(monkeypatch):
    rep = sv.scan_theorem1_shared_neighbors(trials=0)
    assert rep.details["cases_checked"] == 0 and not rep.passed
    # one triangle, then graphs without a shared-neighbour edge: 1 case of 2
    graphs = iter([gr.cycle(3)])
    monkeypatch.setattr(gr, "random_graph", lambda rng, n: next(graphs, gr.new_empty(n)))
    rep = sv.scan_theorem1_shared_neighbors(trials=2)
    assert rep.details["cases_checked"] == 1 and not rep.passed


def test_shared_neighborhood_scan_checks_the_cap_before_any_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(gr, "random_graph", lambda *a: calls.append(a))
    monkeypatch.setattr(sv, "graph_state", lambda *a: calls.append(a))
    with pytest.raises(TooManyQubitsError, match="^8 qubits exceeds the cap of 5$"):
        sv.scan_theorem1_shared_neighbors(max_qubits=5)
    assert calls == []


def test_shared_neighborhood_scan_records_outcome():
    rep = sv.scan_theorem1_shared_neighbors(trials=30, seed=0)
    assert rep.passed  # every case asked for was found and checked
    d = rep.details
    assert d["cases_checked"] == 30
    assert d["equal_exact"] <= d["cases_checked"]
    # triangle: cores share their one neighbor, Hadamards do not reproduce ELC
    tri = gr.cycle(3)
    lhs = sv.apply_gates(sv.graph_state(tri), [sv.Gate.h(0), sv.Gate.h(1)])
    rhs = sv.graph_state(gr.edge_local_complement(tri, 0, 1))
    assert not sv.equal_exact(lhs, rhs, 1e-9)
    ok, _ = sv.equal_up_to_global_phase(lhs, rhs, 1e-9)
    assert not ok


def _reference_scan(trials=50, seed=0, tol=1e-9):
    """The shared-neighbour scan one case at a time through the public functions: its details, and
    each case as (graph, a, b, lhs, rhs, equal_exact, (up to phase, phase))."""
    rng = np.random.default_rng(seed)
    cases = []
    first = None
    attempts = 0
    while len(cases) < trials and attempts < trials * 200:
        attempts += 1
        n = int(rng.integers(3, sv._SCAN_MAX_N + 1))
        g = gr.random_graph(rng, n)
        candidates = [(a, b) for a, b in g.edges() if g.rows[a] & g.rows[b]]
        if not candidates:
            continue
        a, b = candidates[int(rng.integers(0, len(candidates)))]
        lhs = sv.apply_gates(sv.graph_state(g), [sv.Gate.h(a), sv.Gate.h(b)])
        rhs = sv.graph_state(gr.edge_local_complement(g, a, b))
        phase = sv.equal_up_to_global_phase(lhs, rhs, tol)
        cases.append((g, a, b, lhs, rhs, sv.equal_exact(lhs, rhs, tol), phase))
        if not phase[0] and first is None:
            first = {"n": n, "edges": [list(e) for e in g.edges()], "edge": [a, b]}
    details = {
        "seed": seed,
        "cases_checked": len(cases),
        "equal_exact": sum(case[5] for case in cases),
        "equal_up_to_phase": sum(case[6][0] for case in cases),
        "first_counterexample": first,
        "tol": tol,
    }
    return details, cases


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(0, 200, 20))
def test_batched_scan_matches_the_one_state_reference(seed):
    for s in range(seed, seed + 20):
        details, _ = _reference_scan(seed=s)
        rep = sv.scan_theorem1_shared_neighbors(seed=s)
        assert rep.details == details and rep.passed
        assert json.dumps(rep.details) == json.dumps(details)  # plain ints and lists, as the reference


def test_batched_rows_have_the_one_state_bits_on_scan_cases():
    for seed in range(20):
        _, cases = _reference_scan(seed=seed)
        for n in {case[0].n for case in cases}:
            group = [case for case in cases if case[0].n == n]
            states = sv._graph_states(n, [case[0] for case in group])
            for row, case in zip(states, group):
                assert same_bits(row, sv.graph_state(case[0]).amps)
            lhs = sv._hadamard_rows(states, np.array([case[1:3] for case in group]))
            rhs = sv._graph_states(n, [gr.edge_local_complement(*case[:3]) for case in group])
            exact = sv._rows_equal_exact(lhs, rhs, 1e-9)
            ok, lam = sv._rows_equal_up_to_phase(lhs, rhs, 1e-9)
            for r, case in enumerate(group):
                assert same_bits(lhs[r], case[3].amps) and same_bits(rhs[r], case[4].amps)
                assert exact[r] == case[5] and (ok[r], complex(lam[r])) == case[6]


def test_batched_rows_have_the_one_state_bits_on_every_small_graph():
    for n in range(6):
        graphs = list(all_graphs(n))
        states = sv._graph_states(n, graphs)
        for row, g in zip(states, graphs):
            assert same_bits(row, sv.graph_state(g).amps)
        # every ordered pair of cores, a == b included, up to 4 vertices; one pair per graph at 5
        if n < 5:
            batches = [[(a, b)] * len(graphs) for a in range(n) for b in range(n)]
        else:
            batches = [[(i % n, i // n % n) for i in range(len(graphs))]]
        for cores in batches:
            lhs = sv._hadamard_rows(states.copy(), np.array(cores))
            for row, g, (a, b) in zip(lhs, graphs, cores):
                want = sv.apply_gates(sv.graph_state(g), [sv.Gate.h(a), sv.Gate.h(b)])
                assert same_bits(row, want.amps)


def test_batched_builder_refuses_graphs_past_one_walsh_row():
    # 8 vertices is the scan's largest size and needs the whole 2^7-column table
    eights = [random_graph(np.random.default_rng(s), 8) for s in range(3)]
    for row, g in zip(sv._graph_states(8, eights), eights):
        assert same_bits(row, sv.graph_state(g).amps)
    with pytest.raises(TooManyQubitsError, match="^9 qubits exceeds the cap of 8$"):
        sv._graph_states(9, [gr.path(9)])


def test_batch_norm_check_reads_every_row():
    states = sv._graph_states(4, [gr.path(4), gr.cycle(4), gr.star(3)])
    for bad in range(3):
        for value in (1.0 + 1e-6, np.nan):
            rows = states.copy()
            rows[bad] *= value
            with pytest.raises(ValueError, match="not normalized"):
                sv._checked_rows(rows)
            with pytest.raises(ValueError, match="not normalized"):
                sv._hadamard_rows(rows, np.array([[0, 1]] * 3))
    assert sv._checked_rows(states) is states


def test_scan_norm_checks_every_state_it_builds(monkeypatch):
    # each size's batch: its graph states, the rows after the Hadamards, the ELC graph states
    checked = []
    monkeypatch.setattr(sv, "_checked_rows", lambda rows: checked.append(rows.copy()) or rows)
    details, cases = _reference_scan(trials=12, seed=3)
    sv.scan_theorem1_shared_neighbors(trials=12, seed=3)
    sizes = sorted({case[0].n for case in cases})
    assert len(checked) == 3 * len(sizes)
    for n in sizes:
        group = [case for case in cases if case[0].n == n]
        want = [sv.graph_state(case[0]).amps for case in group], [case[3].amps for case in group], [
            case[4].amps for case in group]
        got = [rows for rows in checked if rows.shape == (len(group), 1 << n)]
        assert [[same_bits(r, w) for r, w in zip(rows, side)] for rows, side in zip(got, want)] == [
            [True] * len(group)] * 3


def test_batched_phase_is_read_off_the_first_largest_component():
    c = 1 / np.sqrt(2)
    # b's two components tie; the first gives +1 and fits tol 1.4, the second gives -1 and does not;
    # a zero at b's largest component cannot give a phase
    a = np.array([[0.8, -0.6], [c, -c], [0.0, 1.0]])
    b = np.array([[c, c], [c, c], [1.0, 0.0]])
    for tol in (1e-9, 1.4):
        ok, lam = sv._rows_equal_up_to_phase(a, b, tol)
        want = [sv.equal_up_to_global_phase(state_of(x), state_of(y), tol) for x, y in zip(a, b)]
        assert [(bool(o), complex(p)) for o, p in zip(ok, lam)] == want
    assert list(sv._rows_equal_up_to_phase(a, b, 1.4)[0]) == [True, False, False]
    assert list(sv._rows_equal_exact(a, b, 1.4)) == [True, False, True]


def test_state_vector_validation():
    with pytest.raises(SizeMismatchError):
        sv.StateVector(2, np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        sv.StateVector(1, np.array([1.0, 1.0], dtype=complex))
    state = sv.plus_state(2)
    with pytest.raises(ValueError):
        state.amps[0] = 9.0  # buffer is read-only


def test_state_vector_rejects_nan_amplitudes():
    # a NaN norm fails every ``> 1e-9`` test, so the check is written to fail on it
    with pytest.raises(ValueError, match="not normalized"):
        sv.StateVector(1, np.array([np.nan, np.nan]))


def test_zero_stride_views_are_checked_without_a_full_pass(monkeypatch):
    # plus_state's view is one value repeated: its norm is size * value^2
    def no_vdot(*args):
        raise AssertionError("a pass over every amplitude")

    monkeypatch.setattr(np, "vdot", no_vdot)
    assert sv.plus_state(20).amps.strides == (0,)
    for n in (0, 1, 7):
        sv.StateVector(n, np.broadcast_to(2.0 ** (-n / 2), 1 << n), _owned=True)
    for value in (2.0 ** -2 * (1 + 1e-6), 0.3, -0.3 * 1j + 0.0, np.nan):
        with pytest.raises(ValueError, match="not normalized"):
            sv.StateVector(4, np.broadcast_to(value, 16), _owned=True)


def test_state_vector_copies_its_input_as_complex128():
    a = np.array([1.0, 0.0])
    state = sv.StateVector(1, a)
    assert a.flags.writeable
    a[0] = 2.0
    assert state.amps.dtype == np.complex128
    assert state.amps.tolist() == [1, 0]
    assert not state.amps.flags.writeable
    # a complex gate on a state built from a real array keeps its imaginary parts
    out = sv.apply_gates(state, [sv.Gate.sqrt_iz(0)])
    assert out.amps[0] == pytest.approx((1 + 1j) / np.sqrt(2))


def test_fresh_buffers_are_not_copied_again():
    # each limit is in bytes of the result's own buffer, so a second copy adds
    # 1.0 whatever the dtype; at 18 qubits the int8 sign vector and the kernel
    # scratch (two blocks) add 0.125 each, numpy's cast buffer about 0.03
    n = 18
    base = sv.graph_state(gr.path(n))
    complete = gr.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    runs = {
        "plus_state": (lambda: sv.plus_state(n), 1.3),
        "graph_state": (lambda: sv.graph_state(gr.cycle(n)), 1.3),
        # every edge at every qubit: the sign vector's Walsh rows have no empty chunk
        "graph_state, complete graph": (lambda: sv.graph_state(complete), 1.3),
        # a CZ-only list allocates no kernel scratch: its tile's signs make about
        # 1.05x, where a needless scratch makes about 1.17x
        "apply_gates, CZ run": (lambda: sv.apply_gates(base, [sv.Gate.cz(0, 5), sv.Gate.cz(2, 9)]), 1.1),
        # a lone CZ is a one-pair sign vector, with the bytes of a CZ run
        "apply_gates, one CZ": (lambda: sv.apply_gates(base, [sv.Gate.cz(1, 7)]), 1.1),
        "apply_gates, one H": (lambda: sv.apply_gates(base, [sv.Gate.h(3)]), 1.3),
        "apply_gates, one sqrt(iZ)": (lambda: sv.apply_gates(base, [sv.Gate.sqrt_iz(3)]), 1.3),
    }
    other = sv.graph_state(gr.cycle(n))
    twisted = sv.apply_gates(base, [sv.Gate.sqrt_iz(0)])
    tracemalloc.start()
    try:
        for name, (run, limit) in runs.items():
            tracemalloc.reset_peak()
            nbytes = run().amps.nbytes
            assert tracemalloc.get_traced_memory()[1] < limit * nbytes, name
        # amp_distance works block by block: no 2^n temporary, float64 or complex128
        for a, b in ((base, other), (twisted, twisted)):
            tracemalloc.reset_peak()
            sv.amp_distance(a, b)
            assert tracemalloc.get_traced_memory()[1] < 0.3 * a.amps.nbytes, ("amp_distance", a.amps.dtype)
    finally:
        tracemalloc.stop()


def test_module_built_real_states_are_float64():
    g = gr.cycle(5)
    real = [
        sv.plus_state(4),
        sv.graph_state(g),
        sv.apply_gates(sv.graph_state(g), [sv.Gate.h(0), sv.Gate.cz(1, 3), sv.Gate.x(2), sv.Gate.z(4)]),
        sv.apply_gates(sv.plus_state(3), []),
    ]
    for state in real:
        assert state.amps.dtype == np.float64
        assert not state.amps.flags.writeable


def test_complex_gate_lists_return_complex128():
    for kind in (sv.GateKind.SQRT_MINUS_IX, sv.GateKind.SQRT_IZ):
        for start in (sv.graph_state(gr.path(3)), state_of(sv.graph_state(gr.path(3)).amps)):
            out = sv.apply_gates(start, [sv.Gate.h(0), sv.Gate(kind, (1,)), sv.Gate.cz(0, 2)])
            assert out.amps.dtype == np.complex128
    # a complex128 input stays complex128 under real gates
    out = sv.apply_gates(state_of(sv.plus_state(2).amps), [sv.Gate.h(0)])
    assert out.amps.dtype == np.complex128


def test_graph_state_then_sqrt_iz_keeps_imaginary_parts():
    g = gr.star(3)
    base = sv.graph_state(g)
    out = sv.apply_gates(base, [sv.Gate.sqrt_iz(2)])
    bit = (np.arange(1 << g.n) >> 2) & 1
    expected = base.amps * np.where(bit, 1j - 1, 1j + 1) / np.sqrt(2.0)
    assert np.max(np.abs(out.amps - expected)) <= 1e-15
    assert np.all(np.abs(out.amps.imag) == 2.0 ** (-g.n / 2) / np.sqrt(2.0))


def test_comparisons_do_not_depend_on_dtype():
    lhs = sv.apply_gates(sv.graph_state(gr.path(4)), [sv.Gate.h(1), sv.Gate.h(2)])
    minus = sv.apply_gates(sv.plus_state(3), [sv.Gate.z(0), sv.Gate.x(0)] * 2)  # (XZ)^2 = -I
    pairs = [
        (lhs, sv.graph_state(gr.edge_local_complement(gr.path(4), 1, 2))),  # equal up to rounding
        (lhs, sv.graph_state(gr.cycle(4))),  # different states
        (sv.plus_state(3), minus),  # a global phase of -1
    ]
    for a, b in pairs:
        ac, bc = state_of(a.amps), state_of(b.amps)
        assert a.amps.dtype == b.amps.dtype == np.float64
        mixes = [(a, b), (a, bc), (ac, b), (ac, bc)]
        assert len({sv.amp_distance(x, y) for x, y in mixes}) == 1
        assert len({sv.equal_up_to_global_phase(x, y) for x, y in mixes}) == 1
    assert sv.equal_up_to_global_phase(pairs[2][0], minus) == (True, -1)


def reference_phase(a: sv.StateVector, b: sv.StateVector, tol: float) -> tuple[bool, complex]:
    """The whole-vector form: phase from the first largest |b_k|, then one residual."""
    k = int(np.argmax(np.abs(b.amps)))
    lam = a.amps[k] * np.conj(b.amps[k])
    lam /= abs(lam)
    return float(np.max(np.abs(a.amps - lam * b.amps))) <= tol, complex(lam)


@pytest.mark.parametrize("block", [1, 2, 1 << 14])
def test_global_phase_takes_the_first_largest_amplitude(monkeypatch, block):
    # two amplitudes of the largest magnitude, in one block or in two; a flips the
    # sign of the second, so the phase read off the second would be -1, not 1
    monkeypatch.setattr(sv, "_BLOCK", block)
    for first, second in ((2, 5), (4, 5), (0, 7), (6, 7)):
        amps = np.full(8, np.sqrt(0.5 / 6), dtype=complex)
        amps[first], amps[second] = 0.5, 0.5j
        b = state_of(amps)
        amps[second] *= -1
        a = state_of(amps)
        got = sv.equal_up_to_global_phase(a, b, 1e-9)
        assert got == reference_phase(a, b, 1e-9) == (False, 1 + 0j), (first, second)


def unchecked_state(amps: np.ndarray) -> sv.StateVector:
    """A state holding ``amps`` as given, past the constructor's norm and NaN checks."""
    state = object.__new__(sv.StateVector)
    object.__setattr__(state, "n_qubits", amps.size.bit_length() - 1)
    object.__setattr__(state, "amps", amps)
    return state


def early_exit_cases(n: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(name, a, b): b a random real or complex state, and a that state over tol = 1e-9 in one
    amplitude of the first or of the last 2 * _BLOCK-amplitude block, NaN in a middle block, or b."""
    rng = np.random.default_rng(7600 + n)
    real = rng.normal(size=1 << n)
    real /= np.linalg.norm(real)
    step = 2 * sv._BLOCK
    assert (1 << n) // step >= 4
    middle = (1 << n) // step // 2 * step + 1
    cases = []
    for b in (real, real * np.exp(0.3j)):
        for name, at, shift in (("first", 1, 1e-8), ("last", -1, 1e-8), ("nan", middle, np.nan), ("equal", 0, 0.0)):
            a = b.copy()
            a[at] += shift
            cases.append((name, a, b))
    return cases


def check_early_exit(n: int) -> None:
    # both comparisons stop at the first block over tol, and answer what the whole maximum
    # would: amp_distance(...) <= tol, and the phase of the whole-vector form
    tol = 1e-9
    for name, a, b in early_exit_cases(n):
        a, b = unchecked_state(a), unchecked_state(b)
        full = sv.amp_distance(a, b) <= tol
        assert full == (name == "equal"), name
        assert sv.equal_exact(a, b, tol) == sv.equal_exact(b, a, tol) == full, name
        got = sv.equal_up_to_global_phase(a, b, tol)
        assert got[0] == full, name
        assert got == reference_phase(a, b, tol), name


def test_equality_stops_early_with_the_answer_of_the_whole_maximum():
    check_early_exit(17)  # four blocks of 2^15


def test_equality_stops_early_on_small_blocks(small_block):
    check_early_exit(5)  # 8 to 16 blocks


def test_equality_over_tol_in_the_first_block_reads_one_block(monkeypatch):
    # 2^17 amplitudes, 4 blocks: a deviation in the first block ends both residuals there
    name, a, b = early_exit_cases(17)[0]
    a, b = unchecked_state(a), unchecked_state(b)
    blocks = []

    class CountedAbs:  # numpy for the module, with each magnitude pass counted
        def __getattr__(self, attr):
            return getattr(np, attr)

        def abs(self, x, *args, **kwargs):
            blocks.append(x.size)
            return np.abs(x, *args, **kwargs)

    monkeypatch.setattr(sv, "np", CountedAbs())
    assert name == "first" and not sv.equal_exact(a, b)
    assert blocks == [1 << 15]
    blocks.clear()
    assert not sv.equal_up_to_global_phase(a, b)[0]
    assert blocks == [1 << 15] * 5  # four to find the phase, one for the residual
    blocks.clear()
    assert sv.amp_distance(a, b) > 1e-9
    assert blocks == [1 << 15] * 4  # the distance still reads every block


def test_global_phase_makes_no_full_size_temporary():
    # a few blocks of buffers; the whole-vector form made four 2^n temporaries
    n = 20
    base = sv.graph_state(gr.path(n))
    twisted = sv.apply_gates(base, [sv.Gate.sqrt_iz(0)])
    tracemalloc.start()
    try:
        for a, b in ((base, base), (twisted, base), (base, twisted)):
            tracemalloc.reset_peak()
            got = sv.equal_up_to_global_phase(a, b)
            assert tracemalloc.get_traced_memory()[1] < 0.3 * base.amps.nbytes, (a.amps.dtype, b.amps.dtype)
            assert got == reference_phase(a, b, 1e-9)
    finally:
        tracemalloc.stop()

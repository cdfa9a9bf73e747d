"""The in-place kernels against the index-mask and per-edge references, bit for bit."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from gselc import graph as gr
from gselc import statevector as sv
from gselc.errors import SizeMismatchError, VertexRangeError
from gselc.graph import all_graphs, random_graph

from conftest import reference_graph_state, reference_run, reference_sign_vector

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


def check_random_circuits(n: int) -> None:
    rng = np.random.default_rng(1000 + n)
    for _ in range(3):
        state = random_state(rng, n)
        gates = random_circuit(rng, n, 40)
        got = sv.apply_gates(state, gates)
        assert np.array_equal(got.amps, reference_run(state.amps, n, gates))
        one_by_one = state
        for gate in gates:
            one_by_one = sv.apply_gates(one_by_one, [gate])
        assert np.array_equal(one_by_one.amps, got.amps)


@pytest.mark.parametrize("n", range(1, 13))
def test_gate_kernels_match_reference(n):
    check_random_circuits(n)


def test_cz_every_pair_matches_reference():
    rng = np.random.default_rng(7)
    n = 6
    state = random_state(rng, n)
    for a in range(n):
        for b in range(n):
            if a != b:
                gate = sv.Gate.cz(a, b)
                got = sv.apply_gates(state, [gate]).amps
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


def lower_rows(g: gr.Graph) -> list[int]:
    return [row & ((1 << i) - 1) for i, row in enumerate(g.rows)]


def assert_sign_vector_matches_reference(g: gr.Graph) -> None:
    # the builder takes a graph's symmetric rows and reads only the bits below i, so
    # the strict-lower rows give the same vector; a vertex whose partners all lie
    # above it masks to an empty row and takes the copy shortcut
    got = sv._sign_vector(g.n, g.rows)
    assert got.dtype == np.int8
    assert np.array_equal(got, reference_sign_vector(g.n, lower_rows(g))), (g.n, g.edges())
    assert np.array_equal(sv._sign_vector(g.n, lower_rows(g)), got), (g.n, g.edges())


@pytest.mark.parametrize("n", range(0, 24))
def test_sign_vector_matches_doubling_reference(n):
    # the builder takes Walsh rows 7 bits at a time: 9, 16 and 23 qubits are the
    # first sizes whose top row has a second, third and fourth chunk
    rng = np.random.default_rng(7000 + n)
    assert_sign_vector_matches_reference(gr.new_empty(n))
    # one pair: every other lower row is empty and copies the signs so far, below
    # the set row for (j, n-1), above it for (0, 1); j starts each chunk of the top
    # row. Vertex 0 of (0, 1) and j of (j, n-1) have their one partner above them
    for pair in [(0, 1)] * (n >= 2) + [(j, n - 1) for j in range(0, n - 1, 7)]:
        assert_sign_vector_matches_reference(gr.from_edges(n, [pair]))
    for _ in range(2):
        assert_sign_vector_matches_reference(random_graph(rng, n))
    if n <= 16:
        assert_sign_vector_matches_reference(gr.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))
    else:  # sparse: many rows with empty chunks
        for _ in range(2):
            pairs = {tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False))) for _ in range(n)}
            assert_sign_vector_matches_reference(gr.from_edges(n, pairs))


@pytest.mark.parametrize("n", [2, 9, 16, 23])
def test_sign_vector_changes_when_one_lower_bit_flips(n):
    # negative control: toggling U[j, i] negates every x with bits i and j set;
    # j runs over the first bit of each chunk of the top row
    rng = np.random.default_rng(7100 + n)
    lower = lower_rows(random_graph(rng, n))
    base = sv._sign_vector(n, lower)
    for j in range(0, n - 1, 7):
        flipped = lower.copy()
        flipped[n - 1] ^= 1 << j
        assert not np.array_equal(sv._sign_vector(n, flipped), base), j


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sign_vector_matches_reference_on_benchmark_elc_graphs(monkeypatch, seed):
    # the dense right-hand sides of Theorem 1: 58-77 edges on 16-20 qubits
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import theorem1_inputs

    for case in theorem1_inputs(seed):
        c2 = case.c2 + case.g1.n
        joined = gr.toggle_edge(gr.disjoint_union(case.g1, case.g2), case.c1, c2)
        assert_sign_vector_matches_reference(gr.edge_local_complement(joined, case.c1, c2))


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


@pytest.mark.parametrize("n", [6, 16])
def test_apply_gates_never_writes_its_input(n):
    # whatever a list starts with, its result is a fresh buffer and the input is never written
    rng = np.random.default_rng(8000 + n)
    run = [sv.Gate.cz(0, 1), sv.Gate.cz(2, 5), sv.Gate.cz(1, 4)]
    lists = {
        "leading CZ run": run + [sv.Gate.h(3)],
        "CZ run only": run,
        "cancelled CZ pair": [sv.Gate.cz(1, 4), sv.Gate.cz(4, 1)],
        "cancelled pair, then H": [sv.Gate.cz(1, 4), sv.Gate.cz(4, 1), sv.Gate.h(0)],
        "lone CZ": [sv.Gate.cz(1, 5)],
        "empty": [],
        "promoted": run + [sv.Gate.sqrt_minus_ix(0)],
    }
    for state in (real_state(rng, n), random_state(rng, n)):
        before = state.amps.copy()
        for name, gates in lists.items():
            out = sv.apply_gates(state, gates)
            assert np.array_equal(state.amps, before), name
            assert not state.amps.flags.writeable, name
            assert not np.shares_memory(out.amps, state.amps), name
            assert np.array_equal(out.amps, reference_run(state.amps.astype(complex), n, gates)), name
            if out.amps.dtype == np.complex128:  # the same bits, zero signs too, as on a complex copy
                twin = sv.apply_gates(sv.StateVector(n, state.amps), gates).amps.view(np.float64)
                assert np.array_equal(np.signbit(out.amps.view(np.float64)), np.signbit(twin)), name


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


def check_fused_runs(n: int) -> None:
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


@pytest.mark.parametrize("n", range(1, 13))
def test_fused_cz_runs_match_reference(n):
    check_fused_runs(n)


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


def check_real_circuits(n: int) -> None:
    rng = np.random.default_rng(4000 + n)
    for state in real_inputs(rng, n):
        assert state.amps.dtype == np.float64
        for _ in range(3):
            gates = real_circuit(rng, n, 15)
            got = sv.apply_gates(state, gates)
            assert got.amps.dtype == np.float64
            assert np.array_equal(got.amps, reference_run(state.amps.astype(complex), n, gates))


@pytest.mark.parametrize("n", range(1, 13))
def test_real_circuits_stay_float64_and_match_reference(n):
    check_real_circuits(n)


def check_mixed_circuits(n: int) -> None:
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
                    one_by_one = sv.apply_gates(one_by_one, [gate])
                assert np.array_equal(one_by_one.amps, want)


@pytest.mark.parametrize("n", range(1, 13))
def test_mixed_circuits_promote_and_match_reference(n):
    check_mixed_circuits(n)


def real_state(rng: np.random.Generator, n: int) -> sv.StateVector:
    """A float64 state with random amplitudes, as the module builds them."""
    raw = rng.normal(size=1 << n)
    return sv.StateVector(n, raw / np.linalg.norm(raw), _owned=True)


def check_amp_distance(n: int) -> None:
    rng = np.random.default_rng(6000 + n)
    real = [real_state(rng, n) for _ in range(2)]
    cplx = [random_state(rng, n) for _ in range(2)]
    for a in (real[0], cplx[0]):
        for b in (real[1], cplx[1]):
            assert sv.amp_distance(a, b) == np.abs(a.amps - b.amps).max()
    # one amplitude negated: the only deviation sits in the first or the last block
    for state in (real[0], cplx[0]):
        for at in (0, -1):
            amps = state.amps.copy()
            amps[at] = -amps[at]
            other = sv.StateVector(n, amps, _owned=True)
            assert sv.amp_distance(state, other) == np.abs(state.amps - amps).max() > 0


@pytest.mark.parametrize("n", range(0, 18))
def test_amp_distance_matches_numpy(n):
    check_amp_distance(n)


@pytest.fixture(params=[1, 2, 4])
def small_block(request, monkeypatch):
    """A kernel block of 1, 2 or 4 amplitude pairs, so small states span many blocks."""
    monkeypatch.setattr(sv, "_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("n", range(1, 7))
def test_multi_block_kernels_match_reference(small_block, n):
    check_random_circuits(n)
    check_fused_runs(n)
    check_real_circuits(n)
    check_mixed_circuits(n)
    check_amp_distance(n)


def test_h_and_sqrt_iz_on_every_target_at_17_qubits():
    # 2^16 amplitude pairs: four blocks, split across rows below qubit 14 and inside them above
    n = 17
    assert (1 << (n - 1)) // sv._BLOCK == 4
    rng = np.random.default_rng(17)
    for state in (real_state(rng, n), random_state(rng, n)):
        for q in range(n):
            for gate in (sv.Gate.h(q), sv.Gate.sqrt_iz(q)):
                got = sv.apply_gates(state, [gate]).amps
                assert np.array_equal(got, reference_run(state.amps.astype(complex), n, [gate])), gate.label()


def bits(amps: np.ndarray) -> np.ndarray:
    """The raw float64 words of a state: equal arrays have equal values and equal zero signs."""
    return amps.view(np.float64).view(np.uint64)


def assert_tiled_matches_reference(monkeypatch, state: sv.StateVector, gates, tile: int) -> None:
    """The tile walk runs ``gates`` on tiles of ``tile`` amplitudes, matches the reference
    kernels, and gives the bits of one whole-vector tile, zero signs included."""
    n = state.n_qubits
    assert sv._plan(state, gates)[2] == tile
    got = sv.apply_gates(state, gates).amps
    assert np.array_equal(got, reference_run(state.amps.astype(complex), n, gates))
    with monkeypatch.context() as m:
        m.setattr(sv, "_BLOCK", 1 << n)  # one tile: the whole vector at once
        assert sv._plan(state, gates)[2] == 1 << n
        whole = sv.apply_gates(state, gates).amps
    assert got.dtype == whole.dtype
    assert np.array_equal(bits(got), bits(whole))


@pytest.mark.parametrize("n", [17, 18])
def test_tile_walk_widens_for_single_qubit_targets(monkeypatch, n):
    # tiles are 2^15 amplitudes unless a single-qubit target needs more
    rng = np.random.default_rng(9000 + n)
    low = 1 << 15
    cases = [
        ([sv.Gate.h(0), sv.Gate.x(14), sv.Gate.cz(3, 9), sv.Gate.h(14)], low),  # targets 0 and tile-1
        ([sv.Gate.h(2), sv.Gate.h(15), sv.Gate.cz(0, 15)], 2 * low),  # a target at the tile
        ([sv.Gate.z(16), sv.Gate.h(1)], 4 * low),  # Z pairs amplitudes like any single-qubit gate
        ([sv.Gate.cz(1, 2), sv.Gate.sqrt_minus_ix(n - 1), sv.Gate.h(0)], 1 << n),  # target n-1
    ]
    for state in (real_state(rng, n), random_state(rng, n)):
        for gates, tile in cases:
            assert_tiled_matches_reference(monkeypatch, state, gates, tile)


@pytest.mark.parametrize("n", [17, 18])
def test_tile_walk_lone_cz_inside_and_outside_the_tile(monkeypatch, n):
    # one pair, with its bits inside or above the tile's 15 bits, is a sign vector
    # like any CZ run: each tile multiplies by its own slice
    rng = np.random.default_rng(9100 + n)
    h = sv.Gate.h(3)
    pairs = [(2, 9), (0, 14), (3, 15), (14, n - 1), (15, 16), (16, n - 1)]
    for state in (real_state(rng, n), random_state(rng, n)):
        for a, b in pairs:
            if a != b:
                for gates in ([sv.Gate.cz(a, b)], [h, sv.Gate.cz(b, a), h]):
                    assert_tiled_matches_reference(monkeypatch, state, gates, 1 << 15)
        # fused runs of several pairs multiply each tile by its slice of the sign vector
        run = [sv.Gate.cz(a, b) for a, b in pairs if a != b]
        assert_tiled_matches_reference(monkeypatch, state, run + [h] + run[:2], 1 << 15)


@pytest.mark.parametrize("n", [17, 18])
def test_tile_walk_promotes_each_tile_once(monkeypatch, n):
    # a float64 input and one complex gate: every tile is cast as it is copied in,
    # and the zero signs are those of one whole-vector run
    rng = np.random.default_rng(9200 + n)
    gates = [sv.Gate.cz(0, 16), sv.Gate.cz(2, 5), sv.Gate.h(1), sv.Gate.sqrt_iz(4)]
    gates += [sv.Gate.cz(1, 15), sv.Gate.h(14)]
    for state in (sv.plus_state(n), real_state(rng, n), sv.graph_state(random_graph(rng, n))):
        assert state.amps.dtype == np.float64
        assert_tiled_matches_reference(monkeypatch, state, gates, 1 << 15)
        assert sv.apply_gates(state, gates).amps.dtype == np.complex128


def test_plus_state_is_a_read_only_zero_stride_view():
    n = 18
    plus = sv.plus_state(n)
    assert plus.amps.dtype == np.float64
    assert plus.amps.shape == (1 << n,) and plus.amps.strides == (0,)
    assert not plus.amps.flags.writeable
    assert np.array_equal(plus.amps, np.full(1 << n, 2.0 ** (-n / 2)))
    gates = [sv.Gate.h(0), sv.Gate.cz(1, 17), sv.Gate.h(16), sv.Gate.sqrt_minus_ix(2)]
    out = sv.apply_gates(plus, gates)
    assert np.array_equal(out.amps, reference_run(np.full(1 << n, 2.0 ** (-n / 2), dtype=complex), n, gates))
    assert np.array_equal(plus.amps, np.full(1 << n, 2.0 ** (-n / 2)))
    assert out.amps.strides == (16,) and not np.shares_memory(out.amps, plus.amps)
    with pytest.raises(ValueError):
        plus.amps[0] = 1.0


def plus_prefix_cases(n: int, top: int) -> list[tuple[str, list[sv.Gate], int]]:
    """Gate lists on |+>^n for tiles of 2^top amplitudes (a target on top-1 fixes the tile),
    with the number of single-qubit gates in the prefix that the class walk runs once."""
    h, z, cz, t = sv.Gate.h, sv.Gate.z, sv.Gate.cz, top - 1
    return [
        # the first sign vector reaches the qubit above the tile
        ("empty", [cz(0, top), h(t), cz(1, 2), h(0)], 0),
        ("whole list", [h(t), cz(0, 1), sv.Gate.x(0), cz(1, t), z(2), cz(0, 1)], 3),
        # the run (1, 2), (2, top) has one qubit above the tile, so the prefix ends there
        ("ends at a CZ above the tile", [cz(0, t), h(t), z(1), cz(1, 2), cz(2, top), h(0), cz(0, n - 1)], 2),
        ("holds a complex gate", [h(0), sv.Gate.sqrt_iz(t), cz(0, 1), sv.Gate.sqrt_minus_ix(1), cz(2, n - 1), h(t)], 3),
    ]


def check_plus_prefix(monkeypatch, n: int) -> None:
    # apply_gates runs every tile the same way, |+>^n's too: each single-qubit gate once per
    # tile. The class walk (called here directly, the complex case included) runs the prefix's
    # gates once per call and each later gate once per class, and each of its tiles times its
    # factor is the apply_gates tile
    top = max((2 * sv._BLOCK).bit_length() - 1, 3)
    plus = sv.plus_state(n)
    full = sv.StateVector(n, np.full(1 << n, 2.0 ** (-n / 2)), _owned=True)  # every tile runs every op
    calls = []
    kernel = sv._single_qubit_inplace

    def counted(*args):
        calls.append(args[1])
        kernel(*args)

    for name, gates, once in plus_prefix_cases(n, top):
        ops, dtype, size = sv._plan(plus, gates)
        assert size == 1 << top, name
        singles = sum(gate.kind is not sv.GateKind.CZ for gate in gates)
        with monkeypatch.context() as m:
            m.setattr(sv, "_single_qubit_inplace", counted)
            calls.clear()
            got = sv.apply_gates(plus, gates).amps
            assert len(calls) == singles * (1 << (n - top)), name
            calls.clear()
            keys, walk, tail = sv._classes(plus.amps, ops, dtype, size)
            assert len(calls) == once, name
            order = sorted(keys, key=keys.get)  # each class met once
            for start, (tile, _, form, _) in zip(order, walk(order)):
                f = sv._factor(form, size, tail)
                assert np.array_equal(tile if f is None else tile * f, got[start : start + size]), (name, start)
        assert len(calls) == once + (singles - once) * len(set(keys.values())), name
        want = reference_run(np.full(1 << n, 2.0 ** (-n / 2), dtype=complex), n, gates)
        if got.dtype == np.float64:  # the reference's real parts, zero signs included
            assert np.array_equal(bits(got), bits(want.real)), name
        else:  # its values: on complex data the H butterfly may flip a zero part's sign
            assert np.array_equal(got, want), name
        # and every bit of the walk from a materialized |+>^n
        assert np.array_equal(bits(got), bits(sv.apply_gates(full, gates).amps)), name


@pytest.mark.parametrize("n", [17, 18])
def test_plus_prefix_runs_once_and_keeps_every_bit(monkeypatch, n):
    check_plus_prefix(monkeypatch, n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_plus_prefix_on_small_blocks(small_block, monkeypatch, n):
    check_plus_prefix(monkeypatch, n)


def with_graph(rng: np.random.Generator, n: int, gates: list) -> tuple[list, list]:
    """``gates`` with a random graph put in at a random place, and the same list with
    the graph spelled out as one CZ per edge."""
    g = random_graph(rng, n)
    k = int(rng.integers(len(gates) + 1))
    return gates[:k] + [g] + gates[k:], gates[:k] + [sv.Gate.cz(a, b) for a, b in g.edges()] + gates[k:]


def check_streamed_distance(monkeypatch, n: int, seed: int) -> None:
    # random real lists draw their targets from every qubit; past one tile both lists
    # are planned under one qubit map, and the walk keeps the maximum of the same
    # amplitudes, so the two distances are equal, not close. A graph item is a CZ
    # run: the map permutes the run's rows as it renames the gates' targets. The
    # lists are real, so past one tile of 2 * _BLOCK amplitudes the class walk runs
    rng = np.random.default_rng(seed)
    plus = sv.plus_state(n)
    walked = (1 << n) > 2 * sv._BLOCK
    for _ in range(3):
        a, a_gates = with_graph(rng, n, real_circuit(rng, n, 10))
        b, b_gates = with_graph(rng, n, real_circuit(rng, n, 10))
        a_state, b_state = sv.apply_gates(plus, a_gates), sv.apply_gates(plus, b_gates)
        got, *keys = walk_classes(monkeypatch, n, a, b)
        assert len(keys) == 2 * walked
        assert got == sv.amp_distance(a_state, b_state)
        assert sv._streamed_distance(n, a, a) == 0.0  # only if both sides are mapped alike
        assert sv._streamed_distance(n, a, a_gates) == 0.0


@pytest.mark.parametrize("n", [17, 18])
def test_streamed_distance_equals_amp_distance_of_both_states(monkeypatch, n):
    check_streamed_distance(monkeypatch, n, 9300 + n)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_streamed_distance_on_small_blocks(small_block, monkeypatch, n):
    check_streamed_distance(monkeypatch, n, 9400 + n)


def test_streamed_distance_sees_every_tile():
    # the two lists differ on every tile but the last, whose indices have bits 17, 18 and 19 set
    n = 20
    plus = sv.plus_state(n)
    a, b = [sv.Gate.cz(17, 18)], [sv.Gate.cz(17, 19)]
    assert sv._plan(plus, a)[2] < 1 << n
    want = sv.amp_distance(sv.apply_gates(plus, a), sv.apply_gates(plus, b))
    assert sv._streamed_distance(n, a, b) == want == 0.001953125


@pytest.mark.parametrize("n", [4, 17])
def test_graph_items_of_the_wrong_size_fail_before_any_sign_vector(monkeypatch, n):
    def no_sign_vector(*args):
        raise AssertionError("a sign vector was built for a wrong-size graph")

    monkeypatch.setattr(sv, "_sign_vector", no_sign_vector)
    for g in (gr.path(n - 1), gr.path(n + 1)):
        with pytest.raises(SizeMismatchError):
            sv._plan(sv.plus_state(n), [sv.Gate.h(0), g])
        with pytest.raises(SizeMismatchError):  # at 17 qubits, checked before the qubit map
            sv._streamed_distance(n, [sv.Gate.h(n - 1)], [g])


@pytest.mark.parametrize("n", [4, 17])
def test_out_of_range_targets_fail_before_any_sign_vector(monkeypatch, n):
    # at 17 qubits the comparison maps its qubits, and an out-of-range target has no
    # image under the map: a list's checks must all run before it, whatever comes first
    def no_sign_vector(*args):
        raise AssertionError("a sign vector was built for an out-of-range target")

    monkeypatch.setattr(sv, "_sign_vector", no_sign_vector)
    good = [gr.path(n), sv.Gate.cz(0, n - 1), sv.Gate.h(n - 1)]
    for bad in (sv.Gate.h(n), sv.Gate.h(-1), sv.Gate.cz(0, n), sv.Gate.cz(n, 0)):
        for a, b in ((good + [bad], good), ([bad] + good, good), ([sv.Gate.h(n - 1)], good + [bad])):
            with pytest.raises(VertexRangeError):
                sv._streamed_distance(n, a, b)


@pytest.mark.parametrize("n", [4, 17])
def test_second_list_is_checked_before_the_first_is_planned(monkeypatch, n):
    # the first list holds a CZ run, so planning it would build a sign vector
    def no_sign_vector(*args):
        raise AssertionError("a sign vector was built before the second list was checked")

    monkeypatch.setattr(sv, "_sign_vector", no_sign_vector)
    first = [sv.Gate.cz(0, n - 1), sv.Gate.h(0), gr.path(n)]
    with pytest.raises(VertexRangeError):
        sv._streamed_distance(n, first, [sv.Gate.h(0), sv.Gate.cz(1, n)])
    for g in (gr.path(n - 1), gr.path(n + 1)):
        with pytest.raises(SizeMismatchError):
            sv._streamed_distance(n, first, [sv.Gate.h(n - 1), g])


def walk_classes(monkeypatch, n: int, a: list, b: list) -> tuple[float, list, list]:
    """``_streamed_distance(n, a, b)`` and the class keys of both lists' tiles, in tile order."""
    seen = []
    classes = sv._classes

    def recorded(*args):
        keys, walk, tail = classes(*args)
        seen.append([keys[start] for start in sorted(keys)])
        return keys, walk, tail

    with monkeypatch.context() as m:
        m.setattr(sv, "_classes", recorded)
        got = sv._streamed_distance(n, a, b)
    return got, *seen


def class_walk_cases(n: int) -> list[tuple[str, list, list]]:
    """Pairs of lists past one 2^16-amplitude tile whose CZs join single-qubit targets
    to qubit n-1 or n-2, which the comparison's qubit map keeps above the tile."""
    h, z, cz, t = sv.Gate.h, sv.Gate.z, sv.Gate.cz, n - 1
    rng = np.random.default_rng(9500 + n)
    g1, g2 = random_graph(rng, n), random_graph(rng, n)
    return [
        # two CZ runs between gates on each side, and a tail run after the last gate
        ("two runs", [cz(0, t), h(0), cz(1, t), cz(0, t - 1), h(1), h(0), cz(2, t)],
         [cz(0, t - 1), h(0), cz(1, t), h(1), cz(0, t), z(1), h(0)]),
        ("graph items", [g1, h(0), cz(0, t), h(5)], [g2, h(5), h(0), g1]),
        # the keys of the first list differ on the lower target's bit only, then on the higher's
        ("lower target bit", [cz(0, t), h(0), h(1)], [cz(1, t - 1), h(1)]),
        ("higher target bit", [cz(1, t), h(0), h(1)], [cz(0, t - 1), h(0)]),
        # one state two ways, H H = I up to rounding; CZ(3, n-3) makes tiles of one class
        # differ in sign, and a tile given the wrong signs shows as 2^(1-n/2)
        ("one state", [cz(0, t), cz(1, t - 1), cz(3, t - 2), h(0), h(1), h(1), h(0)],
         [cz(3, t - 2), cz(1, t - 1), cz(0, t)]),
    ]


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_class_walk_gives_the_bits_of_the_dense_oracle(monkeypatch, n):
    # each list runs its stretch once per class; the deviation is that of the two
    # dense states, bit for bit, and the walk met at least two classes
    plus = sv.plus_state(n)
    for name, a, b in class_walk_cases(n):
        got, a_keys, b_keys = walk_classes(monkeypatch, n, a, b)
        want = sv.amp_distance(sv.apply_gates(plus, a), sv.apply_gates(plus, b))
        assert float.hex(got) == float.hex(want), name
        assert len(a_keys) == 1 << (n - 16) and len(set(a_keys)) >= 2, name
        if n == 20:  # a class of three tiles or more: a factor taken at the wrong tile shows
            assert max(map(a_keys.count, a_keys)) >= 3, name
        assert walk_classes(monkeypatch, n, a, list(a))[0] == 0.0, name


def test_one_tile_and_complex_comparisons_take_the_dense_oracle(monkeypatch):
    # a state of at most 2 * _BLOCK amplitudes, or a list with a complex gate on either
    # side, is compared as amp_distance of both apply_gates results: no class keys, the
    # same bits. 16 qubits of real gates are past the smallest tile: the class walk runs
    h, cz, t = sv.Gate.h, sv.Gate.cz, 16
    rng = np.random.default_rng(9600)
    cases = [(n, real_circuit(rng, n, 6), [random_graph(rng, n), h(n - 1)]) for n in (1, 5, 12, 15)]
    cases += [
        (17, [cz(0, t), sv.Gate.sqrt_iz(0), cz(0, t - 1), h(0)], [sv.Gate.sqrt_minus_ix(1), cz(1, t), h(1)]),
        # one side complex128, the other float64: both go to the oracle
        (17, [cz(0, t), sv.Gate.sqrt_iz(0), cz(0, t - 1), h(0), cz(3, t)], [cz(0, t), h(0), cz(1, t - 1), h(1)]),
    ]
    wants = [sv.amp_distance(sv.apply_gates(sv.plus_state(n), a), sv.apply_gates(sv.plus_state(n), b))
             for n, a, b in cases]
    a, b = real_circuit(rng, 16, 6), [random_graph(rng, 16), h(15)]
    got, *keys = walk_classes(monkeypatch, 16, a, b)
    assert len(keys) == 2 and got > 0
    assert got == sv.amp_distance(sv.apply_gates(sv.plus_state(16), a), sv.apply_gates(sv.plus_state(16), b))

    def no_classes(*args):
        raise AssertionError("a dense-route comparison made class keys")

    monkeypatch.setattr(sv, "_classes", no_classes)
    for (n, a, b), want in zip(cases, wants):
        assert want > 0, n
        assert float.hex(sv._streamed_distance(n, a, b)) == float.hex(want), n
        assert float.hex(sv._streamed_distance(n, b, a)) == float.hex(want), n


def test_tile_pairs_that_share_a_factor_but_not_their_class_tiles_are_both_compared():
    # the two 2^16-amplitude tiles have one combined (sigma, w) but lie in different
    # classes of the second list, so their class tiles differ. The walk meets tile 1
    # first (its key sorts first); a pair skipped on its factor alone would miss tile
    # 0, which holds the larger deviation: 2^-7 against tile 1's 2^-8
    h, z, x, cz = sv.Gate.h, sv.Gate.z, sv.Gate.x, sv.Gate.cz
    a, b = [cz(0, 15), z(5), h(1), x(3)], [h(3), cz(1, 16), z(7), h(1), h(3)]
    plus = sv.plus_state(17)
    want = sv.amp_distance(sv.apply_gates(plus, a), sv.apply_gates(plus, b))
    assert float.hex(sv._streamed_distance(17, a, b)) == float.hex(want)
    assert want == pytest.approx(2**-7, abs=1e-15)


def test_logical_cluster_build_compares_2_of_its_16_tile_pairs(monkeypatch):
    # N = 4: the direct and the shortcut list each walk 16 tiles, and the pairs come
    # in 2 distinct (class tile, class tile, factor) keys, each compared once: one
    # magnitude pass per compared pair
    from gselc import encoding as enc

    tiles, compared = [], []
    classes = sv._classes

    def recorded(*args):
        keys, walk, tail = classes(*args)
        tiles.append(len(keys))
        return keys, walk, tail

    class CountedAbs:
        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, *args, **kwargs):
            compared.append(args[0].size)
            return np.abs(*args, **kwargs)

    monkeypatch.setattr(sv, "_classes", recorded)
    monkeypatch.setattr(sv, "np", CountedAbs())
    rep, _, _ = enc.build_logical_cluster(4)
    assert rep.passed and rep.details["max_amp_diff"] == 6.505213034913027e-19
    assert tiles == [16, 16]
    assert compared == [1 << 16] * 2


def test_logical_cluster_build_runs_each_core_hadamard_once_per_class(monkeypatch):
    # N = 4: the first Hadamard layer runs once in the prefix; the second runs on the
    # two classes of the 16 tiles (only the last block's ancillae sit above the tile)
    from gselc import encoding as enc

    calls = []
    kernel = sv._single_qubit_inplace

    def counted(*args):
        calls.append(args[1])
        kernel(*args)

    monkeypatch.setattr(sv, "_single_qubit_inplace", counted)
    assert enc.build_logical_cluster(4)[0].passed
    assert len(calls) == 12


def tile_identity_graphs(n: int) -> list[gr.Graph]:
    """Graphs on n vertices whose tile slices take every form: dense random rows, a path (most
    tiles' w is 0), one edge between the two top qubits (w = 0 but sigma = -1 where both are set)
    and one edge from qubit 0 to the top (w = 1 on half the tiles)."""
    rng = np.random.default_rng(9700 + n)
    return [random_graph(rng, n), random_graph(rng, n), gr.path(n),
            gr.from_edges(n, [(n - 2, n - 1)]), gr.from_edges(n, [(0, n - 1), (n - 3, n - 1)])]


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_tile_slices_are_sign_times_base_times_character(n):
    # v[s + l] = sigma(s) v[l] (-1)^(w(s).l) for every tile start s of 2^b amplitudes
    for g in tile_identity_graphs(n):
        full = sv._sign_vector(n, g.rows)
        for b in (15, 16):
            base = sv._sign_vector(b, g.rows[:b])
            assert np.array_equal(base, full[: 1 << b])
            for s in range(0, 1 << n, 1 << b):
                got = sv._factor(sv._form(g.rows, s, (1 << b) - 1), 1 << b, base)
                assert np.array_equal(got, full[s : s + (1 << b)]), (g.edges()[:3], b, s)


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_class_keys_are_the_sign_products_of_the_full_vectors(n):
    # the key of tile s holds v[s + 2^q] v[s] for each run v up to the last gate and each target q,
    # and the tail is the product of the later runs' first tiles
    rng = np.random.default_rng(9800 + n)
    plus = sv.plus_state(n)
    h, cz = sv.Gate.h, sv.Gate.cz
    for top in (14, 15):
        g1, g2 = random_graph(rng, n), random_graph(rng, n)
        items = [g1, h(0), h(top), g2, h(3), h(top - 1), cz(2, n - 1), cz(5, n - 2), sv.Gate.h(1), cz(0, n - 1)]
        ops, dtype, size = sv._plan(plus, items)
        assert size == 2 << top
        keys, _, tail = sv._classes(plus.amps, ops, dtype, size)
        runs = [sv._sign_vector(n, op[1]) for op in ops if op[0] == "sign"]
        targets = [0, 1, 3, top - 1, top]
        assert len(runs) == 4 and len(keys) == 1 << (n - top - 1)
        for s, key in keys.items():
            assert key == tuple(v[s + (1 << q)] * v[s] for v in runs[:3] for q in targets), (top, s)
        assert np.array_equal(tail, runs[3][:size])


def recorded_sign_vectors(monkeypatch) -> list[int]:
    """The qubit counts ``_sign_vector`` is asked for from now on."""
    asked = []
    build = sv._sign_vector

    def recorded(n, rows):
        asked.append(n)
        return build(n, rows)

    monkeypatch.setattr(sv, "_sign_vector", recorded)
    return asked


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_streamed_distance_builds_no_sign_vector_past_one_tile(monkeypatch, n):
    # every run gets one base of the comparison's tile, 2^15 or 2^16 amplitudes
    plus = sv.plus_state(n)
    cases = class_walk_cases(n)
    wants = [sv.amp_distance(sv.apply_gates(plus, a), sv.apply_gates(plus, b)) for _, a, b in cases]
    rng = np.random.default_rng(9900 + n)
    g1, g2 = random_graph(rng, n // 2), random_graph(rng, n - n // 2)
    asked = recorded_sign_vectors(monkeypatch)
    for (name, a, b), want in zip(cases, wants):
        asked.clear()
        assert sv._streamed_distance(n, a, b) == want, name
        assert asked and max(asked) <= 16, name
    asked.clear()
    assert sv.verify_theorem1(g1, 0, g2, 1).passed
    assert asked and max(asked) <= 16


def test_apply_gates_builds_no_sign_vector_past_one_tile(monkeypatch):
    # 20 qubits, every single-qubit target below qubit 15: tiles of 2^15, one base per run
    n = 20
    state = sv.graph_state(gr.path(n))
    gates = [sv.Gate.cz(3, 17), sv.Gate.h(0), sv.Gate.h(14), gr.cycle(n), sv.Gate.cz(18, 19), sv.Gate.x(7)]
    gates_as_czs = [item for gate in gates for item in
                    ([sv.Gate.cz(a, b) for a, b in gate.edges()] if isinstance(gate, gr.Graph) else [gate])]
    want = reference_run(state.amps.astype(complex), n, gates_as_czs)
    asked = recorded_sign_vectors(monkeypatch)
    got = sv.apply_gates(state, gates).amps
    assert asked == [15, 15]  # CZ(3, 17), and the cycle with CZ(18, 19) as one run
    assert np.array_equal(got, want)

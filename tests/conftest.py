"""Shared test helpers: product states, edge parities, reference kernels and a small kernel block."""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from gselc import graph as gr
from gselc import statevector as sv
from gselc.statevector import _MATRICES, GateKind

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
ZERO = np.array([1.0, 0.0])
ONE = np.array([0.0, 1.0])


@pytest.fixture(params=[1, 2, 4])
def small_block(request, monkeypatch):
    """A kernel block of 1, 2 or 4 amplitude pairs, so small states span many blocks."""
    monkeypatch.setattr(sv, "_BLOCK", request.param)
    return request.param


def edge_parity(g: gr.Graph) -> np.ndarray:
    """Parity of the edges inside each basis state's support, as 0/1 per index.

    With x the bit vector of an index and U the upper-triangular adjacency
    matrix, the count of edges inside the support is x^T U x.
    """
    vertices = np.arange(g.n)
    x = (np.arange(1 << g.n)[:, None] >> vertices) & 1
    upper = np.triu((np.array(g.rows, dtype=np.int64)[:, None] >> vertices) & 1, k=1)
    return ((x @ upper) * x).sum(axis=1) & 1


def complete_bipartite(m: int, n: int) -> gr.Graph:
    """K_{m,n} from its edge list: each of 0..m-1 joined to each of m..m+n-1."""
    return gr.from_edges(m + n, [(a, b) for a in range(m) for b in range(m, m + n)])


def kron_state(*factors) -> np.ndarray:
    """Tensor product with factors[i] on qubit i (bit i of the index)."""
    return reduce(np.kron, reversed([np.asarray(f, dtype=complex) for f in factors]))


def reference_cz(amps: np.ndarray, n: int, a: int, b: int) -> None:
    """Index-mask CZ: negate, in place, every amplitude whose index has bits a and b set."""
    idx = np.arange(1 << n, dtype=np.int64)
    amps[((idx >> a) & (idx >> b) & 1).astype(bool)] *= -1


def reference_single_qubit(amps: np.ndarray, n: int, q: int, matrix: np.ndarray) -> None:
    """Index-pair single-qubit gate, in place, with the same per-amplitude arithmetic."""
    idx = np.arange(1 << n, dtype=np.int64)
    zero = idx[((idx >> q) & 1) == 0]
    one = zero | (1 << q)
    a0, a1 = amps[zero], amps[one]
    amps[zero] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    amps[one] = matrix[1, 0] * a0 + matrix[1, 1] * a1


def reference_run(amps: np.ndarray, n: int, gates) -> np.ndarray:
    """A gate list on a copy of ``amps``, one reference kernel call per gate."""
    out = amps.copy()
    for gate in gates:
        if gate.kind is GateKind.CZ:
            reference_cz(out, n, *gate.targets)
        else:
            reference_single_qubit(out, n, gate.targets[0], _MATRICES[gate.kind])
    return out


def reference_sign_vector(n: int, lower: list[int]) -> np.ndarray:
    """int8 (-1)^(x^T U x) by doubling: copy the signs so far, then negate the
    half-blocks of each lower partner; bit j of ``lower[i]`` is U[j, i], j < i."""
    sign = np.empty(1 << n, dtype=np.int8)
    sign[0] = 1
    for i in range(n):
        half = sign[1 << i : 2 << i]
        half[:] = sign[: 1 << i]
        for j in gr.mask_vertices(lower[i]):
            half.reshape(1 << (i - j - 1), 2, 1 << j)[:, 1, :] *= -1
    return sign


def reference_random_graph(rng: np.random.Generator, n: int) -> gr.Graph:
    """``random_graph`` by one scalar ``rng.integers(0, 2)`` draw per pair i < j, in row-major order."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.integers(0, 2):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return gr.Graph(n, tuple(rows))


def reference_graph_state(g: gr.Graph) -> np.ndarray:
    """|G> by one index-mask CZ per edge on |+>^n."""
    amps = np.full(1 << g.n, 2.0 ** (-g.n / 2), dtype=complex)
    for a, b in g.edges():
        reference_cz(amps, g.n, a, b)
    return amps

"""Simple undirected graphs over GF(2) with local and edge local complementation.

A graph on n vertices is stored as n row bitmasks: bit j of ``rows[i]`` is 1
iff {i, j} is an edge. Rows double as vertex sets, so neighborhoods, set
algebra, and complementation are all int XOR/AND operations. Graphs are
immutable values; every operation returns a new graph.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

from .errors import (
    GraphFormatError,
    NotAnEdgeError,
    SelfLoopError,
    TooSmallError,
    VertexRangeError,
)

__all__ = [
    "Graph",
    "new_empty",
    "path",
    "star",
    "cycle",
    "from_edges",
    "random_graph",
    "all_graphs",
    "toggle_edge",
    "local_complement",
    "edge_local_complement",
    "elc_via_lcs",
    "disjoint_union",
    "mask_vertices",
    "to_json",
    "from_json",
    "to_dot",
    "MAX_VERTICES",
]

# largest graph built or parsed; dense, it holds n^2 / 8 bytes (12.5 MB) of rows
MAX_VERTICES = 10_000


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[i]`` is the neighbor bitmask of vertex i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise GraphFormatError(f"row count {len(self.rows)} != n = {self.n}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise GraphFormatError(f"row {i} has bits beyond vertex {self.n - 1}")
            if (row >> i) & 1:
                raise SelfLoopError(f"self-loop stored at vertex {i}")

    def check_vertex(self, v: int) -> None:
        try:  # numpy integers pass
            operator.index(v)
        except TypeError:
            raise VertexRangeError(f"vertex {v!r} is not an integer") from None
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range for n = {self.n}")

    def has_edge(self, a: int, b: int) -> bool:
        self.check_vertex(a)
        self.check_vertex(b)
        return bool((self.rows[a] >> b) & 1)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.rows[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, sorted lexicographically."""
        out = []
        for i, row in enumerate(self.rows):
            out.extend((i, j) for j in mask_vertices(row >> (i + 1) << (i + 1)))
        return out


def new_empty(n: int) -> Graph:
    """Graph with n vertices and no edges."""
    if n < 0:
        raise GraphFormatError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"{n} vertices exceeds the limit of {MAX_VERTICES}")
    return Graph(n, (0,) * n)


def from_edges(n: int, edges) -> Graph:
    """Graph with n vertices and the given edge pairs."""
    g = new_empty(n)
    rows = [0] * n
    for a, b in edges:
        g.check_vertex(a)
        g.check_vertex(b)
        if a == b:
            raise SelfLoopError(f"edge ({a}, {b}) is a self-loop")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def random_graph(rng, n: int) -> Graph:
    """Graph with pair {i, j} an edge when its ``rng.integers(0, 2)`` bit is 1.

    One draw of a bit per pair i < j, read in row-major order, so seeded runs
    repeat: it gives the bits, and leaves the generator in the state, of one
    scalar draw per pair.
    """
    bits = iter(rng.integers(0, 2, size=max(n * (n - 1) // 2, 0)).tolist())
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if next(bits):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def all_graphs(n: int):
    """Every simple graph on n labelled vertices, edge subsets in binary counting order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield from_edges(n, (p for k, p in enumerate(pairs) if (bits >> k) & 1))


def path(n: int) -> Graph:
    """Path graph 0-1-...-(n-1); n = 0 gives the empty graph."""
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def star(n_leaves: int) -> Graph:
    """Star with hub 0 adjacent to leaves 1..n_leaves."""
    if n_leaves < 0:
        raise GraphFormatError(f"negative leaf count {n_leaves}")
    return from_edges(n_leaves + 1, ((0, i) for i in range(1, n_leaves + 1)))


def cycle(n: int) -> Graph:
    """Cycle graph with edges {i, i+1 mod n}; requires n >= 3."""
    if n < 3:
        raise TooSmallError(f"cycle needs at least 3 vertices, got {n}")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def toggle_edge(g: Graph, a: int, b: int) -> Graph:
    """Flip the presence of edge {a, b}."""
    g.check_vertex(a)
    g.check_vertex(b)
    if a == b:
        raise SelfLoopError(f"cannot toggle self-loop at {a}")
    rows = list(g.rows)
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    return Graph(g.n, tuple(rows))


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the induced subgraph on N(a); edges at a and outside stay."""
    g.check_vertex(a)
    mask = g.rows[a]
    rows = list(g.rows)
    for u in mask_vertices(mask):
        rows[u] ^= mask ^ (1 << u)
    return Graph(g.n, tuple(rows))


def elc_via_lcs(g: Graph, a: int, b: int, steps: list | None = None) -> Graph:
    """Edge local complementation as the literal LC(a), LC(b), LC(a) composition.

    Reference path: the direct rule in :func:`edge_local_complement` is tested
    against this. Each (vertex, graph) step is appended to ``steps`` if given.
    """
    if not g.has_edge(a, b):
        raise NotAnEdgeError(f"{{{a}, {b}}} is not an edge")
    for vertex in (a, b, a):
        g = local_complement(g, vertex)
        if steps is not None:
            steps.append((vertex, g))
    return g


def edge_local_complement(g: Graph, a: int, b: int) -> Graph:
    """Edge local complementation on edge {a, b} via the direct pivot rule.

    Neighbors of the edge split into a-only, b-only, and shared classes; every
    pair spanning two different classes is toggled, and the neighborhoods of a
    and b (minus each other) swap. Agrees with :func:`elc_via_lcs` on every
    graph.
    """
    if not g.has_edge(a, b):
        raise NotAnEdgeError(f"{{{a}, {b}}} is not an edge")
    bit_a, bit_b = 1 << a, 1 << b
    na = g.rows[a] & ~bit_b
    nb = g.rows[b] & ~bit_a
    shared = na & nb
    a_only = na & ~shared
    b_only = nb & ~shared
    rows = list(g.rows)
    for u in mask_vertices(a_only):
        rows[u] ^= b_only | shared
    for u in mask_vertices(b_only):
        rows[u] ^= a_only | shared
    for u in mask_vertices(shared):
        rows[u] ^= a_only | b_only
    # swap the endpoint neighborhoods; the edge {a, b} itself persists
    rows[a] = nb | bit_b
    rows[b] = na | bit_a
    for u in mask_vertices(a_only | b_only):
        rows[u] ^= bit_a | bit_b
    return Graph(g.n, tuple(rows))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Both graphs side by side; g2's vertices shift up by g1.n."""
    shifted = tuple(row << g1.n for row in g2.rows)
    return Graph(g1.n + g2.n, g1.rows + shifted)


def to_json(g: Graph) -> str:
    """Canonical JSON form: ``{"n": ..., "edges": [[a, b], ...]}`` with a < b sorted."""
    edges = [[a, b] for a, b in g.edges()]
    return json.dumps({"n": g.n, "edges": edges}, separators=(", ", ": "))


def from_json(text: str) -> Graph:
    """Parse the canonical JSON form, rejecting malformed edge lists."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"n", "edges"}:
        raise GraphFormatError('expected an object with keys "n" and "edges"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphFormatError(f'"n" must be a non-negative integer, got {n!r}')
    if not isinstance(doc["edges"], list):
        raise GraphFormatError('"edges" must be a list')
    seen = set()
    rows = list(new_empty(n).rows)
    for item in doc["edges"]:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise GraphFormatError(f"edge {item!r} is not a pair of integers")
        a, b = item
        if a == b:
            raise GraphFormatError(f"edge [{a}, {b}] is a self-loop")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphFormatError(f"edge [{a}, {b}] out of range for n = {n}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphFormatError(f"duplicate edge [{a}, {b}]")
        seen.add(key)
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def to_dot(g: Graph) -> str:
    """DOT export: every vertex listed, edges in sorted order, no layout hints."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {a} -- {b};" for a, b in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Simple undirected graphs over GF(2) with local and edge local complementation.

A graph on n vertices is stored as n row bitmasks: bit j of ``rows[i]`` is 1
iff {i, j} is an edge. Rows double as vertex sets, so neighborhoods, set
algebra, and complementation are all int XOR/AND operations. Graphs are
immutable values; every operation returns a new graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    GraphFormatError,
    NotAnEdgeError,
    NotAPartitionError,
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
    "neighborhood",
    "local_complement",
    "edge_local_complement",
    "elc_via_lcs",
    "disjoint_union",
    "is_complete_bipartite",
    "vertex_mask",
    "mask_vertices",
    "to_json",
    "from_json",
    "to_dot",
    "MAX_VERTICES",
]

# largest graph built or parsed; dense, it holds n^2 / 8 bytes (12.5 MB) of rows
MAX_VERTICES = 10_000


def vertex_mask(vertices) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


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
    """Graph with pair {i, j} an edge when its ``rng.integers(0, 2)`` draw is 1.

    One scalar draw per pair i < j, in row-major order, so seeded runs repeat.
    """
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.integers(0, 2):
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


def neighborhood(g: Graph, v: int) -> int:
    """Neighbor set of v as a bitmask (v itself excluded)."""
    g.check_vertex(v)
    return g.rows[v]


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the induced subgraph on N(a); edges at a and outside stay."""
    g.check_vertex(a)
    mask = g.rows[a]
    rows = list(g.rows)
    for u in mask_vertices(mask):
        rows[u] ^= mask ^ (1 << u)
    return Graph(g.n, tuple(rows))


def elc_via_lcs(g: Graph, a: int, b: int) -> Graph:
    """Edge local complementation as the literal LC(a), LC(b), LC(a) composition.

    Reference path: the direct rule in :func:`edge_local_complement` is tested
    against this.
    """
    if not g.has_edge(a, b):
        raise NotAnEdgeError(f"{{{a}, {b}}} is not an edge")
    return local_complement(local_complement(local_complement(g, a), b), a)


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


def is_complete_bipartite(g: Graph, part_a: int, part_b: int) -> bool:
    """True iff every cross edge between the two parts exists and no others.

    Parts are vertex bitmasks and must partition {0, ..., n-1}.
    """
    full = (1 << g.n) - 1
    if part_a & part_b or (part_a | part_b) != full:
        raise NotAPartitionError("parts must be disjoint and cover all vertices")
    for u in mask_vertices(part_a):
        if g.rows[u] != part_b:
            return False
    for v in mask_vertices(part_b):
        if g.rows[v] != part_a:
            return False
    return True


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

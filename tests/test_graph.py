"""Graph construction, LC/ELC transformations, and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gselc import graph as gr
from gselc.errors import (
    GraphFormatError,
    NotAnEdgeError,
    SelfLoopError,
    TooSmallError,
    VertexRangeError,
)
from gselc.graph import all_graphs, random_graph

from conftest import complete_bipartite, reference_random_graph


def test_new_empty():
    g0 = gr.new_empty(0)
    assert g0.n == 0 and g0.edge_count == 0
    g4 = gr.new_empty(4)
    assert g4.n == 4 and g4.edge_count == 0


def test_vertex_count_is_bounded():
    assert gr.new_empty(gr.MAX_VERTICES).n == gr.MAX_VERTICES
    too_many = gr.MAX_VERTICES + 1
    for build in (gr.new_empty, gr.path, lambda n: gr.from_json(f'{{"n": {n}, "edges": []}}')):
        with pytest.raises(GraphFormatError, match="exceeds the limit"):
            build(too_many)


def test_mask_vertices_lists_set_bits_in_order():
    rng = np.random.default_rng(4)
    for mask in [0, 1, 6, 1 << 200, (1 << 64) - 1] + [int(rng.integers(1 << 62)) for _ in range(50)]:
        expected = tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)
        assert gr.mask_vertices(mask) == expected


def test_empty_plus_toggles_is_path():
    g = gr.new_empty(4)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        g = gr.toggle_edge(g, a, b)
    assert g == gr.path(4)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_toggle_edge_involution_and_errors():
    g = gr.new_empty(2)
    once = gr.toggle_edge(g, 0, 1)
    assert once.edges() == [(0, 1)]
    assert gr.toggle_edge(once, 1, 0) == g
    with pytest.raises(SelfLoopError):
        gr.toggle_edge(g, 1, 1)
    with pytest.raises(VertexRangeError):
        gr.toggle_edge(g, 0, 2)


def test_toggle_path_endpoints():
    g = gr.toggle_edge(gr.path(4), 0, 3)
    assert g.edge_count == 4
    assert g.has_edge(0, 3) and g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)


def test_neighborhood():
    s = gr.star(4)
    assert gr.mask_vertices(s.rows[0]) == (1, 2, 3, 4)
    assert gr.new_empty(3).rows[1] == 0
    c = gr.cycle(5)
    for i in range(5):
        assert gr.mask_vertices(c.rows[i]) == tuple(sorted(((i - 1) % 5, (i + 1) % 5)))


def test_star():
    s = gr.star(4)
    assert s.n == 5 and s.edge_count == 4 and s.degree(0) == 4
    assert all(s.degree(i) == 1 for i in range(1, 5))
    s0 = gr.star(0)
    assert s0.n == 1 and s0.edge_count == 0
    assert gr.star(2) == gr.from_edges(3, [(0, 1), (0, 2)])


def test_cycle():
    c5 = gr.cycle(5)
    assert c5.edge_count == 5 and all(c5.degree(i) == 2 for i in range(5))
    assert gr.cycle(3).edge_count == 3  # triangle = K3
    # C4 is the complement of the perfect matching {0-2, 1-3}
    c4 = gr.cycle(4)
    assert c4.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    with pytest.raises(TooSmallError):
        gr.cycle(2)


def test_local_complement_path_step():
    # first step of the four-vertex chain replay: LC at the second vertex
    # links its two neighbors
    g = gr.local_complement(gr.path(4), 1)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3)]


def test_local_complement_isolated_and_involution():
    g = gr.new_empty(3)
    assert gr.local_complement(g, 1) == g
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(1, 9)))
        a = int(rng.integers(0, g.n))
        assert gr.local_complement(gr.local_complement(g, a), a) == g


def test_lc_preserves_incident_and_outside_edges():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 9)))
        a = int(rng.integers(0, g.n))
        h = gr.local_complement(g, a)
        assert h.rows[a] == g.rows[a]
        touched = g.rows[a]
        for u in range(g.n):
            if u == a or (touched >> u) & 1:
                continue
            assert h.rows[u] & ~touched == g.rows[u] & ~touched


def test_elc_path_reference():
    g = gr.edge_local_complement(gr.path(4), 1, 2)
    assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert g.edge_count == 4


def test_elc_requires_edge():
    with pytest.raises(NotAnEdgeError):
        gr.edge_local_complement(gr.path(4), 0, 2)
    with pytest.raises(NotAnEdgeError):
        gr.elc_via_lcs(gr.path(4), 0, 2)


def test_elc_direct_rule_matches_composition_exhaustive():
    # the three-LC composition is ground truth for the pivot shortcut
    for n in range(2, 6):
        for g in all_graphs(n):
            for a, b in g.edges():
                assert gr.edge_local_complement(g, a, b) == gr.elc_via_lcs(g, a, b)


def test_elc_direct_rule_matches_composition_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(2, 11)))
        if not g.edge_count:
            continue
        edges = g.edges()
        a, b = edges[int(rng.integers(0, len(edges)))]
        assert gr.edge_local_complement(g, a, b) == gr.elc_via_lcs(g, a, b)


def test_elc_involution_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(2, 10)))
        if not g.edge_count:
            continue
        edges = g.edges()
        a, b = edges[int(rng.integers(0, len(edges)))]
        h = gr.edge_local_complement(g, a, b)
        assert h.has_edge(a, b)
        assert gr.edge_local_complement(h, a, b) == g


def test_elc_swaps_disjoint_neighborhoods():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g1 = random_graph(rng, int(rng.integers(1, 6)))
        g2 = random_graph(rng, int(rng.integers(1, 6)))
        c1 = int(rng.integers(0, g1.n))
        c2 = g1.n + int(rng.integers(0, g2.n))
        joined = gr.toggle_edge(gr.disjoint_union(g1, g2), c1, c2)
        na = joined.rows[c1] & ~(1 << c2)
        nb = joined.rows[c2] & ~(1 << c1)
        assert na & nb == 0
        h = gr.edge_local_complement(joined, c1, c2)
        assert h.has_edge(c1, c2)
        assert h.rows[c1] & ~(1 << c2) == nb
        assert h.rows[c2] & ~(1 << c1) == na


def test_joined_stars_elc_is_complete_bipartite():
    two = gr.toggle_edge(gr.disjoint_union(gr.star(4), gr.star(4)), 0, 5)
    k = gr.edge_local_complement(two, 0, 5)
    assert k.edge_count == 25
    assert k == complete_bipartite(5, 5)


def test_random_graph_draws_one_bit_per_pair_in_row_major_order():
    for n in range(0, 9):
        rng = np.random.default_rng(n)
        g = random_graph(rng, n)
        ref = np.random.default_rng(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert g.edges() == [p for p in pairs if ref.integers(0, 2)]
        assert rng.integers(0, 1 << 30) == ref.integers(0, 1 << 30)


def test_random_graph_matches_one_scalar_draw_per_pair():
    # the one vector draw gives the graph of the scalar reference and leaves the
    # generator where it leaves it, from any point of the stream
    for seed in range(60):
        for n in range(0, 13):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            skip = seed % 3
            rng.integers(0, 7, size=skip)
            ref.integers(0, 7, size=skip)
            assert random_graph(rng, n) == reference_random_graph(ref, n), (seed, n)
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, n)


def test_all_graphs_enumerates_each_graph_once():
    for n in range(0, 5):
        graphs = list(all_graphs(n))
        assert len(set(graphs)) == len(graphs) == 1 << (n * (n - 1) // 2)
        assert graphs[0] == gr.new_empty(n)


@st.composite
def graphs(draw, min_n=0):
    n = draw(st.integers(min_n, 64))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return gr.from_edges(n, (p for k, p in enumerate(pairs) if (bits >> k) & 1))


@st.composite
def graphs_with_vertex(draw):
    g = draw(graphs(min_n=1))
    return g, draw(st.integers(0, g.n - 1))


@st.composite
def graphs_with_edge(draw):
    g = draw(graphs(min_n=2))
    a = draw(st.integers(0, g.n - 1))
    b = draw(st.integers(0, g.n - 1).filter(lambda v: v != a))
    return (g if g.has_edge(a, b) else gr.toggle_edge(g, a, b)), a, b


@settings(derandomize=True, deadline=None)
@given(graphs_with_vertex())
def test_lc_involution_property(case):
    g, a = case
    assert gr.local_complement(gr.local_complement(g, a), a) == g


@settings(derandomize=True, deadline=None)
@given(graphs_with_edge())
def test_elc_involution_property(case):
    g, a, b = case
    assert gr.edge_local_complement(gr.edge_local_complement(g, a, b), a, b) == g


@settings(derandomize=True, deadline=None)
@given(graphs_with_edge())
def test_elc_direct_rule_equals_three_lcs_property(case):
    g, a, b = case
    assert gr.edge_local_complement(g, a, b) == gr.elc_via_lcs(g, a, b)


@settings(derandomize=True, deadline=None)
@given(graphs())
def test_json_round_trip_property(g):
    text = gr.to_json(g)
    assert gr.from_json(text) == g
    assert gr.to_json(gr.from_json(text)) == text


def test_disjoint_union():
    assert gr.disjoint_union(gr.new_empty(2), gr.new_empty(3)) == gr.new_empty(5)
    u = gr.disjoint_union(gr.star(4), gr.star(4))
    assert u.n == 10 and u.edge_count == 8
    c = gr.disjoint_union(gr.cycle(5), gr.cycle(5))
    assert c.n == 10 and c.edge_count == 10
    assert not any(c.has_edge(i, j) for i in range(5) for j in range(5, 10))


def test_self_loop_rejected_in_constructors():
    with pytest.raises(SelfLoopError):
        gr.from_edges(3, [(1, 1)])


def test_json_round_trip_byte_identical():
    for g in (gr.path(4), gr.star(4), gr.cycle(5), gr.new_empty(0), gr.new_empty(3)):
        text = gr.to_json(g)
        assert gr.to_json(gr.from_json(text)) == text
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(0, 10)))
        text = gr.to_json(g)
        assert gr.to_json(gr.from_json(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"n": 3}',
        '{"n": -1, "edges": []}',
        '{"n": 2.5, "edges": []}',
        '{"n": 3, "edges": [[0, 0]]}',
        '{"n": 3, "edges": [[0, 3]]}',
        '{"n": 3, "edges": [[-1, 2]]}',
        '{"n": 3, "edges": [[0, 1], [1, 0]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [[0, true]]}',
        '{"n": 3, "edges": [[0, 1]], "extra": 1}',
    ],
)
def test_json_parser_rejects(text):
    with pytest.raises(GraphFormatError):
        gr.from_json(text)


def test_dot_export():
    assert gr.to_dot(gr.path(3)) == "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    assert gr.to_dot(gr.new_empty(2)) == "graph G {\n  0;\n  1;\n}\n"
    two = gr.toggle_edge(gr.disjoint_union(gr.star(4), gr.star(4)), 0, 5)
    k = gr.edge_local_complement(two, 0, 5)
    assert sum(1 for line in gr.to_dot(k).splitlines() if "--" in line) == 25


def test_graphs_are_immutable_values():
    g = gr.path(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == gr.path(3)
    assert hash(g) == hash(gr.path(3))


def test_elc_via_lcs_reports_its_three_steps():
    g = gr.path(4)
    steps = []
    h = gr.elc_via_lcs(g, 1, 2, steps)
    assert [vertex for vertex, _ in steps] == [1, 2, 1]
    one = gr.local_complement(g, 1)
    two = gr.local_complement(one, 2)
    assert [graph for _, graph in steps] == [one, two, gr.local_complement(two, 1)]
    assert steps[-1][1] == h == gr.edge_local_complement(g, 1, 2)
    with pytest.raises(NotAnEdgeError):
        gr.elc_via_lcs(g, 0, 2, steps)
    assert len(steps) == 3  # nothing is reported for a non-edge

"""ELC on a CZ-joined pair of graph states, read as quadratic forms over GF(2).

A graph state is sum_x (-1)^q(x) |x> with q(x) = sum over edges uv of x_u x_v,
so the quadratic form is the edge set: XOR of bit rows adds forms. These tests
pin the closed form of ELC on the joined pair and the cumulative change after
each of the three local complements LC(c1) LC(c2) LC(c1).
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from gselc import graph as gr
from gselc.graph import random_graph


def _clique(n, mask):
    """Bit rows of every pair inside a vertex set."""
    return tuple(mask & ~(1 << u) if (mask >> u) & 1 else 0 for u in range(n))


def _cross(n, mask_a, mask_b):
    """Bit rows of every pair with one end in each of two disjoint vertex sets."""
    return tuple(
        (mask_b if (mask_a >> u) & 1 else 0) | (mask_a if (mask_b >> u) & 1 else 0)
        for u in range(n)
    )


def _xor(*row_sets):
    return tuple(reduce(operator.xor, column) for column in zip(*row_sets))


def _joined(g1, c1, g2, c2):
    return gr.toggle_edge(gr.disjoint_union(g1, g2), c1, c2 + g1.n)


def _elc_closed_form(g1, c1, g2, c2):
    """Rows after ELC on the joined pair: the edge c1-c2, c1 x N(c2),
    c2 x N(c1), N(c1) x N(c2), and every edge away from the cores as it was."""
    n, c2g = g1.n + g2.n, c2 + g1.n
    nb1, nb2 = g1.rows[c1], g2.rows[c2] << g1.n
    cores = (1 << c1) | (1 << c2g)
    untouched = tuple(
        0 if (cores >> u) & 1 else row & ~cores
        for u, row in enumerate(gr.disjoint_union(g1, g2).rows)
    )
    return _xor(
        untouched,
        _cross(n, 1 << c1, 1 << c2g),
        _cross(n, 1 << c1, nb2),
        _cross(n, 1 << c2g, nb1),
        _cross(n, nb1, nb2),
    )


def _draw_pair(rng, n1, n2):
    g1, g2 = random_graph(rng, n1), random_graph(rng, n2)
    c1, c2 = int(rng.integers(0, n1)), int(rng.integers(0, n2))
    return g1, c1, g2, c2


def _three_lc(g1, c1, g2, c2):
    """Rows after LC(c1), LC(c2), LC(c1) on the joined pair, one tuple per step."""
    g = _joined(g1, c1, g2, c2)
    steps = []
    for vertex in (c1, c2 + g1.n, c1):
        g = gr.local_complement(g, vertex)
        steps.append(g.rows)
    return steps


def test_elc_final_form_single_vertices():
    g = gr.new_empty(1)
    assert _elc_closed_form(g, 0, g, 0) == gr.from_edges(2, [(0, 1)]).rows
    assert gr.edge_local_complement(_joined(g, 0, g, 0), 0, 1) == gr.from_edges(2, [(0, 1)])


def test_elc_final_form_matches_graph_elc_small():
    p = gr.path(2)
    expected = gr.edge_local_complement(_joined(p, 1, p, 0), 1, 2)
    assert _elc_closed_form(p, 1, p, 0) == expected.rows


def test_elc_final_form_matches_graph_elc_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 13 - n1))
        g1, c1, g2, c2 = _draw_pair(rng, n1, n2)
        expected = gr.edge_local_complement(_joined(g1, c1, g2, c2), c1, c2 + n1)
        assert _elc_closed_form(g1, c1, g2, c2) == expected.rows


def test_three_lc_composition_reproduces_final_form():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        g1, c1, g2, c2 = _draw_pair(rng, n1, n2)
        assert _three_lc(g1, c1, g2, c2)[-1] == _elc_closed_form(g1, c1, g2, c2)


def test_cumulative_delta_forms_match_closed_expressions():
    # the intermediate forms are cumulative: r1, r1+r2', r1+r2'+r3' are each
    # the change from the joined graph, checked against their closed expressions
    rng = np.random.default_rng(31)
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        g1, c1, g2, c2 = _draw_pair(rng, n1, n2)
        n, c2g = n1 + n2, c2 + n1
        nb1, nb2 = g1.rows[c1], g2.rows[c2] << n1
        r1 = _xor(_clique(n, nb1), _cross(n, 1 << c2g, nb1))
        r2 = _xor(
            _cross(n, 1 << c2g, nb1),
            _cross(n, 1 << c1, nb1 | nb2),
            _clique(n, nb2),
            _cross(n, nb1, nb2),
        )
        r3 = _xor(
            _cross(n, 1 << c2g, nb1 | nb2), _cross(n, 1 << c1, nb1 | nb2), _cross(n, nb1, nb2)
        )
        joined = _joined(g1, c1, g2, c2).rows
        for rows, expected in zip(_three_lc(g1, c1, g2, c2), (r1, r2, r3)):
            assert _xor(rows, joined) == expected

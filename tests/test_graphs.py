import math
from itertools import combinations

import networkx as nx
import pytest

from indigo.core import MANY, BoundExceededError, SemiringCtx, fin
from indigo.graphs import (
    EXACT_SEARCH_BOUND,
    INFINITE,
    IndigenousGraph,
    build_graph,
    chromatic_number,
    clique_number,
    diameter,
    girth,
    invariants,
)


def to_networkx(g: IndigenousGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(v.render() for v in g.vertices)
    h.add_edges_from((u.render(), v.render()) for u, v in g.edges())
    return h


def test_order_one_is_a_single_edge():
    g = build_graph(1)
    assert [v.render() for v in g.vertices] == ["1", "m"]
    assert g.edge_list_text() == "1 m"
    assert diameter(g) == 1
    assert girth(g) == INFINITE


def test_order_two_structure():
    g = build_graph(2)
    assert g.edge_list_text().splitlines() == ["1 m", "2 m"]
    assert not g.adjacent(fin(1), fin(2))
    assert diameter(g) == 2
    assert girth(g) == INFINITE


def test_adjacency_follows_multiplication():
    for k in (1, 3, 6, 11, 70):
        for mutant in (None, "add-cap", "mul-cap"):
            g = build_graph(k, mutant=mutant)
            ctx = g.ctx
            for u, v in combinations(g.vertices, 2):
                assert g.adjacent(u, v) == (ctx.mul(u, v) == MANY)
            assert not any(g.adjacent(v, v) for v in g.vertices)


def test_large_graph_reads_table_rows_not_dense_tables(monkeypatch):
    monkeypatch.setattr(SemiringCtx, "tables", None)
    k = 3000
    g = build_graph(k)
    # finite u != v are joined exactly when u * v > k, and m is joined to every finite vertex
    ordered = sum(k - k // u for u in range(1, k + 1))
    finite_edges = (ordered - sum(1 for u in range(1, k + 1) if u * u > k)) // 2
    assert g.edge_count() == finite_edges + k
    assert g.neighbors(fin(1)) == (MANY,)
    assert g.adjacent(fin(54), fin(56)) and not g.adjacent(fin(50), fin(60))


def test_one_is_adjacent_only_to_m():
    for k in (2, 5, 9):
        g = build_graph(k)
        assert g.neighbors(fin(1)) == (MANY,)
        assert g.degree(MANY) == k


def test_diameter_and_girth_against_networkx():
    for k in range(1, 15):
        g = build_graph(k)
        h = to_networkx(g)
        d = diameter(g)
        if nx.is_connected(h):
            assert d == nx.diameter(h)
        else:
            assert d == INFINITE
        gi = girth(g)
        nx_girth = nx.girth(h)
        assert gi == (INFINITE if nx_girth == math.inf else nx_girth)


def test_girth_dichotomy():
    # a triangle exists iff k >= 3, and 3 is the least possible cycle length
    for k in range(1, 20):
        g = build_graph(k)
        triangle = any(
            g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(a, c)
            for a, b, c in combinations(g.vertices, 3)
        )
        expected = 3 if triangle else INFINITE
        assert girth(g) == expected
        assert triangle == (k >= 3)


def test_clique_number_against_networkx():
    for k in range(1, 25):
        g = build_graph(k)
        h = to_networkx(g)
        assert clique_number(g) == max(len(c) for c in nx.find_cliques(h))


def test_clique_small_orders_exact():
    assert [clique_number(build_graph(k)) for k in (1, 2, 3, 4)] == [2, 2, 3, 4]


def test_clique_lower_bound_and_witness():
    for k in range(1, 25):
        g = build_graph(k)
        omega = clique_number(g)
        assert omega >= k // 2 + 1
        if k >= 5:
            witness = [fin(i) for i in range(k - k // 2, k + 1)] + [MANY]
            assert len(witness) == k // 2 + 2
            for u, v in combinations(witness, 2):
                assert g.adjacent(u, v)


def test_clique_known_value_k10():
    # {3, ..., 10, m} is a clique (3 * 4 > 10) and 2 pairs with nothing below 6
    assert clique_number(build_graph(10)) == 9


def brute_force_colorable(g: IndigenousGraph, colors: int) -> bool:
    n = g.order
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if g.adjacent(g.vertices[i], g.vertices[j])
    ]
    assignment = [0] * n

    def place(i):
        if i == n:
            return True
        for c in range(colors):
            assignment[i] = c
            if all(assignment[a] != assignment[b] for a, b in edges if max(a, b) <= i):
                if place(i + 1):
                    return True
        return False

    return place(0)


def test_chromatic_number_exact_small():
    for k in range(1, 8):
        g = build_graph(k)
        chi = chromatic_number(g)
        assert brute_force_colorable(g, chi)
        assert chi == 1 or not brute_force_colorable(g, chi - 1)


def test_chromatic_known_values():
    assert chromatic_number(build_graph(4)) == 4
    assert chromatic_number(build_graph(7)) == 6


def test_chromatic_at_least_clique():
    for k in range(1, 25):
        g = build_graph(k)
        assert chromatic_number(g) >= clique_number(g)


def test_invariants_bundle():
    inv = invariants(build_graph(4))
    assert (inv.diameter, inv.girth, inv.clique_number, inv.chromatic_number) == (2, 3, 4, 4)
    data = inv.to_json()
    assert data["girth"] == 3
    assert invariants(build_graph(2)).to_json()["girth"] == "infinity"


def test_search_bound():
    g = build_graph(EXACT_SEARCH_BOUND + 1)
    with pytest.raises(BoundExceededError):
        clique_number(g)
    with pytest.raises(BoundExceededError):
        chromatic_number(g)
    assert clique_number(g, max_k=EXACT_SEARCH_BOUND + 1) >= (EXACT_SEARCH_BOUND + 1) // 2 + 1


def test_adjacency_map_render():
    m = build_graph(2).adjacency_map()
    assert m == {"1": ["m"], "2": ["m"], "m": ["1", "2"]}


def test_mutant_changes_adjacency():
    # with products capped at k nothing saturates, so no finite pair is adjacent
    g = build_graph(4, mutant="mul-cap")
    assert not g.adjacent(fin(3), fin(4))
    assert g.adjacent(fin(3), MANY)


def test_vertex_validation():
    g = build_graph(3)
    with pytest.raises(ValueError):
        g.degree(g.ctx.zero)

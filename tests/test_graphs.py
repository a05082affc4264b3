from itertools import combinations, product

import networkx as nx
import pytest
from reference import cell_corruptions, cell_fault, ref_mul

from indigo import EXACT_SEARCH_BOUND, checks
from indigo.core import MANY, SemiringCtx, fin
from indigo.graphs import (
    INFINITE,
    IndigenousGraph,
    build_graph,
    chromatic_number,
    clique_number,
    diameter,
    girth,
)


CONTEXTS = (None, "add-cap", "mul-cap")


def to_networkx(g: IndigenousGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(v.render() for v in g.vertices)
    h.add_edges_from((u.render(), v.render()) for u, v in g.edges())
    return h


def assert_distances_match_networkx(g: IndigenousGraph, h: nx.Graph):
    assert diameter(g) == (nx.diameter(h) if nx.is_connected(h) else INFINITE)
    assert girth(g) == nx.girth(h)  # both give a forest girth math.inf


def assert_clique_matches_networkx(g: IndigenousGraph, h: nx.Graph):
    assert clique_number(g) == max(len(c) for c in nx.find_cliques(h))


def assert_coloring_matches_greedy(g: IndigenousGraph, h: nx.Graph):
    # a proper coloring with as many colors as the largest clique proves chi = omega
    coloring = nx.greedy_color(h, strategy="largest_first")
    assert all(coloring[u] != coloring[v] for u, v in h.edges)
    omega = max(len(c) for c in nx.find_cliques(h))
    assert len(set(coloring.values())) == omega == chromatic_number(g)


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
                assert g.adjacent(u, v) == (ref_mul(ctx, u, v) == MANY)
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
    for mutant, k in product(CONTEXTS, range(1, EXACT_SEARCH_BOUND + 1)):
        g = build_graph(k, mutant=mutant)
        assert_distances_match_networkx(g, to_networkx(g))


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
    for mutant, k in product(CONTEXTS, range(1, EXACT_SEARCH_BOUND + 1)):
        g = build_graph(k, mutant=mutant)
        assert_clique_matches_networkx(g, to_networkx(g))


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


def test_chromatic_number_against_greedy_coloring():
    for mutant, k in product(CONTEXTS, range(1, EXACT_SEARCH_BOUND + 1)):
        g = build_graph(k, mutant=mutant)
        assert_coloring_matches_greedy(g, to_networkx(g))


@pytest.mark.slow
@pytest.mark.parametrize("mutant", CONTEXTS)
def test_invariants_against_networkx_beyond_the_bound(mutant):
    for k in range(EXACT_SEARCH_BOUND + 1, 101):
        g = build_graph(k, mutant=mutant)
        h = to_networkx(g)
        assert_distances_match_networkx(g, h)
        assert_clique_matches_networkx(g, h)
        assert_coloring_matches_greedy(g, h)


def has_induced_p4_c4_or_2k2(g: IndigenousGraph) -> bool:
    # on four vertices, degrees 1,1,2,2 are P4, 2,2,2,2 are C4 and 1,1,1,1 are 2K2
    for quad in combinations(range(g.order), 4):
        degrees = sorted((g._adj[v] & sum(1 << u for u in quad)).bit_count() for v in quad)
        if degrees in ([1, 1, 2, 2], [2, 2, 2, 2], [1, 1, 1, 1]):
            return True
    return False


@pytest.mark.parametrize("n", range(2, 6))  # an order-k graph has k + 1 >= 2 vertices
def test_every_small_graph_is_peeled_or_refused(n):
    pairs = list(combinations(range(n), 2))
    refused = 0
    for present in product((False, True), repeat=len(pairs)):
        g = build_graph(n - 1)
        g._adj = [0] * n
        for (a, b), on in zip(pairs, present):
            if on:
                g._adj[a] |= 1 << b
                g._adj[b] |= 1 << a
        if has_induced_p4_c4_or_2k2(g):
            refused += 1
            for invariant in (diameter, girth, clique_number, chromatic_number):
                with pytest.raises(RuntimeError, match="not a threshold graph"):
                    invariant(g)
            continue
        h = to_networkx(g)
        assert_distances_match_networkx(g, h)
        assert_clique_matches_networkx(g, h)
        chi = chromatic_number(g)
        assert brute_force_colorable(g, chi) and not brute_force_colorable(g, chi - 1)
    assert (refused > 0) == (n >= 4)


def test_one_sided_fault_is_refused(monkeypatch):
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault("mul", 2, 3, 3))
    with pytest.raises(RuntimeError, match=r"k=3: 2 \* 3 and 3 \* 2 disagree on saturation"):
        build_graph(3)
    assert build_graph(2).edge_count() == 2


# (op, row, column, wrong code) at K = 3 that failed each graph claim when
# BFS, Bron-Kerbosch and the backtracking colourer computed the invariants:
# diameter caught one-sided faults in m's row or column, girth those at (2, m)
_SEARCH_FAILURES = {
    "graph-diameter": {
        cell for a in (1, 2, 3) for w in range(4) for cell in (("mul", a, 4, w), ("mul", 4, a, w))
    },
    "graph-girth": {("mul", 2, 4, w) for w in range(4)},
    "graph-clique": set(),
    "graph-chromatic": set(),
}


def test_every_graph_claim_is_failed_by_a_cell_corruption(monkeypatch):
    k = 3
    claims = [check for check in checks._CHECKS if check[0].startswith("graph-")]
    assert [check[0] for check in claims] == list(_SEARCH_FAILURES)
    failures = {check[0]: set() for check in claims}
    corruptions = 0
    for cell in cell_corruptions(k):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, k))
        corruptions += 1
        for check in claims:
            if not checks._run(check, k, False, SemiringCtx).passed:
                failures[check[0]].add(cell)
    assert corruptions == 200
    for name, failed in failures.items():
        assert failed, name
        assert _SEARCH_FAILURES[name] <= failed, name


def test_search_bound():
    # the bound is front-end policy: the library computes past it
    g = build_graph(EXACT_SEARCH_BOUND + 1)
    h = to_networkx(g)
    assert_clique_matches_networkx(g, h)
    assert_coloring_matches_greedy(g, h)


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

"""The saturation graph of an Indigenous semiring.

The Indigenous graph of order k lives on the nonzero elements
{1, ..., k, m}; two distinct vertices are joined exactly when their
product saturates to m.  Adjacency is read off the rows of the
multiplication table (``ctx.table_row``), one row per vertex, so any
arithmetic change (including an injected mutant) propagates here;
elements appear only in vertex queries, edge lists and JSON views.

The four invariants (diameter, girth, clique number, chromatic number)
are computed exactly.  Vertex counts stay small (k + 1), so plain
breadth-first search plus branch-and-bound over bitset adjacency rows
is entirely adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import MANY, Elem, SemiringCtx, check_bound

EXACT_SEARCH_BOUND = 24

INFINITE = math.inf


class IndigenousGraph:
    """Graph on the nonzero elements, edges where the product is m."""

    def __init__(self, ctx: SemiringCtx):
        self.ctx = ctx
        self.vertices = ctx.nonzero_elements()
        many = ctx.encode(MANY)
        codes = np.array([ctx.encode(v) for v in self.vertices])
        adj = []
        for i, a in enumerate(codes.tolist()):
            # the table is commutative, so row i is also column i
            saturated = ctx.table_row("mul", a)[codes] == many
            saturated[i] = False
            adj.append(int.from_bytes(np.packbits(saturated, bitorder="little").tobytes(), "little"))
        self._adj = adj

    @property
    def k(self) -> int:
        return self.ctx.k

    @property
    def order(self) -> int:
        return len(self.vertices)

    def _index(self, v: Elem) -> int:
        code = self.ctx.encode(v)
        if code == 0:
            raise ValueError("zero is not a vertex")
        return code - 1

    def adjacent(self, u: Elem, v: Elem) -> bool:
        i, j = self._index(u), self._index(v)
        return i != j and bool(self._adj[i] >> j & 1)

    def degree(self, v: Elem) -> int:
        return self._adj[self._index(v)].bit_count()

    def neighbors(self, v: Elem) -> tuple:
        row = self._adj[self._index(v)]
        return tuple(self.vertices[j] for j in range(self.order) if row >> j & 1)

    def edges(self) -> list:
        """Edges as (u, v) pairs with u before v in the total order."""
        out = []
        for i in range(self.order):
            row = self._adj[i]
            for j in range(i + 1, self.order):
                if row >> j & 1:
                    out.append((self.vertices[i], self.vertices[j]))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def edge_list_text(self) -> str:
        """One edge per line, "u v", in canonical order."""
        return "\n".join(f"{u.render()} {v.render()}" for u, v in self.edges())

    def adjacency_map(self) -> dict:
        """Rendered vertex -> sorted list of rendered neighbors."""
        return {
            v.render(): [w.render() for w in self.neighbors(v)] for v in self.vertices
        }


def build_graph(k: int, mutant: Optional[str] = None) -> IndigenousGraph:
    """The Indigenous graph of order k."""
    return IndigenousGraph(SemiringCtx(k, mutant=mutant))


def _bfs_dist(adj: list, start: int, skip_edge: Optional[tuple] = None) -> list:
    n = len(adj)
    dist = [-1] * n
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            row = adj[u]
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                if skip_edge is not None and (u, v) in (skip_edge, skip_edge[::-1]):
                    continue
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(g: IndigenousGraph) -> Union[int, float]:
    """Greatest distance between two vertices; INFINITE when disconnected."""
    best = 0
    for s in range(g.order):
        dist = _bfs_dist(g._adj, s)
        if any(d < 0 for d in dist):
            return INFINITE
        best = max(best, max(dist))
    return best


def girth(g: IndigenousGraph) -> Union[int, float]:
    """Length of a shortest cycle; INFINITE when the graph is a forest."""
    best = INFINITE
    adj = g._adj
    for u in range(g.order):
        row = adj[u]
        for v in range(u + 1, g.order):
            if not (row >> v & 1):
                continue
            # shortest cycle through edge {u, v} = 1 + distance avoiding it
            dist = _bfs_dist(adj, u, skip_edge=(u, v))
            if dist[v] > 0:
                best = min(best, dist[v] + 1)
    return best


def clique_number(g: IndigenousGraph, max_k: Optional[int] = EXACT_SEARCH_BOUND) -> int:
    """Size of a largest clique, by Bron-Kerbosch with pivoting."""
    check_bound(g.k, max_k, "exact clique search is")
    adj = g._adj
    n = g.order
    best = 0

    def expand(size: int, cand: int, done: int):
        nonlocal best
        if cand == 0 and done == 0:
            best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        pool = cand | done
        pivot = -1
        pivot_deg = -1
        probe = pool
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            d = (cand & adj[u]).bit_count()
            if d > pivot_deg:
                pivot_deg = d
                pivot = u
        rest = cand & ~adj[pivot]
        while rest:
            v = (rest & -rest).bit_length() - 1
            bit = 1 << v
            rest &= rest - 1
            expand(size + 1, cand & adj[v], done & adj[v])
            cand &= ~bit
            done |= bit

    expand(0, (1 << n) - 1, 0)
    return best


def chromatic_number(g: IndigenousGraph, max_k: Optional[int] = EXACT_SEARCH_BOUND) -> int:
    """Least number of colors in a proper coloring, by backtracking.

    The search starts at the clique number, which is always a lower
    bound, and raises the budget until a coloring exists.
    """
    check_bound(g.k, max_k, "exact chromatic search is")
    n = g.order
    if g.edge_count() == 0:
        return 1 if n else 0
    adj = g._adj
    order = sorted(range(n), key=lambda v: adj[v].bit_count(), reverse=True)

    def colorable(budget: int) -> bool:
        colors = [-1] * n

        def assign(pos: int, used: int) -> bool:
            if pos == n:
                return True
            v = order[pos]
            taken = 0
            row = adj[v]
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                if colors[u] >= 0:
                    taken |= 1 << colors[u]
            # allowing one fresh color per step breaks color symmetry
            limit = min(budget, used + 1)
            for c in range(limit):
                if taken >> c & 1:
                    continue
                colors[v] = c
                if assign(pos + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
            return False

        return assign(0, 0)

    low = clique_number(g, max_k=max_k)
    budget = max(low, 1)
    while not colorable(budget):
        budget += 1
    return budget


@dataclass(frozen=True)
class GraphInvariants:
    k: int
    diameter: Union[int, float]
    girth: Union[int, float]
    clique_number: int
    chromatic_number: int

    def to_json(self) -> dict:
        def enc(x):
            return "infinity" if x == INFINITE else x

        return {
            "k": self.k,
            "diameter": enc(self.diameter),
            "girth": enc(self.girth),
            "clique_number": self.clique_number,
            "chromatic_number": self.chromatic_number,
        }


def invariants(g: IndigenousGraph, max_k: Optional[int] = EXACT_SEARCH_BOUND) -> GraphInvariants:
    """All four exact invariants of g."""
    return GraphInvariants(
        k=g.k,
        diameter=diameter(g),
        girth=girth(g),
        clique_number=clique_number(g, max_k=max_k),
        chromatic_number=chromatic_number(g, max_k=max_k),
    )

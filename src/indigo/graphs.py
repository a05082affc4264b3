"""The saturation graph of an Indigenous semiring.

The Indigenous graph of order k lives on the nonzero elements
{1, ..., k, m}; two distinct vertices are joined exactly when their
product saturates to m.  Adjacency is read off the multiplication rule
(``ctx._cayley``), so any arithmetic change (including an injected
mutant) propagates here.  A rule whose row and column disagree on an
edge, or whose graph does not peel, is an arithmetic fault, not a usage
error: both raise ``RuntimeError``.  Elements appear only in vertex
queries, edge lists and JSON views.

Since u ~ v exactly when u * v > k, neighbourhoods are nested: the graph
is a threshold graph (Chvatal and Hammer, 1977).  One peeling of
isolated and dominating vertices gives all four invariants exactly.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .core import MANY, Elem, SemiringCtx

INFINITE = math.inf


class IndigenousGraph:
    """Graph on the nonzero elements, edges where the product is m."""

    def __init__(self, ctx: SemiringCtx):
        self.ctx = ctx
        self.vertices = ctx.nonzero_elements()
        many = ctx.encode(MANY)
        codes = np.arange(1, ctx.size)
        adj = []
        for i, a in enumerate(codes.tolist()):
            saturated = ctx._cayley("mul", a, codes) == many
            transposed = ctx._cayley("mul", codes, a) == many
            if not np.array_equal(saturated, transposed):
                u, v = self.vertices[i], self.vertices[int(np.argmax(saturated != transposed))]
                raise RuntimeError(
                    f"k={ctx.k}: {u.render()} * {v.render()} and {v.render()} * {u.render()} "
                    "disagree on saturation"
                )
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


def _peel(g: IndigenousGraph) -> list:
    """Kinds of the first n - 1 removals of the threshold peeling: True
    for a dominating vertex, False for an isolated one.

    Every alive degree drops by one at a dominating removal and none at
    an isolated one, so degree order is kept: only the highest alive
    vertex can dominate and only the lowest can be isolated.
    """
    adj = g._adj
    order = sorted(range(g.order), key=lambda v: adj[v].bit_count())
    alive = (1 << g.order) - 1
    lo, hi = 0, g.order - 1
    kinds = []
    while lo < hi:
        top, bottom = order[hi], order[lo]
        if adj[top] & alive == alive ^ (1 << top):
            alive ^= 1 << top
            hi -= 1
            kinds.append(True)
        elif adj[bottom] & alive == 0:
            alive ^= 1 << bottom
            lo += 1
            kinds.append(False)
        else:
            raise RuntimeError(f"k={g.k}: the graph is not a threshold graph")
    return kinds


def diameter(g: IndigenousGraph) -> Union[int, float]:
    """Greatest distance between two vertices; INFINITE when disconnected."""
    kinds = _peel(g)
    if all(kinds):
        return 1
    # a first vertex that dominates is one step from all; an isolated one is cut off
    return 2 if kinds[0] else INFINITE


def girth(g: IndigenousGraph) -> Union[int, float]:
    """Length of a shortest cycle; INFINITE when the graph is a forest.
    Threshold graphs are chordal, so one without a triangle is a forest."""
    return 3 if sum(_peel(g)) >= 2 else INFINITE


def clique_number(g: IndigenousGraph) -> int:
    """Size of a largest clique: the dominating removals and the last vertex."""
    return sum(_peel(g)) + 1


def chromatic_number(g: IndigenousGraph) -> int:
    """Least number of colors in a proper coloring: one per dominating
    removal, and one shared by the independent rest."""
    return sum(_peel(g)) + 1


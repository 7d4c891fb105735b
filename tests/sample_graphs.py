"""Named graphs, one composition tree, one seeded edit and one Hypothesis
strategy that several test modules share, each defined once."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import strategies as st

from orelab import Graph, Leaf, Node, ore_compose


def wheel5() -> Graph:
    """W_5: the cycle 0..4 and the hub 5."""
    return Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def clebsch() -> Graph:
    """The Clebsch graph: 5-regular and triangle-free on 16 vertices, u ~ v
    when their 4-bit labels differ in one bit or in all four."""
    return Graph.from_edges(16, [(u, v) for u, v in combinations(range(16), 2) if bin(u ^ v).count("1") in (1, 4)])


def one_step(k: int = 4) -> Node:
    """Two K_k leaves: the edge 01 of one replaced by vertex 0 of the other,
    split as {1} and {2, ..., k-1}."""
    return Node(Leaf(k), Leaf(k), (0, 1), 0, (0b10, (1 << k) - 4))


def fused_k4() -> Graph:
    """The fused K_4 pair: ``one_step()`` realized, on 7 vertices."""
    return ore_compose(Graph.complete(4), (0, 1), Graph.complete(4), 0, (0b10, 0b1100))


@st.composite
def graphs(draw, min_n=0, max_n=8):
    """A graph on min_n..max_n vertices: the order, then its edge set as one
    mask over the vertex pairs in lexicographic order."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def moved_edge(g: Graph, rng: random.Random) -> Graph:
    """g with one edge moved to a non-edge: the same order and size. It draws
    the edge to drop, then the non-edge to add, in edge-list order."""
    edges = g.edges()
    drop = rng.choice(edges)
    add = rng.choice([p for p in combinations(range(g.n), 2) if not g.has_edge(*p)])
    return Graph.from_edges(g.n, [e for e in edges if e != drop] + [add])

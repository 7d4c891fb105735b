"""Exhaustive small-graph enumeration, the criticality census, and seeded
random graphs.

Enumeration works level by level: every class on n vertices is some class on
n-1 vertices plus one new vertex with an arbitrary neighbor set, so
augmenting every class with every mask and deduplicating by canonical form
is complete. The criticality census prunes the augmentation with elementary
necessary conditions only (minimum degree, connectivity, no K_k above order
k, and the Turan edge cap that K_k-freeness implies); the bounds this
workbench is meant to verify are never used to generate, so the census
cannot beg the question.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .coloring import is_k_critical
from .errors import SizeCapError
from .graphs import Graph, bits_of, canonical_key, has_clique

ENUMERATION_CAP = 9


@dataclass(frozen=True)
class Corpus:
    """A deduplicated, deterministically ordered batch of graphs."""

    source: str
    graphs: tuple[Graph, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(self.graphs) != len(self.provenance):
            raise ValueError("one provenance string per graph")
        keys = {canonical_key(g) for g in self.graphs}
        if len(keys) != len(self.graphs):
            raise ValueError("corpus contains isomorphic duplicates")

    def __len__(self) -> int:
        return len(self.graphs)


def corpus_from_graphs(source: str, items: Iterable[tuple[Graph, str]]) -> Corpus:
    seen: dict = {}
    for g, prov in items:
        seen.setdefault(canonical_key(g), (g, prov))
    ordered = sorted(seen.items(), key=lambda kv: (kv[1][0].n, kv[0]))
    return Corpus(
        source,
        tuple(g for _, (g, _) in ordered),
        tuple(p for _, (_, p) in ordered),
    )


def _augment(parent: Graph, mask: int) -> Graph:
    rows = list(parent.adj)
    for v in bits_of(mask):
        rows[v] |= 1 << parent.n
    rows.append(mask)
    return Graph._trusted(parent.n + 1, tuple(rows))


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[Graph, ...]:
    """Every graph on n vertices, one per isomorphism class."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > ENUMERATION_CAP:
        raise SizeCapError("built-in enumeration order", n, ENUMERATION_CAP)
    if n == 0:
        return (Graph.empty(0),)
    out: dict = {}
    for parent in graph_classes(n - 1):
        for mask in range(1 << parent.n):
            g = _augment(parent, mask)
            out.setdefault(canonical_key(g), g)
    return tuple(out[key] for key in sorted(out))


def enumerate_graphs(n: int) -> Corpus:
    """All isomorphism classes on exactly n vertices as a corpus.

    Bounded by the built-in cap; larger orders are supported only through
    external graph6 files (``orelab verify --in``).
    """
    return Corpus(
        f"enumeration n={n}",
        graph_classes(n),
        tuple(f"class {i}" for i in range(len(graph_classes(n)))),
    )


# -- criticality census --------------------------------------------------------


def _critical_on(n: int, k: int) -> list[Graph]:
    out: dict = {}
    for parent in graph_classes(n - 1):
        pn = parent.n
        degs = [parent.degree(v) for v in range(pn)]
        if any(d < k - 2 for d in degs):
            continue
        forced = 0
        for v in range(pn):
            if degs[v] == k - 2:
                forced |= 1 << v
        base_m = parent.edge_count()
        for mask in range(1 << pn):
            if mask & forced != forced:
                continue
            pc = mask.bit_count()
            if pc < k - 1:
                continue
            m = base_m + pc
            if n > k and 2 * m * (k - 1) > (k - 2) * n * n:
                continue
            g = _augment(parent, mask)
            if not g.is_connected():
                continue
            if n > k and has_clique(g, k):
                continue
            if not is_k_critical(g, k):
                continue
            out.setdefault(canonical_key(g), g)
    return [out[key] for key in sorted(out)]


def census_critical(n_max: int, k: int) -> Corpus:
    """All k-critical graphs on at most n_max vertices, up to isomorphism.

    Augmentation from the full (n-1)-vertex class list, pruned by facts every
    k-critical graph satisfies for elementary reasons: minimum degree k-1
    (so parents have minimum degree k-2 and the new vertex covers every
    degree-(k-2) parent vertex), connectivity, and K_k-freeness above order
    k with its Turan edge cap.
    """
    if k < 3:
        raise ValueError("criticality census needs k >= 3")
    if n_max > ENUMERATION_CAP:
        raise SizeCapError("criticality census order", n_max, ENUMERATION_CAP)
    items = []
    for n in range(k, n_max + 1):
        for g in _critical_on(n, k):
            items.append((g, f"census k={k} n={n}"))
    return corpus_from_graphs(f"census k={k} n<={n_max}", items)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Binomial random graph from a caller-owned seeded generator."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)

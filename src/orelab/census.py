"""Exhaustive small-graph enumeration, the criticality census, and seeded
random graphs.

Enumeration works level by level: every class on n vertices is some class on
n-1 vertices plus one new vertex with an arbitrary neighbor set, so
augmenting every class with every mask and deduplicating by canonical form
is complete. Each augmented graph is keyed once, so the level keys come from
the uncached canonical labelling. The criticality census sieves the
augmentation with necessary conditions that follow from the definition only
(colorability, minimum degree, connectivity, no K_k above order k, and the
Turan edge cap that K_k-freeness implies), as bit operations on facts
computed once per parent; the bounds this workbench is meant to verify are
never used to generate, so the census cannot beg the question.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .coloring import color_partitions, is_k_critical
from .errors import SizeCapError
from .graphs import (
    Graph,
    _canonical_form,
    bits_of,
    canonical_key,
    cliques_of_size,
    components,
    has_clique,
    mask_of,
)

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
            out.setdefault(_canonical_form(g).key, g)
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


def _colorable_masks(parent: Graph, k: int) -> int | None:
    """Bit ``mask`` is set iff ``parent`` plus a new vertex adjacent to
    ``mask`` is (k-1)-colorable; None when no such extension is k-critical,
    whatever the mask.

    The parent is skipped when it is (k-2)-colorable (the new vertex would
    take a fresh color) or not (k-1)-colorable (it would be a
    non-(k-1)-colorable proper subgraph, K_k included). Otherwise each of its
    (k-1)-colorings uses every color, so the extension is colorable iff the
    mask misses a whole class: one pass over the proper partitions marks the
    complement of every class, and a subset closure, one shift per vertex
    on the 2^pn-bit table, marks every submask of a marked mask. A K_k in
    the parent, the common reason it has no partition, is found first by
    the early-exit clique search, which costs less than an exhausted
    partition search.
    """
    if has_clique(parent, k):
        return None
    pn = parent.n
    full = parent.full_mask()
    table = 0
    for classes in color_partitions(parent, range(pn), k - 1):
        if len(classes) < k - 1:
            return None
        for cls in classes:
            table |= 1 << (full & ~mask_of(cls))
    if not table:
        return None
    ones = (1 << (1 << pn)) - 1
    for b in range(pn):
        step = 1 << b
        # the masks with bit b set: runs of `step` ones every 2 * step table bits
        with_bit = (((1 << step) - 1) << step) * ones // ((1 << 2 * step) - 1)
        table |= (table & with_bit) >> step
    return table


def _critical_on(n: int, k: int) -> list[Graph]:
    """The k-critical graphs on n vertices, one per class in canonical-key
    order, sieved as ``census_critical`` describes."""
    out: dict = {}
    for parent in graph_classes(n - 1):
        pn = parent.n
        degs = [row.bit_count() for row in parent.adj]
        if min(degs) < k - 2:
            continue
        table = _colorable_masks(parent, k)
        if table is None:
            continue
        forced = mask_of(v for v in range(pn) if degs[v] == k - 2)
        comps = components(parent.adj, parent.full_mask())
        cliques = [mask_of(c) for c in cliques_of_size(parent, k - 1)] if n > k else []
        # Turan: a K_k-free graph on n > k vertices has at most this many edges
        max_deg = (k - 2) * n * n // (2 * (k - 1)) - parent.edge_count() if n > k else pn
        for mask in range(forced, 1 << pn):
            if mask & forced != forced or table >> mask & 1:
                continue
            if not k - 1 <= mask.bit_count() <= max_deg:
                continue
            if not all(mask & comp for comp in comps):
                continue
            if any(clique & mask == clique for clique in cliques):
                continue
            if not all(table >> (mask ^ (1 << u)) & 1 for u in bits_of(mask)):
                continue
            g = _augment(parent, mask)
            if is_k_critical(g, k):
                out.setdefault(canonical_key(g), g)
    return [out[key] for key in sorted(out)]


def census_critical(n_max: int, k: int) -> Corpus:
    """All k-critical graphs on at most n_max vertices, up to isomorphism.

    Augmentation from the full (n-1)-vertex class list. A k-critical graph g
    minus any vertex v is a proper subgraph, so it is (k-1)-colorable and,
    as v needs a color of its own, not (k-2)-colorable; parents outside that
    band are skipped. For the others, the new vertex v's neighbor mask must:

    - cover every degree-(k-2) parent vertex and have k-1 or more bits
      (minimum degree k-1);
    - keep the edge count under the Turan cap above order k (K_k-freeness);
    - leave g not (k-1)-colorable, by the parent's colorable-mask table;
    - meet every component of the parent (g is connected);
    - contain no (k-1)-clique of the parent above order k (no K_k in g);
    - leave g - vu (k-1)-colorable for every neighbor u of v, again by the
      table (every edge is critical).

    Survivors go to the complete test ``is_k_critical``.
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

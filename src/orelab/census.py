"""Exhaustive small-graph enumeration, the criticality census, and seeded
random graphs.

Enumeration works level by level: every class on n vertices is some class on
n-1 vertices plus one new vertex with an arbitrary neighbor set, so
augmenting every class with every mask and deduplicating by canonical form
is complete. Masks in one orbit of the parent's automorphism group give
isomorphic children, so only the least mask of each orbit is augmented, with
generators kept from the canonical search that labelled the parent as a
child, so each graph is searched once. Each augmented graph is keyed once,
so the level keys come from the uncached canonical labelling.
A level can be bounded by minimum degree and colorability, which every
parent inherits (less one degree), so a bounded level grows only from the
bounded level below and labels only the children that meet both bounds.
The criticality census reads only the parents a k-critical graph can have
(minimum degree k-2, (k-1)-colorable), grows one chain of bounded levels for
its top parent level and filters each lower parent level from that chain,
and sieves their augmentation with four necessary conditions that follow
from the definition only (colorability, minimum degree, no K_k above order
k, and criticality of the new vertex's edges), each a 2^pn-bit table over
the new vertex's masks, built from facts computed once per parent by
closing single bits upward, one shift per vertex; the survivors are the
set bits of their intersection. One more table per parent edge, the
colorable-mask table of the parent less that edge, keeps every parent edge
critical, so the census never calls the coloring solver; these tables also
cut every mask that misses a parent component, so connectivity needs none.
Every table comes from the kernel's one partition walk
(``graphs._partitions``) over proper partitions in a max-adjacency order
of the parent, and a parent-edge table walks only the partitions that put
the edge's ends in one class, as the parent's own table holds the rest.
The bounds this workbench is meant to verify are never used to generate,
so the census cannot beg the question.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import SizeCapError
from .graphs import (
    Graph,
    _orbits,
    _partitions,
    _search,
    _submask_images,
    bits_of,
    canonical_key,
    cliques_of_size,
    mask_of,
)

ENUMERATION_CAP = 9


@dataclass(frozen=True)
class Corpus:
    """A deduplicated, deterministically ordered batch of graphs."""

    graphs: tuple[Graph, ...]

    def __post_init__(self):
        keys = {canonical_key(g) for g in self.graphs}
        if len(keys) != len(self.graphs):
            raise ValueError("corpus contains isomorphic duplicates")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)


def corpus_from_graphs(graphs: Iterable[Graph]) -> Corpus:
    """One graph per class, the first one given, ordered by (n, canonical key)."""
    seen: dict = {}
    for g in graphs:
        seen.setdefault(canonical_key(g), g)
    return Corpus(tuple(seen[key] for key in sorted(seen, key=lambda key: (seen[key].n, key))))


def _augment(parent: Graph, mask: int) -> Graph:
    rows = list(parent.adj)
    for v in bits_of(mask):
        rows[v] |= 1 << parent.n
    rows.append(mask)
    return Graph._trusted(parent.n + 1, tuple(rows))


def _orbit_minima(parent: Graph, generators: Sequence[Sequence[int]]) -> list[int]:
    """The least mask of each orbit of Aut(parent) on the new-vertex masks
    0..2^pn-1, in increasing order, from ``generators`` of Aut(parent), each
    mask joined to its images, from ``graphs._submask_images``, in
    ``graphs._orbits``."""
    size = 1 << parent.n
    images = [_submask_images(parent.full_mask(), perm) for perm in generators]
    orbit = _orbits(size, ((mask, image[mask]) for image in images for mask in range(size) if image[mask] != mask))
    return [mask for mask in range(size) if orbit[mask] == mask]


def graph_classes(n: int) -> tuple[Graph, ...]:
    """Every graph on n vertices, one per class, in canonical-key order."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > ENUMERATION_CAP:
        raise SizeCapError("built-in enumeration order", n, ENUMERATION_CAP)
    return _classes(n, 0, n)[0]


@lru_cache(maxsize=None)
def _classes(n: int, d: int, t: int) -> tuple[tuple[Graph, ...], tuple[tuple[bytes, ...], ...]]:
    """The graphs on n vertices of minimum degree d or more that are
    t-colorable (d <= n + 1, t <= n <= ENUMERATION_CAP), one per class in
    canonical-key order, each the first child met in the loop over parents
    (in order) and masks (increasing), and beside them the generators of
    each class's Aut that labelling it witnessed, as bytes of vertex images.

    Both bounds pass to the parents: a graph less a vertex is still
    t-colorable, of minimum degree d - 1 or more. So every wanted child
    grows from ``_classes(n - 1, max(d - 1, 0), min(t, n - 1))``, met in the
    unbounded loop's order, and a bounded level is the full level
    ``_classes(n, 0, n)`` filtered. A mask is labelled only if the new
    vertex gets degree d or more and covers every parent vertex of degree
    d - 1, and, when t < n, only if the parent's colorable-mask table makes
    the child t-colorable.

    Masks in one orbit of Aut(parent) give isomorphic children, so only the
    least mask of each orbit is labelled: the masks of one class are a union
    of orbits, met least mask first, so every representative stays. The
    orbits come from the generators witnessed one level down, so no parent
    is searched twice.
    """
    if n == 0:
        return ((), ()) if d else ((Graph.empty(0),), ((),))
    if t == 0:
        return (), ()
    out: dict = {}
    columns = _columns(n - 1)
    for parent, generators in zip(*_classes(n - 1, max(d - 1, 0), min(t, n - 1))):
        low = mask_of(v for v, row in enumerate(parent.adj) if row.bit_count() == d - 1)
        table = _colorable_masks(parent, t + 1, _adjacency_order(parent), columns) if t < n else None
        for mask in _orbit_minima(parent, generators):
            if mask.bit_count() < d or mask & low != low:
                continue
            if table is not None and not table >> mask & 1:
                continue
            g = _augment(parent, mask)
            form, gens = _search(g)
            out.setdefault(form.key, (g, gens))
    keys = sorted(out)
    # immutable all through: the cache hands the same value to every caller
    return tuple(out[key][0] for key in keys), tuple(tuple(map(bytes, out[key][1])) for key in keys)


# -- criticality census --------------------------------------------------------


def _columns(pn: int) -> list[tuple[int, int]]:
    """For each vertex b of a parent on pn vertices, the pair (1 << b, the
    2^pn-bit table of the masks with bit b set): runs of 1 << b ones every
    2 << b table bits."""
    ones = (1 << (1 << pn)) - 1
    out = []
    for b in range(pn):
        step = 1 << b
        out.append((step, (((1 << step) - 1) << step) * ones // ((1 << 2 * step) - 1)))
    return out


def _closure(table: int, columns: list[tuple[int, int]]) -> int:
    """The 2^pn-bit ``table`` closed upward (each supermask of a set mask
    set), one shift per vertex of ``columns``."""
    for step, with_bit in columns:
        table |= (table & ~with_bit) << step
    return table


def _adjacency_order(g: Graph) -> list[int]:
    """The vertices of g in max-adjacency order: next the unplaced vertex
    with the most placed neighbors, then the one of higher degree, then
    the lower index."""
    rest = sorted(range(g.n), key=lambda u: -g.adj[u].bit_count())
    placed = [0] * g.n
    order = []
    while rest:
        # the first of the most, and ``rest`` is in tie-break order
        v = max(rest, key=placed.__getitem__)
        rest.remove(v)
        order.append(v)
        for w in rest:
            placed[w] += g.adj[v] >> w & 1
    return order


def _marked(items: list[tuple[int, int]], k: int, full: int, columns: list[tuple[int, int]]) -> int | None:
    """The downward closure by ``columns`` of the table marking ``full ^ cls``
    for each class cls of every partition of the items into at most k-1
    independent classes; None at the first partition into fewer."""
    marks = 0

    def mark(classes: list[int]) -> bool:
        nonlocal marks
        if len(classes) < k - 1:
            return True
        for cls in classes:
            marks |= 1 << (full ^ cls)
        return False

    if _partitions(items, k - 1, mark, [], 0):
        return None
    for step, with_bit in columns:
        marks |= (marks & with_bit) >> step
    return marks


def _colorable_masks(parent: Graph, k: int, order: list[int], columns: list[tuple[int, int]]) -> int | None:
    """None iff ``parent`` is (k-2)-colorable: then every extension is
    (k-1)-colorable, as the new vertex takes a fresh color. Otherwise the
    2^pn-bit table whose bit ``mask`` is set iff ``parent`` plus a new
    vertex adjacent to ``mask`` is (k-1)-colorable; it is 0 iff ``parent``
    is not (k-1)-colorable.

    Each (k-1)-coloring of such a parent uses every color, so the extension
    is colorable iff the mask misses a whole class: one walk over the
    proper partitions, placing the vertices in ``order`` (the set of
    partitions is the same in any order; ``_adjacency_order`` meets
    conflicts early), marks the complement of every class, and a downward
    closure by the parent's ``columns`` marks every submask of a marked
    mask.
    """
    return _marked([(1 << v, parent.adj[v]) for v in order], k, parent.full_mask(), columns)


def _merged_masks(
    parent: Graph, k: int, order: list[int], columns: list[tuple[int, int]], u: int, v: int
) -> int | None:
    """For an edge uv of a parent that is not (k-2)-colorable: None iff
    ``parent`` less uv is (k-2)-colorable, otherwise the table that, joined
    with the parent's own table, is the colorable-mask table of ``parent``
    less uv.

    A proper partition of the parent less uv either parts u and v, and then
    it is a proper partition of the parent, whose classes the parent's
    table has marked, or puts them in one class. Only the latter are
    walked, in the parent's ``order`` with u and v placed as one item where
    the earlier of the two stands: the partitions of the parent with u and
    v contracted.
    """
    later = max(u, v, key=order.index)
    pair = (1 << u | 1 << v, parent.adj[u] | parent.adj[v])
    items = [pair if w in (u, v) else (1 << w, parent.adj[w]) for w in order if w != later]
    return _marked(items, k, parent.full_mask(), columns)


def _survivors(parent: Graph, n: int, k: int, table: int, columns: list[tuple[int, int]]) -> int:
    """The masks of ``parent`` that pass the four conditions
    ``census_critical`` lists, as one 2^pn-bit table built by whole-table
    bit operations from the parent's colorable-mask ``table``: the upward
    closure of bit ``forced`` less ``table``, less (above order k) the
    upward closure of the (k-1)-clique bits, and, for each vertex bit b,
    only the masks with b whose mask less b is in ``table``. ``columns`` is
    ``_columns(parent.n)``. A mask that misses a parent component C passes
    here, but not the cut by an edge e of C (one exists, as k-2 >= 1): C is
    (k-1)-colorable, so the rest of the child is not, nor the child less e,
    and the parent less e is not (k-2)-colorable, so e's table is built."""
    forced = mask_of(v for v, row in enumerate(parent.adj) if row.bit_count() == k - 2)
    keep = _closure(1 << forced, columns) & ~table
    if n > k:
        cliques = 0
        for clique in cliques_of_size(parent, k - 1):
            cliques |= 1 << clique
        keep &= ~_closure(cliques, columns)
    for step, with_bit in columns:
        keep &= ~with_bit | (table & ~with_bit) << step
    return keep


def _critical_on(parents: Iterable[Graph], n: int, k: int) -> list[Graph]:
    """The k-critical graphs on n vertices, one per class in canonical-key
    order, sieved as ``census_critical`` describes; ``parents`` are the
    classes of ``_classes(n - 1, k - 2, k - 1)``, in their order.

    Each parent's survivors are one 2^pn-bit table (see ``_survivors``),
    cut by the colorable-mask table of the parent less each parent edge uv
    in turn until none is left, and the set bits of what remains are read
    least first, the order of a loop over the masks. That table is the
    parent's own table joined with ``_merged_masks``, which walks only the
    partitions that put u and v in one class, in the parent's order, so no
    graph is built for the parent less uv. No survivor is in the parent's
    own table, so the cut is by ``_merged_masks`` alone. The vertex columns
    are built once per order and the walk order once per parent.
    """
    out: dict = {}
    columns = _columns(n - 1)
    for parent in parents:
        order = _adjacency_order(parent)
        table = _colorable_masks(parent, k, order, columns)
        if table is None:
            continue
        keep = _survivors(parent, n, k, table, columns)
        for u, v in parent.edges():
            if not keep:
                break
            merged = _merged_masks(parent, k, order, columns, u, v)
            if merged is not None:
                keep &= merged
        while keep:
            low = keep & -keep
            keep ^= low
            g = _augment(parent, low.bit_length() - 1)
            out.setdefault(canonical_key(g), g)
    return [out[key] for key in sorted(out)]


def census_critical(n_max: int, k: int) -> Corpus:
    """All k-critical graphs on at most n_max vertices, up to isomorphism.

    Augmentation from the (n-1)-vertex classes of minimum degree k-2 or more
    that are (k-1)-colorable, ``_classes(n - 1, k - 2, k - 1)``. A
    k-critical graph g has minimum degree k-1, and g minus any vertex v is a
    proper subgraph, so it is (k-1)-colorable with minimum degree k-2 or
    more and, as v needs a color of its own, not (k-2)-colorable; parents
    outside that band are skipped. For the others, the new vertex v's
    neighbor mask must:

    - cover every degree-(k-2) parent vertex (minimum degree k-1);
    - leave g not (k-1)-colorable, by the parent's colorable-mask table (a
      mask of fewer than k-1 bits misses a color class, so v has degree
      k-1 or more);
    - contain no (k-1)-clique of the parent above order k (no K_k in g; the
      parent has none, so any K_k in g uses v);
    - leave g - vu (k-1)-colorable for every neighbor u of v, again by the
      table (every edge at v is critical).

    Each condition is one 2^pn-bit table per parent, so the survivors are
    found by whole-table bit operations, not mask by mask (see
    ``_survivors``). A k-critical g is connected (Dirac 1953), which the
    parent-edge tables below enforce. What is left of criticality is that
    g - e is (k-1)-colorable for every parent edge e, and that is a table
    too: the colorable-mask table of the parent less e, which keeps every
    mask when the parent less e is (k-2)-colorable. The survivors are cut by
    these tables edge by edge until none is left, and every mask that
    remains gives a k-critical graph. A partition of the parent less e = uv
    parts u and v, and is then one of the parent's own, or puts them in one
    class, so each edge's table walks only the latter (see
    ``_merged_masks``).

    Only the top parent level, ``_classes(n_max - 1, k - 2, k - 1)``,
    grows its own chain of bounded levels; the lower parent levels are read
    off that chain (see ``_parents``).
    """
    if k < 3:
        raise ValueError("criticality census needs k >= 3")
    if n_max < 0:
        raise ValueError("vertex count must be nonnegative")
    if n_max > ENUMERATION_CAP:
        raise SizeCapError("criticality census order", n_max, ENUMERATION_CAP)
    # each level is in canonical-key order and holds one vertex count, so
    # the corpus stands in (n, canonical key) order
    return Corpus(tuple(g for n in range(k, n_max + 1) for g in _critical_on(_parents(n - 1, n_max - 1, k), n, k)))


def _parents(m: int, top: int, k: int) -> list[Graph]:
    """The classes of ``_classes(m, k - 2, k - 1)`` for m <= top, read off
    the chain of bounded levels that ``_classes(top, k - 2, k - 1)`` grows
    from: its level at order m has minimum degree k - 2 - (top - m) or
    more, and a bounded level is the full level filtered, so filtering it
    to minimum degree k - 2 gives the same classes, representatives and
    order."""
    return [p for p in _classes(m, max(k - 2 - top + m, 0), k - 1)[0] if p.min_degree() >= k - 2]


def random_graph(rng: random.Random, n: int) -> Graph:
    """Binomial random graph with edge probability 1/2, from a caller-owned
    seeded generator."""
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])

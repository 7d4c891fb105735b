"""Local structure around degree-(k-1) vertices and subset machinery:
clusters, near-cliques, minimum colorings of a vertex set (listed by the
kernel's partition walk), color reductions with critical extensions, the
weighted independence number, and edge counts between vertex sets, taken on
adjacency masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .coloring import chromatic_number, find_critical_subgraphs, first_coloring, is_k_critical
from .errors import SizeCapError
from .graphs import Graph, _cliques, _partitions, _quotient, bits_of, mask_of

MIC_MAX_VERTICES = 40


# -- clusters ----------------------------------------------------------------


def clusters(g: Graph, k: int) -> list[int]:
    """The maximal sets of degree-(k-1) vertices sharing one closed
    neighborhood, as vertex masks ordered by least member.

    Members are pairwise adjacent (each lies in the other's closed
    neighborhood), so a cluster is a clique of mutually cloned vertices.
    """
    groups: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        if row.bit_count() == k - 1:
            closed = g.closed_mask(v)
            groups[closed] = groups.get(closed, 0) | 1 << v
    # a group opens at its least member, so insertion order is that order
    return list(groups.values())


# -- diamonds and emeralds ---------------------------------------------------


def find_diamonds_emeralds(g: Graph, k: int) -> list[int]:
    """The vertex masks of all diamonds and emeralds of g: diamonds first,
    then emeralds, each kind in order of its sorted vertex list.

    Diamond: a k-set inducing K_k minus exactly the edge between its two
    endpoints, with every interior vertex of full host degree k-1. The
    missing endpoint pair is required to be a non-edge of the host; if it
    were present the set would induce K_k outright. The endpoints are the
    set's one non-adjacent pair, so the set alone determines them.
    Emerald: a (k-1)-clique whose vertices all have host degree k-1.
    Both come from one pass over the low (k-2)-cliques, a clique search
    inside the low vertices: a diamond adds a non-adjacent pair of common
    neighbours, an emerald one low vertex after the clique's last that is
    adjacent to all of it, which the search hands over as ``later``.
    A caller asking about many vertex sets lists once and keeps, for each
    set, the entries that miss it.
    """
    out: list[int] = []
    low = mask_of(v for v in range(g.n) if g.degree(v) == k - 1)

    def visit(im: int, later: int) -> bool:
        out.extend(im | 1 << v for v in bits_of(later))
        common = g.full_mask() & ~im
        for q in bits_of(im):
            common &= g.adj[q]
        for u in bits_of(common):
            out.extend(im | 1 << u | 1 << v for v in bits_of(common & ~g.adj[u] & ~((2 << u) - 1)))
        return False

    _cliques(g.adj, low, k - 2, visit)
    # a diamond has k vertices and an emerald k-1
    out.sort(key=lambda m: (-m.bit_count(), tuple(bits_of(m))))
    return out


# -- color reduction and critical extensions ---------------------------------


def color_reduce(g: Graph, classes: Sequence[int]) -> Graph:
    """The quotient of g that collapses each color class of R to one vertex,
    with a clique on the class vertices.

    R is the union of ``classes``, vertex masks of g that must be nonempty,
    pairwise disjoint and independent, and exactly chi(G[R]) in number. The
    n_out outside vertices come first as 0..n_out-1 (in increasing original
    id); class i is vertex n_out + i.
    """
    r = 0
    for cls in map(g._within, classes):
        if not cls or cls & r:
            raise ValueError("color classes must be nonempty and pairwise disjoint")
        r |= cls
    if any(g.adj[v] & cls for cls in classes for v in bits_of(cls)):
        raise ValueError("a color class is not independent in G[R]")
    if classes:
        g_r = g.induced(r)
        if first_coloring(g_r.adj, len(classes) - 1) is not None:
            raise ValueError(f"coloring uses {len(classes)} colors; minimum is {chromatic_number(g_r)}")
    image = {old: new for new, old in enumerate(bits_of(g.full_mask() & ~r))}
    n_out = len(image)
    image.update((v, n_out + i) for i, cls in enumerate(classes) for v in bits_of(cls))
    rows = list(_quotient(g.adj, image, n_out + len(classes)))
    clique = ((1 << len(classes)) - 1) << n_out
    for c in range(n_out, len(rows)):
        rows[c] |= clique ^ (1 << c)
    return Graph._trusted(len(rows), tuple(rows))


@dataclass(frozen=True)
class ExtensionRecord:
    """One critical extension of a subset R.

    The vertex sets are vertex masks. ``r_set`` is R, the union of the
    coloring's classes, and class i is vertex n_out + i of the reduced
    graph; ``w_subgraph`` is W as a graph on the reduced graph's ids, every
    vertex outside W isolated; ``core`` is the set of class vertices W
    touches, in those ids; ``r_prime`` is the extended subset back in the
    host graph's ids, spanning when it has every host vertex.
    ``incompleteness`` counts how far the edge bookkeeping identity falls
    short of equality (always >= 0).
    """

    r_set: int
    w_subgraph: Graph
    core: int
    r_prime: int
    incompleteness: int


def build_extension(
    g: Graph, k: int, colorings: Iterable[Sequence[int]], limit: int = 6
) -> Iterator[ExtensionRecord]:
    """Critical extensions in a k-critical host, coloring by coloring: each
    coloring is a sequence of color classes, vertex masks whose union is R,
    and it gives at most ``limit`` records. The host is checked once, before
    the first record.

    The reduced graph of a k-critical host is never (k-1)-colorable, so it
    holds k-critical subgraphs W; each W meets the class-vertex clique, and
    swapping the touched class vertices for their color classes extends R
    to R'. The incompleteness i compares |E(G[R'])| against
    |E(G[R])| + |E(W)| - |E(K_|X|)|; double-covered quotient edges, missing
    clique edges, and parallel boundary edges can only push the left side up,
    so i >= 0 is asserted.

    Distinct colorings often reduce to one graph, so the critical subgraphs
    of each distinct reduced graph are searched once per call, that is per
    host, and kept until the last record is yielded.
    """
    if not is_k_critical(g, k):
        raise ValueError("extensions are built over a k-critical host")
    searched: dict[Graph, list[Graph]] = {}
    for classes in colorings:
        reduced = color_reduce(g, classes)
        r_mask = sum(classes)  # the classes are disjoint: their sum is their union
        if not r_mask or r_mask == g.full_mask():
            raise ValueError("R must be a nonempty proper subset")
        if reduced not in searched:
            try:
                searched[reduced] = find_critical_subgraphs(reduced, k, limit=limit)
            except ValueError:
                raise AssertionError("reduced graph of a critical host must need k colors") from None
        subgraphs = searched[reduced]
        outside = list(bits_of(g.full_mask() & ~r_mask))
        n_out = len(outside)
        r_edges = _induced_edge_count(g, r_mask)
        for w in subgraphs:
            core = mask_of(v for v in range(n_out, w.n) if w.adj[v])
            if not core:
                raise AssertionError("critical subgraph avoids every class vertex")
            r_prime = r_mask | mask_of(outside[v] for v in range(n_out) if w.adj[v])
            x = core.bit_count()
            i = _induced_edge_count(g, r_prime) - (
                r_edges + w.edge_count() - x * (x - 1) // 2
            )
            if i < 0:
                raise AssertionError("incompleteness came out negative")
            yield ExtensionRecord(r_set=r_mask, w_subgraph=w, core=core, r_prime=r_prime, incompleteness=i)


def _induced_edge_count(g: Graph, mask: int) -> int:
    """The number of edges with both ends in the vertex mask ``mask``."""
    return sum((g.adj[v] & mask).bit_count() for v in bits_of(mask)) // 2


def minimum_colorings(g: Graph, r: int, k: int, limit: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield minimum proper colorings of G[R], R the vertex mask ``r``, as
    partitions of R into chi(G[R]) color classes (vertex masks), one per
    color-permutation class in the order the kernel walk meets them over
    R's vertices in increasing order, capped at ``limit`` (not negative);
    none when G[R] needs more than k-1 colors."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or nonnegative, got {limit}")
    need = chromatic_number(g.induced(r))
    if need > k - 1 or limit == 0:
        return
    found: list[tuple[int, ...]] = []

    def keep(classes: list[int]) -> bool:
        found.append(tuple(classes))
        return len(found) == limit

    _partitions([(1 << v, g.adj[v]) for v in bits_of(r)], need, keep, [], 0)
    yield from found


# -- weighted independence -----------------------------------------------------


def mic(g: Graph) -> tuple[int, int]:
    """Maximum total degree over independent sets, with a witness set as a
    vertex mask.

    Exact branch and bound: vertices in decreasing-degree order, pruning with
    the remaining degree sum.
    """
    if g.n > MIC_MAX_VERTICES:
        raise SizeCapError("mic vertex count", g.n, MIC_MAX_VERTICES)
    degs = [g.degree(v) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    best = _heaviest(g.adj, degs, order, 0, 0, (-1, 0))
    if not g.is_independent(best[1]):
        raise AssertionError("mic witness is not independent")
    return best


def _heaviest(
    adj: tuple[int, ...], degs: list[int], cands: list[int], value: int, chosen: int, best: tuple[int, int]
) -> tuple[int, int]:
    """``mic``'s search below the independent vertex mask ``chosen`` of
    degree sum ``value``: the first best (value, mask) of it, its extensions
    by ``cands`` and ``best``, the best found before it."""
    if value > best[0]:
        best = (value, chosen)
    if not cands or value + sum(degs[c] for c in cands) <= best[0]:
        return best
    head, rest = cands[0], cands[1:]
    free = [c for c in rest if not adj[head] >> c & 1]
    best = _heaviest(adj, degs, free, value + degs[head], chosen | 1 << head, best)
    return _heaviest(adj, degs, rest, value, chosen, best)


# -- subset bookkeeping ---------------------------------------------------------


def edge_between(g: Graph, a: int, b: int) -> int:
    """Number of edges with one endpoint in each of the vertex masks ``a``
    and ``b`` (each edge once).

    Summing |N(v) & b| over v in a counts an edge inside a & b from both
    ends, so those edges are subtracted once.
    """
    a, b = g._within(a), g._within(b)
    return sum((g.adj[v] & b).bit_count() for v in bits_of(a)) - _induced_edge_count(g, a & b)

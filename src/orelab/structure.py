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


def clusters(g: Graph, k: int) -> list[frozenset[int]]:
    """The maximal sets of degree-(k-1) vertices sharing one closed
    neighborhood, ordered by least member.

    Members are pairwise adjacent (each lies in the other's closed
    neighborhood), so a cluster is a clique of mutually cloned vertices.
    """
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(g.adj):
        if row.bit_count() == k - 1:
            groups.setdefault(g.closed_mask(v), []).append(v)
    # a group opens at its least member, so insertion order is that order
    return [frozenset(vs) for vs in groups.values()]


# -- diamonds and emeralds ---------------------------------------------------


def find_diamonds_emeralds(g: Graph, k: int) -> list[frozenset[int]]:
    """The vertex sets of all diamonds and emeralds of g: diamonds first,
    then emeralds, each kind in order of its sorted vertex list.

    Diamond: a k-set inducing K_k minus exactly the edge between its two
    endpoints, with every interior vertex of full host degree k-1. The
    missing endpoint pair is required to be a non-edge of the host; if it
    were present the set would induce K_k outright. The endpoints are the
    set's one non-adjacent pair, so the set alone determines them.
    Emerald: a (k-1)-clique whose vertices all have host degree k-1.
    Both come from one pass over the low (k-2)-cliques: a diamond adds a
    non-adjacent pair of common neighbours, an emerald one low vertex after
    the clique's last that is adjacent to all of it.
    A caller asking about many vertex sets lists once and keeps, for each
    set, the entries that miss it.
    """
    out: list[frozenset[int]] = []
    low = mask_of(v for v in range(g.n) if g.degree(v) == k - 1)

    def visit(im: int, later: int) -> bool:
        if im & low != im:
            return False
        interior = tuple(bits_of(im))
        out.extend(frozenset(interior + (v,)) for v in bits_of(later & low))
        common = g.full_mask() & ~im
        for q in interior:
            common &= g.adj[q]
        for u in bits_of(common):
            out.extend(frozenset(interior + (u, v)) for v in bits_of(common & ~g.adj[u] & ~((2 << u) - 1)))
        return False

    _cliques(g.adj, g.full_mask(), k - 2, visit)
    # a diamond has k vertices and an emerald k-1
    out.sort(key=lambda s: (-len(s), sorted(s)))
    return out


# -- color reduction and critical extensions ---------------------------------


def color_reduce(g: Graph, classes: Sequence[int]) -> Graph:
    """The quotient of g that collapses each color class of R to one vertex,
    with a clique on the class vertices.

    R is the union of ``classes``, vertex masks that must be nonempty,
    pairwise disjoint and independent, and exactly chi(G[R]) in number. The
    n_out outside vertices come first as 0..n_out-1 (in increasing original
    id); class i is vertex n_out + i.
    """
    # checked before any bits_of, which never ends on a negative mask
    if any(cls < 0 or cls >> g.n for cls in classes):
        raise ValueError("R contains ids outside the graph")
    r = 0
    for cls in classes:
        if not cls or cls & r:
            raise ValueError("color classes must be nonempty and pairwise disjoint")
        r |= cls
    if any(g.adj[v] & cls for cls in classes for v in bits_of(cls)):
        raise ValueError("a color class is not independent in G[R]")
    if classes:
        g_r = g.induced(bits_of(r))[0]
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

    ``r_set`` is R, the union of the coloring's classes, and class i is
    vertex n_out + i of the reduced graph; ``w_subgraph`` is W as a graph on
    the reduced graph's ids, every vertex outside W isolated; ``core`` is the
    set of class vertices W touches; ``r_prime`` is the extended subset back
    in the host graph's ids, spanning when it has every host vertex.
    ``incompleteness`` counts how far the edge bookkeeping identity falls
    short of equality (always >= 0).
    """

    r_set: frozenset[int]
    w_subgraph: Graph
    core: tuple[int, ...]
    r_prime: frozenset[int]
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
        r = frozenset(bits_of(r_mask))
        outside = list(bits_of(g.full_mask() & ~r_mask))
        n_out = len(outside)
        r_edges = _induced_edge_count(g, r_mask)
        for w in subgraphs:
            core = tuple(v for v in range(n_out, w.n) if w.adj[v])
            if not core:
                raise AssertionError("critical subgraph avoids every class vertex")
            r_prime = r_mask | mask_of(outside[v] for v in range(n_out) if w.adj[v])
            x = len(core)
            i = _induced_edge_count(g, r_prime) - (
                r_edges + w.edge_count() - x * (x - 1) // 2
            )
            if i < 0:
                raise AssertionError("incompleteness came out negative")
            yield ExtensionRecord(
                r_set=r,
                w_subgraph=w,
                core=core,
                r_prime=frozenset(bits_of(r_prime)),
                incompleteness=i,
            )


def _induced_edge_count(g: Graph, mask: int) -> int:
    """The number of edges with both ends in the vertex mask ``mask``."""
    return sum((g.adj[v] & mask).bit_count() for v in bits_of(mask)) // 2


def minimum_colorings(
    g: Graph, r_set: Iterable[int], k: int, limit: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield minimum proper colorings of G[R] as partitions of R into
    chi(G[R]) color classes (vertex masks), one per color-permutation class
    in the kernel walk's order over increasing R, capped at ``limit`` (not
    negative); none when G[R] needs more than k-1 colors."""
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be None or nonnegative, got {limit}")
    r = sorted(set(r_set))
    need = chromatic_number(g.induced(r)[0])
    if need > k - 1 or limit == 0:
        return
    found: list[tuple[int, ...]] = []

    def keep(classes: list[int]) -> bool:
        found.append(tuple(classes))
        return len(found) == limit

    _partitions([(1 << v, g.adj[v]) for v in r], need, keep, [], 0)
    yield from found


# -- weighted independence -----------------------------------------------------


def mic(g: Graph) -> tuple[int, frozenset[int]]:
    """Maximum total degree over independent sets, with a witness set.

    Exact branch and bound: vertices in decreasing-degree order, pruning with
    the remaining degree sum.
    """
    if g.n > MIC_MAX_VERTICES:
        raise SizeCapError("mic vertex count", g.n, MIC_MAX_VERTICES)
    degs = [g.degree(v) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    best_val = -1
    best_set: tuple[int, ...] = ()

    def dfs(cands: list[int], value: int, chosen: list[int]):
        nonlocal best_val, best_set
        if value > best_val:
            best_val = value
            best_set = tuple(chosen)
        if not cands:
            return
        if value + sum(degs[c] for c in cands) <= best_val:
            return
        head, rest = cands[0], cands[1:]
        chosen.append(head)
        dfs([c for c in rest if not g.adj[head] >> c & 1], value + degs[head], chosen)
        chosen.pop()
        dfs(rest, value, chosen)

    dfs(order, 0, [])
    if not g.is_independent(best_set):
        raise AssertionError("mic witness is not independent")
    return best_val, frozenset(best_set)


# -- subset bookkeeping ---------------------------------------------------------


def edge_between(g: Graph, a: int, b: int) -> int:
    """Number of edges with one endpoint in each of the vertex masks ``a``
    and ``b`` (each edge once).

    Summing |N(v) & b| over v in a counts an edge inside a & b from both
    ends, so those edges are subtracted once.
    """
    # checked before any bits_of, which never ends on a negative mask
    if a < 0 or b < 0 or (a | b) >> g.n:
        raise ValueError("vertex masks must lie within the graph")
    return sum((g.adj[v] & b).bit_count() for v in bits_of(a)) - _induced_edge_count(g, a & b)

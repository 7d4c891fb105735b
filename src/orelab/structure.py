"""Local structure around degree-(k-1) vertices and subset machinery:
clusters, near-cliques, color reductions with critical extensions, the
weighted independence number, and edge counts between vertex sets, taken on
adjacency masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .coloring import (
    PartialColoring,
    Subgraph,
    chromatic_number,
    color_partitions,
    find_critical_subgraphs,
    is_k_critical,
)
from .errors import SizeCapError
from .graphs import Graph, _quotient, bits_of, cliques_of_size, mask_of

MIC_MAX_VERTICES = 40


# -- clusters ----------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """A maximal set of degree-(k-1) vertices sharing one closed neighborhood.

    Members are pairwise adjacent (each lies in the other's closed
    neighborhood), so a cluster is a clique of mutually cloned vertices.
    """

    vertices: frozenset[int]
    closed_neighborhood: frozenset[int]


def clusters(g: Graph, k: int) -> list[Cluster]:
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        if g.degree(v) == k - 1:
            groups.setdefault(g.closed_mask(v), []).append(v)
    out = [
        Cluster(frozenset(vs), frozenset(bits_of(m)))
        for m, vs in groups.items()
    ]
    out.sort(key=lambda c: min(c.vertices))
    return out


# -- diamonds and emeralds ---------------------------------------------------


@dataclass(frozen=True)
class NearClique:
    """A diamond (K_k minus one edge, interior pinned to degree k-1) or an
    emerald (K_{k-1} with every vertex of host degree k-1)."""

    kind: str  # "diamond" | "emerald"
    vertices: frozenset[int]
    endpoints: tuple[int, int] | None

    def __post_init__(self):
        if self.kind not in ("diamond", "emerald"):
            raise ValueError(f"unknown near-clique kind {self.kind!r}")
        if (self.kind == "diamond") != (self.endpoints is not None):
            raise ValueError("diamonds and only diamonds carry endpoints")


def find_diamonds_emeralds(g: Graph, k: int) -> list[NearClique]:
    """All diamonds and emeralds of g.

    Diamond: a k-set inducing K_k minus exactly the edge between its two
    endpoints, with every interior vertex of full host degree k-1. The
    missing endpoint pair is required to be a non-edge of the host; if it
    were present the set would induce K_k outright.
    Emerald: a (k-1)-clique whose vertices all have host degree k-1.
    A caller asking about many vertex sets lists once and keeps, for each
    set, the entries whose ``vertices`` miss it.
    """
    out: list[NearClique] = []
    low = [v for v in range(g.n) if g.degree(v) == k - 1]
    low_mask = mask_of(low)
    for cl in cliques_of_size(g, k - 1):
        m = mask_of(cl)
        if m & low_mask != m:
            continue
        out.append(NearClique("emerald", frozenset(cl), None))
    for interior in cliques_of_size(g, k - 2):
        im = mask_of(interior)
        if im & low_mask != im:
            continue
        common = g.full_mask() & ~im
        for q in interior:
            common &= g.adj[q]
        for u in bits_of(common):
            for v in bits_of(common & ~((1 << (u + 1)) - 1)):
                if g.has_edge(u, v):
                    continue
                out.append(
                    NearClique("diamond", frozenset(interior) | {u, v}, (u, v))
                )
    out.sort(key=lambda d: (d.kind, sorted(d.vertices)))
    return out


# -- color reduction and critical extensions ---------------------------------


@dataclass(frozen=True)
class ColorReduction:
    """The quotient graph formed by collapsing each color class of a minimum
    coloring of G[R] to one vertex, with a clique on the class vertices.

    ``vertex_map`` renumbers the outside (non-R) vertices; ``class_vertex``
    names the vertex carrying each color class.
    """

    graph: Graph
    vertex_map: dict[int, int]
    class_vertex: dict[int, int]
    r_set: frozenset[int]


def color_reduce(g: Graph, r_set: Iterable[int], phi: PartialColoring) -> ColorReduction:
    """Collapse color classes of R and join the class vertices into a clique.

    phi must be proper and total on G[R] and use exactly chi(G[R]) distinct
    colors. Outside vertices come first (in increasing original id), class
    vertices follow in increasing color order.
    """
    r = frozenset(r_set)
    if not r <= set(range(g.n)):
        raise ValueError("R contains ids outside the graph")
    if not phi.is_total_on(r):
        raise ValueError("coloring must assign every vertex of R")
    sub, submap = g.induced(r)
    sub_phi = {submap[v]: phi.assignment[v] for v in r}
    for u, w in sub.edges():
        if sub_phi[u] == sub_phi[w]:
            raise ValueError("coloring is not proper on G[R]")
    used = sorted({phi.assignment[v] for v in r})
    need = chromatic_number(sub)
    if len(used) != need:
        raise ValueError(f"coloring uses {len(used)} colors; minimum is {need}")
    outside = [v for v in range(g.n) if v not in r]
    vertex_map = {old: new for new, old in enumerate(outside)}
    class_vertex = {c: len(outside) + i for i, c in enumerate(used)}
    image = {**vertex_map, **{v: class_vertex[phi.assignment[v]] for v in r}}
    rows = list(_quotient(g.adj, image, len(outside) + len(used)))
    clique = mask_of(class_vertex.values())
    for c in class_vertex.values():
        rows[c] |= clique ^ (1 << c)
    reduced = Graph._trusted(len(rows), tuple(rows))
    return ColorReduction(reduced, vertex_map, class_vertex, r)


@dataclass(frozen=True)
class ExtensionRecord:
    """One critical extension of a subset R.

    ``w_subgraph`` lives in the reduced graph's ids; ``core`` is the set of
    class vertices W touches; ``r_prime`` is the extended subset back in the
    host graph's ids. ``incompleteness`` counts how far the edge bookkeeping
    identity falls short of equality (always >= 0).
    """

    r_set: frozenset[int]
    phi: tuple[tuple[int, int], ...]
    w_subgraph: Subgraph
    core: tuple[int, ...]
    r_prime: frozenset[int]
    incompleteness: int
    spanning: bool


def build_extension(
    g: Graph, k: int, r_set: Iterable[int], phi: PartialColoring, limit: int = 6
) -> list[ExtensionRecord]:
    """Critical extensions of R under phi in a k-critical host.

    The reduced graph of a k-critical host is never (k-1)-colorable, so it
    holds k-critical subgraphs W; each W meets the class-vertex clique, and
    swapping the touched class vertices for their color classes extends R
    to R'. The incompleteness i compares |E(G[R'])| against
    |E(G[R])| + |E(W)| - |E(K_|X|)|; double-covered quotient edges, missing
    clique edges, and parallel boundary edges can only push the left side up,
    so i >= 0 is asserted.
    """
    if not is_k_critical(g, k):
        raise ValueError("extensions are built over a k-critical host")
    return _build_extension(g, k, r_set, phi, limit)


def _build_extension(g: Graph, k: int, r_set: Iterable[int], phi: PartialColoring, limit: int):
    """build_extension over a host already checked to be k-critical."""
    r = frozenset(r_set)
    if not r or r == set(range(g.n)):
        raise ValueError("R must be a nonempty proper subset")
    reduction = color_reduce(g, r, phi)
    h = reduction.graph
    try:
        subgraphs = find_critical_subgraphs(h, k, limit=limit)
    except ValueError:
        raise AssertionError("reduced graph of a critical host must need k colors") from None
    class_ids = set(reduction.class_vertex.values())
    inv_outside = {new: old for old, new in reduction.vertex_map.items()}
    r_edges = _induced_edge_count(g, r)
    records = []
    for w in subgraphs:
        core = tuple(sorted(set(w.vertices) & class_ids))
        if not core:
            raise AssertionError("critical subgraph avoids every class vertex")
        back = [inv_outside[v] for v in w.vertices if v not in class_ids]
        r_prime = r | set(back)
        x = len(core)
        i = _induced_edge_count(g, r_prime) - (
            r_edges + len(w.edges) - x * (x - 1) // 2
        )
        if i < 0:
            raise AssertionError("incompleteness came out negative")
        records.append(
            ExtensionRecord(
                r_set=r,
                phi=tuple(sorted((v, phi.assignment[v]) for v in r)),
                w_subgraph=w,
                core=core,
                r_prime=frozenset(r_prime),
                incompleteness=i,
                spanning=r_prime == set(range(g.n)),
            )
        )
    return records


def _induced_edge_count(g: Graph, vertices: frozenset[int]) -> int:
    m = mask_of(vertices)
    return sum((g.adj[v] & m).bit_count() for v in vertices) // 2


def minimum_colorings(g: Graph, r_set: Iterable[int], k: int, limit: int | None = None):
    """Yield minimum proper colorings of G[R] as PartialColorings with colors
    1..chi, one per color-permutation class, capped at ``limit``."""
    r = sorted(set(r_set))
    sub, submap = g.induced(r)
    need = chromatic_number(sub)
    if need > k - 1:
        return
    for part in islice(color_partitions(g, r, need), limit):
        coloring = {}
        for color_index, cls in enumerate(part, start=1):
            for v in cls:
                coloring[v] = color_index
        yield PartialColoring(coloring, k - 1)


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


def edge_between(g: Graph, a_set: Iterable[int], b_set: Iterable[int]) -> int:
    """Number of edges with one endpoint in each set (each edge once).

    Summing |N(a) & B| over a in A counts an edge inside A & B from both
    ends, so those edges are subtracted once.
    """
    a = frozenset(a_set)
    b = frozenset(b_set)
    b_mask = mask_of(b)
    return sum((g.adj[v] & b_mask).bit_count() for v in a) - _induced_edge_count(g, a & b)

"""Exact coloring machinery: decision procedure, chromatic number, edge
criticality, critical-subgraph extraction, and the degree-class edge-count
check.

Everything here is a complete search; answers are never heuristic. The
criticality test and the critical-subgraph search work on adjacency rows and
share one step: delete an edge and test (k-1)-colorability. The subgraph
search answers that step from its own witnesses where one settles it: an
earlier coloring still proper on the rows, or an earlier critical subgraph
the rows still contain; only the rest go to the solver. Those witnesses live
for one call, so no store here grows without bound. Other layers take a
coloring of a vertex set as a partition into independent color classes,
one per color-permutation orbit (``color_partitions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import SizeCapError
from .graphs import Graph, bits_of, components, mask_of


# -- core exact solver -------------------------------------------------------


def first_coloring(adj: Sequence[int], t: int) -> list[int] | None:
    """One proper coloring with colors 0..t-1, or None.

    Exact backtracking: saturation-first vertex choice, per-component search,
    and the usual symmetry break that a new color may only be introduced as
    the next unused one.
    """
    n = len(adj)
    colors = [-1] * n
    if n == 0:
        return colors
    if t <= 0:
        return None
    full = (1 << n) - 1
    for comp in components(adj, full):
        if not _color_component(adj, comp, t, colors):
            return None
    return colors


def _color_component(adj: Sequence[int], comp: int, t: int, colors: list[int]) -> bool:
    verts = list(bits_of(comp))
    if t >= len(verts):
        for c, v in enumerate(verts):
            colors[v] = c
        return True
    forbid = [0] * len(adj)
    uncolored = set(verts)

    def rec(used: int) -> bool:
        if not uncolored:
            return True
        v = max(
            uncolored,
            key=lambda u: (forbid[u].bit_count(), (adj[u] & comp).bit_count(), -u),
        )
        limit = min(t, used + 1)
        avail = ~forbid[v] & ((1 << limit) - 1)
        if not avail:
            return False
        uncolored.remove(v)
        for c in bits_of(avail):
            bit = 1 << c
            colors[v] = c
            touched = []
            for u in bits_of(adj[v] & comp):
                if u in uncolored and not forbid[u] & bit:
                    forbid[u] |= bit
                    touched.append(u)
            if rec(max(used, c + 1)):
                return True
            for u in touched:
                forbid[u] ^= bit
        colors[v] = -1
        uncolored.add(v)
        return False

    return rec(0)


def chromatic_number(g: Graph) -> int:
    for t in range(g.n + 1):
        if first_coloring(g.adj, t) is not None:
            return t
    raise AssertionError("unreachable: n colors always suffice")


def is_k_critical(g: Graph, k: int) -> bool:
    """Whether chi(g) = k and every proper subgraph is (k-1)-colorable.

    Equivalent test actually run: g is not (k-1)-colorable but g-e is, for
    every edge e. Removing one edge lowers the chromatic number by at most
    one, so those two facts pin chi(g) = k; and if every single-edge-deleted
    subgraph is (k-1)-colorable then so is every proper subgraph, since any
    proper subgraph sits inside some g-e. A vertex of degree < k-1 would let
    a (k-1)-coloring of g minus that vertex extend to g, so the min-degree
    check below is a sound fast rejection.
    """
    if k < 2:
        raise ValueError("criticality is defined here for k >= 2")
    if g.n == 0:
        return False
    if g.min_degree() < k - 1:
        return False
    if first_coloring(g.adj, k - 1) is not None:
        return False
    for u, v in g.edges():
        if _uncolorable_without(g.adj, u, v, k - 1) is not None:
            return False
    return True


def _uncolorable_without(rows: Sequence[int], u: int, v: int, t: int) -> list[int] | None:
    """The rows with edge uv deleted if they are still not t-colorable,
    otherwise None."""
    trial = list(rows)
    trial[u] &= ~(1 << v)
    trial[v] &= ~(1 << u)
    return trial if first_coloring(trial, t) is None else None


# -- critical subgraph extraction --------------------------------------------


def find_critical_subgraphs(g: Graph, k: int, limit: int = 6) -> list[Graph]:
    """k-critical subgraphs of g, found by protected greedy minimalization.

    Requires g itself to not be (k-1)-colorable. Each W comes back as a graph
    on g's vertex ids in which every vertex outside W is isolated, so W is
    ``W.induced`` of its non-isolated vertices. Enumeration restarts with
    each single edge force-deleted first, which surfaces distinct minimal
    subgraphs; at most ``limit`` distinct results are returned, ordered by
    their edge lists. Each start drops, in one ordered pass, every edge
    uv whose deletion leaves the rows not (k-1)-colorable; a kept edge stays
    needed as others go, so one pass ends edge-minimal.

    Witnesses kept for this call answer "is rows - uv (k-1)-colorable?"
    before any search, and always as the search would:
    - colorable, if a coloring found for some S - uv (kept under uv as class
      masks over all vertices) is proper on the trial: a coloring of S - uv
      colors every subgraph of S - uv;
    - not colorable, if the trial contains a found W edge for edge: a graph
      that contains a found W is not (k-1)-colorable.
    """
    t = k - 1
    if first_coloring(g.adj, t) is not None:
        raise ValueError("graph is (k-1)-colorable; no k-critical subgraph exists")
    edges = g.edges()
    colorings: dict[tuple[int, int], list[list[int]]] = {e: [] for e in edges}
    found: set[tuple[int, ...]] = set()

    def uncolorable_without(rows: Sequence[int], u: int, v: int) -> list[int] | None:
        trial = list(rows)
        trial[u] &= ~(1 << v)
        trial[v] &= ~(1 << u)
        for classes in colorings[u, v]:
            if not any(trial[x] & m for m in classes for x in bits_of(m)):
                return None
        if any(all(not a & ~b for a, b in zip(w, trial)) for w in found):
            return trial
        colors = first_coloring(trial, t)
        if colors is None:
            return trial
        colorings[u, v].append([mask_of(x for x, c in enumerate(colors) if c == i) for i in range(t)])
        return None

    for start in chain([None], edges):
        if len(found) >= limit:
            break
        rows = list(g.adj) if start is None else uncolorable_without(g.adj, *start)
        if rows is None:
            continue
        for u, v in edges:
            if rows[u] >> v & 1:
                trial = uncolorable_without(rows, u, v)
                if trial is not None:
                    rows = trial
        found.add(tuple(rows))
    return sorted((Graph._trusted(g.n, w) for w in found), key=Graph.edges)


# -- proper partitions (colorings up to color permutation) -------------------


def color_partitions(
    g: Graph, vertices: Iterable[int], max_classes: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of ``vertices`` into <= max_classes independent classes.

    Exactly one representative per color-permutation orbit is produced
    (restricted-growth enumeration: a vertex may open a new class only after
    all earlier classes were tried).
    """
    verts = sorted(vertices)
    classes: list[list[int]] = []
    masks: list[int] = []

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(verts):
            yield tuple(tuple(c) for c in classes)
            return
        v = verts[i]
        bit = 1 << v
        for ci in range(len(classes)):
            if not masks[ci] & g.adj[v]:
                classes[ci].append(v)
                masks[ci] |= bit
                yield from rec(i + 1)
                classes[ci].pop()
                masks[ci] ^= bit
        if len(classes) < max_classes:
            classes.append([v])
            masks.append(bit)
            yield from rec(i + 1)
            classes.pop()
            masks.pop()

    yield from rec(0)


# -- degree-class edge-count inequality ---------------------------------------


@dataclass(frozen=True)
class EdgeCountCheck:
    """Result of scanning e(A, B0 u B1) < |A| + 2|B0| + 3|B1| over all
    nonempty independent A inside the degree-(k-1) class."""

    ok: bool
    subsets_checked: int
    b0: tuple[int, ...]
    b1: tuple[int, ...]
    violations: tuple[tuple[tuple[int, ...], int, int], ...]


def edge_count_lemma_check(g: Graph, k: int, subset_cap: int = 2 ** 20) -> EdgeCountCheck:
    """Verify the degree-class edge bound on a k-critical graph.

    A ranges over nonempty independent subsets of the degree-(k-1) vertices;
    B0 and B1 are the full degree-k and degree-(k+1) classes. (With A empty
    the inequality is trivial or degenerate, so only nonempty A is scanned.)
    """
    if not is_k_critical(g, k):
        raise ValueError("edge-count inequality only applies to k-critical graphs")
    low = [v for v in range(g.n) if g.degree(v) == k - 1]
    b0 = tuple(v for v in range(g.n) if g.degree(v) == k)
    b1 = tuple(v for v in range(g.n) if g.degree(v) == k + 1)
    if 1 << len(low) > subset_cap:
        raise SizeCapError("independent-subset scan", 1 << len(low), subset_cap)
    bmask = mask_of(b0) | mask_of(b1)
    rhs_b = 2 * len(b0) + 3 * len(b1)
    violations = []
    checked = 0

    def rec(idx: int, chosen: list[int], chosen_mask: int, lhs: int):
        nonlocal checked
        if chosen:
            checked += 1
            if lhs >= len(chosen) + rhs_b:
                violations.append((tuple(chosen), lhs, len(chosen) + rhs_b))
        for j in range(idx, len(low)):
            v = low[j]
            if g.adj[v] & chosen_mask:
                continue
            chosen.append(v)
            rec(j + 1, chosen, chosen_mask | (1 << v), lhs + (g.adj[v] & bmask).bit_count())
            chosen.pop()

    rec(0, [], 0, 0)
    return EdgeCountCheck(not violations, checked, b0, b1, tuple(violations))

"""Exact coloring machinery: decision procedure, chromatic number, edge
criticality, critical-subgraph extraction, and the degree-class edge-count
check.

Everything here is a complete search; answers are never heuristic. The
decision procedure shrinks the graph by two exact reductions, peeling
low-degree vertices and merging pairs that a clique forces to share a color,
stops at a clique one larger than the palette, and branches on the core's
nonadjacent pair with the most common neighbors (merged, else joined by an
edge). One routine runs the reductions, from every vertex at the root and
from the vertices a branch changed on each of its sides, and tests each
candidate clique on the rows inside a vertex mask. Every coloring the
procedure returns is checked on the input rows. The criticality test
and the critical-subgraph search work on adjacency rows and share one step:
delete an edge and test (k-1)-colorability. The criticality test takes
that step once per orbit of the automorphism group on the edges. The
subgraph search answers that step without the solver when the edge has an
end outside the rows' (k-1)-core, or when an earlier coloring is still
proper on the rows; those colorings live for one call, so no store here
grows without bound.

A coloring has one form here and in every layer that takes one: a sequence
of color classes, each a vertex bitmask. ``first_coloring`` returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .errors import SizeCapError
from .graphs import Graph, _cliques, _orbits, _search, bits_of, mask_of


# -- core exact solver -------------------------------------------------------


def first_coloring(adj: Sequence[int], t: int) -> list[int] | None:
    """One proper coloring of the rows with colors 0..t-1, as its t color
    classes (vertex masks, possibly empty), or None.

    Exact in both directions. Two reductions, each keeping t-colorability,
    repeat until neither applies:
    - peel: a vertex with fewer than t live neighbors is colored last, with
      a color its neighbors leave free (Szekeres & Wilf 1968);
    - forced merge: nonadjacent x and y with a (t-1)-clique among their
      common live neighbors share a color in every t-coloring, so y merges
      into x, and x stands for the class of both.
    The reductions start from every vertex, least first, and stop at a
    (t+1)-clique, which means no coloring. On the core that is left, the
    nonadjacent pair x < y with the most common live neighbors (the least
    such pair on a tie) is a Zykov branch (Zykov 1949): the core is
    t-colorable iff it is so with y merged into x or with the edge xy
    added. The merge side is tried first, on copies; the edge side goes on
    in place. Each side reduces again from the vertices it changed, until
    every vertex is peeled or merged. Every merged class then takes the
    color of its representative: the peeled vertices, in reverse peel
    order, take the least color that no colored neighbor of a member uses.
    The coloring is checked on ``adj`` before it is returned.
    """
    n = len(adj)
    if n == 0:
        return [0] * max(t, 0)
    if t <= 0:
        return None
    rows = list(adj)
    members = [1 << v for v in range(n)]
    peeled: list[int] = []
    live = _settle(rows, members, (1 << n) - 1, t, peeled, list(range(n - 1, -1, -1)))
    if live is None:
        return None
    classes = _branch(adj, rows, members, live, t, peeled)
    return None if classes is None else _checked(adj, classes)


def _branch(
    adj: Sequence[int], rows: list[int], members: list[int], live: int, t: int, peeled: list[int]
) -> list[int] | None:
    """The color classes of ``adj`` that this branch finds, or None.

    ``rows``, ``members`` and ``peeled`` belong to the branch, which changes
    them; no forced merge and no (t+1)-clique is left among its ``live``
    vertices. So the live vertices never form a clique: in one of t or
    fewer vertices each would have fewer than t live neighbors and be
    peeled, and a larger one holds a (t+1)-clique. Only the merge side of a
    Zykov branch recurses, and each level has one live vertex fewer, so the
    depth stays below the vertex count.
    """
    while live:
        x, y = _zykov_pair(rows, live)
        merged_rows, merged_members, merged_peeled = list(rows), list(members), list(peeled)
        _merge(merged_rows, merged_members, x, y)
        merged_live = _settle(merged_rows, merged_members, live ^ 1 << y, t, merged_peeled, [x])
        if merged_live is not None:
            classes = _branch(adj, merged_rows, merged_members, merged_live, t, merged_peeled)
            if classes is not None:
                return classes
        rows[x] |= 1 << y
        rows[y] |= 1 << x
        live = _settle(rows, members, live, t, peeled, [x, y])
        if live is None:
            return None
    classes = [0] * t
    for v in reversed(peeled):
        near = 0
        for u in bits_of(members[v]):
            near |= adj[u]
        for c in range(t):
            if not classes[c] & near:
                classes[c] |= members[v]
                break
    return classes


def _settle(
    rows: list[int], members: list[int], live: int, t: int, peeled: list[int], changed: list[int]
) -> int | None:
    """Peel and make forced merges until neither applies, scanning the
    ``changed`` vertices, the last one first; the live vertices that are
    left, or None once a (t+1)-clique appears.

    Each forced pair and (t+1)-clique must have a changed vertex d on it
    or on the pair's common clique: the root marks every vertex, and a
    branch side the vertices whose rows gained neighbors. Then d's live
    neighbors hold a (t-1)-clique; a d whose neighbors hold none is done
    at once. A forced merge changes the vertex it keeps, which is scanned
    in its turn.
    """
    live = _peel(rows, live, t, peeled)
    while changed:
        d = changed.pop()
        if not live >> d & 1:
            continue
        near = rows[d] & live
        if near.bit_count() < t - 1 or not _cliques(rows, near, t - 1, _stop):
            continue
        if _cliques(rows, near, t, _stop):
            return None
        pair = _forced_pair(rows, live, t, d, near)
        if pair is None:
            continue
        x, y = pair
        _merge(rows, members, x, y)
        live = _peel(rows, live ^ 1 << y, t, peeled)
        changed.append(x)
        if d not in (x, y):
            # d may be on more forced pairs than the first one found
            changed.append(d)
    return live


def _forced_pair(rows: Sequence[int], live: int, t: int, d: int, near: int) -> tuple[int, int] | None:
    """A forced pair x < y with d one of the pair or on its common
    (t-1)-clique, or None; ``near`` is d's live neighbors."""
    for b in bits_of(live & ~near & ~(1 << d)):
        common = near & rows[b]
        if common.bit_count() >= t - 1 and _cliques(rows, common, t - 1, _stop):
            return (d, b) if d < b else (b, d)
    for a in bits_of(near):
        around = rows[a] & near
        if around.bit_count() < t - 2:
            continue
        for b in bits_of(near & ~rows[a] & ~((2 << a) - 1)):
            common = around & rows[b]
            if common.bit_count() >= t - 2 and _cliques(rows, common, t - 2, _stop):
                return a, b
    return None


def _merge(rows: list[int], members: list[int], x: int, y: int) -> None:
    """Merge y into x: x takes y's neighbors and members."""
    rows[x] |= rows[y]
    for w in bits_of(rows[y]):
        rows[w] = rows[w] & ~(1 << y) | 1 << x
    members[x] |= members[y]


def _zykov_pair(rows: Sequence[int], live: int) -> tuple[int, int] | None:
    """The nonadjacent live pair x < y with the most common live neighbors
    (the least pair on a tie), or None if the live vertices are a clique,
    which no caller hands over: ``_branch`` sees no live clique."""
    most, pair = -1, None
    for x in bits_of(live):
        row = rows[x] & live
        if row.bit_count() <= most:
            # no pair of x's has more common neighbors
            continue
        for y in bits_of(live & ~rows[x] & ~((2 << x) - 1)):
            common = (row & rows[y]).bit_count()
            if common > most:
                most, pair = common, (x, y)
                if most == row.bit_count():
                    break
    return pair


def _peel(rows: list[int], live: int, t: int, peeled: list[int]) -> int:
    """Drop every live vertex with fewer than t live neighbors, to a
    fixpoint; the dropped ones are appended to ``peeled`` in order."""
    dropped = True
    while dropped:
        dropped = False
        for v in bits_of(live):
            if (rows[v] & live).bit_count() < t:
                live ^= 1 << v
                peeled.append(v)
                dropped = True
    return live


def _stop(clique: int, later: int) -> bool:
    """Stop a clique search at the first clique it finds."""
    return True


def _checked(adj: Sequence[int], classes: list[int]) -> list[int]:
    """``classes``, after checking that they partition the vertices into
    independent sets of ``adj``."""
    full = (1 << len(adj)) - 1
    seen = 0
    for c, cls in enumerate(classes):
        if cls & (seen | ~full) or any(adj[v] & cls for v in bits_of(cls)):
            raise AssertionError(f"color class {c} is not independent, overlaps another or leaves the graph")
        seen |= cls
    if seen != full:
        raise AssertionError(f"vertex {(full & ~seen).bit_length() - 1} left uncolored")
    return classes


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

    An automorphism p of g maps g-e onto g-p(e), so one edge per orbit of
    Aut(g) on the edges answers for its whole orbit: the first edge of each
    orbit, in edge order, under the generators that labelling g witnessed,
    each mapping edge uv to the edge p[u]p[v]. Generators that span less
    than Aut(g) give smaller orbits and so more questions, never a wrong
    answer. ``graphs._orbits`` joins only the edges each generator moves,
    those at a vertex it moves, and names each orbit by its first edge.
    """
    if k < 2:
        raise ValueError("criticality is defined here for k >= 2")
    # the empty graph's minimum degree is 0, below k-1
    if g.min_degree() < k - 1:
        return False
    if first_coloring(g.adj, k - 1) is not None:
        return False
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    links = (
        (index[(u, v) if u < v else (v, u)], index[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])])
        for p in _search(g)[1] for u in range(g.n) if p[u] != u for v in bits_of(g.adj[u])
    )
    orbit = _orbits(len(edges), links)
    for i, edge in enumerate(edges):
        if orbit[i] == i and _uncolorable_without(g.adj, *edge, k - 1, []) is not None:
            return False
    return True


def _uncolorable_without(rows: Sequence[int], u: int, v: int, t: int, kept: list[list[int]]) -> list[int] | None:
    """The rows with edge uv deleted if they are still not t-colorable,
    otherwise None. A coloring in ``kept`` that is proper on them answers
    without the solver; one the solver finds is appended to ``kept``."""
    trial = list(rows)
    trial[u] &= ~(1 << v)
    trial[v] &= ~(1 << u)
    for classes in kept:
        if not any(trial[x] & m for m in classes for x in bits_of(m)):
            return None
    classes = first_coloring(trial, t)
    if classes is None:
        return trial
    kept.append(classes)
    return None


# -- critical subgraph extraction --------------------------------------------


def find_critical_subgraphs(g: Graph, k: int, limit: int = 6) -> list[Graph]:
    """k-critical subgraphs of g, found by protected greedy minimalization.

    Requires g itself to not be (k-1)-colorable. Each W comes back as a graph
    on g's vertex ids in which every vertex outside W is isolated, so W is
    ``W.induced`` on the mask of its non-isolated vertices. Enumeration
    restarts with each single edge force-deleted first, which surfaces
    distinct minimal subgraphs; at most ``limit`` distinct results are
    returned, ordered by their edge lists. Each start drops, in one ordered
    pass, every edge uv whose deletion leaves the rows not (k-1)-colorable;
    a kept edge stays needed as others go, so one pass ends edge-minimal.

    Each coloring found for some S - uv is kept for this call under uv, as
    the solver returns it. A later trial on which a kept coloring is still
    proper is answered colorable without a search, as the search would
    answer it: a coloring of S - uv colors every subgraph of S - uv.

    An edge with an end outside the (k-1)-core of the current rows, what
    peeling every vertex of fewer than k-1 neighbors leaves, is deleted
    without a question, as the solver would delete it: the core keeps its
    minimum degree with uv gone, so the rows less uv have the same core,
    and a graph is (k-1)-colorable iff its core is (a peeled vertex takes
    a color its fewer than k-1 neighbors leave free). The core is peeled
    again after each deletion the solver allows; a deletion off the core
    leaves it as it was. No kept coloring is lost: none is proper on rows
    that are not colorable, and the solver stores only colorings it finds.

    A start edge e outside W0, the subgraph found from g itself, is skipped:
    the pass from g - e returns W0. Edge by edge before e, the pass from g
    deletes f iff the pass from g - e does, since when it deletes f the rows
    less f still contain W0 (so do the rows less e and f), and when it keeps
    f the rows less f are colorable (so are the rows less e and f). At e's
    own turn the pass from g deletes e, as the rows less e still contain W0,
    and from there on the two passes hold the same rows.
    """
    t = k - 1
    if first_coloring(g.adj, t) is not None:
        raise ValueError("graph is (k-1)-colorable; no k-critical subgraph exists")
    edges = g.edges()
    colorings: dict[tuple[int, int], list[list[int]]] = {e: [] for e in edges}
    found: set[tuple[int, ...]] = set()
    first: tuple[int, ...] = ()
    for start in chain([None], edges):
        if len(found) >= limit:
            break
        if start is not None and not first[start[0]] >> start[1] & 1:
            continue
        rows = list(g.adj) if start is None else _uncolorable_without(g.adj, *start, t, colorings[start])
        if rows is None:
            continue
        core = _peel(rows, (1 << g.n) - 1, t, [])
        for u, v in edges:
            if not rows[u] >> v & 1:
                continue
            if core & (1 << u | 1 << v) != 1 << u | 1 << v:
                # off the core: the rows less uv keep the core
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
                continue
            trial = _uncolorable_without(rows, u, v, t, colorings[u, v])
            if trial is not None:
                rows = trial
                core = _peel(rows, core, t, [])
        found.add(tuple(rows))
        first = first or tuple(rows)
    return sorted((Graph._trusted(g.n, w) for w in found), key=Graph.edges)


# -- degree-class edge-count inequality ---------------------------------------


@dataclass(frozen=True)
class EdgeCountCheck:
    """Result of scanning e(A, B0 u B1) < |A| + 2|B0| + 3|B1| over all
    nonempty independent A inside the degree-(k-1) class. ``b0`` and ``b1``
    are the degree-k and degree-(k+1) classes as vertex masks, and each
    violation is (A as a vertex mask, e(A, B0 u B1), |A| + 2|B0| + 3|B1|)."""

    ok: bool
    subsets_checked: int
    b0: int
    b1: int
    violations: tuple[tuple[int, int, int], ...]


def edge_count_lemma_check(g: Graph, k: int, subset_cap: int = 2 ** 20) -> EdgeCountCheck:
    """Verify the degree-class edge bound on a k-critical graph.

    A ranges over nonempty independent subsets of the degree-(k-1) vertices;
    B0 and B1 are the full degree-k and degree-(k+1) classes. (With A empty
    the inequality is trivial or degenerate, so only nonempty A is scanned.)
    """
    if not is_k_critical(g, k):
        raise ValueError("edge-count inequality only applies to k-critical graphs")
    b0 = mask_of(v for v in range(g.n) if g.degree(v) == k)
    b1 = mask_of(v for v in range(g.n) if g.degree(v) == k + 1)
    low = [(v, (g.adj[v] & (b0 | b1)).bit_count()) for v in range(g.n) if g.degree(v) == k - 1]
    if 1 << len(low) > subset_cap:
        raise SizeCapError("independent-subset scan", 1 << len(low), subset_cap)
    violations = []
    checked = _scan(g.adj, low, 2 * b0.bit_count() + 3 * b1.bit_count(), 0, 0, 0, violations)
    return EdgeCountCheck(not violations, checked, b0, b1, tuple(violations))


def _scan(
    adj: tuple[int, ...], low: list[tuple[int, int]], rhs_b: int, idx: int, chosen: int, lhs: int,
    violations: list[tuple[int, int, int]],
) -> int:
    """``edge_count_lemma_check``'s scan of the independent vertex mask
    A = ``chosen``, with e(A, B) = ``lhs``, and of its extensions by the
    (vertex, e(vertex, B)) pairs ``low[idx:]``, depth first: adds each
    (A, e(A, B), |A| + ``rhs_b``) that breaks the bound to ``violations``;
    returns the nonempty sets seen."""
    checked = 1 if chosen else 0
    if chosen and lhs >= chosen.bit_count() + rhs_b:
        violations.append((chosen, lhs, chosen.bit_count() + rhs_b))
    for j in range(idx, len(low)):
        v, e = low[j]
        if not adj[v] & chosen:
            checked += _scan(adj, low, rhs_b, j + 1, chosen | 1 << v, lhs + e, violations)
    return checked

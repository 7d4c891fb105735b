"""Ore compositions: construction trees, realization, recognition, gadgets.

A composition takes an edge xy out of one graph, splits a vertex z of another
into two positive-degree halves, and glues x to one half and y to the other.
Closure of {K_k} under this operation is recognized here by searching
nonadjacent separating pairs; every found witness is a construction tree that
re-realizes to the input up to isomorphism.

One search, ``_decompose``, serves recognition and ``key_vertices``.
Recognition searches one member of each class, rebuilt from its canonical
key behind one bounded cache, so a witness depends only on the isomorphism
class of its input; each side comes back with its vertex map onto its
witness's realization, so no tree is realized. The catalog composes one
(edge, split) pair per symmetry class of the two sides it already holds,
with the orbits taken, as in the census, from the automorphism generators
each side's canonical search witnesses; the gadget catalog finds the key
vertices once per tree.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache

from .coloring import first_coloring
from .errors import SizeCapError
from .graphs import (
    MAX_VERTICES,
    Graph,
    _check_order,
    _graph_of_key,
    _orbits,
    _quotient,
    _search,
    _submask_images,
    bits_of,
    canonical_form,
    components,
    mask_of,
)
from .structure import clusters

DEFAULT_RECOGNITION_CAP = 25


@dataclass(frozen=True, slots=True)
class Leaf:
    """The complete graph K_k."""

    k: int


@dataclass(frozen=True, slots=True)
class Node:
    """One composition step.

    ``replaced_edge`` names the deleted edge in the realized edge side;
    ``split_vertex`` and ``partition`` name the split vertex of the realized
    split side and the two nonempty neighbor masks handed to the endpoints
    of the replaced edge.
    """

    edge_side: "OreTree"
    split_side: "OreTree"
    replaced_edge: tuple[int, int]
    split_vertex: int
    partition: tuple[int, int]


OreTree = Leaf | Node


def tree_k(tree: OreTree) -> int:
    """The single k shared by all leaves (mixed trees are invalid)."""
    if isinstance(tree, Leaf):
        return tree.k
    k1 = tree_k(tree.edge_side)
    k2 = tree_k(tree.split_side)
    if k1 != k2:
        raise ValueError(f"mixed leaf parameters {k1} and {k2}")
    return k1


def ore_compose(
    g1: Graph,
    xy: tuple[int, int],
    g2: Graph,
    z: int,
    partition: tuple[int, int],
) -> Graph:
    """Compose: delete edge xy from g1, split z of g2, glue the halves (two
    vertex masks of g2) to x and y.

    Result ids: g1's vertices keep their ids; g2's vertices other than z
    follow in increasing original order. So |V| = n1 + n2 - 1 and
    |E| = m1 + m2 - 1 (the interiors are disjoint, no parallels arise).
    """
    x, y = xy
    if not (0 <= x < g1.n and 0 <= y < g1.n and g1.has_edge(x, y)):
        raise ValueError(f"replaced pair ({x},{y}) is not an edge of the edge side on vertices 0..{g1.n - 1}")
    half1, half2 = map(g2._within, partition)
    if not 0 <= z < g2.n:
        raise ValueError(f"split vertex {z} not in the split side")
    if not half1 or not half2:
        raise ValueError("both halves of the split must have positive degree")
    if half1 & half2:
        raise ValueError("split halves must be disjoint")
    if half1 | half2 != g2.adj[z]:
        raise ValueError("split halves must partition the split vertex's neighbors")
    n1 = g1.n
    _check_order(n1 + g2.n - 1)
    side = g2.induced(g2.full_mask() ^ 1 << z)
    rows = [*g1.adj, *(row << n1 for row in side.adj)]
    rows[x] ^= 1 << y
    rows[y] ^= 1 << x
    for end, half in ((x, half1), (y, half2)):
        for w in bits_of(half):
            glued = n1 + w - (w > z)
            rows[end] |= 1 << glued
            rows[glued] |= 1 << end
    return Graph._trusted(n1 + g2.n - 1, tuple(rows))


def realize(tree: OreTree, k: int | None = None) -> Graph:
    """Build the graph described by a construction tree."""
    actual = tree_k(tree)
    if k is not None and k != actual:
        raise ValueError(f"tree is built over k={actual}, caller expected {k}")
    for _, g in _realized(tree):
        pass
    return g


def _realized(tree: OreTree):
    """Yield (subtree, graph) for every subtree of ``tree``, children before
    their parent, so the last pair is the whole tree's. This is the one
    routine that composes trees; each subtree is realized once."""
    if isinstance(tree, Leaf):
        g = Graph.complete(tree.k)
    else:
        g1 = yield from _realized(tree.edge_side)
        g2 = yield from _realized(tree.split_side)
        g = ore_compose(g1, tree.replaced_edge, g2, tree.split_vertex, tree.partition)
    yield tree, g
    return g


# -- JSON round trip ---------------------------------------------------------


def tree_to_json(tree: OreTree) -> dict:
    if isinstance(tree, Leaf):
        return {"kind": "leaf", "k": tree.k}
    return {
        "kind": "node",
        "edge_side": tree_to_json(tree.edge_side),
        "split_side": tree_to_json(tree.split_side),
        "replaced_edge": list(tree.replaced_edge),
        "split_vertex": tree.split_vertex,
        "partition": [list(bits_of(half)) for half in tree.partition],
    }


def _json_list(value, length: int | None = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise TypeError("not a list of the expected length")
    return value


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not a JSON integer")
    return value


def _json_half(value) -> int:
    """The vertex mask of a JSON list of vertex ids, each checked before
    its bit is set, so no id builds a mask beyond ``MAX_VERTICES`` bits."""
    ids = list(map(_json_int, _json_list(value)))
    if not all(0 <= v < MAX_VERTICES for v in ids):
        raise ValueError("a vertex id outside the vertex range")
    return mask_of(ids)


def tree_from_json(data: dict) -> OreTree:
    if not isinstance(data, dict):
        raise ValueError(f"tree node must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")

    def field(name: str, convert):
        value = data[name]
        try:
            return convert(value)
        except (TypeError, ValueError):
            raise ValueError(f"tree {kind} field {name!r} is malformed: {value!r}") from None

    try:
        if kind == "leaf":
            return Leaf(field("k", _json_int))
        if kind == "node":
            return Node(
                tree_from_json(data["edge_side"]),
                tree_from_json(data["split_side"]),
                field("replaced_edge", lambda e: tuple(map(_json_int, _json_list(e, 2)))),
                field("split_vertex", _json_int),
                field("partition", lambda p: tuple(map(_json_half, _json_list(p, 2)))),
            )
    except KeyError as err:
        raise ValueError(f"tree {kind} is missing field {err.args[0]!r}") from None
    raise ValueError(f"unknown tree node kind {kind!r}")


def tree_dumps(tree: OreTree) -> str:
    return json.dumps(tree_to_json(tree), sort_keys=True)


def tree_loads(text: str) -> OreTree:
    return tree_from_json(json.loads(text))


# -- random generation -------------------------------------------------------


def random_ore_tree(k: int, steps: int, rng: random.Random) -> OreTree:
    """Uniform-ish random construction tree with the given number of steps.

    Shape, replaced edge, split vertex, and neighbor partition are all drawn
    from the rng, so a seeded generator reproduces the tree exactly.
    """
    return Leaf(k) if steps == 0 else _random_step(k, steps, rng)[0]


def _random_step(k: int, steps: int, rng: random.Random) -> tuple[Node, Graph, Graph]:
    """The root step of a drawn tree, after ``random_ore_tree``'s argument
    checks, with the graphs of its two sides; the root itself is not
    composed, so a drawn tree may be too large to realize."""
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if k < 3:
        raise ValueError(f"composition needs a split vertex of degree >= 2, so k >= 3, got k={k}")
    left = rng.randrange(steps)
    t1, g1 = _random_tree(k, left, rng)
    t2, g2 = _random_tree(k, steps - 1 - left, rng)
    edge = rng.choice(sorted(g1.edges()))
    z = rng.randrange(g2.n)
    nbrs = g2.adj[z]
    # bit i of sel puts z's i-th neighbour, in increasing order, in the first half
    sel = rng.randrange(1, (1 << nbrs.bit_count()) - 1)
    first = mask_of(v for i, v in enumerate(bits_of(nbrs)) if sel >> i & 1)
    return Node(t1, t2, edge, z, (first, nbrs ^ first)), g1, g2


def _random_tree(k: int, steps: int, rng: random.Random) -> tuple[OreTree, Graph]:
    """``random_ore_tree``'s draw, from the same rng draws, with its graph,
    so every step is composed once; ``gen-ore`` reads its graphs here."""
    if steps == 0:
        return Leaf(k), Graph.complete(k)
    node, g1, g2 = _random_step(k, steps, rng)
    return node, ore_compose(g1, node.replaced_edge, g2, node.split_vertex, node.partition)


# -- recognition -------------------------------------------------------------


# Entries of the recognition cache, one per (class, k) searched: the seeded
# benchmark stream keeps about 800 for 480 graphs, so no workload evicts.
RECOGNITION_CACHE_SIZE = 4096


def is_k_ore(g: Graph, k: int, cap: int = DEFAULT_RECOGNITION_CAP) -> OreTree | None:
    """Recognize membership in the composition closure of {K_k}.

    Returns a construction tree that re-realizes to a graph isomorphic to g,
    labelled through the vertex map the search builds for each side, or
    None. A (k-1)-colorable g is refused first, before any labelling: every
    closure member is k-critical. That filter runs here only, not on the
    two sides of every candidate split, where it would cost more than the
    split search it saves.

    Search: every decomposition has a nonadjacent overlap pair whose removal
    separates the two interiors, so candidate splits are enumerated from
    separating nonadjacent pairs and component bipartitions, recursing on
    both sides. The search runs on one member of g's class, rebuilt from its
    canonical key, so the witness is a function of g's isomorphism class
    alone: every relabelling of g gets the same tree, whatever was
    recognized before.
    """
    if k < 4:
        raise ValueError("recognition requires k >= 4")
    if g.n > cap:
        raise SizeCapError("recognition vertex count", g.n, cap)
    # every closure member is k-critical, so none is (k-1)-colorable
    if first_coloring(g.adj, k - 1) is not None:
        return None
    found = _recognize(g, k)
    return None if found is None else found[0]


def _recognize(g: Graph, k: int) -> tuple[OreTree, tuple[int, ...]] | None:
    """The witness of g and the vertex of its realization that each vertex
    of g becomes; g's vertex at canonical position p is member vertex n-1-p.
    Every composition adds k-1 vertices and every member attains the
    Kostochka-Yancey equality rho_KY = k(k-3), so no other g is labelled."""
    if (g.n - k) % (k - 1) or (k - 2) * (k + 1) * g.n - 2 * (k - 1) * g.edge_count() != k * (k - 3):
        return None
    if g.n == k:
        return Leaf(k), tuple(range(k))  # KY equality on k vertices forces K_k
    cf = canonical_form(g)
    found = _recognize_class(cf.key, k)
    return found and (found[0], tuple(u for _, u in sorted(zip(cf.labeling, reversed(found[1])))))


@lru_cache(maxsize=RECOGNITION_CACHE_SIZE)
def _recognize_class(key: tuple[int, int], k: int) -> tuple[OreTree, tuple[int, ...]] | None:
    """Recognition of the class with canonical key ``key``, from the first
    decomposition of the member ``_graph_of_key`` builds, with its vertex
    map. That member is numbered from the last canonical position down: on
    the seeded benchmark stream the split search then scans about a fifth
    fewer component sets than in canonical order, and fewer than on the
    input labels. A vertex outside the split interior takes its image in
    the edge side, an interior one its image w in the split side, numbered
    as ``ore_compose`` numbers it; the cache hands every caller one tuple."""
    g = _graph_of_key(key)
    for a, b, split_mask, (_, map1, (t1, onto1)), (_, map2, (t2, onto2)) in _decompose(g, k):
        z = onto2[map2[a]]
        inner = {v: onto2[map2[v]] for v in bits_of(split_mask)}
        onto = {v: onto1[i] for v, i in map1.items()} | {v: len(map1) + w - (w > z) for v, w in inner.items()}
        halves = tuple(mask_of(inner[w] for w in bits_of(g.adj[end] & split_mask)) for end in (a, b))
        return Node(t1, t2, (onto[a], onto[b]), z, halves), tuple(onto[v] for v in range(g.n))
    return None


def _separators(adj: tuple[int, ...], sub: int) -> int:
    """Mask of the vertices whose removal may disconnect the subgraph
    induced on ``sub``: its cut vertices when it is connected, all of it
    when it is not.

    One DFS from the least vertex of ``sub``. Every edge off the DFS tree
    joins a vertex to an ancestor, so a non-root vertex u is a cut vertex
    iff some child's subtree has no neighbour on the path above u; each
    subtree's neighbours are one mask, or-ed up as the DFS returns. The
    root is a cut vertex iff it has two children.
    """
    if not sub:
        return 0
    root_bit = sub & -sub
    seen = on_path = root_bit
    path = [root_bit.bit_length() - 1]
    reach = [adj[path[0]]]
    cuts = 0
    root_children = 0
    while path:
        v = path[-1]
        fresh = adj[v] & sub & ~seen
        if fresh:
            bit = fresh & -fresh
            w = bit.bit_length() - 1
            seen |= bit
            on_path |= bit
            path.append(w)
            reach.append(adj[w])
            continue
        path.pop()
        below = reach.pop()
        on_path ^= 1 << v
        if not path:
            break
        u = path[-1]
        reach[-1] |= below
        if len(path) == 1:
            root_children += 1
        elif not below & on_path & ~(1 << u):
            cuts |= 1 << u
    if seen != sub:
        return sub
    if root_children > 1:
        cuts |= root_bit
    return cuts


def _candidate_splits(g: Graph):
    """Yield (a, b, split_interior_mask) for nonadjacent separating pairs.

    Both sides of the bipartition must be nonempty unions of components of
    g - {a,b}; the overlap endpoints need a neighbor in the split interior
    (positive split degrees) and no common neighbor there (a split hands
    each neighbor of z to exactly one half). g - {a,b} is disconnected only
    if g - a is or b is a cut vertex of g - a, so components are scanned
    only for those b.
    """
    full = g.full_mask()
    for a in range(g.n):
        rest_a = full & ~(1 << a)
        later = full & ~g.adj[a] & ~((2 << a) - 1)
        if not later:
            continue
        for b in bits_of(_separators(g.adj, rest_a) & later):
            rest = rest_a & ~(1 << b)
            comps = components(g.adj, rest)
            if len(comps) < 2:
                continue
            for sel in range(1, (1 << len(comps)) - 1):
                split_mask = 0
                for i in range(len(comps)):
                    if sel >> i & 1:
                        split_mask |= comps[i]
                if not g.adj[a] & split_mask or not g.adj[b] & split_mask:
                    continue
                if g.adj[a] & g.adj[b] & split_mask:
                    continue
                yield a, b, split_mask


def _decompose(g: Graph, k: int):
    """Yield each candidate split whose two sides are closure members, as
    (a, b, split_mask, (g1, map1, side1), (g2, map2, side2)).

    g1 drops the split interior and restores the replaced edge ab; g2 keeps
    the split interior plus the pair and merges the pair back into z. Each
    side is one quotient of g: map1 numbers the vertices outside the split
    interior in order, and map2 numbers the split interior in order and
    sends a and b both to the last id. side1 and side2 are each side's
    recognized tree with its vertex map, as ``_recognize`` returns them.
    The split side is built only once the edge side is recognized.
    """
    for a, b, split_mask in _candidate_splits(g):
        map1 = {v: i for i, v in enumerate(bits_of(g.full_mask() & ~split_mask))}
        rows = list(_quotient(g.adj, map1, len(map1)))
        rows[map1[a]] |= 1 << map1[b]
        rows[map1[b]] |= 1 << map1[a]
        g1 = Graph._trusted(len(map1), tuple(rows))
        side1 = _recognize(g1, k)
        if side1 is None:
            continue
        z = split_mask.bit_count()
        map2 = {v: i for i, v in enumerate(bits_of(split_mask))} | {a: z, b: z}
        g2 = Graph._trusted(z + 1, _quotient(g.adj, map2, z + 1))
        side2 = _recognize(g2, k)
        if side2 is not None:
            yield a, b, split_mask, (g1, map1, side1), (g2, map2, side2)


def key_vertices(tree: OreTree) -> int:
    """The mask of the vertices of the realized graph that sit on the edge
    side, outside the overlap pair, in every decomposition found by the
    recognition search.

    For K_k there are no decompositions at all, so every vertex qualifies.
    """
    k = tree_k(tree)
    g = realize(tree)
    if g.n > DEFAULT_RECOGNITION_CAP:
        raise SizeCapError("key-vertex vertex count", g.n, DEFAULT_RECOGNITION_CAP)
    if g.n == k:
        return g.full_mask()
    keys = g.full_mask()
    decomposable = False
    for a, b, split_mask, _, _ in _decompose(g, k):
        keys &= ~split_mask & ~(1 << a | 1 << b)
        decomposable = True
    if not decomposable:
        raise AssertionError("realized composition admits no decomposition")
    return keys


# -- gadgets -----------------------------------------------------------------


@dataclass(frozen=True)
class Gadget:
    """A closure member H with one cluster vertex x removed.

    ``graph`` is H - x with dense ids; ``key_vertices`` is the mask of the
    key vertices of H surviving in those ids.
    """

    tree: OreTree
    deleted_vertex: int
    graph: Graph
    key_vertices: int


# -- exhaustive catalogs -----------------------------------------------------


def _composition_sides(g: Graph) -> tuple[list, list]:
    """One representative per Aut(g) orbit of g's uses as a composition side,
    from the generators that one canonical search of g witnesses: the edges,
    and the splits as (z, halves) with each half a mask of z's neighbours.

    Edges (x, y) are walked in sorted order, splits (z, halves) by z and then
    by selector, and each keeps the first member of its orbit. A generator p
    maps an edge (x, y) to the ordered pair (p[x], p[y]) and a split
    (z, halves) to p[z] with the image of each half. An edge may map onto
    the reverse of an edge, so the orbits are taken on arcs: the sorted
    edges, then each one reversed. A forward edge keeps its index below
    ``len(edges)``, so the least arc of an orbit that holds an edge is that
    orbit's first edge. A split is coded as (z, mask of its first half),
    which fixes the second half, and indexed by its place in the walk. A
    generator that fixes z and its neighbours fixes each split of z, so only
    the others map z's first halves, in selector order (bit i is z's i-th
    neighbour) by ``graphs._submask_images``, less the empty and full ones.
    ``graphs._orbits`` joins each arc and split index to its images.
    """
    perms = _search(g)[1]
    edges = sorted(g.edges())
    arcs = edges + [(y, x) for x, y in edges]
    own = [_submask_images(g.adj[z], range(g.n))[1:-1] for z in range(g.n)]
    arc_index = {arc: i for i, arc in enumerate(arcs)}
    split_index = {split: i for i, split in enumerate((z, first) for z in range(g.n) for first in own[z])}
    arc_links = ((i, arc_index[p[x], p[y]]) for p in perms for i, (x, y) in enumerate(arcs) if p[x] != x or p[y] != y)
    arc_orbit = _orbits(len(arcs), arc_links)
    moved = ((p, z) for p in perms for z in range(g.n) if any(p[v] != v for v in bits_of(g.closed_mask(z))))
    images = ((p, z, _submask_images(g.adj[z], p)[1:-1]) for p, z in moved)
    split_links = ((split_index[z, a], split_index[p[z], b]) for p, z, firsts in images for a, b in zip(own[z], firsts))
    split_orbit = _orbits(len(split_index), split_links)
    splits = [(z, (first, g.adj[z] ^ first)) for i, (z, first) in enumerate(split_index) if split_orbit[i] == i]
    return [edge for i, edge in enumerate(edges) if arc_orbit[i] == i], splits


# One entry per (k, max_steps): a verify sweep keys k = 4, 5, 6 and the
# measure stream k = 4, 5, each at two steps, so neither workload evicts.
@lru_cache(maxsize=8)
def ore_catalog(k: int, max_steps: int) -> tuple[OreTree, ...]:
    """All closure members with at most max_steps compositions, one tree per
    isomorphism class of the realization, ordered by (steps, canonical key).

    Only one (edge, split) pair per orbit of Aut(g1) x Aut(g2) is composed,
    with each side's orbits taken from the automorphism generators its
    canonical search witnesses (see ``_composition_sides``), and the trees
    are the same as if every pair were. A skipped pair is mapped by
    automorphisms of the two sides onto the pair of its orbit
    representatives, so both compose to isomorphic graphs; and that pair
    comes no later in the loop (edges outside, splits inside), since each
    representative is the first of its orbit. So the first pair to reach
    each class is always a representative pair.
    """
    levels: list[dict[tuple, OreTree]] = [{canonical_form(Graph.complete(k)).key: Leaf(k)}]
    sides: dict[OreTree, tuple[Graph, list, list]] = {}

    def sides_of(tree: OreTree) -> tuple[Graph, list, list]:
        if tree not in sides:
            g = realize(tree)
            sides[tree] = (g, *_composition_sides(g))
        return sides[tree]

    for step in range(1, max_steps + 1):
        found: dict[tuple, OreTree] = {}
        for l1 in range(step):
            l2 = step - 1 - l1
            for t1 in levels[l1].values():
                g1, edges1, _ = sides_of(t1)
                for t2 in levels[l2].values():
                    g2, _, splits2 = sides_of(t2)
                    for edge in edges1:
                        for z, halves in splits2:
                            key = canonical_form(ore_compose(g1, edge, g2, z, halves)).key
                            if key not in found:
                                found[key] = Node(t1, t2, edge, z, halves)
        levels.append(found)
    out: list[OreTree] = []
    for level in levels:
        out.extend(level[key] for key in sorted(level))
    return tuple(out)


# Keyed and bounded like ore_catalog: the same workloads key the same pairs.
@lru_cache(maxsize=8)
def gadget_catalog(k: int, max_steps: int) -> tuple[Gadget, ...]:
    """Every gadget obtainable from the ore_catalog, deduplicated by the
    canonical form of the stripped graph together with the canonical
    positions of its key vertices.

    A gadget deletes a vertex x of degree k-1 whose cluster has size >= 2;
    that keeps x away from every overlap pair, which is what makes the
    leftover graph useful as a pattern.
    """
    # An s-step member has k + s(k - 1) vertices (K_k is the only member for
    # k < 3) and key_vertices refuses one over its cap: refuse the first
    # before building the catalog.
    for steps in range(max(max_steps, 0) + 1 if k >= 3 else 1):
        n = k + steps * (k - 1)
        if n > DEFAULT_RECOGNITION_CAP:
            raise SizeCapError("key-vertex vertex count", n, DEFAULT_RECOGNITION_CAP)
    out: list[Gadget] = []
    seen: set[tuple] = set()
    for tree in ore_catalog(k, max_steps):
        g = realize(tree)
        keys = key_vertices(tree)
        eligible = sum(c for c in clusters(g, k) if c.bit_count() >= 2)  # disjoint: the sum is the union
        for x in bits_of(eligible):
            stripped = g.induced(g.full_mask() ^ 1 << x)
            below = (1 << x) - 1
            kept_keys = keys & below | keys >> 1 & ~below  # vertices above x move down one
            cf = canonical_form(stripped)
            sig = (cf.key, mask_of(i for i, v in enumerate(cf.labeling) if kept_keys >> v & 1))
            if sig not in seen:
                seen.add(sig)
                out.append(Gadget(tree, x, stripped, kept_keys))
    return tuple(out)

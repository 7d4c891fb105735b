"""Ore compositions: construction trees, realization, recognition, gadgets.

A composition takes an edge xy out of one graph, splits a vertex z of another
into two positive-degree halves, and glues x to one half and y to the other.
Closure of {K_k} under this operation is recognized here by searching
nonadjacent separating pairs; every found witness is a construction tree that
re-realizes to the input up to isomorphism.

One search, ``_decompose``, serves recognition and ``key_vertices``.
Recognition searches one member of each class, rebuilt from its canonical
key behind one bounded cache, so a witness depends only on the isomorphism
class of its input. The catalog
composes one (edge, split) pair per symmetry class of the two sides it
already holds, and the gadget catalog finds the key vertices once per tree.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import SizeCapError
from .graphs import (
    Graph,
    _graph_of_key,
    _orbit_key,
    bits_of,
    canonical_form,
    components,
    identify,
    isomorphism,
    mask_of,
)
from .structure import clusters

DEFAULT_RECOGNITION_CAP = 25


@dataclass(frozen=True)
class Leaf:
    """The complete graph K_k."""

    k: int


@dataclass(frozen=True)
class Node:
    """One composition step.

    ``replaced_edge`` names the deleted edge in the realized edge side;
    ``split_vertex`` and ``partition`` name the split vertex of the realized
    split side and the two nonempty neighbor groups handed to the endpoints
    of the replaced edge.
    """

    edge_side: "OreTree"
    split_side: "OreTree"
    replaced_edge: tuple[int, int]
    split_vertex: int
    partition: tuple[tuple[int, ...], tuple[int, ...]]


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
    partition: tuple[tuple[int, ...], tuple[int, ...]],
) -> Graph:
    """Compose: delete edge xy from g1, split z of g2, identify the halves.

    Result ids: g1's vertices keep their ids; g2's vertices other than z
    follow in increasing original order. So |V| = n1 + n2 - 1 and
    |E| = m1 + m2 - 1 (the interiors are disjoint, no parallels arise).
    """
    x, y = xy
    if not (0 <= x < g1.n and 0 <= y < g1.n and g1.has_edge(x, y)):
        raise ValueError(f"replaced pair ({x},{y}) is not an edge of the edge side on vertices 0..{g1.n - 1}")
    outside = [w for w in (*partition[0], *partition[1]) if not 0 <= w < g2.n]
    if outside:
        raise ValueError(f"split half member {outside[0]} is outside the split side's 0..{g2.n - 1}")
    if not 0 <= z < g2.n:
        raise ValueError(f"split vertex {z} not in the split side")
    part1, part2 = tuple(sorted(partition[0])), tuple(sorted(partition[1]))
    if not part1 or not part2:
        raise ValueError("both halves of the split must have positive degree")
    if set(part1) & set(part2):
        raise ValueError("split halves must be disjoint")
    if mask_of(part1) | mask_of(part2) != g2.adj[z]:
        raise ValueError("split halves must partition the split vertex's neighbors")
    n1 = g1.n
    remap = {}
    for w in range(g2.n):
        if w == z:
            continue
        remap[w] = n1 + w - (1 if w > z else 0)
    edges = [e for e in g1.edges() if set(e) != {x, y}]
    for u, v in g2.edges():
        if z in (u, v):
            continue
        edges.append((remap[u], remap[v]))
    edges.extend((x, remap[w]) for w in part1)
    edges.extend((y, remap[w]) for w in part2)
    return Graph.from_edges(n1 + g2.n - 1, edges)


def realize(tree: OreTree, k: int | None = None) -> Graph:
    """Build the graph described by a construction tree."""
    actual = tree_k(tree)
    if k is not None and k != actual:
        raise ValueError(f"tree is built over k={actual}, caller expected {k}")
    return _realize(tree)


def _realize(tree: OreTree) -> Graph:
    if isinstance(tree, Leaf):
        return Graph.complete(tree.k)
    g1 = _realize(tree.edge_side)
    g2 = _realize(tree.split_side)
    return ore_compose(g1, tree.replaced_edge, g2, tree.split_vertex, tree.partition)


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
        "partition": [list(tree.partition[0]), list(tree.partition[1])],
    }


def _json_list(value, length: int | None = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise TypeError("not a list of the expected length")
    return value


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not a JSON integer")
    return value


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
                field(
                    "partition",
                    lambda p: tuple(tuple(map(_json_int, _json_list(h))) for h in _json_list(p, 2)),
                ),
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
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if steps == 0:
        return Leaf(k)
    left = rng.randrange(steps)
    right = steps - 1 - left
    t1 = random_ore_tree(k, left, rng)
    t2 = random_ore_tree(k, right, rng)
    g1 = _realize(t1)
    g2 = _realize(t2)
    edge = rng.choice(sorted(g1.edges()))
    z = rng.randrange(g2.n)
    nbrs = sorted(bits_of(g2.adj[z]))
    sel = rng.randrange(1, (1 << len(nbrs)) - 1)
    return Node(t1, t2, edge, z, _halves(nbrs, sel))


def _halves(nbrs: list[int], sel: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the sorted neighbors of z by the bits of sel: set bits go to the
    first half, clear bits to the second."""
    first = tuple(v for i, v in enumerate(nbrs) if sel >> i & 1)
    return first, tuple(v for i, v in enumerate(nbrs) if not sel >> i & 1)


# -- recognition -------------------------------------------------------------


# Entries of the recognition cache, one per (class, k) searched: the seeded
# benchmark stream keeps about 800 for 480 graphs, so no workload evicts.
RECOGNITION_CACHE_SIZE = 4096


def _expected_edge_count(n: int, k: int) -> int | None:
    """Edge count forced by |V| for members of the composition closure, or
    None when |V| is not even attainable. Every composition adds k-1 vertices
    and multiplies out to (l+1)*k*(k-1)/2 - l edges after l steps."""
    if n < k or (n - k) % (k - 1):
        return None
    ell = (n - k) // (k - 1)
    return (ell + 1) * k * (k - 1) // 2 - ell


def is_k_ore(g: Graph, k: int, cap: int = DEFAULT_RECOGNITION_CAP) -> OreTree | None:
    """Recognize membership in the composition closure of {K_k}.

    Returns a construction tree that re-realizes to a graph isomorphic to g,
    or None. Search: every decomposition has a nonadjacent overlap pair whose
    removal separates the two interiors, so candidate splits are enumerated
    from separating nonadjacent pairs and component bipartitions, recursing
    on both sides. The search runs on one member of g's class, rebuilt from
    its canonical key, so the witness is a function of g's isomorphism class
    alone: every relabelling of g gets the same tree, whatever was
    recognized before.
    """
    if k < 4:
        raise ValueError("recognition requires k >= 4")
    if g.n > cap:
        raise SizeCapError("recognition vertex count", g.n, cap)
    return _recognize(g, k)


def _recognize(g: Graph, k: int) -> OreTree | None:
    expected = _expected_edge_count(g.n, k)
    if expected is None or g.edge_count() != expected:
        return None
    if g.n == k:
        return Leaf(k)  # edge filter above already forces completeness
    return _recognize_class(canonical_form(g).key, k)


@lru_cache(maxsize=RECOGNITION_CACHE_SIZE)
def _recognize_class(key: tuple[int, int], k: int) -> OreTree | None:
    """Recognition of the class with canonical key ``key``, from the first
    decomposition of the member ``_graph_of_key`` builds. That member is
    numbered from the last canonical position down: on the seeded benchmark
    stream the split search then scans about a fifth fewer component sets
    than in canonical order, and fewer than on the input labels."""
    g = _graph_of_key(key)
    for a, b, split_mask, (g1, map1, t1), (g2, map2, t2) in _decompose(g, k):
        # express labels in the realizations so the witness is self-contained
        inv1 = {v: u for u, v in isomorphism(_realize(t1), g1).items()}
        inv2 = {v: u for u, v in isomorphism(_realize(t2), g2).items()}
        part_a = tuple(sorted(inv2[map2[w]] for w in bits_of(g.adj[a] & split_mask)))
        part_b = tuple(sorted(inv2[map2[w]] for w in bits_of(g.adj[b] & split_mask)))
        return Node(t1, t2, (inv1[map1[a]], inv1[map1[b]]), inv2[map2[a]], (part_a, part_b))
    return None


def _candidate_splits(g: Graph):
    """Yield (a, b, split_interior_mask) for nonadjacent separating pairs.

    Both sides of the bipartition must be nonempty unions of components of
    g - {a,b}; the overlap endpoints need a neighbor in the split interior
    (positive split degrees) and no common neighbor there (a split hands
    each neighbor of z to exactly one half).
    """
    full = g.full_mask()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if g.has_edge(a, b):
                continue
            rest = full & ~(1 << a) & ~(1 << b)
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
    (a, b, split_mask, (g1, map1, t1), (g2, map2, t2)).

    g1 drops the split interior and restores the replaced edge ab; g2 keeps
    the split interior plus the pair and merges the pair back into z. Each
    map sends the kept host vertices to their ids in that side, and t1, t2
    are the recognized trees. The split side is built only once the edge
    side is recognized.
    """
    for a, b, split_mask in _candidate_splits(g):
        g1, map1 = g.induced(bits_of(g.full_mask() & ~split_mask))
        g1 = g1.add_edge(map1[a], map1[b])
        t1 = _recognize(g1, k)
        if t1 is None:
            continue
        sub2, sub_map = g.induced(bits_of(split_mask | (1 << a) | (1 << b)))
        g2, idmap = identify(sub2, sub_map[a], sub_map[b])
        t2 = _recognize(g2, k)
        if t2 is not None:
            map2 = {v: idmap[i] for v, i in sub_map.items()}
            yield a, b, split_mask, (g1, map1, t1), (g2, map2, t2)


def key_vertices(tree: OreTree) -> frozenset[int]:
    """Vertices of the realized graph that sit on the edge side, outside the
    overlap pair, in every decomposition found by the recognition search.

    For K_k there are no decompositions at all, so every vertex qualifies.
    """
    k = tree_k(tree)
    g = _realize(tree)
    if g.n > DEFAULT_RECOGNITION_CAP:
        raise SizeCapError("key-vertex vertex count", g.n, DEFAULT_RECOGNITION_CAP)
    if g.n == k:
        return frozenset(range(k))
    keys = g.full_mask()
    decomposable = False
    for a, b, split_mask, _, _ in _decompose(g, k):
        keys &= ~split_mask & ~(1 << a | 1 << b)
        decomposable = True
    if not decomposable:
        raise AssertionError("realized composition admits no decomposition")
    return frozenset(bits_of(keys))


# -- gadgets -----------------------------------------------------------------


@dataclass(frozen=True)
class Gadget:
    """A closure member H with one cluster vertex x removed.

    ``graph`` is H - x with dense ids; ``key_vertices`` are the key vertices
    of H surviving in those ids.
    """

    k: int
    tree: OreTree
    deleted_vertex: int
    graph: Graph
    key_vertices: frozenset[int]


# -- exhaustive catalogs -----------------------------------------------------


def _composition_sides(g: Graph) -> tuple[list, list]:
    """One representative per Aut(g) orbit of g's uses as a composition side.

    Edges (x, y) are walked in sorted order, splits (z, halves) by z and then
    by selector, and each keeps the first member of its orbit. The orbit of
    an edge is that of the ordered partition [x], [y], rest; the orbit of a
    split is that of [z], first half, second half, rest.
    """
    full = g.full_mask()
    edges = [
        ((x, y), [[x], [y], list(bits_of(full & ~(1 << x | 1 << y)))]) for x, y in sorted(g.edges())
    ]
    splits = []
    for z in range(g.n):
        nbrs = sorted(bits_of(g.adj[z]))
        rest = list(bits_of(full & ~g.adj[z] & ~(1 << z)))
        for sel in range(1, (1 << len(nbrs)) - 1):
            halves = _halves(nbrs, sel)
            splits.append(((z, halves), [[z], *halves, rest]))
    return _first_per_orbit(g, edges), _first_per_orbit(g, splits)


def _first_per_orbit(g: Graph, candidates: list) -> list:
    """The items of (item, cells) pairs whose ordered partition is the first
    of its Aut(g) orbit, in input order."""
    reps: dict[tuple, object] = {}
    for item, cells in candidates:
        reps.setdefault(_orbit_key(g, cells), item)
    return list(reps.values())


@lru_cache(maxsize=None)
def ore_catalog(k: int, max_steps: int) -> tuple[OreTree, ...]:
    """All closure members with at most max_steps compositions, one tree per
    isomorphism class of the realization, ordered by (steps, canonical key).

    Only one (edge, split) pair per orbit of Aut(g1) x Aut(g2) is composed,
    and the trees are the same as if every pair were. A skipped pair is
    mapped by automorphisms of the two sides onto the pair of its orbit
    representatives, so both compose to isomorphic graphs; and that pair
    comes no later in the loop (edges outside, splits inside), since each
    representative is the first of its orbit. So the first pair to reach
    each class is always a representative pair.
    """
    levels: list[dict[tuple, OreTree]] = [{canonical_form(Graph.complete(k)).key: Leaf(k)}]
    sides: dict[OreTree, tuple[Graph, list, list]] = {}

    def sides_of(tree: OreTree) -> tuple[Graph, list, list]:
        if tree not in sides:
            g = _realize(tree)
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


@lru_cache(maxsize=None)
def gadget_catalog(k: int, max_steps: int) -> tuple[Gadget, ...]:
    """Every gadget obtainable from the ore_catalog, deduplicated by the
    canonical form of the stripped graph together with the canonical
    positions of its key vertices.

    A gadget deletes a vertex x of degree k-1 whose cluster has size >= 2;
    that keeps x away from every overlap pair, which is what makes the
    leftover graph useful as a pattern.
    """
    out: list[Gadget] = []
    seen: set[tuple] = set()
    for tree in ore_catalog(k, max_steps):
        g = _realize(tree)
        keys = key_vertices(tree)
        eligible = {v for c in clusters(g, k) if len(c.vertices) >= 2 for v in c.vertices}
        for x in sorted(eligible):
            stripped, remap = g.delete_vertex(x)
            kept_keys = frozenset(remap[v] for v in keys if v != x)
            cf = canonical_form(stripped)
            pos = {v: i for i, v in enumerate(cf.labeling)}
            sig = (cf.key, frozenset(pos[v] for v in kept_keys))
            if sig not in seen:
                seen.add(sig)
                out.append(Gadget(k, tree, x, stripped, kept_keys))
    return tuple(out)

"""Composition-tree construction, recognition, and gadget extraction.

Recognition answers are never taken on faith: every witness tree is realized
again and compared with the input graph up to isomorphism, and every
decomposition is replayed through its two sides.
"""

import json
import random

import pytest

from orelab import orekit
from orelab import (
    Graph,
    Leaf,
    Node,
    SizeCapError,
    bits_of,
    canonical_form,
    canonical_key,
    clusters,
    gadget_catalog,
    identify,
    is_isomorphic,
    is_k_critical,
    is_k_ore,
    key_vertices,
    ore_catalog,
    ore_compose,
    random_ore_tree,
    realize,
    rho_ky,
    tree_dumps,
    tree_from_json,
    tree_k,
    tree_loads,
    tree_to_json,
)


def one_step() -> Node:
    return Node(Leaf(4), Leaf(4), (0, 1), 0, ((1,), (2, 3)))


def wheel5() -> Graph:
    return Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])


def steps(tree) -> int:
    """Number of composition steps (Node objects) in the tree."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + steps(tree.edge_side) + steps(tree.split_side)


def seeded_trees(k: int, count: int, max_steps: int, seed: str):
    rng = random.Random(seed)
    return [random_ore_tree(k, rng.randrange(1, max_steps + 1), rng) for _ in range(count)]


# -- composition -----------------------------------------------------------------


def test_compose_counts():
    g = ore_compose(Graph.complete(4), (0, 1), Graph.complete(4), 0, ((1,), (2, 3)))
    assert g.n == 7 and g.edge_count() == 11


def test_compose_identity_arithmetic():
    rng = random.Random(7)
    for _ in range(25):
        g1 = realize(random_ore_tree(4, rng.randrange(0, 3), rng))
        g2 = realize(random_ore_tree(4, rng.randrange(0, 3), rng))
        edge = rng.choice(g1.edges())
        z = rng.randrange(g2.n)
        nbrs = list(g2.neighbors(z))
        cut = rng.randrange(1, len(nbrs))
        rng.shuffle(nbrs)
        g = ore_compose(g1, edge, g2, z, (tuple(nbrs[:cut]), tuple(nbrs[cut:])))
        assert g.n == g1.n + g2.n - 1
        assert g.edge_count() == g1.edge_count() + g2.edge_count() - 1


def test_compose_rejects_bad_arguments():
    k4 = Graph.complete(4)
    with pytest.raises(ValueError):
        ore_compose(k4, (0, 1), k4, 0, ((), (1, 2, 3)))  # empty part
    with pytest.raises(ValueError):
        ore_compose(k4, (0, 1), k4, 0, ((1,), (2,)))  # partition misses a neighbor
    with pytest.raises(ValueError):
        ore_compose(k4, (0, 1), k4, 0, ((1, 2), (2, 3)))  # overlapping parts
    with pytest.raises(ValueError):
        ore_compose(Graph.from_edges(4, k4.edges()[1:]), (0, 1), k4, 0, ((1,), (2, 3)))  # non-edge
    # ids outside the graphs are named, not read through Python's negative indexing
    with pytest.raises(ValueError, match=r"pair \(-1,0\) is not an edge of the edge side on vertices 0..3"):
        ore_compose(k4, (-1, 0), k4, 0, ((1,), (2, 3)))
    with pytest.raises(ValueError, match=r"pair \(0,4\) is not an edge of the edge side on vertices 0..3"):
        ore_compose(k4, (0, 4), k4, 0, ((1,), (2, 3)))
    for halves, bad in ((((-1,), (2, 3)), -1), (((1,), (2, -3)), -3), (((1,), (2, 3, 4)), 4)):
        with pytest.raises(ValueError, match=f"split half member {bad} is outside the split side's 0..3"):
            ore_compose(k4, (0, 1), k4, 0, halves)
    node = tree_to_json(one_step())
    node["replaced_edge"] = [-1, 0]
    with pytest.raises(ValueError, match=r"pair \(-1,0\) is not an edge of the edge side on vertices 0..3"):
        realize(tree_loads(json.dumps(node)))


def test_realize_counts_and_ky_value():
    assert realize(Leaf(4)) == Graph.complete(4)
    g1 = realize(one_step())
    assert g1.n == 7 and rho_ky(g1, 4) == 4
    two = Node(one_step(), Leaf(4), g1.edges()[0], 0, ((1,), (2, 3)))
    g2 = realize(two)
    assert g2.n == 10 and g2.edge_count() == 16  # (l+1)k(k-1)/2 - l at l=2
    for k in (4, 5, 6):
        for tree in seeded_trees(k, 12, 3, f"counts:{k}"):
            g = realize(tree)
            l = steps(tree)
            assert g.n == k + l * (k - 1)
            assert g.edge_count() == (l + 1) * k * (k - 1) // 2 - l
            assert rho_ky(g, k) == k * (k - 3)


def test_realized_graphs_are_critical():
    for k, count, steps in ((4, 10, 3), (5, 6, 2)):
        for tree in seeded_trees(k, count, steps, f"crit:{k}"):
            assert is_k_critical(realize(tree), k)


def test_mixed_leaf_parameters_rejected():
    bad = Node(Leaf(4), Leaf(5), (0, 1), 0, ((1,), (2, 3)))
    with pytest.raises(ValueError):
        tree_k(bad)
    with pytest.raises(ValueError):
        realize(bad)


# -- serialization -----------------------------------------------------------------


def test_tree_json_roundtrip():
    rng = random.Random(11)
    for _ in range(20):
        tree = random_ore_tree(4, rng.randrange(0, 4), rng)
        assert tree_loads(tree_dumps(tree)) == tree
        data = json.loads(tree_dumps(tree))
        assert tree_from_json(data) == tree


def test_tree_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        tree_from_json({"kind": "nonsense"})
    with pytest.raises(ValueError):
        tree_loads("[1, 2]")
    with pytest.raises(ValueError, match="tree leaf is missing field 'k'"):
        tree_loads('{"kind": "leaf"}')
    with pytest.raises(ValueError, match="tree node is missing field"):
        tree_loads('{"kind": "node"}')
    for field in ("edge_side", "split_side", "replaced_edge", "split_vertex", "partition"):
        node = tree_to_json(one_step())
        del node[field]
        with pytest.raises(ValueError, match=f"tree node is missing field '{field}'"):
            tree_from_json(node)
    leaf_inside = tree_to_json(one_step())
    del leaf_inside["split_side"]["k"]
    with pytest.raises(ValueError, match="tree leaf is missing field 'k'"):
        tree_from_json(leaf_inside)
    with pytest.raises(ValueError, match="tree leaf field 'k' is malformed: None"):
        tree_loads('{"kind": "leaf", "k": null}')
    # only a JSON integer that is not a boolean is a number here
    for text in ("4.7", "4.0", "true", "false", '"5"'):
        with pytest.raises(ValueError, match="tree leaf field 'k' is malformed"):
            tree_loads(f'{{"kind": "leaf", "k": {text}}}')
    bad_values = {
        "replaced_edge": (3, [0], [0, 1, 2], ["a", 1], [0, 1.0], [True, 1], [0, "1"]),
        "split_vertex": (None, [0], 0.0, 1.5, False, "0"),
        "partition": (5, [1, 2], [[1]], [[1], 2], [[1.0], [2, 3]], [[1], [2, True]], [["1"], [2, 3]]),
    }
    for field, values in bad_values.items():
        for value in values:
            node = tree_to_json(one_step())
            node[field] = value
            with pytest.raises(ValueError, match=f"tree node field '{field}' is malformed"):
                tree_from_json(node)
    # an edge that is not in the edge side loads, and realizing it fails
    node = tree_to_json(one_step())
    node["replaced_edge"] = [0, 9]
    with pytest.raises(ValueError, match="not an edge of the edge side"):
        realize(tree_from_json(node))
    with pytest.raises(ValueError, match="nonnegative"):
        random_ore_tree(4, -1, random.Random(0))


def test_random_tree_determinism():
    a = random_ore_tree(4, 3, random.Random(99))
    b = random_ore_tree(4, 3, random.Random(99))
    assert a == b and steps(a) == 3 and tree_k(a) == 4


# -- recognition -------------------------------------------------------------------


def test_recognition_anchors():
    assert is_k_ore(Graph.complete(4), 4) == Leaf(4)
    assert is_k_ore(wheel5(), 4) is None
    assert is_k_ore(Graph.complete(5), 4) is None
    assert is_k_ore(Graph.cycle(7), 4) is None


def test_generate_and_recognize_roundtrip():
    for k, count, steps in ((4, 8, 2), (5, 4, 1)):
        for tree in seeded_trees(k, count, steps, f"recog:{k}"):
            g = realize(tree)
            witness = is_k_ore(g, k)
            assert witness is not None
            assert is_isomorphic(realize(witness), g)


def test_witness_does_not_depend_on_call_order():
    # recognition searches a member rebuilt from the canonical key, so h gets
    # the same tree from a cold cache as after its relabelled copy g
    for k, max_steps in ((4, 3), (5, 2)):
        for i, tree in enumerate(seeded_trees(k, 6, max_steps, f"order:{k}")):
            g = realize(tree)
            perm = list(range(g.n))
            random.Random(f"order:{k}:{i}").shuffle(perm)
            h = g.relabelled(perm)
            orekit._recognize_class.cache_clear()
            canonical_form.cache_clear()
            cold = tree_dumps(is_k_ore(h, k))
            orekit._recognize_class.cache_clear()
            is_k_ore(g, k)
            assert tree_dumps(is_k_ore(h, k)) == cold
            assert is_isomorphic(realize(tree_loads(cold)), h)


def test_recognition_caches_are_bounded():
    for cache in (orekit._recognize_class, canonical_form):
        assert cache.cache_info().maxsize is not None


def test_recognition_rejects_non_ore_census_graphs(census4_8):
    for g in census4_8.graphs:
        witness = is_k_ore(g, 4)
        if witness is None:
            assert rho_ky(g, 4) < 4
        else:
            assert rho_ky(g, 4) == 4


def test_recognition_cap():
    with pytest.raises(SizeCapError):
        is_k_ore(Graph.path(30), 4, cap=25)


def test_decompositions_replay():
    g = realize(one_step())
    decs = list(orekit._decompose(g, 4))
    assert decs
    for a, b, split_mask, (g1, map1, t1), (g2, map2, t2) in decs:
        edge_side, split_side = set(map1), set(map2)
        assert not g.has_edge(a, b)
        assert edge_side | split_side == set(range(g.n))
        assert edge_side & split_side == {a, b}
        assert split_side == set(bits_of(split_mask)) | {a, b}
        eside, emap = g.induced(sorted(edge_side))
        assert is_k_ore(eside.add_edge(emap[a], emap[b]), 4) is not None
        sside, smap = g.induced(sorted(split_side))
        fused, _ = identify(sside, smap[a], smap[b])
        assert is_k_ore(fused, 4) is not None
        assert is_isomorphic(realize(t1), g1) and is_isomorphic(realize(t2), g2)


def test_key_vertices():
    # K_k has no decomposition, so every vertex is trivially key; a composed
    # graph quantifies over all its decompositions and may keep none
    assert key_vertices(Leaf(4)) == frozenset(range(4))
    tree = one_step()
    g = realize(tree)
    keys = key_vertices(tree)
    expected = frozenset(range(g.n))
    for a, b, _, (_, map1, _), _ in orekit._decompose(g, 4):
        expected &= set(map1) - {a, b}
    assert keys == expected


# -- gadgets ----------------------------------------------------------------------


def test_gadget_catalog_from_complete_leaf():
    # the only gadget of K_4 is K_3; dedup keeps the one with x = 0
    (gadget,) = gadget_catalog(4, 0)
    assert gadget.tree == Leaf(4) and gadget.deleted_vertex == 0
    assert gadget.graph == Graph.complete(3)
    assert gadget.key_vertices == frozenset(range(3))


def test_gadget_catalog_from_composition():
    # a gadget deletes a vertex of a cluster of size >= 2 and keeps the
    # surviving key vertices of its host
    g = realize(one_step())
    gadgets = [gd for gd in gadget_catalog(4, 1) if is_isomorphic(realize(gd.tree), g)]
    assert gadgets
    for gadget in gadgets:
        host, x = realize(gadget.tree), gadget.deleted_vertex
        eligible = {v for c in clusters(host, 4) if len(c.vertices) >= 2 for v in c.vertices}
        assert x in eligible and eligible != set(range(host.n))
        stripped, remap = host.delete_vertex(x)
        assert gadget.graph == stripped and gadget.graph.n == 6
        keys = key_vertices(gadget.tree)
        assert gadget.key_vertices == frozenset(remap[v] for v in keys if v != x)


def test_gadget_catalog_finds_key_vertices_once_per_tree(monkeypatch):
    calls = []

    def counted(tree):
        calls.append(tree)
        return key_vertices(tree)

    monkeypatch.setattr(orekit, "key_vertices", counted)
    for k in (4, 5):
        calls.clear()
        fresh = gadget_catalog.__wrapped__(k, 2)
        assert calls == list(ore_catalog(k, 2))
        assert fresh == gadget_catalog(k, 2)


def test_catalog_sizes_and_contents():
    assert len(ore_catalog(4, 0)) == 1
    cat1 = ore_catalog(4, 1)
    assert len(cat1) == 2
    assert len(ore_catalog(5, 1)) == 3
    keys = {canonical_key(realize(t)) for t in cat1}
    assert len(keys) == 2  # pairwise non-isomorphic realizations
    assert canonical_key(realize(one_step())) in keys
    for tree in ore_catalog(4, 2):
        assert is_k_ore(realize(tree), 4) is not None


def unreduced_catalog(k: int, max_steps: int) -> tuple:
    """The catalog loop without orbit pruning: every sorted edge of the edge
    side with every split of every vertex of the split side."""
    levels = [{canonical_key(Graph.complete(k)): Leaf(k)}]
    for step in range(1, max_steps + 1):
        found = {}
        for l1 in range(step):
            for t1 in levels[l1].values():
                g1 = realize(t1)
                for t2 in levels[step - 1 - l1].values():
                    g2 = realize(t2)
                    for edge in sorted(g1.edges()):
                        for z in range(g2.n):
                            nbrs = sorted(v for v in range(g2.n) if g2.has_edge(z, v))
                            for sel in range(1, (1 << len(nbrs)) - 1):
                                halves = (
                                    tuple(v for i, v in enumerate(nbrs) if sel >> i & 1),
                                    tuple(v for i, v in enumerate(nbrs) if not sel >> i & 1),
                                )
                                key = canonical_key(ore_compose(g1, edge, g2, z, halves))
                                found.setdefault(key, Node(t1, t2, edge, z, halves))
        levels.append(found)
    return tuple(level[key] for level in levels for key in sorted(level))


@pytest.mark.parametrize("k,max_steps", [(4, 2), (5, 2), (6, 1)])
def test_catalog_matches_the_unreduced_loop(k, max_steps):
    assert ore_catalog.__wrapped__(k, max_steps) == unreduced_catalog(k, max_steps)


def test_catalog_composes_one_pair_per_orbit(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return ore_compose(*args)

    monkeypatch.setattr(orekit, "ore_compose", counted)
    assert len(ore_catalog.__wrapped__(6, 2)) == 51
    assert calls <= 200  # the unreduced loop composes 28,324 pairs


def test_gadget_catalog():
    gads = gadget_catalog(4, 1)
    assert len(gads) == 2
    for gadget in gads:
        host = realize(gadget.tree)
        assert gadget.graph.n == host.n - 1
        assert gadget.key_vertices <= set(range(gadget.graph.n))

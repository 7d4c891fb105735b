"""Composition-tree construction, recognition, and gadget extraction.

Recognition answers are never taken on faith: every witness tree is realized
again and compared with the input graph up to isomorphism, and every
decomposition is replayed through its two sides.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from orelab import graphs, orekit
from orelab import (
    Graph,
    Leaf,
    Node,
    SizeCapError,
    bits_of,
    canonical_form,
    canonical_key,
    clusters,
    first_coloring,
    gadget_catalog,
    graph_classes,
    is_k_critical,
    is_k_ore,
    key_vertices,
    mask_of,
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
from orelab.graphs import MAX_VERTICES, components
from sample_graphs import fused_k4, moved_edge, one_step, wheel5


def steps(tree) -> int:
    """Number of composition steps (Node objects) in the tree."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + steps(tree.edge_side) + steps(tree.split_side)


def seeded_trees(k: int, count: int, max_steps: int, seed: str):
    rng = random.Random(seed)
    return [random_ore_tree(k, rng.randrange(1, max_steps + 1), rng) for _ in range(count)]


def nx_graph(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def maps_onto(g: Graph, onto: tuple[int, ...], h: Graph) -> bool:
    """Whether ``onto`` is an isomorphism from g onto h, pair by pair."""
    pairs = itertools.combinations(range(g.n), 2)
    return sorted(onto) == list(range(h.n)) and all(g.has_edge(u, v) == h.has_edge(onto[u], onto[v]) for u, v in pairs)


# -- composition -----------------------------------------------------------------


def test_compose_counts():
    g = fused_k4()
    assert g.n == 7 and g.edge_count() == 11


def test_compose_identity_arithmetic():
    rng = random.Random(7)
    for _ in range(25):
        g1 = realize(random_ore_tree(4, rng.randrange(0, 3), rng))
        g2 = realize(random_ore_tree(4, rng.randrange(0, 3), rng))
        edge = rng.choice(g1.edges())
        z = rng.randrange(g2.n)
        nbrs = list(bits_of(g2.adj[z]))
        cut = rng.randrange(1, len(nbrs))
        rng.shuffle(nbrs)
        g = ore_compose(g1, edge, g2, z, (mask_of(nbrs[:cut]), mask_of(nbrs[cut:])))
        assert g.n == g1.n + g2.n - 1
        assert g.edge_count() == g1.edge_count() + g2.edge_count() - 1


def test_compose_rejects_bad_arguments():
    k4 = Graph.complete(4)
    with pytest.raises(ValueError):
        ore_compose(k4, (0, 1), k4, 0, (0, 0b1110))  # empty part
    with pytest.raises(ValueError):
        ore_compose(k4, (0, 1), k4, 0, (0b10, 0b100))  # partition misses a neighbor
    with pytest.raises(ValueError):
        ore_compose(k4, (0, 1), k4, 0, (0b110, 0b1100))  # overlapping parts
    with pytest.raises(ValueError):
        ore_compose(Graph.from_edges(4, k4.edges()[1:]), (0, 1), k4, 0, (0b10, 0b1100))  # non-edge
    # ids outside the graphs are named, not read through Python's negative indexing
    with pytest.raises(ValueError, match=r"pair \(-1,0\) is not an edge of the edge side on vertices 0..3"):
        ore_compose(k4, (-1, 0), k4, 0, (0b10, 0b1100))
    with pytest.raises(ValueError, match=r"pair \(0,4\) is not an edge of the edge side on vertices 0..3"):
        ore_compose(k4, (0, 4), k4, 0, (0b10, 0b1100))
    for halves, bad in (((-2, 0b1100), "-0x2"), ((0b10, -0b1100), "-0xc"), ((0b10, 0b11100), "0x1c")):
        with pytest.raises(ValueError, match=f"vertex mask {bad} has ids outside 0..3"):
            ore_compose(k4, (0, 1), k4, 0, halves)
    node = tree_to_json(one_step())
    node["replaced_edge"] = [-1, 0]
    with pytest.raises(ValueError, match=r"pair \(-1,0\) is not an edge of the edge side on vertices 0..3"):
        realize(tree_loads(json.dumps(node)))


@given(st.integers(4, 6), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_compose_matches_the_edge_list_oracle(k, seed, data):
    rng = random.Random(seed)
    g1 = realize(random_ore_tree(k, rng.randrange(0, 3), rng))
    g2 = realize(random_ore_tree(k, rng.randrange(0, 3), rng))
    edge = data.draw(st.sampled_from(g1.edges()))
    z = data.draw(st.integers(0, g2.n - 1))
    nbrs = data.draw(st.permutations(list(bits_of(g2.adj[z]))))
    cut = data.draw(st.integers(1, len(nbrs) - 1))
    halves = (mask_of(nbrs[:cut]), mask_of(nbrs[cut:]))
    assert ore_compose(g1, edge, g2, z, halves) == oracles.compose_by_edges(g1, edge, g2, z, halves)


def test_realize_counts_and_ky_value():
    assert realize(Leaf(4)) == Graph.complete(4)
    g1 = realize(one_step())
    assert g1.n == 7 and rho_ky(g1, 4) == 4
    two = Node(one_step(), Leaf(4), g1.edges()[0], 0, (0b10, 0b1100))
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
    bad = Node(Leaf(4), Leaf(5), (0, 1), 0, (0b10, 0b1100))
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


def test_tree_json_refuses_a_half_member_outside_the_vertex_range():
    """A half is loaded as a vertex mask, so a member id is checked before
    its bit is set: a negative id, or one at or past ``MAX_VERTICES``, would
    otherwise build a mask of that many bits."""
    for half in ([-1], [MAX_VERTICES], [10**12], [1, 2, -3]):
        node = tree_to_json(one_step())
        node["partition"] = [half, [1]]
        with pytest.raises(ValueError, match="tree node field 'partition' is malformed"):
            tree_from_json(node)
    node = tree_to_json(one_step())
    node["partition"] = [[MAX_VERTICES - 1], [1]]
    assert tree_from_json(node).partition == (1 << MAX_VERTICES - 1, 0b10)


def test_random_tree_determinism():
    a = random_ore_tree(4, 3, random.Random(99))
    b = random_ore_tree(4, 3, random.Random(99))
    assert a == b and steps(a) == 3 and tree_k(a) == 4


def test_random_tree_composes_each_step_once(calls_to):
    """Each subtree comes back from the draw with its graph, so a 10-step
    tree costs one composition per step below the root (realizing both
    subtrees again at every level costs 24.65 on average over these seeds),
    the graph that comes back is the subtree's realization, and a tree too
    large to realize is still drawn."""
    calls = calls_to(orekit, "ore_compose")
    for seed in range(20):
        calls.clear()
        assert steps(random_ore_tree(4, 10, random.Random(seed))) == 10
        assert len(calls) == 9, seed
    for k, n_steps, seed in ((4, 10, 0), (5, 3, 1), (33, 4, 2)):
        tree, g = orekit._random_tree(k, n_steps, random.Random(seed))
        assert tree == random_ore_tree(k, n_steps, random.Random(seed))
        assert g == realize(tree)
    big = random_ore_tree(33, 8, random.Random(0))  # 33 + 8 * 32 = 289 vertices
    assert steps(big) == 8
    with pytest.raises(ValueError, match="vertex count 289 outside"):
        realize(big)


# -- recognition -------------------------------------------------------------------


def test_recognition_anchors():
    assert is_k_ore(Graph.complete(4), 4) == Leaf(4)
    assert is_k_ore(wheel5(), 4) is None
    assert is_k_ore(Graph.complete(5), 4) is None
    assert is_k_ore(Graph.cycle(7), 4) is None


def test_generate_and_recognize_roundtrip():
    # networkx grades each witness, so the canonical labelling that the
    # recognition search runs on is not its own judge
    nx = pytest.importorskip("networkx")
    for k, count, steps in ((4, 8, 2), (5, 4, 1)):
        for tree in seeded_trees(k, count, steps, f"recog:{k}"):
            g = realize(tree)
            witness = is_k_ore(g, k)
            assert witness is not None
            assert canonical_key(realize(witness)) == canonical_key(g)
            assert nx.is_isomorphic(nx_graph(nx, realize(witness)), nx_graph(nx, g))


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
            assert canonical_key(realize(tree_loads(cold))) == canonical_key(h)


def test_recognition_caches_are_bounded():
    for cache in (orekit._recognize_class, canonical_form, ore_catalog, gadget_catalog):
        assert cache.cache_info().maxsize is not None


def test_recognition_rejects_non_ore_census_graphs(census4_8):
    for g in census4_8.graphs:
        witness = is_k_ore(g, 4)
        if witness is None:
            assert rho_ky(g, 4) < 4
        else:
            assert rho_ky(g, 4) == 4


def test_ky_equal_graph_of_an_unreached_order_is_refused_unlabelled(calls_to):
    """Every composition adds k - 1 vertices, so the size filter refuses a
    KY-equal graph of any other order before labelling it. At k = 7, K_7 on
    0..6 plus a triangle on 7, 8, 9, joined to 0-2, 3-4 and 5-6, has n = 10,
    m = 31 and rho_KY = 28 = k(k - 3), and it is not 6-colorable, so only
    the order check refuses it."""
    k = 7
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7)] + [(7, 8), (7, 9), (8, 9)]
    edges += [(0, 7), (1, 7), (2, 7), (3, 8), (4, 8), (5, 9), (6, 9)]
    g = Graph.from_edges(10, edges)
    assert (g.n, g.edge_count(), rho_ky(g, k)) == (10, 31, k * (k - 3))
    assert first_coloring(g.adj, k - 1) is None
    labelled = calls_to(orekit, "canonical_form")
    assert is_k_ore(g, k) is None
    assert labelled == []


def test_recognition_cap(monkeypatch):
    def uncolored(adj, t):
        raise AssertionError("colored before the cap check")

    monkeypatch.setattr(orekit, "first_coloring", uncolored)
    with pytest.raises(SizeCapError):
        is_k_ore(Graph.path(30), 4, cap=25)


def near_miss(g: Graph, k: int, rng: random.Random) -> Graph | None:
    """g with one edge moved so that the order, the size and minimum degree
    k - 1 are kept and a proper (k-1)-coloring exists, checked here edge by
    edge; None if no move is found."""
    edges = g.edges()
    for _ in range(400):
        drop = rng.choice(edges)
        x, y = rng.sample(range(g.n), 2)
        if g.has_edge(x, y):
            continue
        h = Graph.from_edges(g.n, [e for e in edges if e != drop] + [(x, y)])
        classes = first_coloring(h.adj, k - 1) if h.min_degree() >= k - 1 else None
        if classes is not None:
            assert len(classes) == k - 1 and sorted(v for cls in classes for v in bits_of(cls)) == list(range(h.n))
            assert all(h.is_independent(cls) for cls in classes)
            return h
    return None


def test_colorable_near_misses_are_refused_before_labelling(monkeypatch):
    rng = random.Random("near misses")
    misses = []
    for k in (4, 5):
        for tree in seeded_trees(k, 30, 4, f"near:{k}"):
            h = near_miss(realize(tree), k, rng)
            if h is not None and len(misses) < 20 * (k - 3):
                misses.append((h, k))
    assert len(misses) == 40
    orekit._recognize_class.cache_clear()
    canonical_form.cache_clear()
    real = orekit._search
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    for module in (orekit, graphs):  # the modules on the recognition path that bind it
        monkeypatch.setattr(module, "_search", counted)
    assert all(is_k_ore(h, k) is None for h, k in misses)
    assert calls == []
    # the split search refuses them as well
    assert all(orekit._recognize(h, k) is None for h, k in misses)


def test_filtered_witnesses_are_the_split_search_witnesses():
    for k in (4, 5):
        for tree in seeded_trees(k, 20, 4, f"filtered:{k}"):
            g = realize(tree)
            witness = is_k_ore(g, k)
            assert witness is not None
            found, onto = orekit._recognize(g, k)
            assert tree_dumps(witness) == tree_dumps(found)
            assert maps_onto(g, onto, realize(found))


def test_recognition_never_realizes(monkeypatch, calls_to):
    """Each witness is labelled through its sides' vertex maps, so no side is
    realized or labelled again; networkx grades the witnesses after the patch
    is gone. A cold recognition of one 6-step tree at k = 4 runs 5 canonical
    searches (8 when each side's witness was realized and labelled again)."""
    nx = pytest.importorskip("networkx")
    inputs = []
    for k in (4, 5, 6):
        for n_steps in range(1, 6):
            rng = random.Random(f"never realizes:{k}:{n_steps}")
            g = realize(random_ore_tree(k, n_steps, rng))
            perm = list(range(g.n))
            rng.shuffle(perm)
            inputs.append((g.relabelled(perm), k))
    orekit._recognize_class.cache_clear()

    def refused(*args):
        raise AssertionError("recognition realized a tree")

    with monkeypatch.context() as patch:
        patch.setattr(orekit, "realize", refused)
        patch.setattr(orekit, "_realized", refused)
        witnesses = [is_k_ore(g, k, cap=g.n) for g, k in inputs]
    for (g, k), witness in zip(inputs, witnesses):
        assert witness is not None and tree_k(witness) == k
        assert nx.is_isomorphic(nx_graph(nx, realize(witness)), nx_graph(nx, g))
    rng = random.Random("never realizes:0")
    g = realize(random_ore_tree(4, 6, rng))
    perm = list(range(g.n))
    rng.shuffle(perm)
    orekit._recognize_class.cache_clear()
    canonical_form.cache_clear()
    calls = calls_to(graphs, "_search")
    assert is_k_ore(g.relabelled(perm), 4) is not None
    assert len(calls) == 5


def test_decompositions_replay():
    # networkx rebuilds both sides: the edge side adds ab back to g minus the
    # split interior, the split side contracts b into a; each side's vertex
    # map carries it onto the realization of its tree
    nx = pytest.importorskip("networkx")
    g = realize(one_step())
    whole = nx_graph(nx, g)
    decs = list(orekit._decompose(g, 4))
    assert decs
    for a, b, split_mask, (g1, map1, (t1, onto1)), (g2, map2, (t2, onto2)) in decs:
        edge_side, split_side = set(map1), set(map2)
        assert not g.has_edge(a, b)
        assert edge_side | split_side == set(range(g.n))
        assert edge_side & split_side == {a, b}
        assert split_side == set(bits_of(split_mask)) | {a, b}
        eside = whole.subgraph(edge_side).copy()
        eside.add_edge(a, b)
        sside = nx.contracted_nodes(whole.subgraph(split_side), a, b, self_loops=False)
        for side, h, side_map in ((eside, g1, map1), (sside, g2, map2)):
            assert h.n == side.number_of_nodes() and h.edge_count() == side.number_of_edges()
            assert all(h.has_edge(side_map[u], side_map[v]) for u, v in side.edges())
            assert is_k_ore(h, 4) is not None
        for side, side_map, tree, onto in ((eside, map1, t1, onto1), (sside, map2, t2, onto2)):
            image = nx.relabel_nodes(side, {v: onto[side_map[v]] for v in side})
            target = nx_graph(nx, realize(tree))
            assert set(image) == set(target)
            assert set(map(frozenset, image.edges())) == set(map(frozenset, target.edges()))


def test_decompose_sides_match_the_edge_list_construction(monkeypatch):
    # every candidate split reaches both sides when every side is recognized
    monkeypatch.setattr(orekit, "_recognize", lambda g, k: Leaf(k))
    for k in (4, 5):
        trees = ore_catalog(k, 2)
        count = 0
        for tree in trees:
            g = realize(tree)
            for a, b, split_mask, (g1, map1, _), (g2, map2, _) in orekit._decompose(g, k):
                assert ((g1, map1), (g2, map2)) == oracles.sides_by_edge_lists(g, a, b, split_mask)
                count += 1
        assert count == sum(1 for tree in trees for _ in orekit._candidate_splits(realize(tree)))
        assert count > len(trees)


def binomial_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_candidate_splits_match_the_pair_scan():
    rng = random.Random("splits")
    corpus = [g for n in range(8) for g in graph_classes(n)]
    corpus += [binomial_graph(rng, rng.randrange(1, 16), rng.uniform(0.2, 1)) for _ in range(200)]
    for k in (4, 5):
        for tree in seeded_trees(k, 30, 4, f"splits:{k}"):
            g = realize(tree)
            corpus += [g, moved_edge(g, rng)]
    for g in corpus:
        assert list(orekit._candidate_splits(g)) == list(oracles.candidate_splits_by_pair_scan(g)), g


@given(st.integers(0, 12), st.integers(0, 2**66 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_separators_are_the_cut_vertices(n, edge_bits, data):
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if edge_bits >> i & 1])
    sub = data.draw(st.integers(0, g.full_mask()))
    got = orekit._separators(g.adj, sub)
    if len(components(g.adj, sub)) > 1:
        assert got == sub
    else:
        cuts = [v for v in bits_of(sub) if len(components(g.adj, sub & ~(1 << v))) > 1]
        assert got == mask_of(cuts)


def test_key_vertices():
    # K_k has no decomposition, so every vertex is trivially key; a composed
    # graph quantifies over all its decompositions and may keep none
    assert frozenset(bits_of(key_vertices(Leaf(4)))) == frozenset(range(4))
    tree = one_step()
    g = realize(tree)
    keys = key_vertices(tree)
    expected = frozenset(range(g.n))
    for a, b, _, (_, map1, _), _ in orekit._decompose(g, 4):
        expected &= set(map1) - {a, b}
    assert frozenset(bits_of(keys)) == expected


def test_key_vertices_and_gadgets_at_k_3():
    # the odd cycles are the k = 3 closure; every vertex of one lies in some
    # split interior or overlap pair, and only K_3 has a size-2 cluster
    for steps in (1, 2):
        tree = random_ore_tree(3, steps, random.Random(steps))
        g = realize(tree)
        assert (g.n, g.edge_count()) == (3 + 2 * steps, 3 + 2 * steps)
        assert key_vertices(tree) == 0
    (gadget,) = gadget_catalog.__wrapped__(3, 1)
    assert gadget.tree == Leaf(3) and gadget.graph == Graph.complete(2)


# -- gadgets ----------------------------------------------------------------------


def test_gadget_catalog_from_complete_leaf():
    # the only gadget of K_4 is K_3; dedup keeps the one with x = 0
    (gadget,) = gadget_catalog(4, 0)
    assert gadget.tree == Leaf(4) and gadget.deleted_vertex == 0
    assert gadget.graph == Graph.complete(3)
    assert frozenset(bits_of(gadget.key_vertices)) == frozenset(range(3))


def test_gadget_catalog_from_composition():
    # a gadget deletes a vertex of a cluster of size >= 2 and keeps the
    # surviving key vertices of its host
    g = realize(one_step())
    gadgets = [gd for gd in gadget_catalog(4, 1) if canonical_key(realize(gd.tree)) == canonical_key(g)]
    assert gadgets
    for gadget in gadgets:
        host, x = realize(gadget.tree), gadget.deleted_vertex
        eligible = {v for c in clusters(host, 4) if c.bit_count() >= 2 for v in bits_of(c)}
        assert x in eligible and eligible != set(range(host.n))
        assert gadget.graph == host.induced(host.full_mask() ^ 1 << x) and gadget.graph.n == 6
        keys = key_vertices(gadget.tree)
        assert set(bits_of(gadget.key_vertices)) == {v - (v > x) for v in bits_of(keys) if v != x}


def test_gadget_catalog_finds_key_vertices_once_per_tree(calls_to):
    calls = calls_to(orekit, "key_vertices")
    for k in (4, 5):
        calls.clear()
        fresh = gadget_catalog.__wrapped__(k, 2)
        assert [tree for (tree,) in calls] == list(ore_catalog(k, 2))
        assert fresh == gadget_catalog(k, 2)


@pytest.mark.parametrize("k,max_steps,n", [(10, 2, 28), (9, 3, 33), (26, 0, 26)])
def test_gadget_catalog_refuses_an_oversized_catalog_before_building_it(monkeypatch, k, max_steps, n):
    # n is the vertex count of the first catalog member over key_vertices' cap
    def unbuilt(k, max_steps):
        raise AssertionError("ore_catalog was built")

    monkeypatch.setattr(orekit, "ore_catalog", unbuilt)
    with pytest.raises(SizeCapError) as err:
        gadget_catalog.__wrapped__(k, max_steps)
    assert str(err.value) == f"key-vertex vertex count: requested {n} exceeds cap 25"


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


@pytest.mark.parametrize("k,max_steps", [(4, 2), (5, 2), (6, 1)])
def test_catalog_matches_the_unreduced_loop(k, max_steps):
    assert ore_catalog.__wrapped__(k, max_steps) == oracles.unreduced_catalog(k, max_steps)


def test_catalog_composes_one_pair_per_orbit(calls_to):
    calls = calls_to(orekit, "ore_compose")
    assert len(ore_catalog.__wrapped__(6, 2)) == 51
    assert len(calls) <= 200  # the unreduced loop composes 28,324 pairs


def composition_side_candidates(g: Graph) -> tuple[list, list]:
    """Every edge (x < y) in sorted order and every split (z, (first, second))
    of two masks, by z and then by selector over z's sorted neighbours, as
    the catalog walks them."""
    splits = []
    for z in range(g.n):
        nbrs = sorted(bits_of(g.adj[z]))
        for sel in range(1, (1 << len(nbrs)) - 1):
            first = mask_of(v for i, v in enumerate(nbrs) if sel >> i & 1)
            splits.append((z, (first, g.adj[z] ^ first)))
    return sorted(g.edges()), splits


def test_composition_sides_keep_the_first_of_each_orbit():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    composed = [realize(t) for k in (4, 5) for t in ore_catalog(k, 1) if isinstance(t, Node)]
    assert len(composed) == 3
    for g in [Graph.path(3), Graph.cycle(5), Graph.complete(4), Graph.complete(5), *composed]:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        autos = list(GraphMatcher(h, h).isomorphisms_iter())

        def edge_orbit(edge):
            return {(p[edge[0]], p[edge[1]]) for p in autos}

        def split_orbit(split):
            z, halves = split
            return {(p[z], tuple(mask_of(p[w] for w in bits_of(half)) for half in halves)) for p in autos}

        edges, splits = orekit._composition_sides(g)
        all_edges, all_splits = composition_side_candidates(g)
        for kept, candidates, orbit in ((edges, all_edges, edge_orbit), (splits, all_splits, split_orbit)):
            for c in kept:  # the first member of its orbit in input order
                assert not orbit(c) & set(candidates[:candidates.index(c)])
            covered = set().union(*(orbit(c) for c in kept))
            assert set(candidates) <= covered
        if g == Graph.path(3):
            # (0, 1) maps to (2, 1), never to (1, 2): both orientations stay
            assert edges == [(0, 1), (1, 2)]


def test_gadget_catalog():
    gads = gadget_catalog(4, 1)
    assert len(gads) == 2
    for gadget in gads:
        host = realize(gadget.tree)
        assert gadget.graph.n == host.n - 1
        assert set(bits_of(gadget.key_vertices)) <= set(range(gadget.graph.n))

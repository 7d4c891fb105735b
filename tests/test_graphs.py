"""Substrate checks: graph values, isomorphism machinery, and the graph6 codec.

The isomorphism tests rebuild their expected answers from scratch with a
permutation brute force, so the canonical-form code is never trusted to
grade itself.
"""

import gc
import io
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from orelab import (
    CanonicalForm,
    Graph,
    GraphFormatError,
    canonical_form,
    canonical_key,
    cliques_of_size,
    compute_T,
    compute_T_bruteforce,
    edge_count_lemma_check,
    embeddings,
    graph6_decode,
    graph6_encode,
    graph_classes,
    mic,
    ore_catalog,
    suites,
    to_dot,
)
from orelab.census import _augment, random_graph
from orelab.cli import _read_graphs
from orelab.graphs import (
    MAX_VERTICES,
    _cliques,
    _graph_of_key,
    _orbits,
    _quotient,
    _refine,
    _search,
    _submask_images,
    bits_of,
    components,
    mask_of,
)
from orelab.orekit import random_ore_tree, realize
from sample_graphs import graphs, petersen


def all_labeled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph.from_edges(g.n + h.n, g.edges() + shifted)


def complete_multipartite(sizes: list[int]) -> Graph:
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    pairs = itertools.combinations(range(len(part)), 2)
    return Graph.from_edges(len(part), [(u, v) for u, v in pairs if part[u] != part[v]])


@st.composite
def kernel_graphs(draw):
    """Random graphs on at most 12 vertices, disjoint unions and complete
    multipartite graphs, randomly relabelled so components interleave."""
    g = draw(
        st.one_of(
            graphs(max_n=12),
            st.builds(disjoint_union, graphs(max_n=6), graphs(max_n=6)),
            st.builds(complete_multipartite, st.lists(st.integers(1, 4), min_size=1, max_size=3)),
        )
    )
    return g.relabelled(draw(st.permutations(range(g.n))))


# -- construction and validation ----------------------------------------------


def test_constructors():
    k4 = Graph.complete(4)
    assert k4.edge_count() == 6 and [k4.degree(v) for v in range(4)] == [3, 3, 3, 3]
    c5 = Graph.cycle(5)
    assert c5.edge_count() == 5 and all(c5.degree(v) == 2 for v in range(5))
    p4 = Graph.path(4)
    assert p4.edge_count() == 3 and [p4.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert Graph.empty(3).edge_count() == 0


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # row count mismatch
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(MAX_VERTICES + 1, (0,) * (MAX_VERTICES + 1))
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    for make in (Graph.empty, Graph.complete, lambda n: Graph.from_edges(n, [])):
        for n in (-1, MAX_VERTICES + 1):
            with pytest.raises(ValueError):
                make(n)
    assert Graph.empty(MAX_VERTICES).n == MAX_VERTICES
    for g, perm in (
        (Graph.empty(3), [0, 0, 0]),  # not injective
        (Graph.path(3), [0, 1]),  # too short
        (Graph.path(3), [0, 1, 5]),  # image outside the vertex range
        (Graph.path(3), [1, 1, 0]),  # not injective, on an edge
        (Graph.path(3), {0: 1, 1: 0, 2: 2}),  # a map, not the list of images
    ):
        with pytest.raises(ValueError, match="not a bijection"):
            g.relabelled(perm)


def test_rows_are_stored_as_a_tuple():
    g = Graph(3, [0b010, 0b101, 0b010])
    assert g.adj == (0b010, 0b101, 0b010) and g == Graph.path(3)
    assert canonical_form(Graph(3, [0, 0, 0])).key == canonical_key(Graph.empty(3))
    assert hash(Graph(3, [0, 0, 0])) == hash(Graph(3, (0, 0, 0)))


@given(graphs(max_n=8), st.data())
@settings(max_examples=100)
def test_quotient_matches_the_edge_image(g, data):
    # each edge uv with both ends kept becomes the edge image[u] image[v],
    # unless the two ends merge
    n = data.draw(st.integers(1, max(g.n, 1)))
    images = data.draw(st.lists(st.none() | st.integers(0, n - 1), min_size=g.n, max_size=g.n))
    image = {v: i for v, i in enumerate(images) if i is not None}
    expected = Graph.from_edges(
        n,
        {(image[u], image[v]) for u, v in g.edges() if u in image and v in image and image[u] != image[v]},
    )
    assert _quotient(g.adj, image, n) == expected.adj


@given(graphs(max_n=8), st.data())
@settings(max_examples=100)
def test_induced_matches_the_edge_filter(g, data):
    # the i-th set bit of the mask becomes vertex i
    mask = data.draw(st.integers(0, g.full_mask()))
    assert g.induced(mask) == oracles.induced_by_edges(g, mask)
    # a mask with ids outside the graph is refused before any bit is read
    for outside in (data.draw(st.integers(g.full_mask() + 1, 1 << g.n + 4)), data.draw(st.integers(max_value=-1))):
        with pytest.raises(ValueError, match=f"ids outside 0..{g.n - 1}$"):
            g.induced(outside)


@given(graphs(min_n=2, max_n=8), st.data())
@settings(max_examples=60)
def test_unvalidated_edits_build_valid_graphs(g, data):
    u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    merge = {w: i for i, w in enumerate(w for w in range(g.n) if w not in (u, v))} | {u: g.n - 2, v: g.n - 2}
    edited = [
        Graph.from_edges(g.n, [e for e in g.edges() if set(e) != {u, v}] + [(u, v)]),
        g.induced(g.full_mask() ^ 1 << u),
        g.induced(1 << u | 1 << v),
        Graph._trusted(g.n - 1, _quotient(g.adj, merge, g.n - 1)),
        _augment(g, data.draw(st.integers(0, g.full_mask()))),
        Graph.complete(g.n),
        Graph.empty(g.n),
    ]
    for h in edited:
        assert Graph(h.n, h.adj) == h  # the validating constructor accepts it


def test_queries():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (3, 4)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(1, 2)
    assert g.closed_mask(0) == 0b00111
    whole = components(g.adj, g.full_mask())
    assert len(whole) == 2
    assert sorted(len(c.bit_length() and [v for v in range(5) if c >> v & 1]) for c in whole) == [2, 3]
    assert g.is_clique(mask_of([0, 1])) and not g.is_clique(mask_of([0, 1, 2]))
    assert g.is_independent(mask_of([1, 2])) and not g.is_independent(mask_of([3, 4]))
    for outside in (-1, 1 << 5):  # a negative mask would never end bits_of
        with pytest.raises(ValueError, match="ids outside"):
            g.is_clique(outside)
        with pytest.raises(ValueError, match="ids outside"):
            g.is_independent(outside)


def test_edits_return_new_graphs():
    g = Graph.cycle(4)
    h = g.induced(0b1110)
    assert h == Graph.path(3) and g.edge_count() == 4
    rel = g.relabelled([1, 2, 3, 0])
    assert rel == g
    assert canonical_key(g.relabelled([0, 2, 1, 3])) == canonical_key(g)


# -- bitset kernel: components and clique test ----------------------------------


@given(kernel_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_components_match_networkx(g, data):
    nx = pytest.importorskip("networkx")
    sub = data.draw(st.integers(0, g.full_mask()))
    h = nx.Graph()
    h.add_nodes_from(bits_of(sub))
    h.add_edges_from((u, v) for u, v in g.edges() if sub >> u & 1 and sub >> v & 1)
    expected = sorted((mask_of(c) for c in nx.connected_components(h)), key=lambda m: m & -m)
    assert components(g.adj, sub) == expected
    whole = nx.Graph()
    whole.add_nodes_from(range(g.n))
    whole.add_edges_from(g.edges())
    comps = components(g.adj, g.full_mask())
    assert comps == sorted((mask_of(c) for c in nx.connected_components(whole)), key=lambda m: m & -m)
    assert (len(comps) <= 1) == (g.n == 0 or nx.is_connected(whole))


@given(kernel_graphs(), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_early_exit_clique_search_matches_brute_force(g, size, data):
    within = data.draw(st.integers(0, g.full_mask()), label="within")

    def expected(inside):
        return any(
            all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
            for vs in itertools.combinations(inside, size)
        )

    for inside in (g.full_mask(), within):
        assert _cliques(g.adj, inside, size, lambda clique, later: True) == expected(bits_of(inside))


@given(kernel_graphs(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_cliques_of_size_matches_brute_force(g, size):
    expected = [
        vs
        for vs in itertools.combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
    ]
    assert [tuple(bits_of(m)) for m in cliques_of_size(g, size)] == expected


@given(kernel_graphs(), st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_clique_search_hands_each_clique_its_later_common_neighbours(g, size, data):
    within = data.draw(st.integers(0, g.full_mask()), label="within")
    inside = list(bits_of(within))
    seen = []

    def visit(clique, later):
        seen.append((tuple(bits_of(clique)), later))
        return False

    _cliques(g.adj, within, size, visit)
    assert [clique for clique, _ in seen] == [
        vs for vs in itertools.combinations(inside, size) if all(g.has_edge(*e) for e in itertools.combinations(vs, 2))
    ]
    for clique, later in seen:
        common = [v for v in inside if v > clique[-1] and all(g.has_edge(u, v) for u in clique)]
        assert later == mask_of(common)


# -- cliques and embeddings ----------------------------------------------------


def test_cliques_of_size():
    k4 = Graph.complete(4)
    assert len(cliques_of_size(k4, 3)) == 4
    assert cliques_of_size(k4, 5) == []
    assert [tuple(bits_of(m)) for m in cliques_of_size(k4, 4)] == [(0, 1, 2, 3)]
    assert [tuple(bits_of(m)) for m in cliques_of_size(Graph.empty(3), 1)] == [(0,), (1,), (2,)]
    with pytest.raises(ValueError, match="nonnegative"):
        cliques_of_size(k4, -1)


def test_embeddings_counts_monomorphisms():
    tri = Graph.complete(3)
    k4 = Graph.complete(4)
    images = list(embeddings(tri, k4))
    assert len(images) == 24  # 4*3*2 injections, all edge-preserving
    for img in images:
        assert len(set(img)) == 3
        for u, v in tri.edges():
            assert k4.has_edge(img[u], img[v])
    assert list(embeddings(k4, tri)) == []
    assert len(list(itertools.islice(embeddings(tri, k4), 5))) == 5
    # embeddings need not be induced: a path embeds into a triangle
    assert len(list(embeddings(Graph.path(3), tri))) == 6


# -- canonical forms and isomorphism -------------------------------------------


def test_canonical_form_examples():
    c5 = Graph.cycle(5)
    shuffled = c5.relabelled([2, 4, 1, 3, 0])
    assert canonical_key(c5) == canonical_key(shuffled)
    k4_minus = Graph.from_edges(4, Graph.complete(4).edges()[1:])  # drops 01
    assert canonical_key(k4_minus) != canonical_key(Graph.cycle(4))
    cf = canonical_form(c5)
    assert isinstance(cf, CanonicalForm)
    assert sorted(cf.labeling) == list(range(5))


def test_graph_of_key_rebuilds_the_class():
    # vertex n-1-p of the rebuilt graph is the vertex at canonical position p
    for n in range(6):
        for g in all_labeled_graphs(n):
            cf = canonical_form(g)
            assert _graph_of_key(cf.key) == g.relabelled([n - 1 - cf.labeling.index(v) for v in range(n)])


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_canonical_classes_match_permutation_brute_force(n, expected):
    by_brute: dict[frozenset, set] = {}
    by_key: dict[tuple, set] = {}
    for i, g in enumerate(all_labeled_graphs(n)):
        by_brute.setdefault(oracles.class_id(g), set()).add(i)
        by_key.setdefault(canonical_key(g), set()).add(i)
    assert len(by_brute) == expected
    # same partition of the labeled graphs, not merely the same class count
    assert set(map(frozenset, by_brute.values())) == set(map(frozenset, by_key.values()))
    assert len(graph_classes(n)) == expected


def test_composed_labelings_are_an_isomorphism():
    # CanonicalForm's contract: two graphs with equal keys place their
    # vertices labeling[i] at the same position i, so pairing the two
    # labelings maps g onto h edge for edge (checked here pair by pair)
    rng = random.Random("labelings")
    corpus = [Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])]
    corpus += [random_graph(rng, rng.randrange(1, 13)) for _ in range(60)]
    for g in corpus:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabelled(perm)
            cg, ch = canonical_form(g), canonical_form(h)
            assert cg.key == ch.key
            phi = dict(zip(cg.labeling, ch.labeling))
            assert sorted(phi) == sorted(phi.values()) == list(range(g.n))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert g.has_edge(u, v) == h.has_edge(phi[u], phi[v])
    assert canonical_key(corpus[0]) != canonical_key(Graph.cycle(6))
    assert canonical_key(Graph.complete(3)) != canonical_key(Graph.empty(3))


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_key_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(g) == canonical_key(g.relabelled(perm))


# -- automorphisms and the pruned search ---------------------------------------


def copies(g: Graph, count: int) -> Graph:
    return Graph.from_edges(g.n * count, [(u + i * g.n, v + i * g.n) for i in range(count) for u, v in g.edges()])


def hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1])


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u, v in itertools.combinations(range(q), 2) if v - u in squares])


def kneser(m: int, r: int) -> Graph:
    sets = [set(s) for s in itertools.combinations(range(m), r)]
    pairs = itertools.combinations(range(len(sets)), 2)
    return Graph.from_edges(len(sets), [(i, j) for i, j in pairs if not sets[i] & sets[j]])


# (C5 copies, long cycle first, coned): c disjoint C5s and one C_{5c}, plus
# a vertex joined to every other when coned. 1-WL refinement cannot tell a
# C5 vertex from a long-cycle vertex, so the search must split them itself.
CYCLE_FAMILIES = [(3, False, False), (3, True, False), (3, False, True), (3, True, True)]
CYCLE_FAMILIES += [(4, False, False), (6, False, False), (6, True, False)]


def cycle_family(c: int, long_first: bool, coned: bool) -> tuple[Graph, set[frozenset[int]]]:
    """The graph and its vertex orbits: the C5 vertices, the long cycle's and the cone."""
    short, long = copies(Graph.cycle(5), c), Graph.cycle(5 * c)
    g = disjoint_union(long, short) if long_first else disjoint_union(short, long)
    orbits = {frozenset(range(5 * c)), frozenset(range(5 * c, 10 * c))}
    if coned:
        g = Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)])
        orbits.add(frozenset([g.n - 1]))
    return g, orbits


def is_automorphism(g: Graph, perm) -> bool:
    return sorted(perm) == list(range(g.n)) and all(
        g.adj[perm[v]] == mask_of(perm[u] for u in bits_of(g.adj[v])) for v in range(g.n)
    )


def group_order(n: int, generators) -> int:
    """Size of the permutation group the generators span, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in generators:
                q = tuple(gen[p[v]] for v in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


@st.composite
def refinement_graphs(draw):
    """Every class on at most 7 vertices, random graphs on at most 40,
    seeded Ore trees at k = 4..6 and the cycle families, relabelled."""
    source = draw(st.sampled_from(["class", "random", "ore", "cycles"]))
    if source == "class":
        g = draw(st.sampled_from(graph_classes(draw(st.integers(0, 7)))))
    elif source == "random":
        g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(0, 40)))
    elif source == "ore":
        k, steps, seed = draw(st.integers(4, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 99))
        g = realize(random_ore_tree(k, steps, random.Random(seed)))
    else:
        g = cycle_family(*draw(st.sampled_from(CYCLE_FAMILIES)))[0]
    return g.relabelled(draw(st.permutations(range(g.n))))


@st.composite
def ordered_partitions(draw):
    """A graph of ``refinement_graphs``, an ordered partition of its
    vertices, and a pick among the vertices that may be individualized."""
    g = draw(refinement_graphs())
    order = draw(st.permutations(range(g.n)))
    cuts = sorted(draw(st.sets(st.integers(1, g.n - 1)))) if g.n > 1 else []
    bounds = [0] + cuts + [g.n]
    return g, [order[a:b] for a, b in zip(bounds, bounds[1:]) if a < b], draw(st.integers(0, max(g.n - 1, 0)))


# an edge beside a star with 16 leaves, vertex 0 split off: the edge's
# other end counts (1, 0) into the cells and the star's centre (0, 16), so
# a key whose fields were 4 bits wide would merge the two
@example((Graph.from_edges(19, [(0, 1)] + [(2, v) for v in range(3, 19)]), [[0], list(range(1, 19))], 0))
@given(ordered_partitions())
@settings(max_examples=300, deadline=None)
def test_splitter_refinement_matches_the_full_rescan(case):
    g, cells, pick = case
    # any ordered partition, with every cell a splitter
    assert _refine(g.adj, cells, [mask_of(cell) for cell in cells]) == oracles.rescan_refine(g.adj, cells)
    # a stable partition with one vertex individualized, as the search's children
    stable = oracles.rescan_refine(g.adj, cells)
    choices = [(i, v) for i, cell in enumerate(stable) if len(cell) > 1 for v in cell]
    if choices:
        i, v = choices[pick % len(choices)]
        child = stable[:i] + [[v], [u for u in stable[i] if u != v]] + stable[i + 1:]
        assert _refine(g.adj, child, [1 << v]) == oracles.rescan_refine(g.adj, child)


def test_splitter_refinement_matches_the_full_rescan_past_15_neighbours():
    # a vertex of G(n, 1/2) with n up to 40 has more than 15 neighbours in a
    # large cell, so a key whose fields were too narrow for a count would
    # merge or misorder cells that the rescan keeps apart
    rng = random.Random("wide refinement")
    for _ in range(300):
        g = random_graph(rng, rng.randint(25, 40))
        order = rng.sample(range(g.n), g.n)
        bounds = [0] + sorted(rng.sample(range(1, g.n), rng.randint(1, 4))) + [g.n]
        cells = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        assert _refine(g.adj, cells, [mask_of(cell) for cell in cells]) == oracles.rescan_refine(g.adj, cells)


def check_witnessed_automorphisms(g: Graph) -> None:
    leaves = list(oracles.search_leaves(g))
    bits = max(leaf[0] for leaf in leaves)
    best = [(order, cells) for leaf_bits, order, cells in leaves if leaf_bits == bits]
    first, first_cells = best[0]
    assert _search(g)[0] == CanonicalForm(g.n, bits, tuple(first))
    for order, _ in best:  # the reference's ties are the automorphisms the search may witness
        perm = [0] * g.n
        for u, v in zip(first, order):
            perm[u] = v
        assert is_automorphism(g, perm)
    for cell in first_cells:  # every pair in a leaf cell is a twin pair, so may be swapped
        for u, v in itertools.combinations(cell, 2):
            perm = list(range(g.n))
            perm[u], perm[v] = v, u
            assert is_automorphism(g, perm)
    generators = _search(g)[1]
    assert len(generators) <= max(g.n - 1, 0)  # each one joins two vertex orbits
    for perm in generators:
        assert is_automorphism(g, perm)


@given(graphs(max_n=10))
@example(Graph.cycle(5))  # a search that witnessed identities for later leaves would list more than n - 1
@settings(max_examples=150, deadline=None)
def test_witnessed_automorphisms_are_automorphisms(g):
    if g.n:
        check_witnessed_automorphisms(g)


def test_pruned_search_matches_the_unpruned_walk_on_every_small_class():
    nx = pytest.importorskip("networkx")
    rng = random.Random(14)
    for n in range(8):
        for g in graph_classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabelled(perm)
            check_witnessed_automorphisms(h)
            if n <= 6:  # the generators span the whole group, counted by networkx
                whole = nx.Graph()
                whole.add_nodes_from(range(n))
                whole.add_edges_from(h.edges())
                count = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(whole, whole).isomorphisms_iter())
                assert group_order(n, _search(h)[1]) == count


def test_witnessed_automorphisms_generate_the_group():
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    triangles = Graph.from_edges(
        9, [(3 * i + a, 3 * i + b) for i in range(3) for a, b in ((0, 1), (0, 2), (1, 2))]
    )
    cases = [
        (Graph.empty(7), 5040),
        (Graph.complete(7), 5040),
        (Graph.cycle(8), 16),
        (k33, 72),
        (petersen(), 120),
        (triangles, 1296),
        (copies(Graph.cycle(5), 3), 6000),
        (hypercube(5), 3840),
    ]
    for g, order in cases:
        if g.n <= 10:  # the unpruned walk takes seconds on 3 C5 and Q5
            check_witnessed_automorphisms(g)
        generators = _search(g)[1]
        assert all(is_automorphism(g, perm) for perm in generators)
        assert group_order(g.n, generators) == order


def test_structured_families_key_and_generators():
    # highly symmetric graphs, whose unpruned trees have up to millions of
    # leaves, and composed graphs on more than 64 vertices
    nx = pytest.importorskip("networkx")
    family = [copies(Graph.cycle(5), c) for c in (4, 5, 8)] + [copies(petersen(), 6), hypercube(5), hypercube(6)]
    family += [paley(q) for q in (13, 17, 29)] + [kneser(6, 2), kneser(7, 2), kneser(7, 3)]
    family += [realize(random_ore_tree(33, s, random.Random(s))) for s in (1, 2, 3)]
    family += [cycle_family(*spec)[0] for spec in CYCLE_FAMILIES]
    rng = random.Random(5)

    def as_nx(g: Graph):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    for g in family:
        form, generators = _search(g)
        assert len(generators) <= g.n - 1
        for perm in generators:
            assert is_automorphism(g, perm)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert _search(g.relabelled(perm))[0].key == form.key
        edges = g.edges()
        drop = rng.choice(edges)
        add = rng.choice([p for p in itertools.combinations(range(g.n), 2) if not g.has_edge(*p)])
        moved = Graph.from_edges(g.n, [e for e in edges if e != drop] + [add])
        assert (_search(moved)[0].key == form.key) == nx.is_isomorphic(as_nx(g), as_nx(moved))


def test_cycle_families_need_few_refinements(monkeypatch):
    # without pruning by the stabiliser of the path, the search walks whole
    # subtrees below children not equivalent to the first: thousands of
    # refinements on 3 C5 plus a C15, and minutes on 4 C5 plus a C20
    calls = 0

    def counted(adj, cells, splitters):
        nonlocal calls
        calls += 1
        if calls > 500:
            raise AssertionError("more than 500 refinements")
        return _refine(adj, cells, splitters)

    monkeypatch.setattr("orelab.graphs._refine", counted)
    for spec in CYCLE_FAMILIES:
        g, orbits = cycle_family(*spec)
        calls = 0
        generators = _search(g)[1]
        assert len(generators) <= g.n - 1 and all(is_automorphism(g, perm) for perm in generators)
        found = set()
        for v in range(g.n):  # the orbit of v, closed under the generators
            orbit, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for perm in generators:
                    if perm[u] not in orbit:
                        orbit.add(perm[u])
                        stack.append(perm[u])
            found.add(frozenset(orbit))
        assert found == orbits, spec


# -- orbits --------------------------------------------------------------------


@st.composite
def permutation_groups(draw):
    """A point count up to 12 and up to four permutations of the points."""
    size = draw(st.integers(0, 12))
    return size, draw(st.lists(st.permutations(range(size)), max_size=4))


@given(permutation_groups())
@example((2, [[1, 0]]))  # a smaller root hung under the larger names the orbit by 1
@example((4, [[0, 1, 3, 2], [0, 2, 1, 3]]))  # 3 hangs under 2, then 2 under 1
@settings(max_examples=200, deadline=None)
def test_orbits_match_a_closure(group):
    size, generators = group
    expected = []
    for i in range(size):  # the orbit of i, grown under the generators until it closes
        orbit = {i}
        while len(grown := orbit | {p[j] for p in generators for j in orbit}) > len(orbit):
            orbit = grown
        expected.append(min(orbit))
    assert _orbits(size, [(i, p[i]) for p in generators for i in range(size) if p[i] != i]) == expected


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.permutations(range(n)))))
@settings(max_examples=100, deadline=None)
def test_submask_images_come_in_selector_order(case):
    mask, perm = case
    vertices = list(bits_of(mask))
    expected = [mask_of(perm[v] for i, v in enumerate(vertices) if s >> i & 1) for s in range(1 << len(vertices))]
    assert _submask_images(mask, perm) == expected


def orbit_actions(hosts):
    """(size, generators as image lists) for the actions whose orbits the
    kernel takes: the edges of the 1- to 3-step trees at k = 33 and 40 and
    of ``hosts``, the new-vertex masks of every class on up to 6 vertices,
    and the arcs and splits of the catalog graphs at k = 4, 5."""
    trees = [realize(random_ore_tree(k, steps, random.Random(steps))) for k in (33, 40) for steps in (1, 2, 3)]
    for g in trees + list(hosts):
        index = {e: i for i, e in enumerate(g.edges())}
        yield len(index), [[index[min(p[u], p[v]), max(p[u], p[v])] for u, v in index] for p in _search(g)[1]]
    for n in range(7):
        for g in graph_classes(n):
            yield 1 << n, [[mask_of(p[v] for v in bits_of(m)) for m in range(1 << n)] for p in _search(g)[1]]
    for g in {realize(tree) for k in (4, 5) for tree in ore_catalog(k, 2)}:
        generators = _search(g)[1]
        arcs = g.edges() + [(y, x) for x, y in g.edges()]
        index = {arc: i for i, arc in enumerate(arcs)}
        yield len(arcs), [[index[p[x], p[y]] for x, y in arcs] for p in generators]
        splits = []
        for z in range(g.n):
            nbrs = list(bits_of(g.adj[z]))
            splits += [(z, mask_of(nbrs[i] for i in bits_of(s))) for s in range(1, (1 << len(nbrs)) - 1)]
        index = {split: i for i, split in enumerate(splits)}
        images = [[index[p[z], mask_of(p[v] for v in bits_of(half))] for z, half in splits] for p in generators]
        yield len(splits), images


def test_orbits_keep_the_parent_firsts(census4_8, census5_8):
    for size, images in orbit_actions(census4_8.graphs + census5_8.graphs):
        orbit = _orbits(size, [(i, image[i]) for image in images for i in range(size) if image[i] != i])
        assert [i for i in range(size) if orbit[i] == i] == oracles.orbit_firsts(range(size), images)


# -- recursive searches ----------------------------------------------------------

# No search leaves a reference cycle: a cycle would hold the search's
# state until a collector pass.
RECURSIVE_SEARCHES = {
    "graphs._cliques": lambda: _cliques(Graph.complete(4).adj, 15, 3, lambda clique, later: False),
    "graphs.embeddings": lambda: list(embeddings(Graph.path(3), Graph.cycle(5))),
    "graphs._search": lambda: _search(Graph.cycle(5)),
    "packing.compute_T": lambda: compute_T(Graph.complete(4), 4),
    "packing.compute_T_bruteforce": lambda: compute_T_bruteforce(Graph.complete(4), 4),
    "structure.mic": lambda: mic(Graph.cycle(5)),
    "coloring.edge_count_lemma_check": lambda: edge_count_lemma_check(Graph.complete(4), 4),
    "suites._chromatic_oracle": lambda: suites._chromatic_oracle(Graph.cycle(5)),
}


@pytest.mark.parametrize("name", sorted(RECURSIVE_SEARCHES))
def test_recursive_searches_leave_no_reference_cycle(name):
    search = RECURSIVE_SEARCHES[name]
    search()  # a first call may fill caches
    gc.collect()
    gc.disable()
    try:
        search()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- graph6 --------------------------------------------------------------------


def test_graph6_published_format_anchors():
    assert graph6_encode(Graph.complete(1)) == "@"
    star = graph6_decode("D?{")
    assert star == Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert graph6_encode(star) == "D?{"
    assert graph6_decode("C~") == Graph.complete(4)  # n=4 fills the byte exactly


def test_graph6_long_form():
    g = Graph.from_edges(63, [(0, 62), (10, 20)])
    enc = graph6_encode(g)
    assert enc.startswith("~")
    assert graph6_decode(enc) == g
    big = Graph.from_edges(MAX_VERTICES, [(0, MAX_VERTICES - 1), (64, 200)])
    assert graph6_decode(graph6_encode(big)) == big
    n = MAX_VERTICES + 1
    header = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    with pytest.raises(GraphFormatError, match="exceeds supported"):
        graph6_decode(header)


def test_graph6_roundtrip_on_all_small_classes():
    # decoding skips validation, so each decoded graph also passes it
    rng = random.Random("graph6")
    corpus = [g for n in range(1, 8) for g in graph_classes(n)]
    corpus += [random_graph(rng, rng.randint(0, 70)) for _ in range(200)]
    for g in corpus:
        decoded = graph6_decode(graph6_encode(g))
        assert decoded == g == Graph(decoded.n, decoded.adj)
        assert type(decoded.adj) is tuple


@st.composite
def graph6_graphs(draw):
    """Seeded random graphs on 0..MAX_VERTICES vertices, weighted toward
    both sides of the 62/63 header boundary and the small orders."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(58, 68), st.integers(0, MAX_VERTICES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _decoded(text, decode=graph6_decode):
    """The decoded graph, or the error's message and offset."""
    try:
        return decode(text)
    except GraphFormatError as exc:
        return str(exc), exc.offset


@given(graph6_graphs())
@settings(max_examples=150, deadline=None)
def test_graph6_matches_the_bitwise_codec(g):
    line = graph6_encode(g)
    assert line == oracles.graph6_encode(g)
    assert graph6_decode(line) == oracles.graph6_decode(line) == g


@given(graph6_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_graph6_faults_match_the_bitwise_codec(g, data):
    """Truncated, padded, retyped and re-headed lines raise the same
    message at the same offset as the bitwise decoder, or decode alike."""
    line = graph6_encode(g)
    i = data.draw(st.integers(0, len(line)))
    c = chr(data.draw(st.sampled_from([0, 10, 32, 62, 63, 64, 100, 126, 127, 200, 955])))
    bad = data.draw(
        st.sampled_from(
            [
                line[:i],
                line[:i] + c + line[i:],
                line[:i] + c + line[i + 1:],
                line + c,
                line[:-1] + chr(ord(line[-1]) | 1) if len(line) > 1 else line,
                "~" + line,
                "~~" + line,
                ">>graph6<<" + line[:i],
            ]
        )
    )
    assert _decoded(bad) == _decoded(bad, oracles.graph6_decode), bad
    raw = bad.encode("utf-8")
    assert _decoded(raw) == _decoded(raw, oracles.graph6_decode), raw


def test_graph6_errors_carry_offsets():
    # empty, truncated, trailing data, byte below 63, 8-byte count, set padding bits
    for bad in ["", "D?", "D?{{", "D\x1f{", "~~????", "B~"]:
        got, want = _decoded(bad), _decoded(bad, oracles.graph6_decode)
        assert isinstance(got, tuple) and got == want, bad


def test_graph6_fault_messages_and_offsets():
    for bad in ["A`", "~?", "~?@~", "D?\xe9", "\x7f", "~?A?", b"D\xff{"]:
        got, want = _decoded(bad), _decoded(bad, oracles.graph6_decode)
        assert isinstance(got, tuple) and got == want, bad


def test_graph6_header_prefix_and_line_reader():
    g = Graph.cycle(5)
    line = graph6_encode(g)
    assert graph6_decode(">>graph6<<" + line) == g
    # the CLI reads graph6 line by line, skipping blank lines
    text = f">>graph6<<{line}\n\n{graph6_encode(Graph.complete(3))}\n"
    assert _read_graphs(io.StringIO(text)) == [g, Graph.complete(3)]


def test_graph6_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 6):
        for g in graph_classes(n):
            theirs = nx.from_graph6_bytes(graph6_encode(g).encode())
            assert set(theirs.nodes) == set(range(g.n))
            assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges())
            back = nx.to_graph6_bytes(theirs, header=False).strip().decode()
            assert graph6_decode(back) == g


def test_to_dot_lists_every_vertex_and_edge():
    g = Graph.from_edges(3, [(0, 1)])
    dot = to_dot(g)
    assert dot.startswith("graph G {") and dot.endswith("}")
    assert "  2;" in dot and "  0 -- 1;" in dot

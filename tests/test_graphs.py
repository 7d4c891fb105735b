"""Substrate checks: graph values, isomorphism machinery, and the graph6 codec.

The isomorphism tests rebuild their expected answers from scratch with a
permutation brute force, so the canonical-form code is never trusted to
grade itself.
"""

import io
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orelab import (
    CanonicalForm,
    Graph,
    GraphFormatError,
    SizeCapError,
    canonical_form,
    canonical_key,
    cliques_of_size,
    embeddings,
    graph6_decode,
    graph6_encode,
    graph_classes,
    has_clique,
    identify,
    is_isomorphic,
    isomorphism,
    to_dot,
)
from orelab.census import _augment
from orelab.cli import _read_graphs
from orelab.graphs import MAX_VERTICES, _graph_of_key, _orbit_key, bits_of, components, mask_of


def all_labeled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def brute_class_id(g: Graph) -> frozenset:
    """Smallest edge set reachable by relabeling; a true isomorphism invariant."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
        key = tuple(sorted(edges))
        if best is None or key < best[0]:
            best = (key, edges)
    return best[1]


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


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
    with pytest.raises(ValueError):
        identify(Graph.path(3), 0, 3)
    with pytest.raises(ValueError):
        identify(Graph.path(3), -1, 1)


@given(graphs(min_n=2, max_n=8), st.data())
@settings(max_examples=60)
def test_unvalidated_edits_build_valid_graphs(g, data):
    u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    edited = [
        Graph.from_edges(g.n, [e for e in g.edges() if set(e) != {u, v}]).add_edge(u, v),
        g.delete_vertex(u)[0],
        g.induced([u, v])[0],
        identify(g, u, v)[0],
        _augment(g, data.draw(st.integers(0, g.full_mask()))),
        Graph.complete(g.n),
        Graph.empty(g.n),
    ]
    for h in edited:
        assert Graph(h.n, h.adj) == h  # the validating constructor accepts it


def test_queries():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (3, 4)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(1, 2)
    assert g.neighbors(0) == (1, 2)
    assert g.closed_mask(0) == 0b00111
    whole = components(g.adj, g.full_mask())
    assert len(whole) == 2
    assert sorted(len(c.bit_length() and [v for v in range(5) if c >> v & 1]) for c in whole) == [2, 3]
    assert g.is_clique([0, 1]) and not g.is_clique([0, 1, 2])
    assert g.is_independent([1, 2]) and not g.is_independent([3, 4])


def test_edits_return_new_graphs():
    g = Graph.cycle(4)
    g2 = g.add_edge(0, 2)
    assert g2.edge_count() == 5 and g.edge_count() == 4
    assert g2 == Graph.from_edges(4, g.edges() + [(0, 2)])
    h, remap = g.delete_vertex(0)
    assert h.n == 3 and remap == {1: 0, 2: 1, 3: 2}
    assert h.edge_count() == 2
    sub, remap = g.induced([1, 2, 3])
    assert sub == h
    rel = g.relabelled([1, 2, 3, 0])
    assert is_isomorphic(rel, g)


# -- identify ------------------------------------------------------------------


def test_identify_path_endpoints():
    p3 = Graph.path(3)
    merged, remap = identify(p3, 0, 2)
    assert merged.n == 2 and merged.edge_count() == 1


def test_identify_adjacent_pair_collapses_parallel_edge():
    k4 = Graph.complete(4)
    merged, _ = identify(k4, 0, 1)
    assert merged == Graph.complete(3)


def test_identify_matches_set_union_oracle():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 2)])
    for x, y in itertools.combinations(range(5), 2):
        merged, remap = identify(g, x, y)
        assert merged.n == 4
        expected = (set(g.neighbors(x)) | set(g.neighbors(y))) - {x, y}
        new = remap[x]
        assert remap[y] == new
        got = {v for v in range(5) if v not in (x, y) and merged.has_edge(new, remap[v])}
        assert got == expected
        # untouched adjacencies survive
        for u, v in itertools.combinations(set(range(5)) - {x, y}, 2):
            assert merged.has_edge(remap[u], remap[v]) == g.has_edge(u, v)


@given(graphs(min_n=2, max_n=6), st.data())
@settings(max_examples=60)
def test_identify_commutes_up_to_isomorphism(g, data):
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1).filter(lambda v: v != x))
    a, _ = identify(g, x, y)
    b, _ = identify(g, y, x)
    assert is_isomorphic(a, b)


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


@given(kernel_graphs(), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_has_clique_matches_brute_force(g, size):
    expected = any(
        all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
        for vs in itertools.combinations(range(g.n), size)
    )
    assert has_clique(g, size) == expected


@given(kernel_graphs(), st.integers(0, 6), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_cliques_of_size_matches_brute_force(g, size, cap):
    expected = [
        vs
        for vs in itertools.combinations(range(g.n), size)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
    ]
    assert cliques_of_size(g, size) == expected
    if size and len(expected) > cap:  # the empty clique is returned without a search
        with pytest.raises(SizeCapError):
            cliques_of_size(g, size, cap=cap)
    else:
        assert cliques_of_size(g, size, cap=cap) == expected


# -- cliques and embeddings ----------------------------------------------------


def test_cliques_of_size():
    k4 = Graph.complete(4)
    assert len(cliques_of_size(k4, 3)) == 4
    assert cliques_of_size(k4, 5) == []
    assert has_clique(k4, 4) and not has_clique(k4, 5)
    assert cliques_of_size(Graph.empty(3), 1) == [(0,), (1,), (2,)]
    with pytest.raises(SizeCapError):
        cliques_of_size(Graph.complete(10), 3, cap=5)
    for search in (has_clique, cliques_of_size):
        with pytest.raises(ValueError, match="nonnegative"):
            search(k4, -1)


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
            assert _graph_of_key(cf.key) == g.relabelled({v: n - 1 - p for p, v in enumerate(cf.labeling)})


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_canonical_classes_match_permutation_brute_force(n, expected):
    by_brute: dict[frozenset, set] = {}
    by_key: dict[tuple, set] = {}
    for i, g in enumerate(all_labeled_graphs(n)):
        by_brute.setdefault(brute_class_id(g), set()).add(i)
        by_key.setdefault(canonical_key(g), set()).add(i)
    assert len(by_brute) == expected
    # same partition of the labeled graphs, not merely the same class count
    assert set(map(frozenset, by_brute.values())) == set(map(frozenset, by_key.values()))
    assert len(graph_classes(n)) == expected


def test_isomorphism_returns_a_valid_bijection():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    h = g.relabelled([3, 5, 0, 2, 4, 1])
    phi = isomorphism(g, h)
    assert phi is not None and sorted(phi.values()) == list(range(6))
    for u in range(6):
        for v in range(u + 1, 6):
            assert g.has_edge(u, v) == h.has_edge(phi[u], phi[v])
    assert isomorphism(g, Graph.cycle(6)) is None
    assert not is_isomorphic(Graph.complete(3), Graph.empty(3))


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_key_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(g) == canonical_key(g.relabelled(perm))


# -- graph6 --------------------------------------------------------------------


@st.composite
def partitioned_graphs(draw):
    """A graph on at most 9 vertices and an ordered partition of its vertices
    into up to 4 cells, some possibly empty."""
    g = draw(graphs(max_n=9))
    count = draw(st.integers(1, 4))
    cell_of = draw(st.lists(st.integers(0, count - 1), min_size=g.n, max_size=g.n))
    return g, [[v for v in range(g.n) if cell_of[v] == i] for i in range(count)]


@given(partitioned_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_orbit_key_matches_networkx(gp, data):
    nx = pytest.importorskip("networkx")
    g, cells = gp
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabelled(perm)
    if data.draw(st.booleans()):
        other = [[perm[v] for v in cell] for cell in cells]  # the image: always isomorphic
    else:
        cell_of = data.draw(st.lists(st.integers(0, len(cells) - 1), min_size=g.n, max_size=g.n))
        other = [[v for v in range(g.n) if cell_of[v] == i] for i in range(len(cells))]

    def colored(graph, parts):
        out = nx.Graph()
        out.add_nodes_from((v, {"cell": i}) for i, part in enumerate(parts) for v in part)
        out.add_edges_from(graph.edges())
        return out

    expected = nx.is_isomorphic(
        colored(g, cells), colored(h, other), node_match=lambda a, b: a["cell"] == b["cell"]
    )
    assert (_orbit_key(g, cells) == _orbit_key(h, other)) == expected
    # the key starts with the cell sizes, empty cells included
    assert _orbit_key(g, cells)[0] == tuple(len(cell) for cell in cells)


def test_orbit_key_separates_edge_orientations():
    # P3 = 0-1-2: the ordered end pair (0, 1) maps to (2, 1), never to (1, 0)
    p3 = Graph.path(3)
    key = lambda x, y: _orbit_key(p3, [[x], [y], [v for v in range(3) if v not in (x, y)]])
    assert key(0, 1) == key(2, 1)
    assert key(0, 1) != key(1, 0)
    assert _orbit_key(p3, [[0, 1, 2]])[1] == canonical_form(p3).bits


def test_graph6_published_format_anchors():
    assert graph6_encode(Graph.complete(1)) == "@"
    star = graph6_decode("D?{")
    assert star == Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert graph6_encode(star) == "D?{"


def test_graph6_errors_carry_offsets():
    with pytest.raises(GraphFormatError) as exc:
        graph6_decode("")
    assert exc.value.offset == 0
    with pytest.raises(GraphFormatError):
        graph6_decode("D?")  # truncated adjacency bytes
    with pytest.raises(GraphFormatError):
        graph6_decode("D?{{")  # trailing data
    with pytest.raises(GraphFormatError):
        graph6_decode("D\x1f{")  # byte below 63
    with pytest.raises(GraphFormatError):
        graph6_decode("~~????")  # 8-byte count form
    with pytest.raises(GraphFormatError):
        graph6_decode("B~")  # n=3 leaves three padding bits, all set here
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
    for n in range(1, 7):
        for g in graph_classes(n):
            assert graph6_decode(graph6_encode(g)) == g


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


@given(graphs(max_n=40))
@settings(max_examples=100, deadline=None)
def test_graph6_roundtrip_random(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_to_dot_lists_every_vertex_and_edge():
    g = Graph.from_edges(3, [(0, 1)])
    dot = to_dot(g)
    assert dot.startswith("graph G {") and dot.endswith("}")
    assert "  2;" in dot and "  0 -- 1;" in dot

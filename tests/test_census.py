"""Exhaustive enumeration and the small criticality census.

Counts are cross-checked two independent ways: the class counts against the
cycle-index (Burnside) formula, and the census against a direct filter of
the full class list by the criticality test. The class lists are checked
line for line against the all-masks loop that labelled every child, the
bounded lists against the full list filtered by minimum degree and
colorability, and the orbit minima against a permutation brute force. The
census's bitwise sieve is also checked row for row against the per-mask
filter it replaced, and its colorable-mask table entry by entry against the
coloring solver, on parents and on parents less one edge, the two kinds of
graph the census builds tables of, the latter both walked on their own and
as the census builds them, from the parent's table and the partitions that
put the edge's ends in one class. Relabelling a parent or walking it in
another order must leave its tables as they are, up to the relabelling.
"""

import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import orelab.census
import orelab.coloring
import orelab.graphs
from orelab import (
    Corpus,
    Graph,
    SizeCapError,
    canonical_key,
    census_critical,
    cliques_of_size,
    corpus_from_graphs,
    first_coloring,
    graph6_encode,
    graph_classes,
    is_k_critical,
    random_graph,
)
from orelab.census import (
    _adjacency_order,
    _classes,
    _colorable_masks,
    _columns,
    _critical_on,
    _merged_masks,
    _orbit_minima,
    _parents,
    _survivors,
)
from orelab.graphs import _search, bits_of, components, mask_of
from sample_graphs import graphs, wheel5

CLASS_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]  # OEIS A000088; n = 0 stands for n = 1


def test_class_counts():
    # builds graph_classes(8): the census reads only the bounded levels
    for n in range(1, 9):
        assert len(graph_classes(n)) == CLASS_COUNTS[n]


def test_class_counts_match_burnside():
    for n in range(1, 7):
        assert len(graph_classes(n)) == oracles.burnside_count(n)


def test_classes_are_pairwise_nonisomorphic():
    classes = graph_classes(5)
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            assert canonical_key(a) != canonical_key(b)


def test_graph_classes_match_the_all_masks_loop():
    for n in range(1, 8):
        expected = [graph6_encode(g) for g in oracles.classes_by_all_masks(n)]
        assert [graph6_encode(g) for g in graph_classes(n)] == expected, n


def test_orbit_minima_match_brute_force():
    for n in range(6):
        for parent, generators in zip(*_classes(n, 0, n)):
            # the generators kept from the representative's own labelling
            assert list(map(list, generators)) == _search(parent)[1]
            autos = [
                perm
                for perm in permutations(range(n))
                if all(
                    parent.adj[perm[v]] == mask_of(perm[u] for u in bits_of(parent.adj[v]))
                    for v in range(n)
                )
            ]
            expected = [
                mask
                for mask in range(1 << n)
                if all(mask_of(perm[v] for v in bits_of(mask)) >= mask for perm in autos)
            ]
            assert _orbit_minima(parent, generators) == expected, graph6_encode(parent)


def test_graph_classes_label_one_child_per_orbit(calls_to):
    labelled = calls_to(orelab.census, "_search")
    counts = {}
    for n in (6, 7):
        labelled.clear()
        assert len(_classes.__wrapped__(n, 0, n)[0]) == CLASS_COUNTS[n]
        # no parent is searched again: its automorphisms come from its labelling
        assert sum(h.n == n - 1 for (h,) in labelled) == 0
        counts[n] = sum(h.n == n for (h,) in labelled)
    assert counts == {6: 544, 7: 5096}  # the all-masks loop labels 1,088 and 9,984
    # the census's top parent level at k = 4: minimum degree 2, 3-colorable
    labelled.clear()
    assert len(_classes.__wrapped__(7, 2, 3)[0]) == 270
    assert sum(h.n == 7 for (h,) in labelled) == 1332  # the full level labels 5,096


def _bounded_by_filter(n: int, d: int, t: int, oracle=None) -> list[str]:
    colorable = oracle or (lambda g, t: first_coloring(g.adj, t) is not None)
    return [graph6_encode(g) for g in graph_classes(n) if g.min_degree() >= d and colorable(g, t)]


def test_bounded_levels_are_the_filtered_full_levels():
    for n in range(8):
        for d in range(n + 2):
            for t in range(n + 1):
                got = [graph6_encode(g) for g in graph_classes(n, d, t)]
                assert got == _bounded_by_filter(n, d, t), (n, d, t)
                if n <= 5:
                    assert got == _bounded_by_filter(n, d, t, lambda g, t: oracles.colorings(g, t, limit=1)), (n, d, t)
    for d, t, count in ((2, 3, 3016), (3, 4, 2191)):
        got = [graph6_encode(g) for g in graph_classes(8, d, t)]
        assert len(got) == count
        assert got == _bounded_by_filter(8, d, t), (d, t)
    # bounds past n name the unbounded level
    assert graph_classes(5, 0, 9) is graph_classes(5)
    assert graph_classes(5, 7) == graph_classes(5, 6) == ()


@pytest.mark.parametrize("args", [(-1,), (True,), (0, -2), (0, 2.5), (0, False), ("2",)])
def test_graph_classes_rejects_bad_bounds(args):
    name = "min_degree" if len(args) == 1 else "colors"
    with pytest.raises(ValueError, match=name):
        graph_classes(4, *args)


def test_graph_classes_cap():
    assert len(graph_classes(4)) == 11
    with pytest.raises(SizeCapError):
        graph_classes(10)


def test_census_counts_are_frozen(census4_8, census5_8):
    by_n4: dict[int, int] = {}
    for g in census4_8.graphs:
        by_n4[g.n] = by_n4.get(g.n, 0) + 1
    assert by_n4 == {4: 1, 6: 1, 7: 2, 8: 5}
    by_n5: dict[int, int] = {}
    for g in census5_8.graphs:
        by_n5[g.n] = by_n5.get(g.n, 0) + 1
    assert by_n5 == {5: 1, 7: 1, 8: 2}
    for k, expected in ((3, {3: 1, 5: 1, 7: 1}), (6, {6: 1, 8: 1})):
        by_n: dict[int, int] = {}
        for g in census_critical(8, k).graphs:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == expected, k


def test_census_matches_definition_filter():
    for k in (3, 4):
        expected = [
            g
            for n in range(1, 7)
            for g in graph_classes(n)
            if is_k_critical(g, k)
        ]
        got = census_critical(6, k)
        assert len(got) == len(expected)
        for g in expected:
            assert canonical_key(g) in {canonical_key(h) for h in got.graphs}


def test_sieve_matches_the_per_mask_filter():
    for k in range(3, 7):
        for n in range(k, 9):
            parents = graph_classes(n - 1, k - 2, k - 1)
            assert _critical_on(parents, n, k) == oracles.critical_on_by_filter(n, k), (n, k)


def test_parent_levels_filtered_from_one_chain_are_the_bounded_levels():
    """The census reads each lower parent level off the chain below its
    top parent level: the same classes, representatives and order as the
    bounded level itself."""
    for k in range(3, 7):
        for top in range(k - 1, 9):
            for m in range(k - 1, top + 1):
                got = [graph6_encode(g) for g in _parents(m, top, k)]
                assert got == [graph6_encode(g) for g in graph_classes(m, k - 2, k - 1)], (k, top, m)


def table_of(g: Graph, k: int) -> int | None:
    """The colorable-mask table of g, walked in its max-adjacency order."""
    return _colorable_masks(g, k, _adjacency_order(g), _columns(g.n))


def test_survivor_table_matches_the_per_mask_conditions():
    """The whole-table sieve against the per-mask loop it replaced. Up to
    order 8 the other conditions leave no mask that misses a component;
    at k = 3 order 9 has one."""
    for k in range(3, 7):
        for n in range(k, 10 if k == 3 else 9):
            for parent in graph_classes(n - 1, k - 2, k - 1):
                table = table_of(parent, k)
                if table is None:
                    continue
                forced = mask_of(v for v in range(parent.n) if parent.degree(v) == k - 2)
                comps = components(parent.adj, parent.full_mask())
                cliques = [mask_of(c) for c in cliques_of_size(parent, k - 1)] if n > k else []
                expected = 0
                for mask in range(1 << parent.n):
                    if (
                        mask & forced == forced
                        and not table >> mask & 1
                        and all(mask & comp for comp in comps)
                        and not any(clique & mask == clique for clique in cliques)
                        and all(table >> (mask ^ (1 << u)) & 1 for u in bits_of(mask))
                    ):
                        expected |= 1 << mask
                assert _survivors(parent, n, k, table, _columns(parent.n)) == expected, (n, k, graph6_encode(parent))


@given(graphs(min_n=1, max_n=7), st.integers(3, 5))
@example(Graph.path(4), 4)  # None: 2-colorable
@example(Graph.complete(4), 4)  # 0: contains K_4
@example(wheel5(), 4)  # 0: W_5
@example(Graph.cycle(5), 4)
@settings(max_examples=200, deadline=None)
def test_colorable_mask_table_matches_the_solver(parent, k):
    """The table of the drawn parent and of the parent less each of its
    edges uv, each walked on its own, and the parent-edge tables as the
    census builds them: the parent's table joined with the walk of the
    partitions that put u and v in one class, or None."""
    edges = parent.edges()
    order, columns = _adjacency_order(parent), _columns(parent.n)
    table = _colorable_masks(parent, k, order, columns)
    assert table == oracles.solver_table(parent, k), graph6_encode(parent)
    if table is not None:
        assert (table == 0) == (first_coloring(parent.adj, k - 1) is None)
    for i, (u, v) in enumerate(edges):
        g = Graph.from_edges(parent.n, edges[:i] + edges[i + 1:])
        expected = oracles.solver_table(g, k)
        assert table_of(g, k) == expected, (graph6_encode(g), k)
        if table is not None:
            merged = _merged_masks(parent, k, order, columns, u, v)
            assert (merged is None) == (expected is None)
            assert merged is None or table | merged == expected, (graph6_encode(parent), u, v, k)


@given(graphs(min_n=1, max_n=7), st.integers(3, 5), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_relabelling_a_parent_permutes_its_tables(parent, k, rng):
    """The walk meets the same partitions in any vertex order, so a
    relabelled parent's tables are its tables with every mask relabelled,
    and a walk in any other order gives the same tables."""
    perm = rng.sample(range(parent.n), parent.n)
    image = Graph.from_edges(parent.n, [(perm[u], perm[v]) for u, v in parent.edges()])
    columns = _columns(parent.n)
    order, image_order, other = _adjacency_order(parent), _adjacency_order(image), rng.sample(range(parent.n), parent.n)

    def relabelled(table: int | None) -> int | None:
        return None if table is None else sum(1 << mask_of(perm[v] for v in bits_of(mask)) for mask in bits_of(table))

    table = _colorable_masks(parent, k, order, columns)
    assert _colorable_masks(image, k, image_order, columns) == relabelled(table)
    assert _colorable_masks(parent, k, other, columns) == table
    if table is None:
        return
    for u, v in parent.edges():
        merged = _merged_masks(parent, k, order, columns, u, v)
        assert _merged_masks(image, k, image_order, columns, perm[u], perm[v]) == relabelled(merged)
        assert _merged_masks(parent, k, other, columns, u, v) == merged


def test_sieve_bounds_the_criticality_tests(calls_to):
    assert len(census_critical(8, 4)) == 9  # grows the parent levels
    parents = [p for m in range(3, 8) for p in _parents(m, 7, 4)]
    census = orelab.census
    walked = calls_to(census, "_colorable_masks")
    merged = calls_to(census, "_merged_masks")
    # the top-level walks and their recursive calls
    nodes = calls_to(orelab.graphs, "_partitions", everywhere=True)
    assert len(census_critical(8, 4)) == 9
    # one walk per parent, and no graph built for a parent less an edge
    assert [id(args[0]) for args in walked] == [id(p) for p in parents] and len(parents) == 321
    assert all(id(args[0]) in {id(q) for q in parents} for args in merged)
    # the cut stops once no survivor is left: a walk for every edge of
    # every parent with a table would be 3,243 (the census makes 467), and
    # the per-mask filter made 7,917 criticality tests
    assert len(merged) == 467
    # the walks run in each parent's max-adjacency order and a merged walk
    # places the edge's ends as one item: 7,880 nodes in all, where walking
    # each parent, and each parent less the edge in full, in plain vertex
    # order took 27,640
    assert len(nodes) == 7880


def test_cold_census_labels_each_child_once_and_never_calls_the_solver(calls_to):
    searched = calls_to(orelab.census, "_search")
    # count every call, wherever a module of the package binds the name
    colorings = calls_to(orelab.coloring, "first_coloring", everywhere=True)
    _classes.cache_clear()
    assert len(census_critical(8, 4)) == 9
    # one search per labelled child, none on a parent for its generators
    # (searching the parents again made 2,168 searches of 1,987 graphs), and
    # one chain of bounded levels (a chain per parent level made 1,986)
    assert len(searched) == len({id(g) for (g,) in searched}) == 1766
    assert all(g.n for (g,) in searched)  # the 0-vertex parent is never searched
    assert _classes.cache_info().currsize == 8  # 16 with a chain per parent level
    assert colorings == []  # criticality is read off colorable-mask tables


def test_census_members_are_critical(census4_8):
    for g in census4_8.graphs:
        assert is_k_critical(g, 4)


def test_census_argument_errors():
    with pytest.raises(SizeCapError):
        census_critical(10, 4)
    with pytest.raises(ValueError):
        census_critical(5, 2)
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        census_critical(-1, 4)


def test_corpus_rejects_duplicate_rows():
    k4 = Graph.complete(4)
    with pytest.raises(ValueError, match="isomorphic duplicates"):
        Corpus((k4, k4.relabelled([1, 0, 2, 3])))


def test_corpus_from_graphs_dedupes_and_orders():
    path = Graph.path(4)
    corpus = corpus_from_graphs([path, Graph.complete(3), path.relabelled([1, 0, 2, 3])])
    assert len(corpus) == 2
    assert corpus.graphs[0].n == 3  # ordered by size, then canonical key
    assert corpus.graphs[1] is path  # first witness of a class wins


def test_random_graph_determinism_and_extremes():
    a = random_graph(random.Random(99), 12)
    b = random_graph(random.Random(99), 12)
    assert a == b and canonical_key(a) == canonical_key(b)
    assert random_graph(random.Random(0), 0) == Graph.empty(0)
    assert random_graph(random.Random(0), 1) == Graph.empty(1)
    # edge probability 1/2: 780 pairs, mean 390, standard deviation about 14
    assert 320 < random_graph(random.Random(0), 40).edge_count() < 460

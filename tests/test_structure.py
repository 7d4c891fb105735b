"""Structural primitives: clusters, near-cliques, reductions, extensions,
and the counting helpers.

Extension records are replayed against brute-force recounts here; the
production code's own assertions are not trusted as tests.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import orelab.coloring
import orelab.suites
from orelab import (
    Graph,
    PotentialParams,
    SizeCapError,
    bits_of,
    build_extension,
    canonical_key,
    cliques_of_size,
    clusters,
    color_reduce,
    complete_graph_T,
    complete_potential,
    compute_T,
    edge_between,
    find_diamonds_emeralds,
    first_coloring,
    graph_classes,
    mask_of,
    mic,
    minimum_colorings,
    ore_catalog,
    random_graph,
    random_ore_tree,
    realize,
    rho,
    rho_subset,
)
from report_columns import extensions_with_colorings, phi
from sample_graphs import fused_k4, wheel5


def planted_diamond() -> Graph:
    # K_4 minus 01 with interior {2,3} pinned at degree 3; 4 lifts the
    # endpoint degrees so only the interior is low
    return Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])


# -- clusters -----------------------------------------------------------------


def test_clusters_on_complete_graph():
    cs = clusters(Graph.complete(4), 4)
    assert len(cs) == 1 and frozenset(bits_of(cs[0])) == frozenset(range(4))


def test_clusters_on_cycle():
    cs = clusters(Graph.cycle(5), 3)
    assert len(cs) == 5 and all(c.bit_count() == 1 for c in cs)


def test_clusters_match_pairwise_oracle():
    g = fused_k4()
    low = [v for v in range(g.n) if g.degree(v) == 3]
    expected = set()
    for v in low:
        members = frozenset(
            u for u in low if g.closed_mask(u) == g.closed_mask(v)
        )
        expected.add(members)
    assert {frozenset(bits_of(c)) for c in clusters(g, 4)} == expected


# -- diamonds and emeralds ------------------------------------------------------


def check_near_clique(g: Graph, k: int, nc: frozenset[int]) -> None:
    """The kind follows from the size (an emerald has k-1 vertices, a
    diamond k), and a diamond's endpoints are its one non-edge."""
    vs = sorted(nc)
    assert len(vs) in (k - 1, k)
    if len(vs) == k - 1:
        assert g.is_clique(mask_of(vs))
        assert all(g.degree(v) == k - 1 for v in vs)
    else:
        ((u, v),) = [(a, b) for a, b in itertools.combinations(vs, 2) if not g.has_edge(a, b)]
        assert not g.has_edge(u, v)
        interior = nc - {u, v}
        assert len(nc) == k and all(g.degree(w) == k - 1 for w in interior)
        for a, b in itertools.combinations(vs, 2):
            assert g.has_edge(a, b) or {a, b} == {u, v}


def avoiding(found, forbidden) -> list:
    """The near-cliques of ``found``, vertex masks, that miss ``forbidden``,
    as vertex sets."""
    return [frozenset(bits_of(nc)) for nc in found if not nc & mask_of(forbidden)]


def test_emeralds_of_complete_graph():
    k4 = Graph.complete(4)
    everything = find_diamonds_emeralds(k4, 4)
    for v in range(4):
        found = avoiding(everything, [v])
        assert found  # the emerald K_4 - v survives
        for nc in found:
            check_near_clique(k4, 4, nc)
            assert v not in nc


def test_wheel_has_no_diamonds_or_emeralds():
    assert find_diamonds_emeralds(wheel5(), 4) == []


def test_planted_diamond_found():
    g = planted_diamond()
    found = find_diamonds_emeralds(g, 4)
    assert mask_of({0, 1, 2, 3}) in found
    # a diamond, with endpoints (0, 1): the 4-set's one non-edge
    assert [(a, b) for a, b in itertools.combinations(range(4), 2) if not g.has_edge(a, b)] == [(0, 1)]


def test_avoidance_on_small_ore_graphs():
    # away from any one vertex; away from any K_{k-1} when G is not K_k
    for k in (4, 5):
        for tree in ore_catalog(k, 1):
            g = realize(tree)
            everything = find_diamonds_emeralds(g, k)
            for v in range(g.n):
                found = avoiding(everything, [v])
                assert found
                for nc in found:
                    check_near_clique(g, k, nc)
                    assert v not in nc
            if g.n == k:
                continue
            for q in itertools.combinations(range(g.n), k - 1):
                if not g.is_clique(mask_of(q)):
                    continue
                found = avoiding(everything, q)
                assert found
                for nc in found:
                    assert not (nc & set(q))


def test_one_clique_pass_matches_the_two_searches(census4_8, census5_8):
    """The near-clique list from one pass over the low (k-2)-cliques is the
    list the two clique searches, (k-1)-cliques for emeralds and
    (k-2)-cliques for diamond interiors, give: here with no vertex set
    avoided, over the catalogs and censuses at k = 4..6, every class with at
    most 6 vertices at k = 3..5, seeded composed graphs up to k = 33, and
    200 seeded random graphs at k = 4..6, where most have a (k-2)-clique
    with both low and high vertices, which the search inside the low
    vertices never meets."""
    checks = [(realize(tree), k) for k in (4, 5, 6) for tree in ore_catalog(k, 2)]
    checks += [(g, k) for k, census in ((4, census4_8), (5, census5_8)) for g in census.graphs]
    checks += [(g, k) for k in (3, 4, 5) for n in range(7) for g in graph_classes(n)]
    rng = random.Random("one clique pass")
    checks += [(realize(random_ore_tree(k, rng.randrange(1, 4), rng)), k) for k in (7, 10, 20, 33)]
    checks += [(random_graph(rng, rng.randrange(4, 13)), 4 + i % 3) for i in range(200)]
    kinds = set()
    for g, k in checks:
        found = find_diamonds_emeralds(g, k)
        assert [frozenset(bits_of(m)) for m in found] == oracles.near_cliques_avoiding(g, k, ()), (k, g)
        kinds.update((k, s.bit_count() == k) for s in found)
    # diamonds (k vertices) and emeralds (k - 1) both occur at every small k
    assert {(k, diamond) for k in (3, 4, 5, 6) for diamond in (True, False)} <= kinds


@pytest.mark.parametrize("k", [4, 5, 6])
def test_filtered_list_matches_the_forbidden_search(k):
    for tree in ore_catalog(k, 2):
        g = realize(tree)
        everything = find_diamonds_emeralds(g, k)
        assert [frozenset(bits_of(m)) for m in everything] == oracles.near_cliques_avoiding(g, k, ())
        sets = [(v,) for v in range(g.n)] + ([tuple(bits_of(m)) for m in cliques_of_size(g, k - 1)] if g.n > k else [])
        for forbidden in sets:
            assert avoiding(everything, forbidden) == oracles.near_cliques_avoiding(g, k, forbidden)
        # the suite's rows count the same near-cliques as the oracle
        rows = [dict(row.values) for row in orelab.suites._diamond_emerald(tree, {"k": k})]
        assert {row["forbidden"]: row["witnesses"] for row in rows} == {
            "+".join(map(str, f)): str(len(oracles.near_cliques_avoiding(g, k, f))) for f in sets
        }


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_filtered_list_matches_on_random_vertex_sets(data):
    k = data.draw(st.sampled_from([4, 5, 6]), label="k")
    if data.draw(st.booleans(), label="composed"):
        steps = data.draw(st.integers(0, 3), label="steps")
        g = realize(random_ore_tree(k, steps, random.Random(data.draw(st.integers(0, 10 ** 6)))))
    else:
        g = random_graph(random.Random(data.draw(st.integers(0, 10 ** 6))), data.draw(st.integers(1, 12)))
    forbidden = data.draw(st.sets(st.integers(0, g.n - 1)), label="forbidden")
    everything = find_diamonds_emeralds(g, k)
    assert avoiding(everything, forbidden) == oracles.near_cliques_avoiding(g, k, forbidden)


# -- color reduction ---------------------------------------------------------------


def outside_ids(g: Graph, classes) -> dict[int, int]:
    """Where color_reduce puts the vertices outside R: 0..n_out-1 in
    increasing original id."""
    r = {v for cls in classes for v in bits_of(cls)}
    return {old: new for new, old in enumerate(v for v in range(g.n) if v not in r)}


def class_vertices(g: Graph, classes) -> range:
    n_out = len(outside_ids(g, classes))
    return range(n_out, n_out + len(classes))


def test_reduce_clique_with_injective_coloring_is_identity():
    k4 = Graph.complete(4)
    classes = (0b001, 0b010, 0b100)
    red = color_reduce(k4, classes)
    assert canonical_key(red) == canonical_key(k4)
    assert outside_ids(k4, classes) == {3: 0}
    # class vertices are pairwise adjacent
    for a, b in itertools.combinations(class_vertices(k4, classes), 2):
        assert red.has_edge(a, b)


def test_reduce_independent_pair():
    g = Graph.from_edges(4, [(0, 2), (1, 3), (2, 3)])
    classes = (0b11,)
    red = color_reduce(g, classes)
    assert red.n == 3
    (x,) = class_vertices(g, classes)
    merged_nbrs = {outside_ids(g, classes)[2], outside_ids(g, classes)[3]}
    assert set(bits_of(red.adj[x])) == merged_nbrs


def test_reduce_rejects_bad_colorings():
    g = Graph.path(3)
    bad = [
        ((0b1, 0b1000), "^vertex mask 0x8 has ids outside 0..2$"),
        ((0b1, -0b10), "^vertex mask -0x2 has ids outside 0..2$"),  # refused before any bit is read
        ((0b1, -1), "^vertex mask -0x1 has ids outside 0..2$"),
        ((0b1, 0), "nonempty and pairwise disjoint"),
        ((0b1, 0b10, 0b1), "nonempty and pairwise disjoint"),
        ((0b101, 0b110), "nonempty and pairwise disjoint"),
        ((0b11,), "not independent"),  # improper on the edge
        ((0b1, 0b100), "minimum is 1"),  # 1 color suffices
        ((0b1, 0b10, 0b100), "minimum is 2"),
    ]
    for classes, message in bad:
        with pytest.raises(ValueError, match=message):
            color_reduce(g, classes)


def test_reduce_checks_a_minimum_coloring_without_chromatic_number(monkeypatch):
    # one (c-1)-colorability question settles a coloring with c classes;
    # chi(G[R]) is computed only to word a rejection
    g = wheel5()
    colorings = [classes for r in map(mask_of, itertools.combinations(range(g.n), 3)) for classes in minimum_colorings(g, r, 4)]
    calls = count_calls(monkeypatch, "chromatic_number", lambda h: h)
    for classes in colorings:
        color_reduce(g, classes)
    assert colorings and calls == []


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_reduction_matches_the_edge_list_oracle(census4_8, data):
    g = data.draw(
        st.sampled_from(census4_8.graphs)
        | st.builds(lambda seed, n: random_graph(random.Random(seed), n), st.integers(0, 2**32 - 1), st.integers(1, 9))
    )
    r = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    for classes in minimum_colorings(g, mask_of(r), g.n + 1, limit=3):
        assert {v for cls in classes for v in bits_of(cls)} == r
        assert color_reduce(g, classes) == oracles.color_reduce_by_edges(g, classes)


def test_reduced_census_graphs_stay_uncolorable(census4_8):
    # sampled (G, R, phi): the quotient of a critical graph keeps chi >= k
    rng = random.Random(41)
    samples = 0
    graphs = [g for g in census4_8.graphs if g.n <= 8]
    while samples < 50:
        g = rng.choice(graphs)
        size = rng.randrange(2, 5)
        r = rng.sample(range(g.n), size)
        classes = next(iter(minimum_colorings(g, mask_of(r), 4)), None)
        if classes is None:
            continue
        red = color_reduce(g, classes)
        assert first_coloring(red.adj, 3) is None
        samples += 1


# -- critical extensions -----------------------------------------------------------


def replay_incompleteness(g: Graph, rec) -> int:
    r_edges = g.induced(rec.r_set).edge_count()
    rp_edges = g.induced(rec.r_prime).edge_count()
    w_edges = rec.w_subgraph.edge_count()
    x = rec.core.bit_count()
    return rp_edges - (r_edges + w_edges - x * (x - 1) // 2)


def test_extension_on_complete_graph_is_complete_and_spanning():
    k4 = Graph.complete(4)
    (rec,) = build_extension(k4, 4, [(0b1,)])
    assert rec.core.bit_count() == 1 and rec.incompleteness == 0
    assert frozenset(bits_of(rec.r_prime)) == frozenset(range(4))  # spanning


def test_extension_records_replay(census4_8):
    p = PotentialParams.for_k(4)
    rng = random.Random(17)
    checked = 0
    for g in census4_8.graphs:
        if g.n > 7:
            continue
        for _ in range(12):
            r = rng.sample(range(g.n), rng.randrange(2, 4))
            for rec in build_extension(g, 4, minimum_colorings(g, mask_of(r), 4, limit=2), limit=4):
                checked += 1
                r_prime = frozenset(bits_of(rec.r_prime))
                assert frozenset(bits_of(rec.r_set)) == frozenset(r)
                assert rec.incompleteness == replay_incompleteness(g, rec) >= 0
                assert rec.core.bit_count() >= 1
                assert frozenset(r) <= r_prime
                assert r_prime <= frozenset(range(g.n))
                # potential drop under extension
                x = rec.core.bit_count()
                w = rec.w_subgraph
                w_graph = w.induced(mask_of(v for v in range(w.n) if w.adj[v]))
                lhs = rho_subset(g, rec.r_prime, 4)
                rhs = (
                    rho_subset(g, mask_of(r), 4)
                    + rho(w_graph, 4, compute_T(w_graph, 4).value)
                    - (complete_potential(x, 4) + p.delta * complete_graph_T(x, 4) - p.delta * x)
                )
                assert lhs <= rhs
    assert checked >= 40


def count_calls(monkeypatch, attr: str, record) -> list:
    """Calls of ``orelab.coloring.<attr>``, wherever a module of the
    package binds the name; ``record`` maps a call's arguments to the entry
    kept for it."""
    real = getattr(orelab.coloring, attr)
    calls = []

    def counting(*args):
        calls.append(record(*args))
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("orelab") and getattr(module, attr, None) is real:
            monkeypatch.setattr(module, attr, counting)
    return calls


def test_build_extension_colors_the_reduction_once(monkeypatch):
    calls = count_calls(monkeypatch, "first_coloring", lambda adj, t: (tuple(adj), t))
    g, classes = wheel5(), (0b101,)
    reduced = tuple(color_reduce(g, classes).adj)
    assert list(build_extension(g, 4, [classes]))
    assert calls.count((reduced, 3)) == 1


def test_build_extension_checks_the_host_once_over_many_colorings(monkeypatch):
    hosts = count_calls(monkeypatch, "is_k_critical", lambda g, k: (g, k))
    g = wheel5()
    colorings = (classes for r in map(mask_of, itertools.combinations(range(g.n), 3)) for classes in minimum_colorings(g, r, 4))
    records = build_extension(g, 4, colorings, limit=2)
    assert hosts == []  # nothing runs before the first record is asked for
    records = list(records)
    assert hosts == [(g, 4)]
    assert len({rec.r_set for rec in records}) == 20
    # the same records as one call per coloring
    one_by_one = [
        rec
        for r in map(mask_of, itertools.combinations(range(g.n), 3))
        for classes in minimum_colorings(g, r, 4)
        for rec in build_extension(g, 4, [classes], limit=2)
    ]
    assert records == one_by_one


def test_extension_phi_numbers_the_classes_from_one():
    g = wheel5()
    ((rec, classes),) = extensions_with_colorings(g, 4, [(0b101, 0b10)], limit=1)
    assert phi(classes) == ((0, 1), (1, 2), (2, 1))
    assert set(bits_of(rec.r_set)) == {0, 1, 2} and set(bits_of(rec.core)) <= {3, 4}


def test_extension_requires_critical_host():
    with pytest.raises(ValueError, match="^extensions are built over a k-critical host$"):
        list(build_extension(Graph.cycle(6), 4, []))


def test_extension_requires_a_nonempty_proper_subset():
    g = wheel5()
    for classes in [(), (0b101, 0b1010, 0b10000, 0b100000)]:
        with pytest.raises(ValueError, match="nonempty proper subset"):
            list(build_extension(g, 4, [classes]))


# -- mic and edge counts ---------------------------------------------------------------


def test_mic_anchors():
    value, witness = mic(Graph.complete(4))
    assert value == 3 and witness.bit_count() == 1
    assert mic(Graph.cycle(5))[0] == 4
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    value, witness = mic(star)
    assert value == 4
    assert Graph.empty(3).is_independent(witness) or star.is_independent(witness)


def test_mic_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9))
        best = 0
        for size in range(1, g.n + 1):
            for combo in itertools.combinations(range(g.n), size):
                if g.is_independent(mask_of(combo)):
                    best = max(best, sum(g.degree(v) for v in combo))
        value, witness = mic(g)
        assert value == best
        assert g.is_independent(witness)
        assert sum(g.degree(v) for v in bits_of(witness)) == value


def test_mic_cap():
    with pytest.raises(SizeCapError):
        mic(Graph.empty(41))


def test_kierstead_rabern_inequality_on_census(census4_8, census5_8):
    for corpus, k in ((census4_8, 4), (census5_8, 5)):
        for g in corpus.graphs:
            assert 2 * g.edge_count() > (k - 2) * g.n + mic(g)[0]


def test_boundary_and_edge_between():
    k4 = Graph.complete(4)
    assert edge_between(k4, 0b1, 0b110) == 2
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 9))
        vs = list(range(g.n))
        rng.shuffle(vs)
        cut = rng.randrange(1, g.n)
        a, b = mask_of(vs[:cut]), mask_of(vs[cut:])
        assert edge_between(g, a, b) == edge_between(g, b, a)
        # overlapping sets count each edge with one end in each set once
        a = set(rng.sample(range(g.n), rng.randrange(g.n + 1)))
        b = set(rng.sample(range(g.n), rng.randrange(g.n + 1)))
        direct = oracles.edge_between(g, a, b)
        assert edge_between(g, mask_of(a), mask_of(b)) == edge_between(g, mask_of(b), mask_of(a)) == direct


@pytest.mark.parametrize("a, b", [(-1, 1), (1, -2), (1 << 4, 1), (1, 1 << 4)])
def test_edge_between_rejects_masks_outside_the_graph(a, b):
    with pytest.raises(ValueError, match=r"^vertex mask -?0x[0-9a-f]+ has ids outside 0\.\.3$"):
        edge_between(Graph.complete(4), a, b)

"""Coloring solver checks against the oracles of ``tests/oracles.py``.

``colorings`` tries every map V -> {0..t-1} directly, so it shares no code
with the solver's propagation or symmetry breaking. ``backtrack_coloring``
is plain saturation-first backtracking on each component, with no
reduction, which reaches the graphs too large to enumerate. The criticality
test, which asks one colorability question per edge orbit, is checked
against the per-edge loop ``is_k_critical``.
"""

import inspect
import itertools
import math
import random
import sys
import time

import oracles
import pytest
from hypothesis import assume, given, settings, strategies as st

from orelab import coloring, graphs, suites
from orelab import (
    Graph,
    SizeCapError,
    census_critical,
    chromatic_number,
    edge_count_lemma_check,
    edge_between,
    find_critical_subgraphs,
    first_coloring,
    graph6_encode,
    graph_classes,
    is_k_critical,
    ore_compose,
    random_graph,
    random_ore_tree,
    realize,
)
from orelab.graphs import bits_of, mask_of
from orelab.structure import color_reduce, minimum_colorings
from sample_graphs import fused_k4, petersen, wheel5


# -- first_coloring against plain backtracking ------------------------------------


def is_proper_coloring(g: Graph, classes, t: int) -> bool:
    """``classes`` are t vertex masks that partition g's vertices into
    independent sets (a class may be empty)."""
    members = sorted(v for cls in classes for v in bits_of(cls))
    return (
        len(classes) == t
        and members == list(range(g.n))
        and all(g.is_independent(cls) for cls in classes)
    )


def agrees_with_oracle(g: Graph, t: int) -> bool:
    """first_coloring finds a coloring iff the oracle does, and what it
    returns is a proper coloring of g with t color classes."""
    classes = first_coloring(g.adj, t)
    if classes is not None:
        assert is_proper_coloring(g, classes, t)
    return (classes is None) == (oracles.backtrack_coloring(g.adj, t) is None)


def small_and_random_checks() -> list[tuple[Graph, int]]:
    """Every class with 1..7 vertices and 2,000 seeded random graphs on
    2..14 vertices, each at t = 1..5."""
    rng = random.Random("first_coloring")
    corpus = [g for n in range(1, 8) for g in graph_classes(n)]
    corpus += [random_graph(rng, rng.randint(2, 14)) for _ in range(2000)]
    return [(g, t) for g in corpus for t in range(1, 6)]


def without_an_edge(g: Graph, rng: random.Random) -> Graph:
    cut = rng.choice(g.edges())
    return Graph.from_edges(g.n, [e for e in g.edges() if e != cut])


def composed_checks() -> list[tuple[Graph, int]]:
    """Seeded composed graphs with k = 4, 5, 6 and 1..3 steps, each whole
    and with one edge deleted, at t = k - 1."""
    rng = random.Random("composed")
    out = []
    for k in (4, 5, 6):
        for _ in range(8):
            g = realize(random_ore_tree(k, rng.randrange(1, 4), rng))
            out += [(g, k - 1), (without_an_edge(g, rng), k - 1)]
    return out


def dirac_join(k: int) -> Graph:
    """K_(k-3) joined to C5 (Dirac 1952), k-critical on k + 2 vertices: the
    cycle is 0..4 and the clique 5..k+1."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    return Graph.from_edges(k + 2, cycle + [(u, v) for u in range(5, k + 2) for v in range(u)])


def dirac_chain(k: int, steps: int, rng: random.Random) -> Graph:
    """``steps`` Ore compositions of dirac_join(k) onto a growing chain, each
    at a random edge of the chain and a random split of a random vertex."""
    g = dirac_join(k)
    for _ in range(steps):
        d = dirac_join(k)
        z = rng.randrange(d.n)
        nbrs = list(bits_of(d.adj[z]))
        rng.shuffle(nbrs)
        cut = rng.randrange(1, len(nbrs))
        g = ore_compose(g, rng.choice(g.edges()), d, z, (mask_of(nbrs[:cut]), mask_of(nbrs[cut:])))
    return g


def dirac_checks() -> list[tuple[Graph, int]]:
    """Dirac chains with k = 4, 5 and 0..3 steps and with k = 6 and 0..2
    steps (the oracle takes seconds on some at 3), each whole and with one
    edge deleted, at t = k - 1."""
    rng = random.Random("dirac")
    out = []
    for k in (4, 5, 6):
        for steps in range(4 if k < 6 else 3):
            for _ in range(3):
                g = dirac_chain(k, steps, rng)
                out += [(g, k - 1), (without_an_edge(g, rng), k - 1)]
    return out


def dense_checks() -> list[tuple[Graph, int]]:
    """Seeded random graphs on 8..16 vertices with edge density 1/2 and 3/4,
    at t = 3..6 and 4..8: near their chromatic numbers, where cores keep
    pairs with many common neighbors."""
    rng = random.Random("dense")
    out = []
    for _ in range(150):
        n = rng.randint(8, 16)
        half = random_graph(rng, n)
        out += [(half, t) for t in range(3, 7)]
        dense = Graph.from_edges(n, half.edges() + random_graph(rng, n).edges())
        out += [(dense, t) for t in range(4, 9)]
    return out


def branches_taken(checks) -> int:
    """How many of the checks take at least one Zykov branch."""
    real = coloring._zykov_pair
    fired = False

    def watched(rows, live):
        nonlocal fired
        pair = real(rows, live)
        fired = fired or pair is not None
        return pair

    taken = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_zykov_pair", watched)
        for g, t in checks:
            fired = False
            first_coloring(g.adj, t)
            taken += fired
    return taken


def mutate(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace ``name`` in the coloring module by a copy of its source with
    ``old`` turned into ``new``; its recursive calls reach the copy."""
    source = inspect.getsource(getattr(coloring, name))
    assert old in source
    namespace = dict(vars(coloring))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(coloring, name, namespace[name])


def survives(checks) -> bool:
    """Whether a mutant agrees with the oracle on every check; a coloring
    that ``_checked`` refuses counts as a disagreement."""
    try:
        return all(agrees_with_oracle(g, t) for g, t in checks)
    except AssertionError:
        return False


def test_first_coloring_matches_plain_backtracking():
    checks = small_and_random_checks()
    assert len(checks) == 16260
    for g, t in checks:
        assert agrees_with_oracle(g, t), (g, t)


def test_first_coloring_matches_plain_backtracking_on_composed_graphs():
    checks = composed_checks()
    for g, t in checks:
        assert agrees_with_oracle(g, t), (g, t)
    # the whole graphs are refuted and every one with a deleted edge colored
    assert [first_coloring(g.adj, t) is None for g, t in checks] == [True, False] * (len(checks) // 2)


def test_first_coloring_matches_plain_backtracking_on_dirac_chains():
    checks = dirac_checks()
    for g, t in checks:
        assert agrees_with_oracle(g, t), (g, t)
    assert [first_coloring(g.adj, t) is None for g, t in checks] == [True, False] * (len(checks) // 2)
    assert branches_taken(checks) > len(checks) // 10


def test_first_coloring_matches_plain_backtracking_where_the_branch_fires():
    checks = dense_checks()
    for g, t in checks:
        assert agrees_with_oracle(g, t), (g, t)
    assert branches_taken(checks) > len(checks) // 10


def test_each_branch_step_ends_at_the_full_reductions_fixpoint(monkeypatch):
    # _settle scans only from the vertices it is given, every vertex at the
    # root and the changed ones on a branch side; a full peel and
    # forced-merge pass afterwards must find nothing left to do
    real = coloring._settle
    roots = sides = 0

    def checked(rows, members, live, t, peeled, changed):
        nonlocal roots, sides
        root = len(changed) == len(rows)
        roots += root
        out = real(rows, members, live, t, peeled, changed)
        if out is not None:
            sides += not root
            again_rows, again_members, again_peeled = list(rows), list(members), list(peeled)
            assert oracles.full_reduction(again_rows, again_members, out, t, again_peeled) == out
            assert (again_rows, again_members, again_peeled) == (rows, members, peeled)
        return out

    monkeypatch.setattr(coloring, "_settle", checked)
    checks = composed_checks() + dirac_checks() + dense_checks()
    for g, t in checks:
        first_coloring(g.adj, t)
    assert roots == len(checks)
    assert sides > 200


def test_a_branch_without_its_edge_side_fails_the_differential(monkeypatch):
    # a mutant that answers "no coloring" once the merge side fails
    mutate(monkeypatch, "_branch", "rows[x] |= 1 << y\n        rows[y] |= 1 << x\n", "return None\n")
    assert not survives(dirac_checks() + dense_checks())


def test_a_branch_on_an_adjacent_pair_fails_the_differential(monkeypatch):
    # merging adjacent vertices is unsound, and adding their edge changes
    # nothing, so the mutant may also loop: a bound on its pair choices stops it
    mutate(monkeypatch, "_zykov_pair", "live & ~rows[x] &", "live & rows[x] &")
    mutant = coloring._zykov_pair
    choices = 0

    def bounded(rows, live):
        nonlocal choices
        choices += 1
        assert choices < 100_000, "the mutant loops"
        return mutant(rows, live)

    monkeypatch.setattr(coloring, "_zykov_pair", bounded)
    assert not survives(dirac_checks() + dense_checks())


def test_first_coloring_matches_plain_backtracking_on_random_graphs_of_order_28():
    # the branch fires near the chromatic number here; branching alone
    # answers the 30 questions in about 0.05 s on a 2-core host, as fast as
    # the saturation-first backtracking it replaced
    start = time.process_time()
    for s in range(6):
        g = random_graph(random.Random(s), 28)
        for t in range(4, 9):
            assert agrees_with_oracle(g, t), (s, t)
    print(f"30 questions on G(28, 1/2) and their oracle answers: {time.process_time() - start:.2f} s")


def test_an_unforced_merge_fails_the_differential(monkeypatch):
    # a mutant that merges every gated pair, clique or not
    real = graphs._cliques
    checks = small_and_random_checks()
    for t in (3, 4, 5):
        monkeypatch.setattr(
            coloring, "_cliques", lambda adj, within, size, visit: size < t or real(adj, within, size, visit)
        )
        assert not all(agrees_with_oracle(g, t) for g, s in checks if s == t), t


def test_first_coloring_returns_t_classes_covering_every_vertex():
    for g in [Graph.empty(0), Graph.empty(3), Graph.path(4), Graph.cycle(5), petersen(), wheel5()]:
        for t in range(chromatic_number(g), chromatic_number(g) + 3):
            assert is_proper_coloring(g, first_coloring(g.adj, t), t), (g, t)
    # more colors than vertices leave classes empty
    assert sorted(first_coloring(Graph.empty(2).adj, 4)) == [0, 0, 0, 0b11]
    assert first_coloring(Graph.empty(0).adj, 3) == [0, 0, 0]
    assert first_coloring(Graph.empty(0).adj, 0) == []
    assert first_coloring(Graph.empty(1).adj, 0) is None


@pytest.mark.parametrize(
    "classes",
    [[0b101, 0b001, 0b010], [0b011, 0b100], [0b101, 0], [0b101, 0b1010], [0b101, -0b110]],
    ids=["overlapping", "not-independent", "uncovered", "outside", "negative"],
)
def test_checked_refuses_classes_that_are_not_a_coloring(classes):
    # a coloring of the path 0-1-2 passes, an empty class included
    assert coloring._checked(Graph.path(3).adj, [0b101, 0b010, 0]) == [0b101, 0b010, 0]
    with pytest.raises(AssertionError):
        coloring._checked(Graph.path(3).adj, classes)


def test_first_coloring_never_returns_an_unchecked_coloring(monkeypatch):
    # a mutant that peels vertices of degree t as well cannot lift K_3 to a
    # 2-coloring, and says so instead of returning one
    real = coloring._peel
    monkeypatch.setattr(coloring, "_peel", lambda rows, live, t, peeled: real(rows, live, t + 1, peeled))
    with pytest.raises(AssertionError):
        first_coloring(Graph.complete(3).adj, 2)


@pytest.mark.parametrize("k", [8, 10])
def test_reductions_leave_no_backtracking_on_composed_trees(calls_to, k):
    # a Zykov pair is chosen once per branch, never where the reductions
    # alone settle a question
    g = realize(random_ore_tree(k, 3, random.Random(3)))
    calls = calls_to(coloring, "_zykov_pair")
    assert first_coloring(g.adj, k - 1) is None
    assert is_k_critical(g, k)
    assert calls == []


def test_branching_refutes_seeded_k5_trees_in_few_choices(calls_to):
    # peeling and forced merges alone left cores on 11 of these 160, which
    # the backtracking that branching replaced then had to refute
    trees = [realize(random_ore_tree(5, s, random.Random(seed))) for s in range(1, 5) for seed in range(40)]
    calls = calls_to(coloring, "_zykov_pair")
    assert all(first_coloring(g.adj, 4) is None for g in trees)
    assert len(calls) <= len(trees) // 8


def test_criticality_of_a_dirac_chain_at_k_10(calls_to):
    # backtracking on the cores did not finish in 30 s; with branching the
    # 182 colorability questions take a few hundred branch nodes
    g = dirac_chain(10, 2, random.Random(0))
    assert g.n == 34
    nodes = calls_to(coloring, "_branch")
    assert is_k_critical(g, 10) is True
    assert len(nodes) <= 2 * (g.edge_count() + 1)


def test_a_dense_bipartite_core_rescans_only_where_merges_change_it(calls_to):
    # K_(m,m) at t = 3: no pair is forced and every merge side succeeds,
    # so m - 2 merges nest. The root tests each vertex's neighbors once, and
    # after each merge only the changed vertex's neighbors are tested; they
    # hold no edge, so no pair is ever tested, where every same-side pair
    # would take C(m, 2) tests at each level.
    tests = calls_to(coloring, "_cliques")
    for m in (40, 100):
        g = Graph.from_edges(2 * m, [(a, m + b) for a in range(m) for b in range(m)])
        tests.clear()
        assert is_proper_coloring(g, first_coloring(g.adj, 3), 3)
        assert len(tests) <= 3 * g.n, m


def test_deep_branching_stays_under_the_default_recursion_limit(monkeypatch):
    # 42 disjoint K_{3,3} at t = 3: no pair is forced, every same-side pair
    # has 3 common neighbors, and each merge side succeeds, so the merges
    # nest one level per copy
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    g = Graph.from_edges(252, [(u + 6 * j, v + 6 * j) for j in range(42) for u, v in k33])
    real = coloring._branch
    depth = deepest = 0

    def counted(*args):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return real(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(coloring, "_branch", counted)
    assert sys.getrecursionlimit() == 1000
    assert is_proper_coloring(g, first_coloring(g.adj, 3), 3)
    assert deepest == 43


def test_criticality_at_the_papers_k():
    g = realize(random_ore_tree(33, 1, random.Random(1)))
    assert g.n == 65
    assert is_k_critical(g, 33) is True


# -- colorings / chromatic_number ----------------------------------------------


def partitions(g: Graph, vertices, t: int) -> list[tuple[int, ...]]:
    """Every partition of ``vertices`` into at most t independent classes of
    g, in the order the kernel's partition walk meets them."""
    found = []
    graphs._partitions([(1 << v, g.adj[v]) for v in vertices], t, lambda classes: found.append(tuple(classes)), [], 0)
    return found


def check_coloring(g: Graph, t: int) -> None:
    """For g with chromatic number t: first_coloring finds a proper
    t-coloring, and the partitions into at most t classes are the colorings
    up to color permutation, each once."""
    classes = first_coloring(g.adj, t)
    assert classes is not None and is_proper_coloring(g, classes, t)
    parts = partitions(g, range(g.n), t)
    for part in parts:
        assert is_proper_coloring(g, part, t) and all(part)
    assert len(set(parts)) == len(parts) == oracles.colorings(g, t) // math.factorial(t)


def test_colorable_odd_cycle():
    c5 = Graph.cycle(5)
    assert first_coloring(c5.adj, 2) is None
    assert partitions(c5, range(5), 2) == []
    check_coloring(c5, 3)


def test_colorable_petersen():
    p = petersen()
    assert first_coloring(p.adj, 2) is None
    check_coloring(p, 3)


def test_chromatic_anchors():
    assert chromatic_number(Graph.complete(6)) == 6
    assert chromatic_number(Graph.cycle(5)) == 3
    assert chromatic_number(Graph.empty(0)) == 0
    assert chromatic_number(Graph.empty(5)) == 1
    fused = fused_k4()
    assert chromatic_number(fused) == 4


def test_chromatic_matches_assignment_oracle_on_all_small_classes():
    for n in range(1, 6):
        for g in graph_classes(n):
            assert chromatic_number(g) == oracles.chromatic_number(g)


@given(st.integers(3, 9))
def test_cycles(n):
    assert chromatic_number(Graph.cycle(n)) == (2 if n % 2 == 0 else 3)


# -- criticality -----------------------------------------------------------------


def test_is_k_critical_anchors():
    k4 = Graph.complete(4)
    assert is_k_critical(k4, 4)
    assert not is_k_critical(Graph.from_edges(4, k4.edges()[1:]), 4)  # K_4 minus 01
    assert not is_k_critical(k4, 3)
    assert is_k_critical(Graph.cycle(7), 3)
    assert not is_k_critical(Graph.cycle(6), 3)
    assert is_k_critical(wheel5(), 4)
    fused = fused_k4()
    assert is_k_critical(fused, 4)
    assert is_k_critical(Graph.empty(0), 4) is False  # minimum degree 0 < k - 1


def test_is_k_critical_matches_definition_on_small_classes():
    # definition: chi = k and every proper subgraph is (k-1)-colorable;
    # single edge and single vertex deletions cover all maximal proper subgraphs
    for n in range(1, 6):
        for g in graph_classes(n):
            chi = oracles.chromatic_number(g)
            for k in (3, 4):
                expected = (
                    chi == k
                    and all(
                        oracles.chromatic_number(Graph.from_edges(g.n, [e for e in g.edges() if e != (u, v)])) <= k - 1
                        for u, v in g.edges()
                    )
                    and all(
                        oracles.chromatic_number(g.induced(g.full_mask() ^ 1 << v)) <= k - 1
                        for v in range(g.n)
                    )
                )
                assert is_k_critical(g, k) == expected


def edge_orbit_inputs() -> list[tuple[Graph, int]]:
    """Criticality questions for the edge-orbit test: the census at
    k = 4, 5, 6, every class on up to 6 vertices at k = 3..5 (among them
    graphs whose edges differ in criticality, where skipping an edge can
    change the verdict), 1-step seeded trees with k <= 8 and Dirac chains
    with k <= 6."""
    out = [(g, k) for k in (4, 5, 6) for g in census_critical(8, k).graphs]
    out += [(g, k) for n in range(1, 7) for g in graph_classes(n) for k in (3, 4, 5)]
    out += [(realize(random_ore_tree(k, 1, random.Random(seed))), k) for k in range(3, 9) for seed in range(3)]
    out += [(dirac_chain(k, steps, random.Random(steps)), k) for k in (4, 5, 6) for steps in (1, 2)]
    return out


def test_edge_orbits_give_the_per_edge_verdict():
    for g, k in edge_orbit_inputs():
        assert is_k_critical(g, k) == oracles.is_k_critical(g, k), (graph6_encode(g), k)


def test_a_map_that_is_not_an_automorphism_fails_the_comparison(monkeypatch):
    """K_4 less the edge 23 at k = 3: only its first edge, 01, is critical.
    The map [0, 2, 1, 1] sends edges to edges but is no automorphism. As
    one more generator it sends 01 onto 02, which the automorphisms (swap
    0 and 1, swap 2 and 3) send onto every other edge, so only 01 is asked
    and the verdict turns; the per-edge oracle must catch that. (A
    permutation that is no automorphism sends some edge onto a non-edge,
    which has no index.)"""
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_k_critical(diamond, 3) is oracles.is_k_critical(diamond, 3) is False
    search = coloring._search

    def with_a_fold(g):
        form, generators = search(g)
        return form, generators + [[0, 2, 1, 1]]

    monkeypatch.setattr(coloring, "_search", with_a_fold)
    assert is_k_critical(diamond, 3) != oracles.is_k_critical(diamond, 3)


def test_criticality_asks_one_question_per_edge_orbit(calls_to):
    g = realize(random_ore_tree(10, 3, random.Random(3)))
    asked = calls_to(coloring, "_uncolorable_without")
    assert is_k_critical(g, 10)
    # one question per edge was 177
    assert g.edge_count() == 177 and len(asked) == 35


def test_critical_graphs_are_vertex_critical_and_well_connected(census4_8):
    for g in census4_8.graphs:
        if g.n > 7:
            continue
        assert g.min_degree() >= 3
        for v in range(g.n):
            h = g.induced(g.full_mask() ^ 1 << v)
            assert first_coloring(h.adj, 3) is not None
        # every proper nonempty subset sends at least k-1 edges outside
        for size in range(1, g.n):
            for subset in itertools.combinations(range(g.n), size):
                mask = mask_of(subset)
                assert edge_between(g, mask, g.full_mask() & ~mask) >= 3


def vertices_of(w: Graph) -> int:
    """The vertex mask of a subgraph kept on its host's ids: the non-isolated ones."""
    return mask_of(v for v in range(w.n) if w.adj[v])


def test_find_critical_subgraphs():
    w5 = wheel5()
    subs = find_critical_subgraphs(w5, 4)
    assert len(subs) == 1 and vertices_of(subs[0]) == w5.full_mask()
    pendant = Graph.from_edges(5, Graph.complete(4).edges() + [(0, 4)])
    subs = find_critical_subgraphs(pendant, 4)
    assert len(subs) == 1
    sub_graph = subs[0].induced(vertices_of(subs[0]))
    assert is_k_critical(sub_graph, 4)
    assert vertices_of(subs[0]) == 0b1111
    for u, v in subs[0].edges():
        assert pendant.has_edge(u, v)
    # 3-colorable hosts hold no 4-critical subgraph; asking is a caller bug
    with pytest.raises(ValueError):
        find_critical_subgraphs(Graph.cycle(5), 4)


def test_find_critical_subgraphs_enumerates_several():
    # two vertex-disjoint K_4s: both come back within the limit
    edges = list(Graph.complete(4).edges())
    edges += [(u + 4, v + 4) for u, v in Graph.complete(4).edges()]
    twin = Graph.from_edges(8, edges)
    subs = find_critical_subgraphs(twin, 4, limit=6)
    assert {vertices_of(s) for s in subs} >= {0x0F, 0xF0}


# -- witness reuse in find_critical_subgraphs -----------------------------------------
# The oracle is ``oracles.critical_subgraphs``, the search without witness stores.


def extension_reductions(graphs, k: int) -> list[Graph]:
    """Every color reduction the extension suite builds on ``graphs``."""
    return [
        color_reduce(g, classes)
        for g in graphs
        for size in suites.ANCHOR_SIZES
        if size < g.n
        for r in map(mask_of, itertools.combinations(range(g.n), size))
        for classes in minimum_colorings(g, r, k, limit=suites.COLORINGS_PER_SUBSET)
    ]


@pytest.fixture(scope="module")
def census_reductions(census4_8, census5_8):
    return {
        k: extension_reductions([g for g in census.graphs if g.n <= 7], k)
        for k, census in ((4, census4_8), (5, census5_8))
    }


def searches_of(search, g: Graph, k: int, limit: int) -> tuple[list[Graph], int]:
    """The search's result and how many colorings it asked the solver for."""
    real = coloring.first_coloring
    calls = 0

    def counting(adj, t):
        nonlocal calls
        calls += 1
        return real(adj, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "first_coloring", counting)
        if search.__module__ == coloring.__name__ and search.__globals__ is not vars(coloring):
            # a mutant made by mutate() reads the solver from its own
            # namespace (patching the module's twice would undo wrongly)
            mp.setitem(search.__globals__, "first_coloring", counting)
        result = search(g, k, limit)
    return result, calls


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_critical_subgraphs_match_the_search_without_witnesses(census4_8, census5_8, census_reductions, data):
    kind = data.draw(st.sampled_from(["reduction", "census+edges", "random"]))
    if kind == "reduction":
        k = data.draw(st.sampled_from([4, 5]))
        g = data.draw(st.sampled_from(census_reductions[k]))
    elif kind == "census+edges":
        k, census = data.draw(st.sampled_from([(4, census4_8), (5, census5_8)]))
        base = data.draw(st.sampled_from([g for g in census.graphs if g.n > k]))
        missing = [(u, v) for u, v in itertools.combinations(range(base.n), 2) if not base.has_edge(u, v)]
        extra = data.draw(st.lists(st.sampled_from(missing), min_size=1, max_size=2, unique=True))
        g = Graph.from_edges(base.n, base.edges() + extra)
    else:
        g = random_graph(random.Random(data.draw(st.integers(0, 2**32 - 1))), data.draw(st.integers(1, 9)))
        chi = chromatic_number(g)
        assume(chi >= 3)
        k = data.draw(st.integers(3, chi))
    limit = data.draw(st.integers(1, 6))
    new, new_calls = searches_of(find_critical_subgraphs, g, k, limit)
    old, old_calls = searches_of(oracles.critical_subgraphs, g, k, limit)
    assert new == old
    assert new_calls <= old_calls


def reduction_checks(census_reductions, k: int) -> list[tuple[Graph, int, int]]:
    """(g, k, limit) for every census reduction at k and limit 1..6."""
    return [(g, k, limit) for g in census_reductions[k] for limit in range(1, 7)]


def dirac_core_checks() -> list[tuple[Graph, int, int]]:
    """(g, k, 6) for the Dirac chains that are not (k-1)-colorable, each as
    it is and with one edge added between non-neighbours, which the pass
    deletes, so the core is peeled again."""
    rng = random.Random("core")
    checks = []
    for g, t in dirac_checks():
        if first_coloring(g.adj, t) is None:
            missing = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if not g.has_edge(u, v)]
            checks += [(g, t + 1, 6), (Graph.from_edges(g.n, g.edges() + [rng.choice(missing)]), t + 1, 6)]
    return checks


def matches_the_search_without_witnesses(checks) -> bool:
    search = coloring.find_critical_subgraphs  # a mutant patched in is read
    return all(search(g, k, limit) == oracles.critical_subgraphs(g, k, limit) for g, k, limit in checks)


def test_core_deletions_match_the_search_without_witnesses(census_reductions, monkeypatch):
    """An edge off the (k-1)-core is deleted without a question, and the
    subgraphs found are still those of the search that asks every question;
    on the k = 4 reductions that takes fewer questions than asking, and
    fewer than the witnesses alone. A mutant that skips the question for
    edges of the (k-1)-core too, by peeling to the k-core, fails."""
    fours = reduction_checks(census_reductions, 4)
    others = reduction_checks(census_reductions, 5) + dirac_core_checks()
    with_rule = 0
    for g, k, limit in fours:
        found, calls = searches_of(find_critical_subgraphs, g, k, limit)
        expected, asked = searches_of(oracles.critical_subgraphs, g, k, limit)
        assert found == expected and calls < asked, (g, limit)
        with_rule += calls
    assert matches_the_search_without_witnesses(others)
    mutate(monkeypatch, "find_critical_subgraphs", "if core & (1 << u | 1 << v) != 1 << u | 1 << v:", "if False:")
    assert with_rule < sum(searches_of(coloring.find_critical_subgraphs, g, k, limit)[1] for g, k, limit in fours)
    monkeypatch.undo()
    mutate(monkeypatch, "find_critical_subgraphs", ", t, [])", ", t + 1, [])")
    assert not matches_the_search_without_witnesses(fours + others)


def test_skipped_starts_lose_no_subgraph(census4_8, census5_8):
    # with no limit the oracle minimalizes from g and from every g - e that
    # is still not (k-1)-colorable, so each start skipped must give W0 back
    for k, census in ((4, census4_8), (5, census5_8), (6, census_critical(8, 6))):
        for g in extension_reductions(list(census.graphs), k):
            every = g.edge_count() + 1
            assert find_critical_subgraphs(g, k, every) == oracles.critical_subgraphs(g, k, every), (k, g)


def test_critical_subgraphs_meet_the_definition_on_every_census_reduction(census_reductions):
    # checked against the definition, not against another minimalization
    critical: dict[Graph, bool] = {}
    for k, reductions in census_reductions.items():
        for g in reductions:
            for limit in range(1, 7):
                subs = find_critical_subgraphs(g, k, limit)
                assert 1 <= len(subs) <= limit and len(set(subs)) == len(subs)
                for w in subs:
                    assert all(not w.adj[v] & ~g.adj[v] for v in range(g.n)), "an edge outside the host"
                    assert w.n == g.n, "W is not on the host's ids"
                    inner = w.induced(vertices_of(w))
                    if inner not in critical:
                        critical[inner] = is_k_critical(inner, k)
                    assert critical[inner], (g, limit, w)


# -- color partitions ------------------------------------------------------------


def test_color_partitions_independent_and_clique():
    assert len(partitions(Graph.empty(3), [0, 1, 2], 3)) == 5
    assert len(partitions(Graph.empty(3), [0, 1, 2], 2)) == 4
    assert len(partitions(Graph.complete(3), [0, 1, 2], 3)) == 1
    assert partitions(Graph.complete(3), [0, 1, 2], 2) == []
    for part in partitions(Graph.cycle(4), [0, 1, 2, 3], 3):
        assert is_proper_coloring(Graph.cycle(4), part, len(part)) and all(part)
    # the classes of a vertex subset open in the order of their least member
    assert partitions(Graph.path(4), [1, 2, 3], 2) == [(0b1010, 0b0100)]
    assert list(minimum_colorings(Graph.path(4), 0b1110, 3)) == [(0b1010, 0b0100)]
    # the walk stops at the first partition its visitor accepts and leaves
    # the class list as it was given
    classes = []
    assert graphs._partitions([(1, 0), (2, 0)], 2, lambda live: len(live) == 2, classes, 0) and classes == []
    # minimum colorings read the same walk: limit None keeps every one, a
    # limit its first ones, 0 none, and a negative limit is refused
    c5 = Graph.cycle(5)
    every = list(minimum_colorings(c5, c5.full_mask(), 4))
    assert every == partitions(c5, range(5), 3) and len(every) == 5
    assert list(minimum_colorings(c5, c5.full_mask(), 4, limit=2)) == every[:2]
    assert list(minimum_colorings(c5, c5.full_mask(), 4, limit=0)) == []
    with pytest.raises(ValueError):
        list(minimum_colorings(c5, c5.full_mask(), 4, limit=-1))


# -- low-vertex edge-count lemma --------------------------------------------------


def test_edge_count_lemma_on_k4():
    report = edge_count_lemma_check(Graph.complete(4), 4)
    assert report.ok and report.violations == ()
    assert report.subsets_checked == 4  # singletons only; K_4 has no larger independent set
    assert report.b0 == report.b1 == 0


def test_edge_count_lemma_on_composition():
    fused = fused_k4()
    assert edge_count_lemma_check(fused, 4).ok


def test_edge_count_lemma_reads_the_degree_classes_and_every_low_set(census4_8, census5_8):
    hosts = [(g, 4) for g in census4_8.graphs] + [(g, 5) for g in census5_8.graphs]
    hosts.append((realize(random_ore_tree(5, 2, random.Random(1))), 5))
    for g, k in hosts:
        report = edge_count_lemma_check(g, k)
        b0, b1, sets = oracles.edge_count_scan(g, k)
        assert (report.b0, report.b1, report.subsets_checked) == (b0, b1, len(sets)), (g, k)
        # below every count each set breaks the bound, and comes back as a
        # vertex mask in scan order
        low = [(v, (g.adj[v] & (b0 | b1)).bit_count()) for v in range(g.n) if g.degree(v) == k - 1]
        violations = []
        coloring._scan(g.adj, low, -g.n * g.n, 0, 0, 0, violations)
        assert violations == [(a, e, a.bit_count() - g.n * g.n) for a, e in sets]


def test_edge_count_lemma_rejects_non_critical_hosts():
    with pytest.raises(ValueError):
        edge_count_lemma_check(Graph.cycle(6), 4)
    # the one-step tree at k = 33 is 33-critical with 63 degree-32 vertices
    with pytest.raises(SizeCapError):
        edge_count_lemma_check(realize(random_ore_tree(33, 1, random.Random(1))), 33)

"""Clique-packing value T against an exhaustive oracle.

The branch-and-bound solver must agree with compute_T_bruteforce everywhere;
the bowtie case pins down why "drop K_{k-2}s inside used K_{k-1}s" style
shortcuts were rejected: the best packing can take a triangle from one bowtie
lobe and only an edge from the other. old_compute_T keeps the search as it
was before the vertex-weight bound; a sharper bound may only cut more
subtrees, so the solver must still return the very same witness. It also
lists its candidates with two clique searches, one per order, so it checks
the solver's one-pass listing as well.
"""

import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import orelab.packing
from orelab import (
    Graph,
    PackingWitness,
    SizeCapError,
    census_critical,
    check_witness,
    cliques_of_size,
    complete_graph_T,
    compute_T,
    compute_T_bruteforce,
    graph6_decode,
    graph6_encode,
    graph_classes,
    mask_of,
    ore_compose,
    random_graph,
    random_ore_tree,
    realize,
)


def bowtie() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def old_compute_T(g: Graph, k: int) -> PackingWitness:
    """compute_T as it was before the vertex-weight bound: the same candidates,
    order and include/exclude search, pruned by min(2a + b, 2*free/(k-1))."""
    big = cliques_of_size(g, k - 1)
    small = cliques_of_size(g, k - 2)
    if not small:
        return PackingWitness((), 0)
    cand = sorted([(2, cl) for cl in big] + [(1, cl) for cl in small], key=lambda wc: (-wc[0], wc[1]))
    weights = [w for w, _ in cand]
    masks = [mask_of(cl) for _, cl in cand]
    best = [-1, ()]

    def dfs(indices, used, value, chosen):
        if value > best[0]:
            best[:] = [value, tuple(chosen)]
        if not indices:
            return
        a = sum(1 for i in indices if weights[i] == 2)
        free = g.n - used.bit_count()
        if value + min(2 * a + len(indices) - a, (2 * free) // (k - 1)) <= best[0]:
            return
        head, rest = indices[0], indices[1:]
        dfs([i for i in rest if not masks[i] & masks[head]], used | masks[head],
            value + weights[head], chosen + [head])
        dfs(rest, used, value, chosen)

    dfs(list(range(len(cand))), 0, 0, [])
    return PackingWitness(tuple(cand[i][1] for i in best[1]), best[0])


def move_one_edge(g: Graph, rng: random.Random) -> Graph:
    edges = g.edges()
    drop = rng.choice(edges)
    add = rng.choice([p for p in combinations(range(g.n), 2) if not g.has_edge(*p)])
    return Graph.from_edges(g.n, [e for e in edges if e != drop] + [add])


def test_complete_graph_anchors():
    assert compute_T(Graph.complete(4), 4).value == 2
    assert compute_T(Graph.complete(5), 5).value == 2
    assert compute_T(Graph.complete(3), 4).value == 2  # K_{k-1}: r=1
    assert compute_T(Graph.complete(2), 4).value == 1  # K_{k-2}: s=1
    assert compute_T(Graph.empty(6), 4).value == 0
    for k in range(4, 8):
        for order in range(1, k + 1):
            g = Graph.complete(order)
            assert compute_T(g, k).value == complete_graph_T(order, k)


def test_k_minus_2_free_means_zero():
    assert compute_T(Graph.cycle(5), 5).value == 0  # triangle-free, k-2 = 3
    assert compute_T(Graph.empty(4), 4).value == 0
    padded = Graph.from_edges(5, [(0, 1)])  # one K_2 plus isolated vertices, k=4
    assert compute_T(padded, 4).value == 1


def test_bowtie_needs_mixed_packing():
    g = bowtie()
    w = compute_T(g, 4)
    assert w.value == 3 == compute_T_bruteforce(g, 4)
    orders = sorted(len(c) for c in w.cliques)
    assert orders == [2, 3]


def test_witness_structure_and_independent_check(census4_8):
    for g in census4_8.graphs:
        w = compute_T(g, 4)
        check_witness(g, 4, w)
        assert w.value == 2 * sum(len(c) == 3 for c in w.cliques) + sum(
            len(c) == 2 for c in w.cliques
        )


def test_check_witness_rejects_tampering():
    k4 = Graph.complete(4)
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness(((0, 1, 2), (2, 3)), 3))  # overlap
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness(((0, 1, 2, 3),), 2))  # wrong order
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness(((0, 1, 2),), 1))  # wrong value
    c4 = Graph.cycle(4)
    with pytest.raises(ValueError):
        check_witness(c4, 4, PackingWitness(((0, 1, 2),), 2))  # not a clique


def test_matches_bruteforce_on_all_small_classes():
    for n in range(1, 7):
        for g in graph_classes(n):
            for k in (4, 5):
                witness = compute_T(g, k)
                assert witness == old_compute_T(g, k)
                assert witness.value == compute_T_bruteforce(g, k)


def test_matches_bruteforce_on_seeded_random_graphs():
    rng = random.Random(1405)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 11))
        assert compute_T(g, 4).value == compute_T_bruteforce(g, 4)


def test_deletion_monotonicity():
    rng = random.Random(52)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 9))
        t = compute_T(g, 4).value
        v = rng.randrange(g.n)
        assert compute_T(g.induced(u for u in range(g.n) if u != v)[0], 4).value >= t - 2
        if g.edge_count():
            u, w = rng.choice(g.edges())
            assert compute_T(Graph.from_edges(g.n, [e for e in g.edges() if e != (u, w)]), 4).value >= t - 2


def test_one_step_composition_at_k20():
    # n = 39 and 59 candidate cliques; a packed unit of weight costs at least
    # (k - 1) / 2 vertices, so 4 (two disjoint K_19) is the most there can be
    k20 = Graph.complete(20)
    g = ore_compose(k20, (0, 1), k20, 0, (tuple(range(1, 10)), tuple(range(10, 20))))
    assert g.n == 39
    witness = compute_T(g, 20)
    check_witness(g, 20, witness)
    assert witness.value == 4 and len(witness.cliques) == 2


def test_one_step_composition_at_k33():
    # the paper's regime starts at k = 33, where one step already has 65 vertices
    k33 = Graph.complete(33)
    g = ore_compose(k33, (0, 1), k33, 0, (tuple(range(1, 17)), tuple(range(17, 33))))
    assert g.n == 65
    witness = compute_T(g, 33)
    check_witness(g, 33, witness)
    assert witness.value == 4
    assert cliques_of_size(g, 32) and not cliques_of_size(g, 33)
    assert graph6_decode(graph6_encode(g)) == g


def test_witness_matches_the_old_bound_on_composed_graphs():
    # the bound only decides which subtrees are cut, never the order of the
    # search, so the first optimum found (the witness) must not change
    rng = random.Random(909)
    for k, max_steps in ((4, 6), (5, 4)):
        for steps in range(1, max_steps + 1):
            for _ in range(4):
                g = realize(random_ore_tree(k, steps, rng), k)
                perm = list(range(g.n))
                rng.shuffle(perm)
                for h in (g, g.relabelled(perm), move_one_edge(g, rng)):
                    assert compute_T(h, k) == old_compute_T(h, k)


@st.composite
def small_graphs(draw, max_n=11):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@given(small_graphs(), st.integers(4, 6))
@settings(max_examples=150, deadline=None)
def test_matches_bruteforce_on_hypothesis_graphs(g, k):
    witness = compute_T(g, k)
    check_witness(g, k, witness)
    assert witness.value == compute_T_bruteforce(g, k)


def test_caps(monkeypatch):
    monkeypatch.setattr(orelab.packing, "CLIQUE_CAP", 10)
    with pytest.raises(SizeCapError):
        compute_T(Graph.complete(12), 4)
    # K_4 at k = 4 has 6 edges and 4 triangles: exactly the cap passes
    assert compute_T(Graph.complete(4), 4).value == 2
    monkeypatch.setattr(orelab.packing, "CLIQUE_CAP", 9)
    # neither order alone exceeds 9, the two together do
    with pytest.raises(SizeCapError, match="requested 10 exceeds cap 9"):
        compute_T(Graph.complete(4), 4)
    # K_{3,4} has 12 edges and no triangle: the (k-2)-cliques alone exceed 9
    k34 = Graph.from_edges(7, [(a, b) for a in range(3) for b in range(3, 7)])
    assert not cliques_of_size(k34, 3)
    with pytest.raises(SizeCapError, match="requested 10 exceeds cap 9"):
        compute_T(k34, 4)
    with pytest.raises(SizeCapError):
        compute_T_bruteforce(Graph.empty(13), 4)


def k33_one_step() -> Graph:
    k33 = Graph.complete(33)
    return ore_compose(k33, (0, 1), k33, 0, (tuple(range(1, 17)), tuple(range(17, 33))))


@lru_cache(maxsize=None)
def listing_inputs() -> tuple[tuple[Graph, int], ...]:
    """(graph, k): every class with n <= 7 at k = 4, 5, 6; the order-8
    census at its k = 4, 5, 6; seeded composed graphs with 1 to 4 steps at
    k = 4, 5, 6, each with a near miss; the k = 33 one-step graph."""
    rng = random.Random(27)
    out = [(g, k) for n in range(1, 8) for g in graph_classes(n) for k in (4, 5, 6)]
    out += [(g, k) for k in (4, 5, 6) for g in census_critical(8, k).graphs]
    for k in (4, 5, 6):
        for steps in range(1, 5):
            for _ in range(3):
                g = realize(random_ore_tree(k, steps, rng), k)
                out += [(g, k), (move_one_edge(g, rng), k)]
    out.append((k33_one_step(), 33))
    return tuple(out)


def test_one_pass_listing_on_every_structured_input():
    for g, k in listing_inputs():
        assert compute_T(g, k) == old_compute_T(g, k)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_one_pass_listing_ignores_vertex_labels(data):
    # a relabelling changes the listing order and so may change the witness,
    # never the agreement with the two-pass listing
    g, k = data.draw(st.sampled_from(listing_inputs()))
    h = g.relabelled(data.draw(st.permutations(range(g.n))))
    assert compute_T(h, k) == old_compute_T(h, k)


def test_witness_matches_the_tuple_oracle():
    """The mask search keeps the tuple search's order, so value and
    cliques agree: on every class with n <= 7 at k = 4, 5, 6, on seeded
    random graphs with n <= 12, and on seeded composed graphs at k = 4..8
    and 33."""
    rng = random.Random("packing oracle")
    inputs = [(g, k) for n in range(1, 8) for g in graph_classes(n) for k in (4, 5, 6)]
    inputs += [(random_graph(rng, rng.randint(1, 12)), rng.randint(4, 6)) for _ in range(300)]
    for k, max_steps in ((4, 6), (5, 4), (6, 3), (7, 2), (8, 2), (33, 1)):
        for steps in range(1, max_steps + 1):
            for _ in range(2):
                g = realize(random_ore_tree(k, steps, rng), k)
                inputs += [(g, k), (move_one_edge(g, rng), k)]
    for g, k in inputs:
        assert compute_T(g, k) == oracles.compute_T(g, k), (g, k)

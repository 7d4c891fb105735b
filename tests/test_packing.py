"""Clique-packing value T against an exhaustive oracle.

The branch-and-bound solver must agree with compute_T_bruteforce everywhere;
the bowtie case pins down why "drop K_{k-2}s inside used K_{k-1}s" style
shortcuts were rejected: the best packing can take a triangle from one bowtie
lobe and only an edge from the other. ``tests/oracles.compute_T`` keeps the
older include/exclude search with a weaker bound; a sharper bound may only cut
more subtrees, so the solver must still return the very same witness. It
also lists its candidates with two clique searches, one per order, so it
checks the solver's one-pass listing as well.
"""

import random
from functools import lru_cache

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
from sample_graphs import graphs, moved_edge


def bowtie() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


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
    orders = sorted(c.bit_count() for c in w.cliques)
    assert orders == [2, 3]


def test_witness_structure_and_independent_check(census4_8):
    for g in census4_8.graphs:
        w = compute_T(g, 4)
        check_witness(g, 4, w)
        assert w.value == 2 * sum(c.bit_count() == 3 for c in w.cliques) + sum(
            c.bit_count() == 2 for c in w.cliques
        )


def test_check_witness_rejects_tampering():
    k4 = Graph.complete(4)
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness((mask_of((0, 1, 2)), mask_of((2, 3))), 3))  # overlap
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness((mask_of((0, 1, 2, 3)),), 2))  # wrong order
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness((mask_of((0, 1, 2)),), 1))  # wrong value
    c4 = Graph.cycle(4)
    with pytest.raises(ValueError):
        check_witness(c4, 4, PackingWitness((mask_of((0, 1, 2)),), 2))  # not a clique
    # masks from outside are range-checked before any bits_of, which never
    # ends on a negative int
    with pytest.raises(ValueError, match="ids outside"):
        check_witness(k4, 4, PackingWitness((-7,), 2))  # negative
    with pytest.raises(ValueError, match="ids outside"):
        check_witness(k4, 4, PackingWitness((mask_of((2, 3, 4)),), 2))  # out of range


def test_matches_bruteforce_on_all_small_classes():
    for n in range(1, 7):
        for g in graph_classes(n):
            for k in (4, 5):
                assert compute_T(g, k).value == compute_T_bruteforce(g, k)


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
        assert compute_T(g.induced(g.full_mask() ^ 1 << v), 4).value >= t - 2
        if g.edge_count():
            u, w = rng.choice(g.edges())
            assert compute_T(Graph.from_edges(g.n, [e for e in g.edges() if e != (u, w)]), 4).value >= t - 2


def test_one_step_composition_at_k20():
    # n = 39 and 59 candidate cliques; a packed unit of weight costs at least
    # (k - 1) / 2 vertices, so 4 (two disjoint K_19) is the most there can be
    k20 = Graph.complete(20)
    g = ore_compose(k20, (0, 1), k20, 0, (mask_of(range(1, 10)), mask_of(range(10, 20))))
    assert g.n == 39
    witness = compute_T(g, 20)
    check_witness(g, 20, witness)
    assert witness.value == 4 and len(witness.cliques) == 2


def test_one_step_composition_at_k33():
    # the paper's regime starts at k = 33, where one step already has 65 vertices
    g = k33_one_step()
    assert g.n == 65
    witness = compute_T(g, 33)
    check_witness(g, 33, witness)
    assert witness.value == 4
    assert cliques_of_size(g, 32) and not cliques_of_size(g, 33)
    assert graph6_decode(graph6_encode(g)) == g


@given(graphs(min_n=1, max_n=11), st.integers(4, 6))
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
    return ore_compose(k33, (0, 1), k33, 0, (mask_of(range(1, 17)), mask_of(range(17, 33))))


@lru_cache(maxsize=None)
def tuple_oracle_inputs() -> dict[str, tuple[tuple[Graph, int], ...]]:
    """(graph, k) in three seeded draws: "drawn" (classes n <= 7, random
    graphs n <= 12, composed graphs at k = 4..8 and 33 with near misses),
    "structured" (the order-8 census at k = 4..6, composed graphs with near
    misses, the k = 33 one-step graph), "relabelled" (composed, k = 4, 5)."""
    rng = random.Random("packing oracle")
    drawn = [(g, k) for n in range(1, 8) for g in graph_classes(n) for k in (4, 5, 6)]
    drawn += [(random_graph(rng, rng.randint(1, 12)), rng.randint(4, 6)) for _ in range(300)]
    for k, max_steps in ((4, 6), (5, 4), (6, 3), (7, 2), (8, 2), (33, 1)):
        for steps in range(1, max_steps + 1):
            for _ in range(2):
                g = realize(random_ore_tree(k, steps, rng), k)
                drawn += [(g, k), (moved_edge(g, rng), k)]
    structured = [(g, k) for k in (4, 5, 6) for g in census_critical(8, k).graphs]
    rng = random.Random(27)
    for k in (4, 5, 6):
        for steps in range(1, 5):
            for _ in range(3):
                g = realize(random_ore_tree(k, steps, rng), k)
                structured += [(g, k), (moved_edge(g, rng), k)]
    structured.append((k33_one_step(), 33))
    rng = random.Random(909)
    relabelled = []
    for k, max_steps in ((4, 6), (5, 4)):
        for steps in range(1, max_steps + 1):
            for _ in range(4):
                g = realize(random_ore_tree(k, steps, rng), k)
                perm = list(range(g.n))
                rng.shuffle(perm)
                relabelled += [(g, k), (g.relabelled(perm), k), (moved_edge(g, rng), k)]
    return {"drawn": tuple(drawn), "structured": tuple(structured), "relabelled": tuple(relabelled)}


def test_witness_matches_the_tuple_oracle():
    # the mask search keeps the tuple search's order: value and cliques agree
    for g, k in tuple_oracle_inputs()["drawn"]:
        assert compute_T(g, k) == oracles.compute_T(g, k), (g, k)


def test_one_pass_listing_on_every_structured_input():
    for g, k in tuple_oracle_inputs()["structured"]:
        assert compute_T(g, k) == oracles.compute_T(g, k), (g, k)


def test_witness_matches_the_old_bound_on_composed_graphs():
    # the tuple copy's cover bound cuts other subtrees, never the first optimum
    for g, k in tuple_oracle_inputs()["relabelled"]:
        assert compute_T(g, k) == oracles.compute_T(g, k), (g, k)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_one_pass_listing_ignores_vertex_labels(data):
    # a relabelling changes the listing order and so may change the witness,
    # never the agreement with the two-pass listing
    g, k = data.draw(st.sampled_from(sum(tuple_oracle_inputs().values(), ())))
    h = g.relabelled(data.draw(st.permutations(range(g.n))))
    assert compute_T(h, k) == oracles.compute_T(h, k)

"""Clique-packing value T against an exhaustive oracle.

The branch-and-bound solver must agree with compute_T_bruteforce everywhere;
the bowtie case pins down why "drop K_{k-2}s inside used K_{k-1}s" style
shortcuts were rejected: the best packing can take a triangle from one bowtie
lobe and only an edge from the other.
"""

import random

import pytest

from orelab import (
    Graph,
    PackingWitness,
    SizeCapError,
    check_witness,
    complete_graph_T,
    compute_T,
    compute_T_bruteforce,
    graph6_decode,
    graph6_encode,
    graph_classes,
    has_clique,
    ore_compose,
    random_graph,
)


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
        check_witness(k4, 4, PackingWitness(4, ((0, 1, 2), (2, 3)), 3))  # overlap
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness(4, ((0, 1, 2, 3),), 2))  # wrong order
    with pytest.raises(ValueError):
        check_witness(k4, 4, PackingWitness(4, ((0, 1, 2),), 1))  # wrong value
    c4 = Graph.cycle(4)
    with pytest.raises(ValueError):
        check_witness(c4, 4, PackingWitness(4, ((0, 1, 2),), 2))  # not a clique


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
        assert compute_T(g.delete_vertex(v)[0], 4).value >= t - 2
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
    assert has_clique(g, 32) and not has_clique(g, 33)
    assert graph6_decode(graph6_encode(g)) == g


def test_caps():
    with pytest.raises(SizeCapError):
        compute_T(Graph.complete(12), 4, clique_cap=10)
    with pytest.raises(SizeCapError):
        compute_T_bruteforce(Graph.empty(13), 4)

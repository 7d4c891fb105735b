"""Vertex roles, the two redistribution rules, and the charge audit.

The synthetic hosts below are engineered so each role arises for a known
reason; none of them needs to be critical, the bookkeeping is purely local.
Catalog caps are kept at 1 for k >= 6 to stay fast.
"""

from fractions import Fraction

import pytest

import orelab.discharging
from orelab import (
    Graph,
    PotentialParams,
    apply_rules,
    charge_report,
    classify_degree_k1,
    compute_T,
    ore_compose,
    rho,
)

EPS4 = Fraction(1, 11)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(leaves, i) for i in range(leaves)])


def test_initial_charge_values():
    assert charge_report(Graph.complete(4), 4).ledger.rows[0].initial == Fraction(12, 11)
    rows = charge_report(star(6), 4).ledger.rows
    assert rows[6].initial == Fraction(-87, 11)
    assert rows[0].initial == Fraction(78, 11)


def test_classify_small_anchors():
    for k, g in ((4, Graph.complete(4)), (5, Graph.complete(5))):
        rr = classify_degree_k1(g, k)
        assert all(role == "structure" for role in rr.roles.values())
        assert rr.promoted == frozenset()
    w5 = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    rr = classify_degree_k1(w5, 4)
    assert all(rr.roles[v] == "structure" for v in range(5))
    assert rr.roles[5] == "not-deg-(k-1)"
    rr = classify_degree_k1(star(4), 4)
    assert set(rr.roles.values()) == {"not-deg-(k-1)"}
    with pytest.raises(ValueError):
        classify_degree_k1(Graph.complete(3), 3)


def test_completeness_is_relative_to_the_cap():
    # k = 4: a two-step composition has 10 vertices, so its gadgets have 9
    # and a three-step gadget needs 12 host vertices
    assert classify_degree_k1(Graph.empty(10), 4, ore_catalog_cap=2).complete
    assert classify_degree_k1(Graph.empty(11), 4, ore_catalog_cap=2).complete
    assert not classify_degree_k1(Graph.empty(12), 4, ore_catalog_cap=2).complete
    assert not classify_degree_k1(Graph.empty(13), 4, ore_catalog_cap=2).complete
    assert classify_degree_k1(Graph.empty(2), 4, ore_catalog_cap=0).complete


def test_lone_singletons_with_silent_rules():
    # x sees only degree-k vertices; so does every hub on the far side.
    # Nothing is structure (triangle-free, so no clique and no gadget fits)
    # and nothing is near, so both rules leave every charge alone.
    edges = [(0, y) for y in range(1, 8)]
    edges += [(y, b) for y in range(1, 8) for b in range(8, 15)]
    g = Graph.from_edges(15, edges)
    rep = charge_report(g, 8, ore_catalog_cap=1)
    assert rep.roles.roles[0] == "lone" and rep.roles.roles[8] == "lone"
    assert rep.sizes == {"L": 8, "M": 0, "P": 7, "Q": 0, "R-other": 0}
    assert rep.identity_hypothesis
    assert rep.lm_to_rest_edges == rep.lm_identity_value == 0
    assert all(r.final == r.initial for r in rep.ledger.rows)
    assert rep.roles.complete


def test_lone_pair_skips_the_identity():
    # a cloned pair of low vertices glued to six degree-k vertices: the
    # pair lands in M with twelve M-P edges, so the identity hypothesis
    # fails and the report records the mismatch instead of raising
    edges = [(0, 1)]
    edges += [(b, y) for b in (0, 1) for y in range(2, 8)]
    edges += [(y, c) for y in range(2, 8) for c in range(8, 14)]
    g = Graph.from_edges(14, edges)
    rep = charge_report(g, 8, ore_catalog_cap=1)
    assert rep.sizes == {"L": 0, "M": 2, "P": 6, "Q": 0, "R-other": 6}
    assert rep.m_p_edges == 12 and not rep.identity_hypothesis
    assert rep.lm_to_rest_edges == 0 and rep.lm_identity_value == 12


def test_structure_pays_its_near_neighbor():
    # 0 is low with no clique and no low neighbor in its own cluster;
    # 1 is low and sits on a triangle, so rule two moves k-1 from 1 to 0
    g = Graph.from_edges(
        10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (6, 7), (1, 8), (1, 9)]
    )
    rr = classify_degree_k1(g, 6, ore_catalog_cap=1)
    assert rr.roles[0] == "near" and rr.roles[1] == "structure"
    led = apply_rules(g, 6, rr)
    assert led.rows[0].final - led.rows[0].initial == -5
    assert led.rows[1].final - led.rows[1].initial == 5
    assert led.total_initial() == led.total_final()


def test_high_degree_sender_keeps_exact_residue():
    g = star(6)
    rep = charge_report(g, 4)
    hub = next(r for r in rep.ledger.rows if r.vertex == 6)
    assert hub.final == Fraction(-21, 11) == -2 + EPS4
    for r in rep.ledger.rows:
        if r.vertex != 6:
            assert r.final == r.initial - 1 == Fraction(67, 11)
    assert rep.heavy_class_over_residue == 6
    assert rep.sizes == {"L": 0, "M": 0, "P": 0, "Q": 0, "R-other": 7}


def test_complete_graph_report():
    rep = charge_report(Graph.complete(4), 4)
    assert rep.sizes == {"L": 0, "M": 0, "P": 0, "Q": 0, "R-other": 4}
    assert all(r.role == "structure" for r in rep.ledger.rows)
    assert rep.total_charge == Fraction(48, 11)
    assert rep.identity_hypothesis and rep.lm_to_rest_edges == 0


def test_total_charge_equals_potential_plus_packing(census4_8):
    params = PotentialParams.for_k(4)
    for g in census4_8.graphs:
        if g.n > 7:
            continue
        rep = charge_report(g, 4)
        t = compute_T(g, 4).value
        assert rep.total_charge == rho(g, 4, t) + params.delta * t
        assert rep.total_charge == rep.rho_plus_delta_t
        assert sum(rep.sizes.values()) == g.n
        assert rep.identity_hypothesis or rep.m_p_edges > 0


def test_wheel_labels():
    w5 = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    rep = charge_report(w5, 4)
    assert rep.sizes == {"L": 0, "M": 0, "P": 0, "Q": 1, "R-other": 5}
    q_row = next(r for r in rep.ledger.rows if r.label == "Q")
    assert q_row.vertex == 5 and q_row.degree == 5


def test_clusters_are_found_once_per_report(monkeypatch):
    calls = []
    clusters = orelab.discharging.clusters

    def counting_clusters(g, k):
        calls.append(g.n)
        return clusters(g, k)

    monkeypatch.setattr(orelab.discharging, "clusters", counting_clusters)
    g = ore_compose(Graph.complete(4), (0, 1), Graph.complete(4), 0, ((1,), (2, 3)))
    charge_report(g, 4)
    assert calls == [7]


def test_report_is_deterministic():
    g = ore_compose(Graph.complete(4), (0, 1), Graph.complete(4), 0, ((1,), (2, 3)))
    a = charge_report(g, 4)
    b = charge_report(g, 4)
    assert a.ledger == b.ledger and a.sizes == b.sizes
    assert a.roles.roles == b.roles.roles

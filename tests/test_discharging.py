"""Vertex roles, the two redistribution rules, and the charge audit.

The synthetic hosts below are engineered so each role arises for a known
reason; none of them needs to be critical, the bookkeeping is purely local.
The gadget catalog that ``charge_columns`` and the oracle copy read is kept
at 1 step for k >= 6 to stay fast, except on the Clebsch graph.
"""

import random
import sys
from fractions import Fraction

import pytest

import oracles
import orelab.discharging
import orelab.potential
from orelab import (
    Graph,
    PotentialParams,
    apply_rules,
    bits_of,
    census_critical,
    charge_report,
    classify_degree_k1,
    cliques_of_size,
    clusters,
    compute_T,
    gadget_catalog,
    graph_classes,
    mask_of,
    random_graph,
    random_ore_tree,
    realize,
    rho,
    suites,
)
from report_columns import charge_columns, charge_rows, role_dicts, rows_of
from sample_graphs import clebsch, fused_k4, moved_edge, wheel5

EPS4 = Fraction(1, 11)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(leaves, i) for i in range(leaves)])


def test_initial_charge_values():
    assert charge_rows(Graph.complete(4), 4)[0].initial == Fraction(12, 11)
    rows = charge_rows(star(6), 4)
    assert rows[6].initial == Fraction(-87, 11)
    assert rows[0].initial == Fraction(78, 11)


def test_classify_small_anchors():
    for k, g in ((4, Graph.complete(4)), (5, Graph.complete(5))):
        assert classify_degree_k1(g, k) == (g.full_mask(), 0, [])
    # the rim of the wheel is structure; the hub's degree is not k - 1
    assert classify_degree_k1(wheel5(), 4) == (0b11111, 0, [])
    assert classify_degree_k1(star(4), 4) == (0, 0, [])
    with pytest.raises(ValueError):
        classify_degree_k1(Graph.complete(3), 3)


def test_lone_singletons_with_silent_rules():
    # x sees only degree-k vertices; so does every hub on the far side.
    # Nothing is structure (triangle-free, so no clique and no gadget fits)
    # and nothing is near, so both rules leave every charge alone.
    edges = [(0, y) for y in range(1, 8)]
    edges += [(y, b) for y in range(1, 8) for b in range(8, 15)]
    g = Graph.from_edges(15, edges)
    rep = charge_report(g, 8)
    columns = charge_columns(g, 8, cap=1)
    assert columns["roles"][0] == "lone" and columns["roles"][8] == "lone"
    assert rep.sizes == {"L": 8, "M": 0, "P": 7, "Q": 0, "R-other": 0}
    assert rep.identity_hypothesis
    assert columns["lm_to_rest_edges"] == columns["lm_identity_value"] == 0
    assert all(r.final == r.initial for r in columns["rows"])


def test_lone_pair_skips_the_identity():
    # a cloned pair of low vertices glued to six degree-k vertices: the
    # pair lands in M with twelve M-P edges, so the identity hypothesis
    # fails and the report records the mismatch instead of raising
    edges = [(0, 1)]
    edges += [(b, y) for b in (0, 1) for y in range(2, 8)]
    edges += [(y, c) for y in range(2, 8) for c in range(8, 14)]
    g = Graph.from_edges(14, edges)
    rep = charge_report(g, 8)
    columns = charge_columns(g, 8, cap=1)
    assert rep.sizes == {"L": 0, "M": 2, "P": 6, "Q": 0, "R-other": 6}
    assert columns["m_p_edges"] == 12 and not rep.identity_hypothesis
    assert columns["lm_to_rest_edges"] == 0 and columns["lm_identity_value"] == 12


def test_structure_pays_its_near_neighbor():
    # 0 is low with no clique and no low neighbor in its own cluster;
    # 1 is low and sits on a triangle, so rule two moves k-1 from 1 to 0
    g = Graph.from_edges(
        10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (6, 7), (1, 8), (1, 9)]
    )
    structure, near, lone = classify_degree_k1(g, 6)
    assert near == 0b1 and structure == 0b10 and lone == []
    rows = rows_of(apply_rules(g, 6, structure, near, lone))
    assert rows[0].final - rows[0].initial == -5
    assert rows[1].final - rows[1].initial == 5
    assert sum(r.initial for r in rows) == sum(r.final for r in rows)


def test_integer_ledger_matches_fraction_arithmetic():
    # random roles and lone clusters of one to three vertices of any degree
    # on random hosts: high-degree senders and structure-to-near transfers
    # come together, which no measure stream graph has; rows are compared
    # as their printed values
    rng = random.Random("ledger")
    moves = senders = 0
    for _ in range(400):
        k = rng.randint(4, 9)
        g = random_graph(rng, rng.randint(1, 2 * k + 4))
        masks = {"structure": 0, "near": 0, "lone": 0, "not-deg-(k-1)": 0}
        for v in range(g.n):
            masks[rng.choice(list(masks))] |= 1 << v
        lone_vertices = list(bits_of(masks["lone"]))
        lone = []
        while lone_vertices:
            size = rng.randint(1, 3)
            lone.append(mask_of(lone_vertices[:size]))
            del lone_vertices[:size]
        rows = rows_of(apply_rules(g, k, masks["structure"], masks["near"], lone))
        roles, lone_size = role_dicts(g.n, masks["structure"], masks["near"], lone)
        assert [str(r) for r in rows] == [str(r) for r in oracles.apply_rules(g, k, roles, lone_size)], (g, k)
        senders += any(g.degree(v) >= k + 2 for v in range(g.n))
        moves += any(g.adj[v] & masks["near"] for v in bits_of(masks["structure"]))
    assert senders > 100 and moves > 100


def oracle_hosts() -> list[tuple[Graph, int, int]]:
    """(host, k, catalog cap of the oracle copy): the order-8 census at
    k = 4, 5, 6, the charge-identity suite's classes+random corpus at k = 4
    and 5, seeded composed graphs with 1 to 4 steps at k = 4 to 7, each with
    a moved-edge near miss, and one 1-step composed graph at k = 33, at cap
    2; and the Clebsch graph at k = 6, whose every vertex lies on no
    triangle, at caps 1 and 2."""
    hosts = [(g, k) for k in (4, 5, 6) for g in census_critical(8, k).graphs]
    hosts += [(g, k) for k in (4, 5) for g in suites._default_input("classes+random", k, 1)]
    rng = random.Random("charge oracle")
    for k in (4, 5, 6, 7):
        for steps in range(1, 5):
            for _ in range(3):
                g = realize(random_ore_tree(k, steps, rng), k)
                hosts += [(g, k), (moved_edge(g, rng), k)]
    hosts.append((realize(random_ore_tree(33, 1, rng), 33), 33))
    return [(g, k, 2) for g, k in hosts] + [(clebsch(), 6, cap) for cap in (1, 2)]


def test_ledger_matches_the_row_oracle():
    """Roles, charge rows (as printed) and whole reports agree with the
    set-based classification, gadget branch included, the per-vertex
    Fraction rows and their fraction sum on every oracle host."""
    for g, k, cap in oracle_hosts():
        structure, near, lone = classify_degree_k1(g, k)
        assert set(lone) <= set(clusters(g, k)), (g, k)
        roles, lone_size = role_dicts(g.n, structure, near, lone)
        want_roles, want_size = oracles.classify_degree_k1(g, k, cap)
        assert roles == want_roles, (g, k, cap)
        assert lone_size == {v: size for v, size in want_size.items() if want_roles[v] == "lone"}, (g, k)
        assert [str(r) for r in charge_rows(g, k)] == [str(r) for r in oracles.apply_rules(g, k, roles, lone_size)], (g, k)
        rep = charge_report(g, k)
        want = oracles.charge_report(g, k, cap)
        assert list(rep.sizes.items()) == list(want["sizes"].items()), (g, k)
        assert rep.identity_hypothesis == want["identity_hypothesis"], (g, k)
        assert str(rep.total_charge) == str(want["total_charge"]), (g, k)
        assert str(rep.rho_plus_delta_t) == str(want["rho_plus_delta_t"]), (g, k)


def test_charge_report_builds_one_fraction_per_reported_value(monkeypatch):
    """A warm report builds the total and rho as Fractions and nothing
    else: the count of Fraction calls in the discharging and potential
    modules does not grow with the host."""
    counts = []
    for steps in (1, 4):
        g = realize(random_ore_tree(5, steps, random.Random(steps)), 5)
        charge_report(g, 5)  # warm: the gadget catalog and eps are built
        calls = []

        def counting(*args):
            calls.append(args)
            return Fraction(*args)

        for module in (orelab.discharging, orelab.potential):
            monkeypatch.setattr(module, "Fraction", counting)
        charge_report(g, 5)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2, counts


def test_high_degree_sender_keeps_exact_residue():
    g = star(6)
    rep = charge_report(g, 4)
    columns = charge_columns(g, 4)
    hub = next(r for v, r in enumerate(columns["rows"]) if v == 6)
    assert hub.final == Fraction(-21, 11) == -2 + EPS4
    for v, r in enumerate(columns["rows"]):
        if v != 6:
            assert r.final == r.initial - 1 == Fraction(67, 11)
    assert columns["heavy_class_over_residue"] == 6
    assert rep.sizes == {"L": 0, "M": 0, "P": 0, "Q": 0, "R-other": 7}


def test_complete_graph_report():
    rep = charge_report(Graph.complete(4), 4)
    columns = charge_columns(Graph.complete(4), 4)
    assert rep.sizes == {"L": 0, "M": 0, "P": 0, "Q": 0, "R-other": 4}
    assert all(role == "structure" for role in columns["roles"])
    assert rep.total_charge == Fraction(48, 11)
    assert rep.identity_hypothesis and columns["lm_to_rest_edges"] == 0


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
        assert rep.identity_hypothesis or charge_columns(g, 4)["m_p_edges"] > 0


def test_charge_report_does_no_packing(monkeypatch, census4_8):
    """rho + delta*T is ((k-2)(k+1) + eps)n - 2(k-1)m whatever T is, so the
    report needs no packing: with compute_T raising in every orelab module
    that holds it, the report still succeeds, and its total still equals
    rho + delta*T for the T packed beforehand."""
    graphs = [g for n in range(1, 7) for g in graph_classes(n)] + list(census4_8.graphs)
    packed = [compute_T(g, 4).value for g in graphs]

    def no_packing(g, k):
        raise AssertionError("charge_report packed a graph")

    holders = [
        name
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "orelab" and hasattr(module, "compute_T")
    ]
    assert {"orelab", "orelab.packing", "orelab.potential", "orelab.suites"} <= set(holders)
    for name in holders:
        monkeypatch.setattr(sys.modules[name], "compute_T", no_packing)
    delta = PotentialParams.for_k(4).delta
    for g, t in zip(graphs, packed):
        assert charge_report(g, 4).total_charge == rho(g, 4, t) + delta * t


# seeded trees (k, steps, seed) with degree-(k-1) vertices on no K_{k-3}: at
# k >= 10 the two-step gadget catalog is over the 25-vertex recognition cap,
# and embedding it into the 65-vertex tree (9, 7, 2) takes minutes
CATALOG_CAP_TREES = ((10, 4, 2), (10, 6, 2), (10, 6, 3), (10, 10, 0), (12, 8, 2), (33, 4, 2), (9, 7, 2))


def test_charge_report_builds_no_catalog_and_embeds_nothing(monkeypatch):
    """Structure is membership of a cluster that meets a K_{k-3}: with
    gadget_catalog and embeddings raising in every orelab module that holds
    them, each report still succeeds, on the Clebsch graph at k = 6 (every
    vertex of degree k - 1 and on no triangle) and on the seeded trees, and
    the charge-identity suite passes on the k = 33 tree."""

    def no_search(*args):
        raise AssertionError("charge_report searched for gadgets")

    for name, homes in (("gadget_catalog", {"orelab", "orelab.orekit"}), ("embeddings", {"orelab", "orelab.graphs"})):
        holders = [key for key, module in list(sys.modules.items()) if key.split(".")[0] == "orelab" and hasattr(module, name)]
        assert homes <= set(holders), name
        for key in holders:
            monkeypatch.setattr(sys.modules[key], name, no_search)
    hosts = [(6, clebsch())]
    hosts += [(k, realize(random_ore_tree(k, steps, random.Random(seed)))) for k, steps, seed in CATALOG_CAP_TREES]
    for k, g in hosts:
        rep = charge_report(g, k)
        assert rep.total_charge == rep.rho_plus_delta_t and sum(rep.sizes.values()) == g.n
    g33 = realize(random_ore_tree(33, 4, random.Random(2)))
    result = suites.run_suite("charge-identity", corpus=[g33], params={"k": 33})
    assert result.passed and result.counts() == {"pass": 1, "fail": 0, "skip-cap": 0}


@pytest.mark.parametrize("k", [6, 7])
def test_every_gadget_key_vertex_lies_in_a_small_clique(k):
    """Every key vertex of every two-step gadget lies in a K_{k-3} of the
    gadget's graph. An embedding maps that clique onto a K_{k-3} of the
    host, so each vertex the gadget search marks is one the clique test has
    marked already: at these k the search never changes a role."""
    catalog = gadget_catalog(k, 2)
    assert any(gadget.key_vertices for gadget in catalog)
    for gadget in catalog:
        covered = 0
        for clique in cliques_of_size(gadget.graph, k - 3):
            covered |= clique
        assert not gadget.key_vertices & ~covered, gadget


def test_wheel_labels():
    w5 = wheel5()
    rep = charge_report(w5, 4)
    assert rep.sizes == {"L": 0, "M": 0, "P": 0, "Q": 1, "R-other": 5}
    q_vertex = next(v for v, r in enumerate(charge_rows(w5, 4)) if r.label == "Q")
    assert q_vertex == 5 and w5.degree(q_vertex) == 5


def test_clusters_are_found_once_per_report(calls_to):
    calls = calls_to(orelab.discharging, "clusters")
    charge_report(fused_k4(), 4)
    assert [g.n for g, _ in calls] == [7]


def test_report_is_deterministic():
    g = fused_k4()
    a = charge_report(g, 4)
    b = charge_report(g, 4)
    assert a == b
    assert charge_rows(g, 4) == charge_rows(g, 4)
    assert classify_degree_k1(g, 4) == classify_degree_k1(g, 4)

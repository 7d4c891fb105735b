"""End-to-end verification suites.

Each suite runs here on a deliberately small corpus or tree list so the
whole file stays fast; the acceptance tests rerun the important ones at full
size.
"""

import json
import random
import time
from collections import Counter, defaultdict

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracles
from orelab import coloring, discharging, orekit, packing, potential, structure, suites
from orelab import (
    DEFAULT_SEED,
    SUITE_IDS,
    Graph,
    Leaf,
    Node,
    SizeCapError,
    cliques_of_size,
    graph_classes,
    mask_of,
    ore_catalog,
    graph6_encode,
    random_graph,
    random_ore_tree,
    realize,
    rho,
    run_suite,
    tree_k,
)
from orelab.cli import main
from sample_graphs import one_step


def classes_up_to(n_max: int) -> list[Graph]:
    return [g for n in range(1, n_max + 1) for g in graph_classes(n)]


def random_graphs(count: int) -> list[Graph]:
    """The first graphs of the default seeded random stream."""
    rng = random.Random(DEFAULT_SEED)
    return [random_graph(rng, rng.randrange(1, 11)) for _ in range(count)]


def nested() -> Node:
    g1 = realize(one_step())
    return Node(one_step(), Leaf(4), g1.edges()[0], 0, (0b10, 0b1100))


SMALL_INPUTS = {
    "ky-bound": dict(corpus="census"),
    "ky-equality-ore": dict(corpus=list(graph_classes(4)) + [realize(one_step())]),
    "main2-potential": dict(params={"trees": [Leaf(4), one_step(), nested()]}),
    "t-superadd": dict(params={"trees": [one_step(), nested()]}),
    "t-lower": dict(params={"trees": [one_step(), nested()]}),
    "diamond-emerald": dict(params={"trees": ore_catalog(4, 1)}),
    "extension-potential": dict(corpus="census"),
    "kernel-ineq": dict(corpus="census"),
    "mic-ineq": dict(corpus="census"),
    "charge-identity": dict(corpus=classes_up_to(4) + random_graphs(5)),
    "packing-oracle": dict(corpus=random_graphs(8)),
    "coloring-oracle": dict(corpus=classes_up_to(5)),
    "graph6-roundtrip": dict(corpus=list(graph_classes(4))),
}


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_every_suite_passes_on_a_small_input(suite_id, census4_8):
    spec = SMALL_INPUTS[suite_id]
    corpus = spec.get("corpus")
    if corpus == "census":
        corpus = [g for g in census4_8.graphs if g.n <= 7]
    result = run_suite(suite_id, corpus=corpus, params=spec.get("params"))
    counts = result.counts()
    assert result.passed, counts
    assert counts["fail"] == 0 and counts["pass"] > 0
    assert result.suite_id == suite_id
    keys = [(r.graph6, r.claim, r.values) for r in result.rows]
    assert keys == sorted(keys)


def test_unknown_suite_id():
    with pytest.raises(ValueError, match="unknown suite id"):
        run_suite("no-such-suite")


def test_no_rows_is_not_a_pass():
    result = run_suite("t-lower", params={"trees": [Leaf(4)]})
    assert result.rows == () and not result.passed


def test_failing_row_fails_the_suite():
    result = run_suite("ky-bound", corpus=[Graph.empty(4)])
    assert result.counts() == {"pass": 0, "fail": 1, "skip-cap": 0}
    assert not result.passed


def c6_with_chord() -> Graph:
    """A bipartite, so not 4-critical, host on which the extension suite
    builds reductions: C6 plus the chord 0-3."""
    return Graph.from_edges(6, Graph.cycle(6).edges() + [(0, 3)])


def test_extension_suite_checks_each_host_once(calls_to, census4_8):
    # count every call, wherever a module of the package binds the name
    hosts = calls_to(coloring, "is_k_critical", everywhere=True)
    result = run_suite("extension-potential", census4_8, {"k": 4})
    assert result.passed
    assert [g for g, _ in hosts] == list(census4_8.graphs)


def test_extension_suite_rejects_a_non_critical_host():
    with pytest.raises(ValueError, match="^extensions are built over a k-critical host$"):
        run_suite("extension-potential", [c6_with_chord()], {"k": 4})


def test_verify_extension_suite_on_a_non_critical_host_exits_1(tmp_path):
    corpus = tmp_path / "host.g6"
    corpus.write_text(graph6_encode(c6_with_chord()) + "\n")
    result = CliRunner().invoke(main, ["verify", "--suite", "extension-potential", "--in", str(corpus), "--k", "4"])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == "Error: extensions are built over a k-critical host\n"


def test_cap_skip_is_not_a_pass():
    big = realize(one_step())  # 7 vertices
    result = run_suite("ky-equality-ore", corpus=[big], params={"caps": {"recognition": 5}})
    assert result.counts() == {"pass": 0, "fail": 0, "skip-cap": 1}
    assert not result.passed
    assert result.rows[0].status == "skip-cap"


def test_capped_item_gives_one_skip_row_and_the_rest_still_run():
    big = Graph.cycle(13)  # one vertex past the brute-force packing cap
    result = run_suite("packing-oracle", corpus=[big, Graph.complete(4)])
    assert result.counts() == {"pass": 1, "fail": 0, "skip-cap": 1}
    (skipped,) = [r for r in result.rows if r.status == "skip-cap"]
    assert skipped.graph6 == graph6_encode(big) and skipped.claim == "packing-oracle"
    assert skipped.values == (("note", "brute-force packing: requested 13 exceeds cap 12"),)


def test_mic_over_its_vertex_cap_is_a_skip_row():
    result = run_suite("mic-ineq", corpus=[Graph.cycle(41)])
    assert result.counts() == {"pass": 0, "fail": 0, "skip-cap": 1}
    assert result.rows[0].values == (("note", "mic vertex count: requested 41 exceeds cap 40"),)


def test_coloring_oracle_is_bounded():
    start = time.perf_counter()
    result = run_suite("coloring-oracle", corpus=[Graph.complete(11)])
    assert time.perf_counter() - start < 1.0
    assert [r.status for r in result.rows] == ["skip-cap"]
    assert "exceeds cap 200000" in dict(result.rows[0].values)["note"]
    assert suites._chromatic_oracle(Graph.complete(9)) == 9  # within the budget


def audit_fails(*args, **kwargs):
    raise AssertionError("audit tripped")


def test_failed_audit_is_a_fail_row_per_item(monkeypatch):
    monkeypatch.setattr(suites, "compute_T", audit_fails)
    trees = [one_step(), nested(), Leaf(4)]  # a leaf gives no t-lower row
    result = run_suite("t-lower", params={"trees": trees})
    assert result.counts() == {"pass": 0, "fail": 2, "skip-cap": 0}
    assert {r.graph6 for r in result.rows} == {graph6_encode(realize(t)) for t in trees[:2]}
    assert {(r.claim, r.values) for r in result.rows} == {("t-lower", (("note", "audit tripped"),))}


def test_verify_reports_a_failed_audit_and_exits_1(monkeypatch, tmp_path):
    monkeypatch.setattr(suites, "compute_T", audit_fails)
    report = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["verify", "--suite", "t-lower", "--json", str(report)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    data = json.loads(report.read_text())
    assert data["counts"]["fail"] > 0 and data["counts"]["pass"] == 0
    assert result.output.startswith("t-lower: FAIL (pass=0 fail=")


def test_failed_charge_audit_reaches_the_report(monkeypatch, tmp_path):
    """charge-identity rows compare the two totals charge_report returns;
    a broken audit inside it must still end as fail rows and exit 1. A wrong
    packing value cancels in rho + delta*T, so the potential is made wrong."""
    monkeypatch.setattr(discharging, "rho", lambda g, k, t_value: rho(g, k, t_value) + 1)
    corpus = classes_up_to(3)
    result = run_suite("charge-identity", corpus=corpus)
    assert result.counts() == {"pass": 0, "fail": len(corpus), "skip-cap": 0}
    assert {(r.claim, r.values) for r in result.rows} == {
        ("charge-identity", (("note", "total charge disagrees with the potential"),))
    }
    report = tmp_path / "report.json"
    cli = CliRunner().invoke(main, ["verify", "--suite", "charge-identity", "--json", str(report)])
    assert cli.exit_code == 1 and isinstance(cli.exception, SystemExit)
    assert json.loads(report.read_text())["counts"]["pass"] == 0
    assert cli.output.startswith("charge-identity: FAIL (pass=0 fail=")


def test_result_serialization_shapes():
    result = run_suite("graph6-roundtrip", corpus=list(graph_classes(3)))
    d = result.to_json_dict()
    json.dumps(d)
    assert d["suite"] == "graph6-roundtrip" and d["passed"] is True
    assert set(d["config"]) >= {"suite", "k", "seed", "graphs", "trees"}
    assert d["config"]["seed"] == str(DEFAULT_SEED)
    assert all(set(row) == {"graph6", "claim", "status", "values"} for row in d["rows"])
    csv = result.csv_rows()
    assert csv[0] == ["graph6", "claim", "status", "values"]
    assert len(csv) == len(result.rows) + 1


def test_suite_runs_are_deterministic():
    a = run_suite("packing-oracle")
    suites._default_input.cache_clear()
    b = run_suite("packing-oracle")
    assert a == b and len(a.rows) == suites.RANDOM_GRAPHS


@pytest.mark.parametrize("suite_id", ["ky-bound", "ky-equality-ore"])
def test_census_is_the_default_corpus(suite_id, census4_8):
    result = run_suite(suite_id)
    assert result.passed and len(result.rows) == len(census4_8) == 9


@pytest.mark.parametrize("suite_id", ["ky-bound", "packing-oracle", "graph6-roundtrip", "diamond-emerald"])
def test_empty_corpus_gives_no_rows(suite_id, monkeypatch):
    def no_default(kind, k, seed):
        raise AssertionError("an empty input was replaced by the default input")

    monkeypatch.setattr(suites, "_default_input", no_default)
    result = run_suite(suite_id, corpus=[], params={"trees": []})
    assert result.rows == () and not result.passed
    assert dict(result.config)["graphs"] == dict(result.config)["trees"] == "0"


def test_default_census_is_built_once(calls_to):
    calls = calls_to(suites, "census_critical")
    suites._default_input.cache_clear()
    try:
        results = {suite_id: run_suite(suite_id) for suite_id in SUITE_IDS}
        built = suites._default_input.cache_info().misses
    finally:
        suites._default_input.cache_clear()
    assert calls == [(suites.CENSUS_MAX, 4)]
    # every input kind is built once over the whole run, as `verify --suite all` does
    assert built == len({suite.default for suite in suites._SUITES.values()})
    assert all(result.passed for result in results.values())
    assert len(results["ky-bound"].rows) == len(results["mic-ineq"].rows) == 9


def test_default_trees_are_built_once(calls_to):
    drawn = calls_to(suites, "random_ore_tree")
    suites._default_input.cache_clear()
    try:
        results = [run_suite(sid, params={"k": 5}) for sid in ("main2-potential", "t-superadd", "t-lower")]
    finally:
        suites._default_input.cache_clear()
    assert [k for k, _, _ in drawn] == [5] * suites.RANDOM_TREES
    assert all(r.passed and dict(r.config)["trees"] == str(suites.RANDOM_TREES) for r in results)


def test_charge_identity_refuses_the_gadget_steps_cap():
    # structure needs no gadget catalog, so no suite reads a catalog cap
    with pytest.raises(ValueError, match="^unknown cap key 'gadget_steps'; expected one of "):
        run_suite("charge-identity", corpus=[Graph.complete(4)], params={"caps": {"gadget_steps": 2}})


def test_caps_reject_unknown_keys_and_non_integers():
    with pytest.raises(ValueError, match="unknown cap key 'recogniton'"):
        run_suite("ky-equality-ore", corpus=[], params={"caps": {"recogniton": 3}})
    for value in ("3", 2.5, True):
        with pytest.raises(ValueError, match="integer"):
            run_suite("ky-equality-ore", corpus=[], params={"caps": {"recognition": value}})
    with pytest.raises(ValueError, match="nonnegative"):
        run_suite("ky-equality-ore", corpus=[], params={"caps": {"recognition": -3}})
    # a suite that reads no cap accepts the key too, so one cap map serves 'all'
    result = run_suite("ky-bound", corpus=[Graph.complete(4)], params={"caps": {"recognition": 3}})
    assert result.passed and dict(result.config)["caps"] == "recognition=3"


def test_unknown_params_key_is_rejected():
    with pytest.raises(ValueError, match="unknown suite parameter 'random_cout'"):
        run_suite("packing-oracle", params={"random_cout": 3})
    with pytest.raises(ValueError, match="unknown suite parameter 'tree_count'"):
        run_suite("t-lower", params={"tree_count": 3})
    # input sizes are fixed; a caller sizes the input with a corpus or trees
    for key, suite_id in (
        ("l_max", "diamond-emerald"),
        ("census_max", "ky-bound"),
        ("enum_max", "coloring-oracle"),
        ("random_count", "packing-oracle"),
        ("r_sizes", "extension-potential"),
    ):
        with pytest.raises(ValueError, match=f"unknown suite parameter '{key}'"):
            run_suite(suite_id, corpus=[], params={key: 1})


def test_catalog_default_for_near_clique_suite():
    result = run_suite("diamond-emerald")
    per_vertex = [r for r in result.rows if "one vertex" in r.claim]
    assert len(per_vertex) == sum(realize(t).n for t in ore_catalog(4, suites.CATALOG_STEPS))
    assert result.passed and dict(result.config)["trees"] == str(len(ore_catalog(4, suites.CATALOG_STEPS)))


# -- each suite computes a fact once per item ------------------------------------


def subtrees(tree) -> list:
    """Every subtree, children before their parent."""
    if isinstance(tree, Leaf):
        return [tree]
    return subtrees(tree.edge_side) + subtrees(tree.split_side) + [tree]


def row_key(row):
    return row.graph6, row.claim, row.values


@given(k=st.sampled_from([4, 5, 6]), steps=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_t_superadd_matches_the_per_node_walk(k, steps, seed):
    tree = random_ore_tree(k, steps, random.Random(seed))
    rows = suites._t_superadd(suites._tree_records((tree,), k)[0], {"k": k})
    assert sorted(rows, key=row_key) == sorted(oracles.t_superadd_by_node(tree, {"k": k}), key=row_key)
    assert len(rows) == steps


def test_t_superadd_rejects_a_tree_of_another_k():
    with pytest.raises(ValueError, match="^tree is built over k=4, caller expected 5$"):
        run_suite("t-superadd", params={"k": 5, "trees": [nested()]})


def distinct_subtree_graphs(tree) -> list[Graph]:
    """The distinct graphs of the subtrees, in order of first appearance."""
    return list(dict.fromkeys(realize(sub) for sub in subtrees(tree)))


def test_t_superadd_packs_and_composes_each_subtree_once(calls_to):
    tree = nested()  # its three leaves are one graph, K_4
    expected = distinct_subtree_graphs(tree)
    packed = calls_to(suites, "compute_T")
    composed = calls_to(orekit, "ore_compose")
    result = run_suite("t-superadd", params={"trees": [tree]})
    assert result.passed and len(result.rows) == 2
    assert [args[0] for args in packed] == expected and len(expected) == 3
    assert len(composed) == sum(isinstance(sub, Node) for sub in subtrees(tree)) == 2


def distinct_sweep_graphs(trees) -> list[Graph]:
    """The distinct subtree graphs of all ``trees``, in order of first
    appearance."""
    return list(dict.fromkeys(g for t in trees for g in distinct_subtree_graphs(t)))


def test_t_superadd_sweep_packs_each_subtree_once(calls_to):
    packed = calls_to(suites, "compute_T")
    graphs = 0
    for k in (4, 5, 6):
        params = {"k": k, "seed": 1}
        assert run_suite("t-superadd", params=params).passed
        # a subtree graph that several trees share, K_k in each, is packed once per k
        graphs += len(distinct_sweep_graphs(suites._default_input("trees", k, 1)))
    # 1,259 with each graph packed once per tree (K_k once per k), 1,846
    # with K_k packed once per tree too
    assert len(packed) == graphs == 914


TREE_SUITES = ("main2-potential", "t-superadd", "t-lower")


def test_tree_suites_share_one_record_per_tree(calls_to):
    """Over a sweep the three tree suites compose each node once and pack
    each distinct subtree graph once per k, in the order the first suite
    meets them, whichever trees share it: one record list is built per k.
    The records start and end cold (see conftest.py), and hold no graph."""
    trees = {k: list(dict.fromkeys(suites._default_input("trees", k, 1))) for k in (4, 5, 6)}
    graphs = {k: distinct_sweep_graphs(trees[k]) for k in trees}
    expected = [g for k in trees for g in graphs[k]]
    nodes = sum(isinstance(sub, Node) for k in trees for t in trees[k] for sub in subtrees(t))
    packed = calls_to(suites, "compute_T")
    composed = calls_to(orekit, "ore_compose")
    for k in trees:
        assert all(run_suite(sid, params={"k": k, "seed": 1}).passed for sid in TREE_SUITES)
        records = suites._tree_records(suites._default_input("trees", k, 1), k)
        assert not any(isinstance(field, Graph) for record in records for sub in record for field in sub)
        # one entry per distinct subtree graph, each holding its graph6 and T
        entries = {sub.graph6: sub for record in records for sub in record}
        assert len(entries) == len(graphs[k])
        assert all(type(g6) is str and type(sub.packed) is int for g6, sub in entries.items())
    assert [args[0] for args in packed] == expected
    assert len(composed) == nodes
    assert suites._tree_records.cache_info().misses == len(trees)


def test_tree_suites_share_one_record_list_for_given_trees(calls_to):
    """The three tree suites run one after another on one caller-given
    list, a tree repeated in it, realize and pack the list once: one
    compute_T per distinct subtree graph and one ore_compose per node of
    each distinct tree, and one row set per listed tree."""
    rng = random.Random(3)
    trees = [Leaf(5)] + [random_ore_tree(5, steps, rng) for steps in (1, 2, 3, 3)]
    trees += trees[1:3]
    distinct = list(dict.fromkeys(trees))
    graphs = distinct_sweep_graphs(distinct)
    nodes = sum(isinstance(sub, Node) for t in distinct for sub in subtrees(t))
    packed = calls_to(suites, "compute_T")
    composed = calls_to(orekit, "ore_compose")
    results = {sid: run_suite(sid, params={"k": 5, "trees": trees}) for sid in TREE_SUITES}
    assert all(result.passed for result in results.values())
    assert len(results["main2-potential"].rows) == len(trees)
    assert [args[0] for args in packed] == graphs
    assert len(composed) == nodes


def test_a_capped_subtree_skips_only_the_rows_that_read_it(monkeypatch):
    """At k = 6 this one-step graph has 18 candidate cliques and K_6 has 21.
    With the cap at 18 only t-superadd, which reads the sides' T, skips the
    tree; the rows that read the root's T do not change."""
    k = 6
    tree = Node(Leaf(k), Leaf(k), (0, 1), 0, (0b110, 0b111000))

    def candidates(g: Graph) -> int:
        return len(cliques_of_size(g, k - 1)) + len(cliques_of_size(g, k - 2))

    assert candidates(realize(tree)) == 18 < candidates(Graph.complete(k)) == 21
    params = {"k": k, "trees": [tree, Leaf(k)]}
    uncapped = {sid: run_suite(sid, params=params) for sid in TREE_SUITES}
    suites._tree_records.cache_clear()
    monkeypatch.setattr(packing, "CLIQUE_CAP", 18)
    leaf = suites._tree_records((tree, Leaf(k)), k)[0][0]
    assert isinstance(leaf.packed, SizeCapError) and leaf.packed.__traceback__ is None
    capped = {sid: run_suite(sid, params=params) for sid in TREE_SUITES}
    leaf_g6 = graph6_encode(Graph.complete(k))
    root_g6 = graph6_encode(realize(tree))
    assert capped["t-lower"] == uncapped["t-lower"] and capped["t-lower"].passed
    main2 = {row.graph6: row for row in capped["main2-potential"].rows}
    assert main2[root_g6] in uncapped["main2-potential"].rows and main2[root_g6].status == "pass"
    assert main2[leaf_g6].status == "skip-cap"
    superadd = capped["t-superadd"].rows
    assert {row.graph6 for row in superadd} == {root_g6, leaf_g6}
    assert all(row.status == "skip-cap" for row in superadd)
    assert all("packing candidate cliques" in row.values[0][1] for row in superadd)
    assert all("exceeds cap 18" in row.values[0][1] for row in superadd)


@pytest.mark.parametrize("suite_id", TREE_SUITES)
def test_tree_suites_reject_a_tree_of_another_k(suite_id):
    for tree, k in ((Leaf(5), 4), (nested(), 5)):
        with pytest.raises(ValueError, match=f"^tree is built over k={tree_k(tree)}, caller expected {k}$"):
            run_suite(suite_id, params={"k": k, "trees": [tree]})


def test_diamond_emerald_lists_each_graph_once(calls_to):
    listed = calls_to(suites, "find_diamonds_emeralds")
    trees = ore_catalog(4, 1)
    assert run_suite("diamond-emerald", params={"trees": trees}).passed
    assert listed == [(realize(t), 4) for t in trees]
    listed.clear()
    for k in (4, 5, 6):
        assert run_suite("diamond-emerald", params={"k": k, "seed": 1}).passed
    assert len(listed) == sum(len(ore_catalog(k, suites.CATALOG_STEPS)) for k in (4, 5, 6)) == 85


def test_extension_suite_searches_each_reduction_once_per_host(monkeypatch):
    """Distinct colorings of one host that reduce to one graph share one
    critical-subgraph search: over the seed-1 sweep the 391 reductions
    are 239 distinct graphs per host."""
    hosts = []  # per host: [the reductions built, the graphs searched]
    build, reduce, search = structure.build_extension, structure.color_reduce, structure.find_critical_subgraphs

    def per_host(*args, **kwargs):
        hosts.append(([], []))
        yield from build(*args, **kwargs)

    def reduced(*args):
        hosts[-1][0].append(reduce(*args))
        return hosts[-1][0][-1]

    def searched(g, *args, **kwargs):
        hosts[-1][1].append(g)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(suites, "build_extension", per_host)
    monkeypatch.setattr(structure, "color_reduce", reduced)
    monkeypatch.setattr(structure, "find_critical_subgraphs", searched)
    for k in (4, 5, 6):
        assert run_suite("extension-potential", params={"k": k, "seed": 1}).passed
    assert len(hosts) == sum(len(suites._default_input("census", k, 1)) for k in (4, 5, 6))
    assert all(graphs == list(dict.fromkeys(reductions)) for reductions, graphs in hosts)
    assert sum(len(reductions) for reductions, _ in hosts) == 391
    assert sum(len(graphs) for _, graphs in hosts) == 239


def test_extension_suite_packs_each_induced_graph_once(calls_to, census4_8):
    """Each distinct induced graph, a G[R], a G[R'] or a W, is packed once
    per host graph, however many vertex sets or records give it."""
    calls = calls_to(suites, "rho_subset")
    packed = calls_to(potential, "compute_T")
    corpus = [g for g in census4_8.graphs if g.n <= 7]
    rows = []
    merged = 0
    for g in corpus:
        calls.clear()
        packed.clear()
        result = run_suite("extension-potential", [g], {"k": 4})
        assert result.passed
        rows += result.rows
        graphs = [args[0] for args in packed]
        assert graphs == [host.induced(subset) for host, subset, _ in calls]
        assert len(set(graphs)) == len(graphs) < len(result.rows)
        # the vertex sets the rows read, by the graph they induce
        sets_of = defaultdict(set)
        for row in result.rows:
            for key in ("r", "r_prime"):
                subset = mask_of(map(int, dict(row.values)[key].split("+")))
                sets_of[g.induced(subset)].add(subset)
        assert set(sets_of) <= set(graphs)
        merged += sum(len(sets) - 1 for sets in sets_of.values())
    # distinct vertex sets that induce one graph share its packing
    assert merged > 0
    # an anchor set or extension with several records is still packed once
    for key in ("r", "r_prime"):
        per_set = Counter((row.graph6, dict(row.values)[key]) for row in rows)
        assert max(per_set.values()) > 1

"""End-to-end verification suites.

Each suite runs here on a deliberately small corpus so the whole file stays
fast; the acceptance tests rerun the important ones at full size.
"""

import json

import pytest

from orelab import suites
from orelab import (
    DEFAULT_SEED,
    SUITE_IDS,
    Graph,
    Leaf,
    Node,
    graph_classes,
    ore_catalog,
    realize,
    run_suite,
)


def one_step() -> Node:
    return Node(Leaf(4), Leaf(4), (0, 1), 0, ((1,), (2, 3)))


def nested() -> Node:
    g1 = realize(one_step())
    return Node(one_step(), Leaf(4), g1.edges()[0], 0, ((1,), (2, 3)))


SMALL_INPUTS = {
    "ky-bound": dict(corpus="census"),
    "ky-equality-ore": dict(corpus=list(graph_classes(4)) + [realize(one_step())]),
    "main2-potential": dict(params={"trees": [Leaf(4), one_step(), nested()]}),
    "t-superadd": dict(params={"trees": [one_step(), nested()]}),
    "t-lower": dict(params={"trees": [one_step(), nested()]}),
    "diamond-emerald": dict(params={"l_max": 1}),
    "extension-potential": dict(
        corpus="census",
        params={"caps": {"extensions_per_graph": 8}, "r_sizes": (3,)},
    ),
    "kernel-ineq": dict(corpus="census"),
    "mic-ineq": dict(corpus="census"),
    "charge-identity": dict(params={"enum_max": 4, "random_count": 5}),
    "packing-oracle": dict(params={"random_count": 8}),
    "coloring-oracle": dict(params={"enum_max": 5}),
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


def test_cap_skip_is_not_a_pass():
    big = realize(one_step())  # 7 vertices
    result = run_suite("ky-equality-ore", corpus=[big], params={"caps": {"recognition": 5}})
    assert result.counts() == {"pass": 0, "fail": 0, "skip-cap": 1}
    assert not result.passed
    assert result.rows[0].status == "skip-cap"


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
    a = run_suite("packing-oracle", params={"random_count": 6})
    b = run_suite("packing-oracle", params={"random_count": 6})
    assert a == b


@pytest.mark.parametrize("suite_id", ["ky-bound", "ky-equality-ore"])
def test_census_is_the_default_corpus(suite_id):
    result = run_suite(suite_id, params={"census_max": 6})
    assert result.passed and len(result.rows) == 2  # K4 and the 6-vertex critical graph


@pytest.mark.parametrize("suite_id", ["ky-bound", "packing-oracle", "graph6-roundtrip"])
def test_empty_corpus_gives_no_rows(suite_id, monkeypatch):
    def no_default(default, params):
        raise AssertionError("an empty corpus was replaced by the default input")

    monkeypatch.setattr(suites, "_default_graphs", no_default)
    result = run_suite(suite_id, corpus=[], params={"census_max": 6})
    assert result.rows == () and not result.passed
    assert dict(result.config)["graphs"] == "0"


def test_default_census_is_built_once(monkeypatch):
    calls = []
    census_critical = suites.census_critical

    def counting_census(n_max, k):
        calls.append((n_max, k))
        return census_critical(n_max, k)

    monkeypatch.setattr(suites, "census_critical", counting_census)
    suites._built_corpus.cache_clear()
    try:
        a = run_suite("ky-bound", params={"census_max": 6})
        b = run_suite("mic-ineq", params={"census_max": 6})
    finally:
        suites._built_corpus.cache_clear()
    assert calls == [(6, 4)]
    assert a.passed and b.passed and len(a.rows) == len(b.rows) == 2


def test_caps_reject_unknown_keys_and_non_integers():
    with pytest.raises(ValueError, match="unknown cap key 'recogniton'"):
        run_suite("ky-equality-ore", corpus=[], params={"caps": {"recogniton": 3}})
    for value in ("3", 2.5, True):
        with pytest.raises(ValueError, match="integer"):
            run_suite("ky-equality-ore", corpus=[], params={"caps": {"recognition": value}})
    with pytest.raises(ValueError, match="nonnegative"):
        run_suite("ky-equality-ore", corpus=[], params={"caps": {"recognition": -3}})
    # a key declared by another suite is accepted, so one cap map serves 'all'
    result = run_suite("ky-bound", corpus=[Graph.complete(4)], params={"caps": {"recognition": 3}})
    assert result.passed and dict(result.config)["caps"] == "recognition=3"


def test_unknown_params_key_is_rejected():
    with pytest.raises(ValueError, match="unknown suite parameter 'random_cout'"):
        run_suite("packing-oracle", params={"random_cout": 3})
    with pytest.raises(ValueError, match="unknown suite parameter 'tree_count'"):
        run_suite("t-lower", params={"tree_count": 3})


def test_catalog_default_for_near_clique_suite():
    result = run_suite("diamond-emerald", params={"l_max": 1})
    per_vertex = [r for r in result.rows if "one vertex" in r.claim]
    assert len(per_vertex) == sum(realize(t).n for t in ore_catalog(4, 1))
    assert result.passed

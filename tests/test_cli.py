"""Command-line behavior, exercised through click's test runner."""

import json

from click.testing import CliRunner

import orelab.cli
import orelab.packing
from orelab import Graph, graph6_decode, graph6_encode, is_k_ore, tree_loads
from orelab.cli import main


def invoke(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def test_gen_ore_is_seeded_and_valid():
    a = invoke("gen-ore", "--k", "4", "--steps", "2", "--seed", "7", "--count", "3")
    b = invoke("gen-ore", "--k", "4", "--steps", "2", "--seed", "7", "--count", "3")
    assert a.exit_code == 0 and a.output == b.output
    lines = a.output.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        g = graph6_decode(line)
        assert g.n == 10 and is_k_ore(g, 4) is not None


def test_gen_ore_tree_sidecar(tmp_path):
    g6 = tmp_path / "graphs.g6"
    trees = tmp_path / "trees.jsonl"
    result = CliRunner().invoke(
        main,
        [
            "gen-ore", "--k", "4", "--steps", "1", "--seed", "3",
            "--count", "2", "--out", str(g6), "--tree-out", str(trees),
        ],
    )
    assert result.exit_code == 0
    graphs = g6.read_text().strip().splitlines()
    tree_lines = trees.read_text().strip().splitlines()
    assert len(graphs) == len(tree_lines) == 2
    from orelab import realize

    for g_line, t_line in zip(graphs, tree_lines):
        assert graph6_encode(realize(tree_loads(t_line))) == g_line


def test_gen_ore_rejects_bad_k():
    result = invoke("gen-ore", "--k", "2", "--steps", "1", "--seed", "1")
    assert result.exit_code != 0
    negative = invoke("gen-ore", "--k", "4", "--steps", "-1", "--seed", "1")
    assert negative.exit_code == 1 and isinstance(negative.exception, SystemExit)
    assert "Error: step count must be nonnegative, got -1" in negative.output


def test_negative_count_and_cap_fail_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the option was checked")

    monkeypatch.setattr(orelab.cli, "random_ore_tree", no_work)
    monkeypatch.setattr(orelab.cli, "is_k_ore", no_work)
    count = invoke("gen-ore", "--k", "4", "--steps", "1", "--seed", "1", "--count", "-2")
    assert count.exit_code == 1 and isinstance(count.exception, SystemExit)
    assert count.output == "Error: count must be nonnegative, got -2\n"
    k4 = graph6_encode(Graph.complete(4)) + "\n"
    cap = invoke("recognize-ore", "--k", "4", "--cap", "-1", "--in", "-", input=k4)
    assert cap.exit_code == 1 and isinstance(cap.exception, SystemExit)
    assert cap.output == "Error: cap must be nonnegative, got -1\n"


def test_low_k_and_packing_cap_are_clean_errors(monkeypatch):
    k4 = graph6_encode(Graph.complete(4)) + "\n"
    for command in ("recognize-ore", "pack", "potential"):
        result = invoke(command, "--k", "3", "--in", "-", input=k4)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), command
        assert "Error:" in result.output and "k >= 4" in result.output, command
    monkeypatch.setattr(orelab.packing, "CLIQUE_CAP", 1)
    for command in ("pack", "potential"):
        result = invoke(command, "--k", "4", "--in", "-", input=k4)
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), command
        assert "Error:" in result.output and "exceeds cap 1" in result.output, command


def test_recognize_ore():
    lines = graph6_encode(Graph.complete(4)) + "\n" + graph6_encode(Graph.cycle(5)) + "\n"
    result = invoke("recognize-ore", "--k", "4", "--in", "-", input=lines)
    assert result.exit_code == 0
    out = result.output.strip().splitlines()
    assert out[0].endswith("\tore") and out[1].endswith("\tnot-ore")


def test_recognize_ore_cap_skips():
    big = graph6_encode(Graph.complete(4))
    result = invoke("recognize-ore", "--k", "4", "--cap", "3", "--in", "-", input=big + "\n")
    assert result.exit_code == 0 and "skip-cap" in result.output


def test_potential_table():
    result = invoke("potential", "--k", "4", "--in", "-", input=graph6_encode(Graph.complete(4)))
    assert result.exit_code == 0
    header, row = result.output.strip().splitlines()
    assert header.split("\t") == ["graph6", "n", "m", "T", "rho_int", "rho"]
    assert row.split("\t") == ["C~", "4", "6", "2", "4", "42/11"]


def test_pack_witness_roundtrip():
    result = invoke("pack", "--k", "4", "--in", "-", input=graph6_encode(Graph.complete(4)))
    assert result.exit_code == 0
    g6, t_part, cliques = result.output.strip().split("\t")
    assert t_part == "T=2"
    sizes = sorted(len(c.split("+")) for c in cliques.split(" "))
    assert sizes == [3]  # one K_{k-1}, worth two on its own
    empty = invoke("pack", "--k", "4", "--in", "-", input=graph6_encode(Graph.empty(3)))
    assert empty.output.strip().split("\t")[2] == "-"


def test_enumerate_classes_and_census():
    result = invoke("enumerate", "--n", "4")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 11
    census = invoke("enumerate", "--n", "7", "--critical", "--k", "4")
    assert census.exit_code == 0
    lines = census.output.strip().splitlines()
    assert len(lines) == 4
    assert all(graph6_decode(line).n in (4, 6, 7) for line in lines)
    over = invoke("enumerate", "--n", "12")
    assert over.exit_code != 0 and "cap" in over.output.lower()


def test_verify_pass_and_artifacts(tmp_path):
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    result = invoke(
        "verify", "--suite", "ky-bound", "--census", "7",
        "--json", str(json_path), "--csv", str(csv_path),
    )
    assert result.exit_code == 0
    assert "ky-bound: pass" in result.output
    payload = json.loads(json_path.read_text())
    assert payload["suite"] == "ky-bound" and payload["passed"] is True
    csv_lines = csv_path.read_text().strip().splitlines()
    assert csv_lines[0].startswith('"graph6"')
    assert len(csv_lines) == len(payload["rows"]) + 1


def test_verify_fails_on_violating_corpus():
    # an edgeless graph sits far under the critical edge bound
    result = invoke(
        "verify", "--suite", "ky-bound", "--in", "-",
        input=graph6_encode(Graph.empty(4)) + "\n",
    )
    assert result.exit_code == 1
    assert "ky-bound: FAIL" in result.output


def test_verify_argument_errors():
    both = invoke("verify", "--suite", "ky-bound", "--census", "6", "--in", "-", input="")
    assert both.exit_code != 0 and "mutually exclusive" in both.output
    bad_cap = invoke("verify", "--suite", "ky-bound", "--census", "6", "--cap", "oops")
    assert bad_cap.exit_code != 0 and "key=value" in bad_cap.output
    unknown = invoke("verify", "--suite", "bogus", "--census", "6")
    assert unknown.exit_code != 0 and "unknown suite id" in unknown.output
    not_int = invoke("verify", "--suite", "ky-bound", "--census", "6", "--cap", "recognition=x")
    assert not_int.exit_code == 1 and "integer" in not_int.output
    assert not isinstance(not_int.exception, ValueError)
    negative = invoke("verify", "--suite", "ky-equality-ore", "--census", "6", "--cap", "recognition=-3")
    assert negative.exit_code == 1 and "nonnegative" in negative.output
    assert not isinstance(negative.exception, ValueError)
    typo = invoke("verify", "--suite", "ky-bound", "--census", "6", "--cap", "recogniton=3")
    assert typo.exit_code == 1 and "unknown cap key 'recogniton'" in typo.output
    assert not isinstance(typo.exception, ValueError)
    bad_line = invoke("verify", "--suite", "ky-bound", "--in", "-", input="C~\nD?\n")
    assert bad_line.exit_code == 1 and "Error: line 2" in bad_line.output
    over_cap = invoke("verify", "--suite", "ky-bound", "--census", "10")
    assert over_cap.exit_code == 1 and "Error:" in over_cap.output and "cap" in over_cap.output
    low_k = invoke("verify", "--suite", "ky-bound", "--k", "2", "--census", "5")
    assert low_k.exit_code == 1 and "Error:" in low_k.output and "k >= 3" in low_k.output
    for result in (bad_line, over_cap, low_k):
        assert isinstance(result.exception, SystemExit)


def test_verify_on_an_empty_census_fails():
    # a census below k is empty; it must not fall back to the default census
    result = invoke("verify", "--suite", "ky-bound", "--census", "-1")
    assert result.exit_code == 1
    assert result.output.strip() == "ky-bound: FAIL (pass=0 fail=0 skip-cap=0)"


def test_verify_checks_arguments_before_building_the_census(monkeypatch):
    def no_census(n_max, k):
        raise AssertionError("the census was built before the arguments were checked")

    monkeypatch.setattr(orelab.cli, "census_critical", no_census)
    typo = invoke("verify", "--suite", "all", "--census", "9", "--cap", "typo=1")
    assert typo.exit_code == 1 and "unknown cap key 'typo'" in typo.output
    bogus = invoke("verify", "--suite", "bogus", "--census", "9")
    assert bogus.exit_code == 1 and "unknown suite id 'bogus'" in bogus.output


def test_verify_in_skips_blank_lines_and_dedupes(tmp_path):
    k4 = Graph.complete(4)
    lines = [graph6_encode(k4), "", graph6_encode(k4.relabelled([3, 2, 1, 0])), graph6_encode(Graph.cycle(5))]
    json_path = tmp_path / "out.json"
    result = invoke(
        "verify", "--suite", "graph6-roundtrip", "--in", "-", "--json", str(json_path),
        input="\n".join(lines) + "\n",
    )
    assert result.exit_code == 0
    payload = json.loads(json_path.read_text())
    assert payload["config"]["graphs"] == "2"
    assert {row["graph6"] for row in payload["rows"]} == {graph6_encode(k4), graph6_encode(Graph.cycle(5))}


def test_export_formats():
    g6 = graph6_encode(Graph.path(3))
    dot = invoke("export", "--format", "dot", "--in", "-", input=g6)
    assert dot.exit_code == 0 and dot.output.startswith("graph G {")
    back = invoke("export", "--format", "g6", "--in", "-", input=g6)
    assert back.output.strip() == g6


def test_bad_graph6_reports_line_number():
    result = invoke("pack", "--k", "4", "--in", "-", input="C~\nD?\n")
    assert result.exit_code != 0
    assert "line 2" in result.output

"""Behaviour locks for the verification suites, the composition catalogs and
the discharging and extension records.

``orelab verify --suite all --census 7`` at k = 4 and k = 5 must reproduce
the per-suite counts, configs and row digests recorded in
``tests/golden/verify_all.json``. ``ore_catalog(k, 2)`` and
``gadget_catalog(k, 2)`` at k = 4 and 5 must reproduce the counts and
digests in ``tests/golden/catalogs.json``; the gadget digest covers the key
vertices, which no suite row shows. ``tests/golden/structure.json`` holds
digests of the charge bookkeeping (the ``charge_report`` fields, the roles,
one line per charge row, and the edge and charge counts over the L/M/P/Q
classes that ``tests/report_columns.py`` rebuilds from them) and of every
``build_extension`` record with the coloring it came from, on fixed small
corpora; suite rows show only totals of either. Refactors must leave all three files untouched;
regenerate them only for an intended change of results, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from itertools import combinations

from orelab import (
    bits_of,
    census_critical,
    charge_report,
    gadget_catalog,
    graph6_encode,
    graph_classes,
    mask_of,
    minimum_colorings,
    ore_catalog,
    realize,
    tree_dumps,
    tree_to_json,
)
from orelab.cli import main
from report_columns import charge_columns, extensions_with_colorings, phi
from sample_graphs import clebsch

GOLDEN = Path(__file__).with_name("golden") / "verify_all.json"
CATALOGS = Path(__file__).with_name("golden") / "catalogs.json"
STRUCTURE = Path(__file__).with_name("golden") / "structure.json"
SEED = 20250801
CENSUS = 7
KS = (4, 5)
CATALOG_STEPS = 2


def snapshot(workdir: Path) -> dict:
    out = {}
    for k in KS:
        report = workdir / f"verify-k{k}.json"
        result = CliRunner().invoke(
            main,
            [
                "verify", "--suite", "all", "--census", str(CENSUS), "--k", str(k),
                "--seed", str(SEED), "--json", str(report),
            ],
        )
        suites = {}
        for entry in json.loads(report.read_text()):
            rows = json.dumps(entry["rows"], sort_keys=True, separators=(",", ":"))
            suites[entry["suite"]] = {
                "config": entry["config"],
                "counts": entry["counts"],
                "passed": entry["passed"],
                "rows_sha256": hashlib.sha256(rows.encode()).hexdigest(),
            }
        out[f"k={k}"] = {"exit_code": result.exit_code, "suites": suites}
    return out


def _digest(lines: list[str]) -> dict:
    return {"count": len(lines), "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def catalog_snapshot() -> dict:
    out = {}
    for k in KS:
        gadgets = [
            json.dumps(
                {
                    "tree": tree_to_json(gadget.tree),
                    "deleted_vertex": gadget.deleted_vertex,
                    "graph6": graph6_encode(gadget.graph),
                    "key_vertices": list(bits_of(gadget.key_vertices)),
                },
                sort_keys=True,
            )
            for gadget in gadget_catalog(k, CATALOG_STEPS)
        ]
        out[f"k={k}"] = {
            "ore_catalog": _digest([tree_dumps(tree) for tree in ore_catalog(k, CATALOG_STEPS)]),
            "gadget_catalog": _digest(gadgets),
        }
    return out


def _charge_lines(g, k: int, cap: int = 2) -> list[str]:
    rep = charge_report(g, k)
    columns = charge_columns(g, k, cap)
    rows = columns.pop("rows")
    head = {
        "graph6": graph6_encode(g),
        "k": k,
        "sizes": rep.sizes,
        "identity_hypothesis": rep.identity_hypothesis,
        "total_charge": str(rep.total_charge),
        "rho_plus_delta_t": str(rep.rho_plus_delta_t),
        **columns,
    }
    lines = [json.dumps(head, sort_keys=True)]
    for v, r in enumerate(rows):
        lines.append(
            json.dumps([v, g.degree(v), columns["roles"][v], r.label, str(r.initial), str(r.final)])
        )
    return lines


def _extension_lines(g, k: int) -> list[str]:
    # the extension-potential suite's limits: 2 colorings, 3 witnesses
    lines = []
    colorings = (
        classes for r in map(mask_of, combinations(range(g.n), 3)) for classes in minimum_colorings(g, r, k, limit=2)
    )
    for rec, classes in extensions_with_colorings(g, k, colorings, limit=3):
        record = {
            "graph6": graph6_encode(g),
            "r_set": list(bits_of(rec.r_set)),
            "phi": [list(p) for p in phi(classes)],
            "w_vertices": [v for v in range(rec.w_subgraph.n) if rec.w_subgraph.adj[v]],
            "w_edges": sorted(map(list, rec.w_subgraph.edges())),
            "core": list(bits_of(rec.core)),
            "r_prime": list(bits_of(rec.r_prime)),
            "incompleteness": rec.incompleteness,
            "spanning": rec.r_prime.bit_count() == g.n,
        }
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def structure_snapshot() -> dict:
    out = {}
    for k in KS:
        census = census_critical(CENSUS, k).graphs
        out[f"census{CENSUS}_k{k}"] = {
            "charge_report": _digest([line for g in census for line in _charge_lines(g, k)]),
            "build_extension": _digest([line for g in census for line in _extension_lines(g, k)]),
        }
    classes = [g for n in range(7) for g in graph_classes(n)]
    out["classes6_k4"] = {
        "charge_report": _digest([line for g in classes for line in _charge_lines(g, 4)])
    }
    trees = [realize(tree) for tree in ore_catalog(6, 1)]
    out["ore1_k6"] = {
        "charge_report": _digest([line for g in trees for line in _charge_lines(g, 6, cap=1)])
    }
    # the oracle behind the promoted column embeds gadgets only for a
    # degree-(k-1) vertex on no K_{k-3}, which none of the graphs above has;
    # every vertex of the Clebsch graph is one at k = 6
    out["clebsch_k6"] = {"charge_report": _digest(_charge_lines(clebsch(), 6, cap=1))}
    return out


def test_verify_all_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    fresh = snapshot(tmp_path)
    for key in expected:
        assert list(fresh[key]["suites"]) == list(expected[key]["suites"]), key
        for suite, want in expected[key]["suites"].items():
            assert fresh[key]["suites"][suite] == want, (key, suite)
        assert fresh[key]["exit_code"] == expected[key]["exit_code"], key
    assert fresh == expected


def test_catalogs_match_golden():
    assert catalog_snapshot() == json.loads(CATALOGS.read_text())


def test_structure_matches_golden():
    assert structure_snapshot() == json.loads(STRUCTURE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(snapshot(Path(tmp)), indent=2) + "\n")
    CATALOGS.write_text(json.dumps(catalog_snapshot(), indent=2) + "\n")
    STRUCTURE.write_text(json.dumps(structure_snapshot(), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}, {CATALOGS} and {STRUCTURE}\n")

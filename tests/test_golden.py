"""Behaviour locks for the verification suites and the composition catalogs.

``orelab verify --suite all --census 7`` at k = 4 and k = 5 must reproduce
the per-suite counts, configs and row digests recorded in
``tests/golden/verify_all.json``. ``ore_catalog(k, 2)`` and
``gadget_catalog(k, 2)`` at k = 4 and 5 must reproduce the counts and
digests in ``tests/golden/catalogs.json``; the gadget digest covers the key
vertices, which no suite row shows. Refactors must leave both files
untouched; regenerate them only for an intended change of results, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from orelab import gadget_catalog, graph6_encode, ore_catalog, tree_dumps, tree_to_json
from orelab.cli import main

GOLDEN = Path(__file__).with_name("golden") / "verify_all.json"
CATALOGS = Path(__file__).with_name("golden") / "catalogs.json"
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
                    "key_vertices": sorted(gadget.key_vertices),
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(snapshot(Path(tmp)), indent=2) + "\n")
    CATALOGS.write_text(json.dumps(catalog_snapshot(), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN} and {CATALOGS}\n")

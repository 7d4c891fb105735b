"""Behaviour lock for the verification suites.

``orelab verify --suite all --census 7`` at k = 4 and k = 5 must reproduce
the per-suite counts, configs and row digests recorded in
``tests/golden/verify_all.json``. Refactors must leave this file untouched;
regenerate it only for an intended change of results, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from orelab.cli import main

GOLDEN = Path(__file__).with_name("golden") / "verify_all.json"
SEED = 20250801
CENSUS = 7
KS = (4, 5)


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


def test_verify_all_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    fresh = snapshot(tmp_path)
    for key in expected:
        assert list(fresh[key]["suites"]) == list(expected[key]["suites"]), key
        for suite, want in expected[key]["suites"].items():
            assert fresh[key]["suites"][suite] == want, (key, suite)
        assert fresh[key]["exit_code"] == expected[key]["exit_code"], key
    assert fresh == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(snapshot(Path(tmp)), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")

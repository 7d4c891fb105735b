"""Print one sha256 line per output family, so that two trees can be
compared byte for byte:

    python tools/digests.py > after.txt        # in the changed tree
    python tools/digests.py > before.txt       # in the parent's tree
    diff before.txt after.txt

It imports ``orelab`` from the ``src`` directory of the tree it sits in,
never from an installed copy, and writes its reports to a temporary
directory. The families:

- ``verify-json``, ``verify-csv``, ``verify-stdout``: ``orelab verify
  --suite all --census 8`` at k = 4, 5, 6 and seeds 1, 2, 3, the stdout
  with the exit code;
- ``census``: the graph6 lines of ``census_critical(n, k)`` for n = 7, 8, 9
  and k = 3..6;
- ``classes``: the graph6 lines of ``graph_classes(n)`` for n <= 7 and of
  the census's parent levels ``census._parents(m, top, k)`` for k = 3..6
  and k - 1 <= m <= top <= 8;
- ``gen-ore``: the graph6 and ``--tree-out`` lines that
  ``tests/test_cli.py`` pins (k = 4, 5, 33, 1 to 3 steps, seeds 1 to 3);
- ``catalog-trees``: the tree JSON of ``ore_catalog(k, 2)`` for k = 4, 5, 6;
- ``diamonds``: ``find_diamonds_emeralds`` on each of those realized trees;
- ``witnesses``: the tree JSON of ``is_k_ore`` on four seeded random trees
  for each k = 4, 5, 6 and 1 to 5 steps, each realized and relabelled.

A run takes about 4 s on a 2-core machine with Python 3.11.
"""

import hashlib
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from click.testing import CliRunner  # noqa: E402

from orelab import (  # noqa: E402
    census_critical,
    find_diamonds_emeralds,
    graph6_encode,
    graph_classes,
    is_k_ore,
    ore_catalog,
    random_ore_tree,
    realize,
    tree_dumps,
)
from orelab.census import _parents  # noqa: E402
from orelab.cli import main  # noqa: E402


def _verify(digests: dict, tmp: Path) -> None:
    for k in (4, 5, 6):
        for seed in (1, 2, 3):
            json_path, csv_path = tmp / f"{k}-{seed}.json", tmp / f"{k}-{seed}.csv"
            args = ["verify", "--suite", "all", "--census", "8", "--k", str(k), "--seed", str(seed)]
            result = CliRunner().invoke(main, args + ["--json", str(json_path), "--csv", str(csv_path)])
            digests["verify-json"].update(json_path.read_bytes())
            digests["verify-csv"].update(csv_path.read_bytes())
            digests["verify-stdout"].update(f"{result.exit_code}\n{result.output}".encode())


def _gen_ore(digests: dict, tmp: Path) -> None:
    trees = tmp / "trees.jsonl"
    for k in (4, 5, 33):
        for steps in (1, 2, 3):
            for seed in (1, 2, 3):
                args = ["gen-ore", "--k", str(k), "--steps", str(steps), "--seed", str(seed), "--count", "2"]
                result = CliRunner().invoke(main, args + ["--tree-out", str(trees)])
                digests["gen-ore"].update(f"{result.exit_code}\n{result.output}".encode())
                digests["gen-ore"].update(trees.read_bytes())


def _classes(digests: dict) -> None:
    for n in range(8):
        lines = "".join(graph6_encode(g) + "\n" for g in graph_classes(n))
        digests["classes"].update(f"{n}\n{lines}".encode())
    for k in range(3, 7):
        for top in range(k - 1, 9):
            for m in range(k - 1, top + 1):
                lines = "".join(graph6_encode(g) + "\n" for g in _parents(m, top, k))
                digests["classes"].update(f"{k} {top} {m}\n{lines}".encode())


def _witnesses(digests: dict) -> None:
    for k in (4, 5, 6):
        for steps in range(1, 6):
            rng = random.Random(f"witnesses:{k}:{steps}")
            for _ in range(4):
                g = realize(random_ore_tree(k, steps, rng))
                perm = list(range(g.n))
                rng.shuffle(perm)
                witness = is_k_ore(g.relabelled(perm), k, cap=g.n)
                digests["witnesses"].update((tree_dumps(witness) + "\n").encode())


def family_digests() -> dict:
    names = (
        "verify-json", "verify-csv", "verify-stdout", "census", "classes", "gen-ore", "catalog-trees", "diamonds",
        "witnesses",
    )
    digests = {name: hashlib.sha256() for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        _verify(digests, Path(tmp))
        _gen_ore(digests, Path(tmp))
    for n in (7, 8, 9):
        for k in range(3, 7):
            lines = "".join(graph6_encode(g) + "\n" for g in census_critical(n, k))
            digests["census"].update(f"{n} {k}\n{lines}".encode())
    _classes(digests)
    for k in (4, 5, 6):
        for tree in ore_catalog(k, 2):
            digests["catalog-trees"].update((tree_dumps(tree) + "\n").encode())
            found = find_diamonds_emeralds(realize(tree), k)
            digests["diamonds"].update((" ".join(map(str, found)) + "\n").encode())
    _witnesses(digests)
    return digests


if __name__ == "__main__":
    for name, digest in family_digests().items():
        print(f"{digest.hexdigest()}  {name}")

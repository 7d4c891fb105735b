"""Verification suites: each suite replays one finite-checkable claim over a
corpus and reports one row per checked instance, carrying exact values so any
row can be re-verified by hand.

A suite passes only if it produced at least one passing row and no failing
row; rows skipped at a size cap are counted but never treated as passes.
``run_suite`` is the one place that turns an item's error into a row: a
SizeCapError from any suite gives one ``skip-cap`` row for that item, and an
AssertionError (a failed internal audit) one ``fail`` row. Either row carries
the item's graph6 (a tree's realized root), the suite id as its claim and the
error text as ``note``. Any other ValueError (bad input, a broken
precondition) ends the run.

All randomness flows through one seeded generator echoed in the config, so a
suite result is a pure function of (corpus, params).

A suite computes each fact once per item, or once per sweep where items
share it: the trees of one (k, seed) are realized bottom-up into one record
per tree, which main2-potential, t-superadd and t-lower share, and each
distinct subtree graph among them is packed once; a graph's near-cliques
are listed once and filtered per forbidden set; the extension suite
searches each distinct color reduction for critical subgraphs once, and
packs each distinct R, R' and W once, per host graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, NamedTuple

from .census import census_critical, graph_classes, random_graph
from .coloring import chromatic_number, edge_count_lemma_check
from .discharging import charge_report
from .errors import SizeCapError
from .graphs import Graph, bits_of, canonical_key, cliques_of_size, graph6_decode, graph6_encode, mask_of
from .orekit import (
    DEFAULT_RECOGNITION_CAP,
    OreTree,
    _realized,
    is_k_ore,
    ore_catalog,
    random_ore_tree,
    realize,
    tree_k,
)
from .packing import compute_T, compute_T_bruteforce
from .potential import (
    PotentialParams,
    complete_graph_T,
    complete_potential,
    ky_edge_bound,
    main_potential_bound,
    rho_ky,
    rho_subset,
    rho_value,
)
from .structure import build_extension, find_diamonds_emeralds, mic, minimum_colorings

DEFAULT_SEED = 20250801
_PARAM_KEYS = ("k", "seed", "caps", "trees")
# the sizes of the default inputs
CENSUS_MAX = 8  # criticality census order
CLASSES_MAX = 6  # order of the enumerated graph classes
RANDOM_GRAPHS = 500  # seeded random graphs, 1 to 10 vertices each
MIXED_RANDOM = 100  # random graphs appended to the classes
RANDOM_TREES = 200  # seeded random composition trees
TREE_STEPS = 3  # most compositions in a random tree
CATALOG_STEPS = 2  # most compositions in the exhaustive catalog
ANCHOR_SIZES = (3, 4, 5)  # anchor set sizes of the extension suite
# search nodes of the coloring oracle: graph classes up to 7 vertices need at
# most 2,380, census_critical(9, 5) 4,801, K_9 125,683 and K_10 1,112,094
ORACLE_NODE_BUDGET = 200_000

PASS = "pass"
FAIL = "fail"
SKIP = "skip-cap"


@dataclass(frozen=True, slots=True)
class SuiteRow:
    graph6: str
    claim: str
    values: tuple[tuple[str, str], ...]
    status: str


@dataclass(frozen=True)
class SuiteResult:
    suite_id: str
    rows: tuple[SuiteRow, ...]
    config: tuple[tuple[str, str], ...]

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for r in self.rows:
            out[r.status] += 1
        return out

    @property
    def passed(self) -> bool:
        c = self.counts()
        return c[FAIL] == 0 and c[PASS] > 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite_id,
            "config": dict(self.config),
            "counts": self.counts(),
            "passed": self.passed,
            "rows": [
                {
                    "graph6": r.graph6,
                    "claim": r.claim,
                    "status": r.status,
                    "values": dict(r.values),
                }
                for r in self.rows
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        head = ["graph6", "claim", "status", "values"]
        body = [
            [r.graph6, r.claim, r.status, ";".join(f"{k}={v}" for k, v in r.values)]
            for r in self.rows
        ]
        return [head] + body


def _vals(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


def _row(g6: str, claim: str, ok: bool, **values) -> SuiteRow:
    return SuiteRow(g6, claim, _vals(**values), PASS if ok else FAIL)


# -- individual suites: each checks one graph or tree and returns its rows -----


def _ky_bound(g: Graph, params: dict) -> list[SuiteRow]:
    bound = ky_edge_bound(g.n, params["k"])
    m = g.edge_count()
    return [
        _row(
            graph6_encode(g),
            "critical graph meets the ceiling edge bound",
            m >= bound,
            n=g.n,
            m=m,
            bound=bound,
        )
    ]


def _ky_equality_ore(g: Graph, params: dict) -> list[SuiteRow]:
    k = params["k"]
    target = rho_ky(g, k) == k * (k - 3)
    witness = is_k_ore(g, k, cap=params["caps"]["recognition"])
    return [
        _row(
            graph6_encode(g),
            "integer potential is extremal exactly for composed graphs",
            target == (witness is not None),
            rho_ky=rho_ky(g, k),
            extremal=target,
            recognized=witness is not None,
        )
    ]


class _Subtree(NamedTuple):
    """One subtree of a composition tree, as the tree suites read it."""

    graph6: str
    n: int
    m: int
    packed: int | SizeCapError | AssertionError  # T, or the error its packing raised

    @property
    def t(self) -> int:
        """The packing value; raises the size cap or failed audit its
        packing hit, for run_suite to turn into a row."""
        if isinstance(self.packed, Exception):
            raise self.packed.with_traceback(None)
        return self.packed


@lru_cache(maxsize=1)
def _tree_records(trees: tuple, k: int) -> tuple[tuple[_Subtree, ...], ...]:
    """One record per tree of ``trees``: every subtree, children before
    their parent, realized and composed once per distinct tree. Each
    distinct subtree graph is packed once per call: a subtree graph that
    several trees share, K_k in each of them, reads the packing of the
    first. A size cap or failed audit while packing one subtree is kept in
    its entry, so only the rows that read that subtree's T skip or fail.
    The three tree suites sit next to each other in ``_SUITES``, so one
    kept call serves all three."""
    packed: dict[Graph, _Subtree] = {}
    records: dict[OreTree, tuple[_Subtree, ...]] = {}
    for tree in trees:
        if tree in records:
            continue
        actual = tree_k(tree)
        if actual != k:
            raise ValueError(f"tree is built over k={actual}, caller expected {k}")
        record = []
        for _, g in _realized(tree):
            if g not in packed:
                try:
                    t = compute_T(g, k).value
                except (SizeCapError, AssertionError) as err:
                    # dropping the traceback keeps the search's frames, and
                    # the clique lists in them, out of the kept records
                    t = err.with_traceback(None)
                packed[g] = _Subtree(graph6_encode(g), g.n, g.edge_count(), t)
            record.append(packed[g])
        records[tree] = tuple(record)
    return tuple(records[tree] for tree in trees)


def _main2_potential(record: tuple[_Subtree, ...], params: dict) -> list[SuiteRow]:
    k = params["k"]
    root = record[-1]
    t = root.t
    value = rho_value(root.n, root.m, t, k)
    if len(record) == 1:  # a leaf, K_k
        expect = complete_potential(k, k)
        return [
            _row(
                root.graph6,
                "complete graph hits its exact potential value",
                value == expect,
                n=root.n,
                t=t,
                rho=value,
                expected=expect,
            )
        ]
    bound = main_potential_bound(root.n, k)
    return [
        _row(
            root.graph6,
            "composed graph stays under the potential bound",
            value <= bound,
            n=root.n,
            m=root.m,
            t=t,
            rho=value,
            bound=bound,
            equality=value == bound,
        )
    ]


def _t_superadd(record: tuple[_Subtree, ...], params: dict) -> list[SuiteRow]:
    k = params["k"]
    rows = []
    waiting = []  # subtrees whose parent is still to come
    for sub in record:
        t = sub.t
        # a leaf is K_k and a composed graph has at least 2k - 1 vertices, so
        # an entry with more than k is a node, whose sides were the last two
        if sub.n > k:
            side2, side1 = waiting.pop(), waiting.pop()
            t1, t2 = side1.t, side2.t
            leaves = (side1.n == k) + (side2.n == k)
            if leaves == 2:
                rows.append(_row(sub.graph6, "double complete composition packs exactly 4", t == 4, t=t, t1=t1, t2=t2))
            else:
                drop = 2 - leaves
                rows.append(
                    _row(
                        sub.graph6,
                        "packing value is superadditive under composition",
                        t >= t1 + t2 - drop,
                        t=t,
                        t1=t1,
                        t2=t2,
                        allowed_drop=drop,
                    )
                )
        waiting.append(sub)
    return rows


def _t_lower(record: tuple[_Subtree, ...], params: dict) -> list[SuiteRow]:
    k = params["k"]
    if len(record) == 1:  # a leaf, K_k
        return []
    root = record[-1]
    bound = Fraction(2) + Fraction(root.n - 1, k - 1)
    return [
        _row(
            root.graph6,
            "composed graph packing value clears the size bound",
            Fraction(root.t) >= bound,
            n=root.n,
            t=root.t,
            bound=bound,
        )
    ]


def _diamond_emerald(tree: OreTree, params: dict) -> list[SuiteRow]:
    k = params["k"]
    g = realize(tree, k)
    g6 = graph6_encode(g)
    found = find_diamonds_emeralds(g, k)
    forbidden = [("near-clique witness avoiding one vertex", 1 << v) for v in range(g.n)]
    if g.n > k:
        forbidden += [("near-clique witness avoiding a full clique", c) for c in cliques_of_size(g, k - 1)]
    rows = []
    for claim, forb in forbidden:
        hits = sum(1 for vertices in found if not vertices & forb)
        rows.append(_row(g6, claim, hits > 0, forbidden="+".join(map(str, bits_of(forb))), witnesses=hits))
    return rows


def _extension_potential(g: Graph, params: dict) -> list[SuiteRow]:
    caps = params["caps"]
    return list(islice(_extension_rows(g, params["k"], caps), caps["extensions_per_graph"]))


def _extension_rows(g: Graph, k: int, caps: dict) -> Iterator[SuiteRow]:
    par = PotentialParams.for_k(k)
    g6 = graph6_encode(g)
    # anchors in lexicographic order of their vertex lists, not in mask
    # order: the caller keeps the first rows
    colorings = (
        classes
        for size in ANCHOR_SIZES
        if size < g.n
        for r in map(mask_of, combinations(range(g.n), size))
        for classes in minimum_colorings(g, r, k, limit=caps["colorings_per_subset"])
    )
    # rho of each induced graph met so far (G[R], G[R'] or W), so each
    # distinct one is packed once per host graph
    rhos: dict[Graph, Fraction] = {}

    def rho_of(host: Graph, subset: int) -> Fraction:
        sub = host.induced(subset)
        if sub not in rhos:
            rhos[sub] = rho_subset(host, subset, k)
        return rhos[sub]

    for rec in build_extension(g, k, colorings, limit=caps["witnesses_per_reduction"]):
        rho_r, lhs = rho_of(g, rec.r_set), rho_of(g, rec.r_prime)
        w = rec.w_subgraph
        x = rec.core.bit_count()
        rhs = (
            rho_r
            + rho_of(w, mask_of(v for v in range(w.n) if w.adj[v]))
            - (
                complete_potential(x, k)
                + par.delta * complete_graph_T(x, k)
                - par.delta * x
            )
        )
        yield _row(
            g6,
            "extension never raises the subset potential past the drop bound",
            lhs <= rhs,
            r="+".join(map(str, bits_of(rec.r_set))),
            r_prime="+".join(map(str, bits_of(rec.r_prime))),
            core=x,
            incompleteness=rec.incompleteness,
            lhs=lhs,
            rhs=rhs,
        )


def _kernel_ineq(g: Graph, params: dict) -> list[SuiteRow]:
    check = edge_count_lemma_check(g, params["k"], subset_cap=params["caps"]["subset_cap"])
    return [
        _row(
            graph6_encode(g),
            "independent low-degree sets meet the strict edge count bound",
            check.ok,
            subsets=check.subsets_checked,
            b0=check.b0.bit_count(),
            b1=check.b1.bit_count(),
            violations=len(check.violations),
        )
    ]


def _mic_ineq(g: Graph, params: dict) -> list[SuiteRow]:
    value, _ = mic(g)
    return [
        _row(
            graph6_encode(g),
            "doubled edge count beats the degree-weighted independence term",
            2 * g.edge_count() > (params["k"] - 2) * g.n + value,
            n=g.n,
            m=g.edge_count(),
            mic=value,
        )
    ]


def _charge_identity(g: Graph, params: dict) -> list[SuiteRow]:
    report = charge_report(g, params["k"])
    return [
        _row(
            graph6_encode(g),
            "initial charge totals the potential and the rules conserve it",
            report.total_charge == report.rho_plus_delta_t,
            total=report.total_charge,
            rho_plus=report.rho_plus_delta_t,
        )
    ]


def _packing_oracle(g: Graph, params: dict) -> list[SuiteRow]:
    k = params["k"]
    fast = compute_T(g, k).value
    slow = compute_T_bruteforce(g, k)
    return [
        _row(
            graph6_encode(g),
            "packer agrees with the independent oracle",
            fast == slow,
            fast=fast,
            oracle=slow,
        )
    ]


def _chromatic_oracle(g: Graph) -> int:
    """Plain backtracking over vertex order with 0, 1, 2, ... colors; past
    ORACLE_NODE_BUDGET search nodes it raises SizeCapError."""
    nbrs = [tuple(bits_of(g.adj[v] & ((1 << v) - 1))) for v in range(g.n)]
    colors = [0] * g.n
    nodes = 0
    for t in range(g.n + 1):  # n colours always do
        done, nodes = _backtrack(nbrs, colors, 0, t, nodes)
        if done:
            return t


def _backtrack(nbrs: list[tuple[int, ...]], colors: list[int], v: int, t: int, nodes: int) -> tuple[bool, int]:
    """``_chromatic_oracle``'s search for colours in 1..t of the vertices
    from v on, ``colors`` holding those before it: whether one exists, and
    ``nodes`` plus the nodes it visited."""
    nodes += 1
    if nodes > ORACLE_NODE_BUDGET:
        raise SizeCapError("plain-backtracking coloring nodes", nodes, ORACLE_NODE_BUDGET)
    if v == len(nbrs):
        return True, nodes
    used = {colors[u] for u in nbrs[v]}
    for c in range(1, t + 1):
        if c not in used:
            colors[v] = c
            done, nodes = _backtrack(nbrs, colors, v + 1, t, nodes)
            if done:
                return True, nodes
    return False, nodes


def _coloring_oracle(g: Graph, params: dict) -> list[SuiteRow]:
    fast = chromatic_number(g)
    slow = _chromatic_oracle(g)
    return [
        _row(
            graph6_encode(g),
            "solver chromatic number agrees with plain backtracking",
            fast == slow,
            fast=fast,
            oracle=slow,
        )
    ]


def _graph6_roundtrip(g: Graph, params: dict) -> list[SuiteRow]:
    g6 = graph6_encode(g)
    back = graph6_decode(g6)
    # seeding per graph makes each row independent of the corpus order
    rng = random.Random(f"{params['seed']}:{g6}")
    perm = list(range(g.n))
    rng.shuffle(perm)
    shuffled = g.relabelled(perm)
    return [
        _row(g6, "decode inverts encode", back == g, n=g.n, m=g.edge_count()),
        _row(
            g6,
            "canonical form ignores labeling",
            canonical_key(shuffled) == canonical_key(g),
            n=g.n,
        ),
    ]


class _Suite(NamedTuple):
    check: Callable  # (graph, tree or tree record, params) -> rows for that item
    default: str  # input kind used when the caller gives none, see _default_input
    caps: dict[str, int]  # the cap keys the suite reads, with their defaults


_SUITES = {
    "ky-bound": _Suite(_ky_bound, "census", {}),
    "ky-equality-ore": _Suite(_ky_equality_ore, "census", {"recognition": DEFAULT_RECOGNITION_CAP}),
    "main2-potential": _Suite(_main2_potential, "trees", {}),
    "t-superadd": _Suite(_t_superadd, "trees", {}),
    "t-lower": _Suite(_t_lower, "trees", {}),
    "diamond-emerald": _Suite(_diamond_emerald, "catalog", {}),
    "extension-potential": _Suite(
        _extension_potential,
        "census",
        {"extensions_per_graph": 30, "colorings_per_subset": 2, "witnesses_per_reduction": 3},
    ),
    "kernel-ineq": _Suite(_kernel_ineq, "census", {"subset_cap": 2 ** 20}),
    "mic-ineq": _Suite(_mic_ineq, "census", {}),
    "charge-identity": _Suite(_charge_identity, "classes+random", {}),
    "packing-oracle": _Suite(_packing_oracle, "random", {}),
    "coloring-oracle": _Suite(_coloring_oracle, "classes", {}),
    "graph6-roundtrip": _Suite(_graph6_roundtrip, "classes", {}),
}

SUITE_IDS = tuple(_SUITES)
_CAP_KEYS = tuple(sorted({key for suite in _SUITES.values() for key in suite.caps}))
_TREE_KINDS = ("trees", "catalog")


@lru_cache(maxsize=4)
def _default_input(kind: str, k: int, seed: int) -> tuple:
    """The default graphs or trees of one kind, built once per (kind, k, seed)
    and shared by every suite of that kind. Four entries are enough for
    ``verify --suite all`` to build each kind once per (k, seed)."""
    if kind == "census":
        return census_critical(CENSUS_MAX, k).graphs
    if kind == "classes":
        return tuple(g for n in range(1, CLASSES_MAX + 1) for g in graph_classes(n))
    if kind == "classes+random":
        return _default_input("classes", k, seed) + _default_input("random", k, seed)[:MIXED_RANDOM]
    if kind == "catalog":
        return ore_catalog(k, CATALOG_STEPS)
    rng = random.Random(seed)
    if kind == "random":
        return tuple(random_graph(rng, rng.randrange(1, 11)) for _ in range(RANDOM_GRAPHS))
    return tuple(random_ore_tree(k, rng.randrange(1, TREE_STEPS + 1), rng) for _ in range(RANDOM_TREES))


def check_suite_args(suite_ids: Iterable[str], caps: dict) -> None:
    """Raise ValueError for a suite id or a cap that no suite in the registry
    accepts; cheap, so callers run it before building any corpus."""
    for suite_id in suite_ids:
        if suite_id not in _SUITES:
            raise ValueError(f"unknown suite id {suite_id!r}; expected one of {', '.join(SUITE_IDS)}")
    for key, value in caps.items():
        if key not in _CAP_KEYS:
            raise ValueError(f"unknown cap key {key!r}; expected one of {', '.join(_CAP_KEYS)}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"cap {key!r} needs an integer value, got {value!r}")
        if value < 0:
            raise ValueError(f"cap {key!r} must be nonnegative, got {value}")


def run_suite(suite_id: str, corpus=None, params: dict | None = None) -> SuiteResult:
    """Run one named suite and return its sorted, re-verifiable rows.

    ``corpus`` is an iterable of graphs (a Corpus is one) or None to let the
    suite build its documented default input. Tree-driven suites read
    ``params["trees"]`` and otherwise use seeded random composition trees
    (or, for the near-clique suite, the exhaustive catalog); a library
    caller sizes a suite's input with a corpus or ``trees``. The three tree
    suites check one record per tree, built by ``_tree_records`` and kept
    for the last trees and k asked for, so running them one after another
    realizes and packs those trees once. An empty corpus gives no rows,
    which is not a pass. An item that hits a size cap or fails an internal
    audit gives one skip-cap or fail row, named by the graph6 of the graph
    or the tree's root; any other ValueError propagates. ``params["caps"]``
    may set, to a nonnegative integer, any cap key that some suite in the
    registry declares; any other key or value raises ValueError, and so
    does any params key other than k, seed, caps and trees.
    """
    p = {"k": 4, "seed": DEFAULT_SEED, "caps": {}}
    p.update(params or {})
    for key in p:
        if key not in _PARAM_KEYS:
            raise ValueError(
                f"unknown suite parameter {key!r}; expected one of {', '.join(_PARAM_KEYS)}"
            )
    check_suite_args((suite_id,), p["caps"])
    suite = _SUITES[suite_id]
    graphs = items = [] if corpus is None else list(corpus)
    trees: tuple = ()
    on_trees = suite.default in _TREE_KINDS
    on_records = suite.default == "trees"
    if on_trees:
        given = p.get("trees")
        trees = _default_input(suite.default, p["k"], p["seed"]) if given is None else tuple(given)
        items = _tree_records(trees, p["k"]) if on_records else trees
    elif corpus is None:
        graphs = items = _default_input(suite.default, p["k"], p["seed"])
    item_params = {**p, "caps": {**suite.caps, **p["caps"]}}

    def checked(item) -> list[SuiteRow]:
        try:
            return suite.check(item, item_params)
        except (SizeCapError, AssertionError) as err:
            if on_records:
                g6 = item[-1].graph6  # the root's
            else:
                g6 = graph6_encode(realize(item, p["k"]) if on_trees else item)
            status = SKIP if isinstance(err, SizeCapError) else FAIL
            return [SuiteRow(g6, suite_id, _vals(note=str(err)), status)]

    rows = [row for item in items for row in checked(item)]
    rows.sort(key=lambda r: (r.graph6, r.claim, r.values))
    config = _vals(
        suite=suite_id,
        k=p["k"],
        seed=p["seed"],
        caps=";".join(f"{a}={b}" for a, b in sorted(p["caps"].items())),
        graphs=len(graphs),
        trees=len(trees),
    )
    return SuiteResult(suite_id, tuple(rows), config)

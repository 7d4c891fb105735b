"""Acceptance gate: thirteen numbered criteria, one test each, then the tree
suites at the paper's k (33, 36 and 40). The labelled graphs of the order-9
censuses that the criteria read are locked by digest.

Every criterion records a single human-readable pass line through the
``acceptance_log`` fixture; the conftest summary hook prints them all after
the run. Criterion 13 is a documented substitution, see its docstring. The
runs at the paper's k write ``artifacts/t_growth.csv``.
"""

import csv
import hashlib
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from orelab import (
    DEFAULT_SEED,
    Graph,
    Node,
    PotentialParams,
    census_critical,
    complete_potential,
    compute_T,
    graph6_encode,
    graph_classes,
    is_k_ore,
    main_potential_bound,
    random_graph,
    random_ore_tree,
    realize,
    rho,
    run_suite,
)
from orelab.packing import compute_T_bruteforce
from sample_graphs import one_step

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"

TREE_KS = (4, 5, 6)


@pytest.fixture(scope="module")
def census4_9():
    t0 = time.perf_counter()
    corpus = census_critical(9, 4)
    return corpus, time.perf_counter() - t0


@pytest.fixture(scope="module")
def census5_9():
    t0 = time.perf_counter()
    corpus = census_critical(9, 5)
    return corpus, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tree_corpora():
    out = {}
    for k in TREE_KS:
        rng = random.Random(DEFAULT_SEED + k)
        trees = [random_ore_tree(k, rng.randrange(1, 4), rng) for _ in range(200)]
        trees.append(one_step(k))
        out[k] = trees
    return out


def test_criterion_01_edge_bound_on_census(census4_9, acceptance_log):
    corpus, build_time = census4_9
    t0 = time.perf_counter()
    result = run_suite("ky-bound", corpus=corpus)
    elapsed = build_time + (time.perf_counter() - t0)
    counts = result.counts()
    assert result.passed and counts["fail"] == 0
    assert counts["pass"] == len(corpus) == 30
    assert elapsed < 600
    acceptance_log(
        1,
        f"edge bound holds on all {counts['pass']} census graphs (k=4, n<=9), "
        f"0 violations, {elapsed:.1f}s",
    )


# sha256 of the census's graph6 lines, in corpus order, joined by newlines;
# at k = 3 one mask that misses a parent component survives the sieve, and
# only a parent-edge table cuts it
CENSUS_9_DIGESTS = {
    3: "2b33dad30e27aa51950d43c3dd8b136a5cfd6b6c66c92a2f8b94bd61c73599ba",
    4: "35f9cb897176729203eeb738724802d51ec92ad015a4f564854627e2af101724",
    5: "d85b5dbbf5f02d8ed3ccd6ce10f59ea400fd9dec1ba9d1182d088b6d385af6cf",
    6: "adab8308a249ac750751d1d80f3b783bed50d3ae10faafaa4d1b8f83d8296a8f",
}


def test_order_nine_census_representatives_are_frozen(census4_9, census5_9):
    for k, corpus in ((3, census_critical(9, 3)), (4, census4_9[0]), (5, census5_9[0]), (6, census_critical(9, 6))):
        lines = "\n".join(graph6_encode(g) for g in corpus.graphs)
        assert hashlib.sha256(lines.encode()).hexdigest() == CENSUS_9_DIGESTS[k], k


def test_criterion_02_extremal_iff_recognized(census4_9, acceptance_log):
    corpus, _ = census4_9
    result = run_suite("ky-equality-ore", corpus=corpus)
    counts = result.counts()
    assert result.passed and counts == {"pass": 30, "fail": 0, "skip-cap": 0}
    extremal = [g for g in corpus.graphs if is_k_ore(g, 4) is not None]
    acceptance_log(
        2,
        f"integer potential extremal exactly for the {len(extremal)} recognized "
        f"composed graphs out of {len(corpus)}, exact rationals",
    )


def test_criterion_03_complete_graph_potential_formula(acceptance_log):
    t0 = time.perf_counter()
    for k in range(4, 41):
        par = PotentialParams.for_k(k)
        expect = Fraction(k * (k - 3)) + k * par.eps - 2 * par.delta
        assert complete_potential(k, k) == expect
    elapsed = time.perf_counter() - t0
    for k in (4, 5, 6):
        g = Graph.complete(k)
        assert rho(g, k, compute_T(g, k).value) == complete_potential(k, k)
    assert elapsed < 1.0
    acceptance_log(3, f"complete-graph potential exact for k=4..40 in {elapsed:.3f}s")


def test_criterion_04_composed_potential_bound(tree_corpora, acceptance_log):
    total = 0
    for k in TREE_KS:
        result = run_suite("main2-potential", params={"k": k, "trees": tree_corpora[k]})
        counts = result.counts()
        assert result.passed and counts["fail"] == 0
        total += counts["pass"]
        g = realize(one_step(k), k)
        value = rho(g, k, compute_T(g, k).value)
        assert value == main_potential_bound(g.n, k)
    acceptance_log(
        4,
        f"composed potential bound exact on {total} trees (k=4,5,6; up to 3 "
        f"steps), single-step equality witnessed for each k",
    )


def test_criterion_05_packing_superadditivity(tree_corpora, acceptance_log):
    total = 0
    for k in TREE_KS:
        result = run_suite("t-superadd", params={"k": k, "trees": tree_corpora[k]})
        counts = result.counts()
        assert result.passed and counts["fail"] == 0
        total += counts["pass"]
    crosschecked = 0
    for k in (4, 5):
        g = realize(one_step(k), k)
        assert g.n <= 12
        assert compute_T(g, k).value == compute_T_bruteforce(g, k)
        crosschecked += 1
    acceptance_log(
        5,
        f"packing superadditivity holds at all {total} composition nodes; "
        f"{crosschecked} single-step graphs cross-checked against the brute oracle",
    )


def test_criterion_06_packing_size_lower_bound(tree_corpora, acceptance_log):
    total = 0
    for k in TREE_KS:
        result = run_suite("t-lower", params={"k": k, "trees": tree_corpora[k]})
        counts = result.counts()
        assert result.passed and counts["fail"] == 0
        total += counts["pass"]
    acceptance_log(6, f"packing size lower bound exact on {total} composed graphs")


def test_criterion_07_near_clique_witnesses(acceptance_log):
    total = 0
    for k in (4, 5):
        result = run_suite("diamond-emerald", params={"k": k})  # the two-step catalog
        counts = result.counts()
        assert result.passed and counts["fail"] == 0
        total += counts["pass"]
    acceptance_log(
        7,
        f"near-clique witness found for every vertex and clique avoidance "
        f"query over the two-step catalogs (k=4,5): {total} queries, 0 failures",
    )


def test_criterion_08_oracle_equivalence(census4_9, acceptance_log):
    corpus, _ = census4_9
    rand = run_suite("packing-oracle")
    assert rand.passed and rand.counts() == {"pass": 500, "fail": 0, "skip-cap": 0}
    small = [g for g in corpus.graphs if g.n <= 8]
    cens = run_suite("packing-oracle", corpus=small)
    assert cens.passed and cens.counts()["pass"] == len(small) == 9
    chrom = run_suite("coloring-oracle")  # every class with n <= 6
    assert chrom.passed and chrom.counts() == {"pass": 208, "fail": 0, "skip-cap": 0}
    acceptance_log(
        8,
        "packer agrees with brute oracle on 500 random graphs (n<=10) and 9 "
        "census graphs; chromatic solver agrees with backtracking on all 208 "
        "classes with n<=6",
    )


def test_criterion_09_extension_inequality(census4_9, acceptance_log):
    corpus, _ = census4_9
    result = run_suite(
        "extension-potential",
        corpus=corpus,
        params={"caps": {"extensions_per_graph": 5}},
    )
    counts = result.counts()
    assert result.passed and counts["fail"] == 0
    assert counts["pass"] >= 100
    acceptance_log(
        9,
        f"extension inequality exact on {counts['pass']} records from census "
        f"hosts with anchor sets of size 3, 4, 5",
    )


def test_criterion_10_low_vertex_edge_count(census4_9, acceptance_log):
    corpus, _ = census4_9
    small = [g for g in corpus.graphs if g.n <= 8]
    result = run_suite("kernel-ineq", corpus=small)
    counts = result.counts()
    assert result.passed and counts == {"pass": 9, "fail": 0, "skip-cap": 0}
    acceptance_log(
        10,
        "low-vertex edge count lemma holds for every independent low set on "
        "all 9 census graphs with n<=8, 0 violations",
    )


def test_criterion_11_charge_identity(census4_9, census5_9, acceptance_log):
    c4, _ = census4_9
    c5, _ = census5_9
    for k, corpus in ((4, c4), (5, c5)):
        result = run_suite("charge-identity", corpus=corpus, params={"k": k})
        assert result.passed and result.counts()["fail"] == 0
        assert result.counts()["pass"] == len(corpus)
    rng = random.Random(DEFAULT_SEED)  # the default random stream
    small = list(graph_classes(1)) + [random_graph(rng, rng.randrange(1, 11)) for _ in range(100)]
    rand = run_suite("charge-identity", corpus=small)
    assert rand.passed and rand.counts()["pass"] == 101
    acceptance_log(
        11,
        f"total charge equals potential plus weighted packing on all "
        f"{len(c4) + len(c5)} census graphs (k=4,5) and 100 random graphs, "
        f"exact rationals, conservation included",
    )


def test_criterion_12_independence_degree_inequality(census4_9, census5_9, acceptance_log):
    total = 0
    for k, (corpus, _) in ((4, census4_9), (5, census5_9)):
        result = run_suite("mic-ineq", corpus=corpus, params={"k": k})
        counts = result.counts()
        assert result.passed and counts["fail"] == 0
        total += counts["pass"]
    acceptance_log(
        12,
        f"doubled edge count beats the independence-degree term on all "
        f"{total} census graphs (k=4,5)",
    )


def test_criterion_13_observational_rho_report(census4_9, census5_9, acceptance_log):
    """The asymptotic non-composed potential gap is out of desk scale (it
    needs k >= 33); the agreed substitute is the property suites above plus
    an observational report of exact potentials for non-composed census
    graphs, written out as a CSV artifact."""
    rows = []
    for k, (corpus, _) in ((4, census4_9), (5, census5_9)):
        threshold = Fraction(k * (k - 3) - 2 * (k - 1))
        for g in corpus.graphs:
            if is_k_ore(g, k) is not None:
                continue
            t_val = compute_T(g, k).value
            value = rho(g, k, t_val)
            rows.append(
                {
                    "k": k,
                    "graph6": graph6_encode(g),
                    "n": g.n,
                    "m": g.edge_count(),
                    "T": t_val,
                    "rho": str(value),
                    "exceeds_asymptotic_gap": value > threshold,
                }
            )
    assert rows
    over = sum(1 for r in rows if r["exceeds_asymptotic_gap"])
    assert over > 0  # the k >= 33 hypothesis is genuinely load-bearing
    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / "rho_observational.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    acceptance_log(
        13,
        f"substituted by design: asymptotic gap needs k>=33; exact potentials "
        f"of {len(rows)} non-composed census graphs reported to "
        f"{out.relative_to(ARTIFACTS.parent)} ({over} exceed the asymptotic "
        f"gap value, as expected at small k)",
    )


PAPER_KS = (33, 36, 40)


def paper_tree(k: int, steps: int) -> Node:
    return random_ore_tree(k, steps, random.Random(steps))


@pytest.mark.parametrize("k", PAPER_KS)
@pytest.mark.parametrize("suite_id", ["main2-potential", "t-lower", "t-superadd"])
def test_tree_suites_at_the_papers_k(suite_id, k):
    """The paper's theorem needs k >= 33; the suites over composition trees
    run there on seeded trees of 1, 2 and 3 steps."""
    result = run_suite(suite_id, params={"k": k, "trees": [paper_tree(k, steps) for steps in (1, 2, 3)]})
    counts = result.counts()
    assert result.passed and counts["fail"] == counts["skip-cap"] == 0 and counts["pass"] >= 3


@pytest.mark.parametrize("k", PAPER_KS)
def test_charge_identity_at_the_papers_k(k):
    """The charge audit on seeded composed graphs of 1, 2 and 3 steps: every
    degree-(k-1) vertex lies in a K_{k-3}, so no gadget catalog is built."""
    graphs = [realize(paper_tree(k, steps), k) for steps in (1, 2, 3)]
    result = run_suite("charge-identity", corpus=graphs, params={"k": k})
    counts = result.counts()
    assert result.passed and counts["fail"] == counts["skip-cap"] == 0 and counts["pass"] == 3


def test_packing_grows_with_n_at_the_papers_k():
    """T(G) on seeded composed graphs up to the 256-vertex cap, beside the
    t-lower bound 2 + (n-1)/(k-1) that it meets or beats: the packing of a
    composed graph grows at least linearly with n. Written to
    artifacts/t_growth.csv."""
    rows = []
    for k, max_steps in ((33, 6), (40, 5)):
        for steps in range(1, max_steps + 1):
            g = realize(paper_tree(k, steps), k)
            t_val = compute_T(g, k).value
            bound = 2 + Fraction(g.n - 1, k - 1)
            assert t_val >= bound
            rows.append(
                {"k": k, "steps": steps, "n": g.n, "T": t_val, "T/n": f"{t_val / g.n:.4f}", "t_lower_bound": str(bound)}
            )
    assert [r["T"] for r in rows if r["k"] == 33] == [4, 5, 6, 8, 8, 11]
    ARTIFACTS.mkdir(exist_ok=True)
    with (ARTIFACTS / "t_growth.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

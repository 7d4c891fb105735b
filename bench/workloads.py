"""The three benchmark workloads: input generation, the timed calls into
orelab, and the output checks that run after the clock stops.

Each workload object is built inside a fresh interpreter (see child.py):
``setup`` makes the inputs from the seed and warms what a user would have
warm, ``run`` issues the timed calls one after another in a closed loop and
records the time of each call, and ``check`` verifies every output and
returns the number of operations whose output is wrong.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from pathlib import Path

import oracle
import orelab
import orelab.cli
from probe import scale, speed_probe_ms

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

DEFAULT_SEED = 1
PROBE_EVERY_S = 1.0


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Workload:
    """``calls`` holds [wall, cpu] seconds of each timed call and ``marks``
    the speed probes taken between calls, as (calls before it, ms); an
    operation is ``calls_per_op`` consecutive calls. ``errors`` counts the
    calls that raised."""

    calls_per_op = 1

    def __init__(self, seed: int, small: bool, index: int, units: int):
        self.seed = seed
        self.small = small
        self.index = index
        self.units = units
        self.span = None
        self.calls: list[list[float]] = []
        self.marks: list[tuple[int, float]] = []
        self.errors = 0

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir

    def probe(self) -> None:
        self.marks.append((len(self.calls), speed_probe_ms()))
        self._probed = time.perf_counter()

    def timed(self, call) -> None:
        """Time one call; an exception counts as a failed call. Between
        calls the speed probe runs about once a second, outside the timing."""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            call()
        except Exception as err:  # noqa: BLE001 - a failing call is a result
            self.errors += 1
            print(f"call failed: {err!r}")
        self.calls.append([time.perf_counter() - t0, time.process_time() - c0])
        if time.perf_counter() - self._probed >= PROBE_EVERY_S:
            self.probe()

    def scaled_calls(self) -> list[list[float]]:
        """Each call's [wall, cpu] in reference seconds, scaled by the mean
        of the probes just before and just after its stretch of calls."""
        if self.marks[-1][0] < len(self.calls):
            self.probe()
        out = []
        for (start, before), (end, after) in zip(self.marks, self.marks[1:]):
            factor = scale((before + after) / 2)
            out.extend([wall * factor, cpu * factor] for wall, cpu in self.calls[start:end])
        return out


# -- census ------------------------------------------------------------------


class Census(Workload):
    """Cold ``census_critical(8, 4)``; exhaustive, so the seed is unused."""

    K = 4

    def setup(self, workdir):
        super().setup(workdir)
        self.n_max = 7 if self.small else 8
        self.results = []

    def run(self):
        for _ in range(self.units):
            self.timed(lambda: self.results.append(orelab.census_critical(self.n_max, self.K)))

    def items(self) -> int:
        return sum(len(corpus) for corpus in self.results)

    def check(self, corrupt: bool) -> int:
        failed = 0
        expected = GOLDEN["census"]["counts"]
        for corpus in self.results:
            lines = [orelab.graph6_encode(g) for g in corpus.graphs]
            if corrupt:
                lines[-1] = _drop_one_edge(lines[-1])
            bad = []
            counts = Counter(len(oracle.decode_graph6(line)) for line in lines)
            want = {int(n): c for n, c in expected.items() if int(n) <= self.n_max and c}
            if dict(counts) != want:
                bad.append(f"per-order counts {dict(sorted(counts.items()))} != {want}")
            if not self.small and digest(sorted(lines)) != GOLDEN["census"]["digest"]:
                bad.append("graph6 digest differs from the seed commit")
            for line in lines:
                if not oracle.is_k_critical(oracle.decode_graph6(line), self.K):
                    bad.append(f"{line} is not {self.K}-critical")
            if bad:
                failed += 1
                print("census check failed: " + "; ".join(bad[:5]))
        return failed


def _drop_one_edge(line: str) -> str:
    nbrs = oracle.decode_graph6(line)
    u, v = oracle.edges_of(nbrs)[0]
    nbrs[u].discard(v)
    nbrs[v].discard(u)
    return orelab.graph6_encode(orelab.Graph.from_edges(len(nbrs), oracle.edges_of(nbrs)))


# -- measure -----------------------------------------------------------------

# One block fixes the size mix of the stream: k = 4 with 1..6 compositions
# and k = 5 with 1..4, each as a composed graph and as a near miss, k
# alternating item by item. The seed picks the trees, the edge moves and the
# vertex order.
BLOCK_K4 = [(4, steps, near) for steps in range(1, 7) for near in (False, True)] * 2
BLOCK_K5 = [(5, steps, near) for steps in range(1, 5) for near in (False, True)] * 3
SMALL_BLOCK_K4 = [(4, steps, near) for steps in (1, 2) for near in (False, True)]
SMALL_BLOCK_K5 = [(5, 1, near) for near in (False, True)] * 2
DIGEST_ITEMS = 24


def _near_miss(rng: random.Random, nbrs: list[set[int]], k: int):
    """Move one edge so that n, m and minimum degree >= k-1 are kept and a
    (k-1)-coloring exists; the coloring certifies that the graph is not
    k-critical, hence not a composed graph. None if no move is found."""
    edges = oracle.edges_of(nbrs)
    n = len(nbrs)
    for _ in range(400):
        u, v = rng.choice(edges)
        x, y = rng.sample(range(n), 2)
        if y in nbrs[x] or {x, y} == {u, v}:
            continue
        nbrs[u].discard(v)
        nbrs[v].discard(u)
        nbrs[x].add(y)
        nbrs[y].add(x)
        if min(len(s) for s in nbrs) >= k - 1:
            colors = oracle.coloring(nbrs, k - 1)
            if colors is not None:
                return colors
        nbrs[x].discard(y)
        nbrs[y].discard(x)
        nbrs[u].add(v)
        nbrs[v].add(u)
    return None


class Measure(Workload):
    """A seeded stream of graph6 lines, each measured as ``recognize-ore``,
    ``pack`` and ``potential`` measure it, plus ``charge_report``."""

    def setup(self, workdir):
        super().setup(workdir)
        rng = random.Random(f"measure:{self.seed}:{self.index}")
        k4, k5 = (SMALL_BLOCK_K4, SMALL_BLOCK_K5) if self.small else (BLOCK_K4, BLOCK_K5)
        self.stream = []
        for _ in range(self.units):
            a, b = k4[:], k5[:]
            rng.shuffle(a)
            rng.shuffle(b)
            for pair in zip(a, b):
                for spec in pair:
                    self.stream.append(self._make(rng, *spec))
        orelab.gadget_catalog(4, 2)
        orelab.gadget_catalog(5, 2)
        self.values: list[dict] = []

    @staticmethod
    def _make(rng, k, steps, near):
        while True:
            g = orelab.realize(orelab.random_ore_tree(k, steps, rng), k)
            nbrs = [set(orelab.bits_of(row)) for row in g.adj]
            if near and _near_miss(rng, nbrs, k) is None:
                continue
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in oracle.edges_of(nbrs)]
            line = orelab.graph6_encode(orelab.Graph.from_edges(g.n, edges))
            return {"k": k, "near": near, "g6": line}

    def run(self):
        for item in self.stream:
            self.timed(lambda: self._measure(item))

    def items(self) -> int:
        return len(self.values)

    def _measure(self, item) -> None:
        k = item["k"]
        g = orelab.graph6_decode(item["g6"])
        witness = orelab.is_k_ore(g, k)
        packing = orelab.compute_T(g, k)
        report = orelab.charge_report(g, k)
        self.values.append(
            {
                "item": item,
                "graph": g,
                "witness": witness,
                "T": packing.value,
                "rho": str(orelab.rho(g, k, packing.value)),
                "rho_ky": orelab.rho_ky(g, k),
                "charge": [str(report.total_charge), sorted(report.sizes.items()), report.identity_hypothesis],
            }
        )

    def check(self, corrupt: bool) -> int:
        import networkx as nx

        if corrupt and self.values:
            first = self.values[0]
            first["witness"] = None if first["witness"] is not None else orelab.Leaf(first["item"]["k"])
        failed = 0
        for val in self.values:
            item, g, k = val["item"], val["graph"], val["item"]["k"]
            nbrs = oracle.decode_graph6(item["g6"])
            edges = oracle.edges_of(nbrs)
            bad = []
            if item["near"]:
                if oracle.coloring(nbrs, k - 1) is None:
                    bad.append("near miss lost its certificate")
                if val["witness"] is not None:
                    bad.append("near miss recognized as composed")
            elif val["witness"] is None:
                bad.append("composed graph not recognized")
            else:
                built = orelab.realize(val["witness"], k)
                if not nx.is_isomorphic(_nx(built.n, built.edges()), _nx(len(nbrs), edges)):
                    bad.append("witness does not realize the input")
            if g.n <= 12 and orelab.compute_T_bruteforce(g, k) != val["T"]:
                bad.append("packing value differs from brute force")
            if val["rho_ky"] != (k - 2) * (k + 1) * len(nbrs) - 2 * (k - 1) * len(edges):
                bad.append("rho_ky differs from its formula")
            if bad:
                failed += 1
                print(f"measure check failed on {item['g6']}: " + "; ".join(bad))
        golden = GOLDEN["measure"]
        if self.seed == DEFAULT_SEED and self.index == 0 and not self.small:
            head = self.values[:DIGEST_ITEMS]
            if len(head) < DIGEST_ITEMS or digest(map(_value_line, head)) != golden["digest"]:
                failed = max(failed, 1)
                print("measure digest differs from the seed commit")
        return failed


def _value_line(val) -> str:
    recognized = val["witness"] is not None
    return json.dumps([val["item"]["g6"], val["item"]["k"], recognized, val["T"], val["rho"], val["rho_ky"], val["charge"]])


def _nx(n: int, edges):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


# -- verify ------------------------------------------------------------------


class Verify(Workload):
    """``orelab verify --suite all --census 8`` for k = 4, 5, 6, in-process.
    One operation is the sweep over the three values of k."""

    def setup(self, workdir):
        super().setup(workdir)
        self.ks = (4,) if self.small else (4, 5, 6)
        self.calls_per_op = len(self.ks)
        self.census_n = 7 if self.small else 8
        self.codes: list[tuple[int, int, int]] = []
        self.rows: list[int] = []

    def argv(self, k: int, rep: int) -> list[str]:
        stem = self.workdir / f"verify-k{k}-{rep}"
        return [
            "verify", "--suite", "all", "--census", str(self.census_n), "--k", str(k),
            "--seed", str(self.seed), "--json", f"{stem}.json", "--csv", f"{stem}.csv",
        ]

    def run(self):
        for rep in range(self.units):
            for k in self.ks:
                self.timed(lambda: self._invoke(k, rep))

    def items(self) -> int:
        return sum(self.rows)

    def _invoke(self, k, rep) -> None:
        args = self.argv(k, rep)
        try:
            if self.span is None:
                orelab.cli.main(args, standalone_mode=False)
            else:
                with self.span("cli.verify"):
                    orelab.cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else 1
        self.codes.append((k, rep, code))

    def check(self, corrupt: bool) -> int:
        failed_sweeps = set()
        for k, rep, code in self.codes:
            stem = self.workdir / f"verify-k{k}-{rep}"
            bad = []
            reports = json.loads(Path(f"{stem}.json").read_text())
            if corrupt and rep == 0 and k == self.ks[0]:
                reports[0]["rows"][0]["status"] = "fail"
            if code != 0:
                bad.append(f"exit code {code}")
            n_rows = sum(len(r["rows"]) for r in reports)
            self.rows.append(n_rows)
            if not all(r["passed"] for r in reports) or any(
                row["status"] == "fail" for r in reports for row in r["rows"]
            ):
                bad.append("a suite did not pass")
            csv_lines = Path(f"{stem}.csv").read_text().count("\n")
            if csv_lines != n_rows + len(reports):
                bad.append(f"CSV has {csv_lines} lines for {n_rows} rows")
            if self.seed == DEFAULT_SEED and not self.small:
                if digest([_stripped(reports)]) != GOLDEN["verify"][str(k)]:
                    bad.append("JSON report digest differs from the seed commit")
            if bad:
                failed_sweeps.add(rep)
                print(f"verify check failed for k={k}: " + "; ".join(bad))
        return len(failed_sweeps)


def _stripped(reports) -> str:
    """The reports without any wall-time section, in a canonical layout."""

    def strip(obj):
        if isinstance(obj, dict):
            return {key: strip(val) for key, val in obj.items() if key != "timing"}
        if isinstance(obj, list):
            return [strip(val) for val in obj]
        return obj

    return json.dumps(strip(reports), sort_keys=True)


WORKLOADS = {"census": Census, "measure": Measure, "verify": Verify}

"""Span recorder that times orelab's layers from outside the package.

``Recorder.install`` replaces chosen public functions with timing wrappers.
Modules import each other by name (``from .graphs import canonical_key``),
so each wrapper replaces the original in every ``orelab`` module namespace
that holds it, not only in the defining module. A span records its name,
start, end and parent; spans stay in memory until the run ends, and a
span's self time is its duration minus the time covered by its children.
Generators are timed across all of their resumptions: every resumption is
one span, so self time adds up over the whole iteration.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# Functions wrapped in a traced run: layer (the orelab module) -> public
# names. Graph validation, a method, is patched on the class as well.
TARGETS = {
    "graphs": ["canonical_form", "embeddings", "cliques_of_size", "graph6_encode", "graph6_decode"],
    "coloring": ["first_coloring", "is_k_critical", "chromatic_number"],
    "census": ["graph_classes", "census_critical"],
    "packing": ["compute_T", "compute_T_bruteforce"],
    "potential": [
        "rho",
        "rho_ky",
        "rho_subset",
        "rho_value",
        "complete_graph_T",
        "complete_potential",
        "ky_edge_bound",
        "eps_edge_bound",
        "main_potential_bound",
    ],
    "orekit": ["is_k_ore", "ore_catalog", "gadget_catalog", "realize"],
    "structure": ["find_diamonds_emeralds", "build_extension", "minimum_colorings", "mic", "clusters"],
    "discharging": ["charge_report", "classify_degree_k1", "apply_rules"],
    "suites": ["run_suite"],
}


def _truthy(result) -> int:
    return int(bool(result))


def _not_none(result) -> int:
    return int(result is not None)


def _length(result) -> int:
    return len(result)


def _row_count(result) -> int:
    return len(result.rows)


# Outcome tallies summed per span name: the useful-outcome count behind each
# ratio metric.
TALLIES = {
    "coloring.first_coloring": _not_none,
    "coloring.is_k_critical": _truthy,
    "orekit.is_k_ore": _not_none,
    "census.census_critical": _length,
    "suites.run_suite": _row_count,
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.tally: list[int] = []
        self.yielded: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.tally.append(0)
            self.yielded.append(0)
        return self.names.index(name)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call it makes."""
        nid = self.name_id(name)
        self.calls[nid] += 1
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        calls, tally_counts = self.calls, self.tally
        open_, close = self._open, self._close
        tally = TALLIES.get(name)

        if inspect.isgeneratorfunction(fn):
            yielded = self.yielded

            def resumptions(inner):
                while True:
                    idx = open_(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yielded[nid] += 1
                    yield item

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                return resumptions(fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if tally is not None:
                    tally_counts[nid] += tally(result)
                return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded orelab module namespace."""
        modules = [m for key, m in sys.modules.items() if key == "orelab" or key.startswith("orelab.")]
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"orelab.{layer}"]
            for attr in attrs:
                original = getattr(home, attr)
                name = f"{layer}.{attr}"
                self.originals[name] = original
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)
        graph_cls = sys.modules["orelab.graphs"].Graph
        original = graph_cls.__post_init__
        self._restore.append((graph_cls, "__post_init__", original))
        graph_cls.__post_init__ = self.wrap("graphs.Graph.validate", original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, longest span, tallied
        outcomes and generator yields."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        parent = self.span_parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {
                "calls": self.calls[nid],
                "self_s": 0.0,
                "max_s": 0.0,
                "tally": self.tally[nid],
                "yielded": self.yielded[nid],
            }
            for nid, name in enumerate(self.names)
        }
        for i in range(count):
            row = out[self.names[self.span_name[i]]]
            row["self_s"] += dur[i] - child[i]
            row["max_s"] = max(row["max_s"], dur[i])
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """How many ``name`` spans have an ``ancestor`` span above them."""
        if name not in self.names or ancestor not in self.names:
            return 0
        nid, aid = self.names.index(name), self.names.index(ancestor)
        hits = 0
        for i in range(len(self.span_start)):
            if self.span_name[i] != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            hits += p >= 0
        return hits

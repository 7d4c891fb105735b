"""Per-layer metrics computed from a traced process's spans.

Tracing is installed before set-up, so the figures cover the whole process:
warm-up such as the gadget catalogs as well as the timed calls. Each metric
names its layer first. Calls and self times come from the spans, outcome
ratios from the tallies the wrappers keep, and cache figures from the public
``cache_info()`` of ``canonical_form``. A ratio over zero calls is 0.
"""

from __future__ import annotations

from spans import TARGETS, Recorder


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, list]:
    """name -> [value, unit] for every per-layer metric except the tracing
    overhead, which needs the untraced run as well."""
    summary = rec.summary()
    empty = {"calls": 0, "self_s": 0.0, "max_s": 0.0, "tally": 0, "yielded": 0}

    def get(name: str, field: str):
        return summary.get(name, empty)[field]

    def self_of(*names: str) -> float:
        return sum(get(name, "self_s") for name in names)

    info = rec.originals["graphs.canonical_form"].cache_info()
    potential = [f"potential.{attr}" for attr in TARGETS["potential"]]
    return {
        "graphs.canonical_form.calls": [get("graphs.canonical_form", "calls"), "count"],
        "graphs.canonical_form.self_s": [get("graphs.canonical_form", "self_s"), "s"],
        "graphs.canonical_form.hit_ratio": [_ratio(info.hits, info.hits + info.misses), "ratio"],
        "graphs.canonical_form.cache_entries": [info.currsize, "count"],
        "graphs.Graph.constructed": [get("graphs.Graph.validate", "calls"), "count"],
        "graphs.Graph.validate_s": [get("graphs.Graph.validate", "self_s"), "s"],
        "graphs.embeddings.calls": [get("graphs.embeddings", "calls"), "count"],
        "graphs.embeddings.yielded": [get("graphs.embeddings", "yielded"), "count"],
        "graphs.embeddings.self_s": [get("graphs.embeddings", "self_s"), "s"],
        "graphs.cliques_of_size.self_s": [get("graphs.cliques_of_size", "self_s"), "s"],
        "graphs.graph6.self_s": [self_of("graphs.graph6_encode", "graphs.graph6_decode"), "s"],
        "coloring.first_coloring.calls": [get("coloring.first_coloring", "calls"), "count"],
        "coloring.first_coloring.self_s": [get("coloring.first_coloring", "self_s"), "s"],
        "coloring.first_coloring.colorable_ratio": [
            _ratio(get("coloring.first_coloring", "tally"), get("coloring.first_coloring", "calls")),
            "ratio",
        ],
        "coloring.is_k_critical.calls": [get("coloring.is_k_critical", "calls"), "count"],
        "coloring.is_k_critical.self_s": [get("coloring.is_k_critical", "self_s"), "s"],
        "coloring.is_k_critical.critical_ratio": [
            _ratio(get("coloring.is_k_critical", "tally"), get("coloring.is_k_critical", "calls")),
            "ratio",
        ],
        "coloring.chromatic_number.self_s": [get("coloring.chromatic_number", "self_s"), "s"],
        "census.graph_classes.self_s": [get("census.graph_classes", "self_s"), "s"],
        "census.census_critical.self_s": [get("census.census_critical", "self_s"), "s"],
        "census.critical_per_test": [
            _ratio(
                get("census.census_critical", "tally"),
                rec.calls_under("coloring.is_k_critical", "census.census_critical"),
            ),
            "ratio",
        ],
        "packing.compute_T.calls": [get("packing.compute_T", "calls"), "count"],
        "packing.compute_T.self_s": [get("packing.compute_T", "self_s"), "s"],
        "packing.compute_T.max_ms": [get("packing.compute_T", "max_s") * 1000, "ms"],
        "packing.compute_T_bruteforce.self_s": [get("packing.compute_T_bruteforce", "self_s"), "s"],
        "potential.calls": [sum(get(name, "calls") for name in potential), "count"],
        "potential.self_s": [self_of(*potential), "s"],
        "orekit.is_k_ore.calls": [get("orekit.is_k_ore", "calls"), "count"],
        "orekit.is_k_ore.self_s": [get("orekit.is_k_ore", "self_s"), "s"],
        "orekit.is_k_ore.recognized_ratio": [
            _ratio(get("orekit.is_k_ore", "tally"), get("orekit.is_k_ore", "calls")),
            "ratio",
        ],
        "orekit.ore_catalog.self_s": [get("orekit.ore_catalog", "self_s"), "s"],
        "orekit.gadget_catalog.self_s": [get("orekit.gadget_catalog", "self_s"), "s"],
        "orekit.realize.self_s": [get("orekit.realize", "self_s"), "s"],
        "structure.find_diamonds_emeralds.self_s": [get("structure.find_diamonds_emeralds", "self_s"), "s"],
        "structure.build_extension.self_s": [get("structure.build_extension", "self_s"), "s"],
        "structure.minimum_colorings.self_s": [get("structure.minimum_colorings", "self_s"), "s"],
        "structure.mic.self_s": [get("structure.mic", "self_s"), "s"],
        "structure.clusters.self_s": [get("structure.clusters", "self_s"), "s"],
        "discharging.charge_report.calls": [get("discharging.charge_report", "calls"), "count"],
        "discharging.charge_report.self_s": [get("discharging.charge_report", "self_s"), "s"],
        "discharging.classify_degree_k1.self_s": [get("discharging.classify_degree_k1", "self_s"), "s"],
        "discharging.apply_rules.self_s": [get("discharging.apply_rules", "self_s"), "s"],
        "suites.run_suite.calls": [get("suites.run_suite", "calls"), "count"],
        "suites.run_suite.self_s": [get("suites.run_suite", "self_s"), "s"],
        "suites.rows": [get("suites.run_suite", "tally"), "count"],
        "cli.verify.self_s": [get("cli.verify", "self_s"), "s"],
    }

"""Values the charge and extension reports do not carry, rebuilt in the tests
from what the library does return.

``charge_report`` returns class sizes, the identity hypothesis and the two
sides of the charge identity; the per-vertex rows, roles and edge counts
behind them come from ``classify_degree_k1`` and ``apply_rules``, whose
ledger holds each charge as an integer over one denominator. An
``ExtensionRecord`` does not repeat the coloring it was built from; its
vertex-to-class numbering is read from the classes. ``tests/test_golden.py``
digests these values and ``tests/test_discharging.py`` asserts on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from orelab import (
    PotentialParams,
    apply_rules,
    bits_of,
    build_extension,
    classify_degree_k1,
    cliques_of_size,
    edge_between,
    gadget_catalog,
    mask_of,
)
from orelab.discharging import _gadget_key_hits


@dataclass(frozen=True)
class ChargeRow:
    """One vertex's label and its exact charge before and after the rules."""

    label: str
    initial: Fraction
    final: Fraction


def rows_of(ledger) -> tuple[ChargeRow, ...]:
    """The ledger of ``apply_rules`` as one row per vertex, in vertex order."""
    return tuple(
        ChargeRow(label, Fraction(initial, ledger.den), Fraction(final, ledger.den))
        for label, initial, final in zip(ledger.labels, ledger.initial, ledger.final)
    )


def charge_rows(g, k: int, cap: int = 2) -> tuple[ChargeRow, ...]:
    """The per-vertex charge rows, as ``charge_report`` computes them."""
    return rows_of(apply_rules(g, k, *classify_degree_k1(g, k, cap)))


def charge_columns(g, k: int, cap: int = 2) -> dict:
    """Roles, charge rows and the edge and charge counts over the L/M/P/Q
    classes: ``complete`` says the gadget catalog covers every size that can
    embed into g; ``promoted`` lists structure vertices that are neither on
    a K_(k-3) nor a gadget key vertex, so they were promoted with their
    cluster; the frontier compares |L| + |P| with n(1 - eps/2)."""
    roles, cluster_size = classify_degree_k1(g, k, cap)
    rows = rows_of(apply_rules(g, k, roles, cluster_size))
    by_label = {lab: mask_of(v for v, r in enumerate(rows) if r.label == lab) for lab in ("L", "M", "P", "Q", "R-other")}
    l_mask, m_mask, p_mask, q_mask = (by_label[lab] for lab in "LMPQ")
    catalog = gadget_catalog(k, cap)
    structure = {v for v, role in roles.items() if role == "structure"}
    targets = structure - {v for q in cliques_of_size(g, k - 3) for v in bits_of(q)}
    eps = PotentialParams.for_k(k).eps
    return {
        "roles": [roles[v] for v in range(g.n)],
        "rows": rows,
        # every gadget comes from a host on k + steps*(k-1) vertices, one removed
        "complete": cap >= max(0, (g.n + 1 - k) // (k - 1)),
        "catalog_size": len(catalog),
        "promoted": sorted(targets - set(bits_of(_gadget_key_hits(g, catalog, mask_of(targets))))) if targets else [],
        "lm_to_rest_edges": edge_between(g, l_mask | m_mask, by_label["R-other"]),
        "lm_identity_value": (
            (k - 1) * l_mask.bit_count()
            - edge_between(g, l_mask, p_mask | q_mask)
            + (k - 2) * m_mask.bit_count()
            - edge_between(g, m_mask, q_mask)
        ),
        "m_p_edges": edge_between(g, m_mask, p_mask),
        "heavy_class_over_residue": sum(1 for r in rows if r.label == "R-other" and r.final > Fraction(-2) + eps),
        "lone_singleton_frontier": (l_mask | p_mask).bit_count() > g.n * (1 - eps / 2),
    }


def phi(classes) -> tuple[tuple[int, int], ...]:
    """Each vertex of R paired with its class index + 1; ``classes`` are
    vertex masks."""
    return tuple(sorted((v, i) for i, cls in enumerate(classes, start=1) for v in bits_of(cls)))


def extensions_with_colorings(g, k: int, colorings, limit: int = 6):
    """``build_extension``'s records, each paired with the coloring it came
    from: the generator pulls the next coloring only once every record of
    the current one is out."""
    current = []

    def tap():
        for classes in colorings:
            current[:] = [classes]
            yield classes

    for rec in build_extension(g, k, tap(), limit=limit):
        yield rec, current[0]

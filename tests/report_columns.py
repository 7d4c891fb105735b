"""Values the charge and extension reports do not carry, rebuilt in the tests
from what the library does return.

``charge_report`` returns class sizes, the identity hypothesis and the two
sides of the charge identity; the per-vertex rows, roles and edge counts
behind them come from ``classify_degree_k1``, whose roles are masks, and
``apply_rules``, whose ledger holds each label's vertex mask and each charge
as an integer over one denominator. An ``ExtensionRecord`` does not repeat
the coloring it was built from; its vertex-to-class numbering is read from
the classes. ``tests/test_golden.py`` digests these values and
``tests/test_discharging.py`` asserts on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from orelab import (
    PotentialParams,
    apply_rules,
    bits_of,
    build_extension,
    classify_degree_k1,
    cliques_of_size,
    edge_between,
    gadget_catalog,
)


@dataclass(frozen=True)
class ChargeRow:
    """One vertex's label and its exact charge before and after the rules."""

    label: str
    initial: Fraction
    final: Fraction


def rows_of(ledger) -> tuple[ChargeRow, ...]:
    """The ledger of ``apply_rules`` as one row per vertex, in vertex order."""
    label_of = {v: label for label, mask in ledger.labels.items() for v in bits_of(mask)}
    return tuple(
        ChargeRow(label_of[v], Fraction(initial, ledger.den), Fraction(final, ledger.den))
        for v, (initial, final) in enumerate(zip(ledger.initial, ledger.final))
    )


def role_dicts(n: int, structure: int, near: int, lone) -> tuple[dict[int, str], dict[int, int]]:
    """The roles of ``classify_degree_k1`` in the dict form of the oracles:
    each vertex's role, and the cluster size of each lone vertex."""
    roles = dict.fromkeys(range(n), "not-deg-(k-1)")
    for role, mask in (("structure", structure), ("near", near), ("lone", sum(lone))):
        roles.update(dict.fromkeys(bits_of(mask), role))
    return roles, {v: c.bit_count() for c in lone for v in bits_of(c)}


def charge_rows(g, k: int) -> tuple[ChargeRow, ...]:
    """The per-vertex charge rows, as ``charge_report`` computes them."""
    return rows_of(apply_rules(g, k, *classify_degree_k1(g, k)))


def charge_columns(g, k: int, cap: int = 2) -> dict:
    """Roles, charge rows and the edge and charge counts over the L/M/P/Q
    classes: ``complete`` says the gadget catalog of at most ``cap`` steps
    covers every size that can embed into g; ``promoted`` lists structure
    vertices that are neither on a K_(k-3) nor a key vertex of a gadget the
    parent copy ``oracles.gadget_key_hits`` embeds, so they were promoted
    with their cluster; the frontier compares |L| + |P| with n(1 - eps/2)."""
    from oracles import gadget_key_hits  # here: oracles imports ChargeRow from this module

    structure, near, lone = classify_degree_k1(g, k)
    ledger = apply_rules(g, k, structure, near, lone)
    rows = rows_of(ledger)
    l_mask, m_mask, p_mask, q_mask, rest = ledger.labels.values()
    catalog = gadget_catalog(k, cap)
    targets = structure & ~reduce(or_, cliques_of_size(g, k - 3), 0)
    eps = PotentialParams.for_k(k).eps
    return {
        "roles": list(role_dicts(g.n, structure, near, lone)[0].values()),
        "rows": rows,
        # every gadget comes from a host on k + steps*(k-1) vertices, one removed
        "complete": cap >= max(0, (g.n + 1 - k) // (k - 1)),
        "catalog_size": len(catalog),
        "promoted": sorted(set(bits_of(targets)) - gadget_key_hits(g, catalog, set(bits_of(targets)))) if targets else [],
        "lm_to_rest_edges": edge_between(g, l_mask | m_mask, rest),
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

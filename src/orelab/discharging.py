"""Charge bookkeeping on vertices: role classification for degree-(k-1)
vertices, the two redistribution rules, class sizes, and the exact edge and
charge identities that tie redistribution back to the potential.

Roles and rules are evaluated on any host graph; facts that hold only for
minimal counterexamples are never asserted. One report derives each
per-graph fact once: classification finds the clusters and fetches the
gadget catalog only when some degree-(k-1) vertex lies in no K_{k-3}, the
rules read the cluster sizes it returns, and the report audits the charge
rows against the potential.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .graphs import Graph, cliques_of_size, embeddings
from .orekit import Gadget, gadget_catalog
from .potential import PotentialParams, rho
from .structure import clusters, edge_between

ROLE_STRUCTURE = "structure"
ROLE_NEAR = "near"
ROLE_LONE = "lone"
ROLE_OTHER = "not-deg-(k-1)"


def _gadget_key_hits(g: Graph, catalog: tuple[Gadget, ...], target: set[int]) -> set[int]:
    hits: set[int] = set()
    for gadget in catalog:
        if gadget.graph.n > g.n or not gadget.key_vertices:
            continue
        for image in embeddings(gadget.graph, g):
            hits.update(image[v] for v in gadget.key_vertices)
            if target <= hits:
                return hits
    return hits


def classify_degree_k1(
    g: Graph, k: int, ore_catalog_cap: int = 2
) -> tuple[dict[int, str], dict[int, int]]:
    """Label each degree-(k-1) vertex structure, near, or lone; return the
    role of every vertex and the cluster size of each degree-(k-1) vertex.

    structure: a key vertex of an embedded gadget, or a member of some
    K_{k-3} subgraph. near: not structure, with a degree-(k-1) neighbor in a
    different cluster. lone: not structure, every degree-(k-1) neighbor in
    its own cluster. Other vertices get the placeholder role.

    Gadgets are drawn from the exhaustive catalog with at most
    ``ore_catalog_cap`` compositions, so a host too large for the cap may
    have structure vertices labeled near or lone. Labels are made
    cluster-constant by promoting a mixed cluster to structure.
    """
    if k < 4:
        raise ValueError("classification needs k >= 4")
    low = {v for v in range(g.n) if g.degree(v) == k - 1}
    roles: dict[int, str] = {v: ROLE_OTHER for v in range(g.n)}
    cluster_list = clusters(g, k)
    cluster_of = {v: c for c in cluster_list for v in c}

    in_clique = {v for q in cliques_of_size(g, k - 3) for v in q}
    key_targets = {v for v in low if v not in in_clique}
    # a vertex in some K_{k-3} never reads the catalog, so build it only for the rest
    key_hits = _gadget_key_hits(g, gadget_catalog(k, ore_catalog_cap), key_targets) if key_targets else set()

    structure = {v for v in low if v in in_clique or v in key_hits}
    for c in cluster_list:
        if c & structure:
            structure |= c

    for v in low:
        if v in structure:
            roles[v] = ROLE_STRUCTURE
            continue
        outside = [u for u in g.neighbors(v) if u in low and u not in cluster_of[v]]
        roles[v] = ROLE_NEAR if outside else ROLE_LONE
        if roles[v] == ROLE_LONE and len(cluster_of[v]) > k - 4:
            raise AssertionError(
                "a lone cluster this large is itself a clique witness"
            )
    return roles, {v: len(members) for v, members in cluster_of.items()}


LABEL_L = "L"
LABEL_M = "M"
LABEL_P = "P"
LABEL_Q = "Q"
LABEL_R = "R-other"


@dataclass(frozen=True)
class VertexCharge:
    label: str
    initial: Fraction
    final: Fraction


def apply_rules(
    g: Graph, k: int, roles: dict[int, str], cluster_size: dict[int, int]
) -> tuple[VertexCharge, ...]:
    """Run both redistribution rules and return one charge row per vertex,
    in vertex order: ``rows[v]`` is the row of v.

    Every vertex v starts with (k-2)(k+1) + eps - d(v)(k-1). Rule one: each
    vertex of degree d >= k+2 keeps exactly -2+eps and sends (k-d)(k-1)/d
    along each edge. Rule two: each structure vertex sends a total of -(k-1)
    split equally over its near-vertex neighbors; with no near neighbor
    nothing moves, the only reading that conserves charge.

    Charges are kept as integers over one common denominator, eps's times
    the lcm of every count a rule divides by, so every transfer is exact;
    both audits run on those integers, and each distinct charge becomes one
    ``Fraction``, shared by the rows that hold it.
    """
    eps = PotentialParams.for_k(k).eps
    degree = [g.degree(v) for v in range(g.n)]
    senders = [v for v in range(g.n) if degree[v] >= k + 2]
    payers = {}
    for v in range(g.n):
        if roles[v] == ROLE_STRUCTURE:
            near = [u for u in g.neighbors(v) if roles[u] == ROLE_NEAR]
            if near:
                payers[v] = near
    scale = lcm(*(degree[v] for v in senders), *(len(near) for near in payers.values()))
    den = eps.denominator * scale
    base = (k - 2) * (k + 1) * den + eps.numerator * scale
    initial = [base - d * (k - 1) * den for d in degree]
    final = initial[:]
    for v in senders:
        sent = (k - degree[v]) * (k - 1) * den
        # the residue rule is about what the sender keeps, before any
        # charge it receives back from other senders
        if initial[v] - sent != -2 * den + eps.numerator * scale:
            raise AssertionError("sender residue is off")
        final[v] -= sent
        per_edge = sent // degree[v]
        for u in g.neighbors(v):
            final[u] += per_edge
    for v, near in payers.items():
        sent = -(k - 1) * den
        final[v] -= sent
        for u in near:
            final[u] += sent // len(near)
    if sum(initial) != sum(final):
        raise AssertionError("rules moved charge without conserving it")
    charge = {units: Fraction(units, den) for units in {*initial, *final}}
    rows = []
    for v in range(g.n):
        d = degree[v]
        if roles[v] == ROLE_LONE and cluster_size[v] == 1:
            label = LABEL_L
        elif roles[v] == ROLE_LONE and cluster_size[v] == 2:
            label = LABEL_M
        elif d == k:
            label = LABEL_P
        elif d == k + 1:
            label = LABEL_Q
        else:
            label = LABEL_R
        rows.append(VertexCharge(label, charge[initial[v]], charge[final[v]]))
    return tuple(rows)


@dataclass(frozen=True)
class ChargeReport:
    """Class sizes, whether the boundary-edge identity applied, and the total
    charge beside the potential it must equal."""

    sizes: dict[str, int]
    identity_hypothesis: bool
    total_charge: Fraction
    rho_plus_delta_t: Fraction


def _total(charges: Iterable[Fraction]) -> Fraction:
    """The sum of ``charges``, one product per distinct value."""
    return sum((charge * count for charge, count in Counter(charges).items()), Fraction(0))


def charge_report(g: Graph, k: int, ore_catalog_cap: int = 2) -> ChargeReport:
    """Classify, redistribute, and audit the arithmetic on one graph.

    The boundary-edge identity e(L+M, rest) = (k-1)|L| - e(L, P+Q)
    + (k-2)|M| - e(M, Q) is compared against direct counting whenever its
    hypothesis (no M vertex adjacent to a P vertex) holds; a violated
    hypothesis skips the comparison, it does not fail it. The total initial
    charge must equal rho + delta*T, which is ((k-2)(k+1) + eps)n - 2(k-1)m
    whatever T is, so no packing is computed.
    """
    rows = apply_rules(g, k, *classify_degree_k1(g, k, ore_catalog_cap))
    labels = (LABEL_L, LABEL_M, LABEL_P, LABEL_Q, LABEL_R)
    by_label: dict[str, set[int]] = {lab: set() for lab in labels}
    for v, r in enumerate(rows):
        by_label[r.label].add(v)
    l_set, m_set = by_label[LABEL_L], by_label[LABEL_M]
    p_set, q_set = by_label[LABEL_P], by_label[LABEL_Q]
    rest = by_label[LABEL_R]
    direct = edge_between(g, l_set | m_set, rest)
    identity = (
        (k - 1) * len(l_set)
        - edge_between(g, l_set, p_set | q_set)
        + (k - 2) * len(m_set)
        - edge_between(g, m_set, q_set)
    )
    hypothesis = edge_between(g, m_set, p_set) == 0
    if hypothesis and direct != identity:
        raise AssertionError("edge identity failed with its hypothesis intact")
    # rho + delta*T does not depend on T, so T = 0 gives it without a packing
    rho_plus = rho(g, k, 0)
    total = _total(r.initial for r in rows)
    if total != rho_plus:
        raise AssertionError("total charge disagrees with the potential")
    return ChargeReport(
        sizes={lab: len(members) for lab, members in by_label.items()},
        identity_hypothesis=hypothesis,
        total_charge=total,
        rho_plus_delta_t=rho_plus,
    )

"""Charge bookkeeping on vertices: role classification for degree-(k-1)
vertices, the two redistribution rules, class sizes, and the exact edge and
charge identities that tie redistribution back to the potential.

Roles and rules are evaluated on any host graph; facts that hold only for
minimal counterexamples are reported as observations, never asserted. One
report derives each per-graph fact once: classification finds the clusters
and fetches the gadget catalog, the rules read cluster sizes from the role
report, and the ledger carries the potential parameters to the audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, cliques_of_size, embeddings
from .orekit import Gadget, gadget_catalog
from .packing import compute_T
from .potential import PotentialParams, rho
from .structure import clusters, edge_between

ROLE_STRUCTURE = "structure"
ROLE_NEAR = "near"
ROLE_LONE = "lone"
ROLE_OTHER = "not-deg-(k-1)"


@dataclass(frozen=True)
class RoleReport:
    """Role of every vertex, plus how trustworthy the structure test was.

    ``complete`` is True when the gadget catalog covered every size that
    could embed into the host, so no vertex can be under-labeled. ``promoted``
    lists vertices relabeled structure to keep labels cluster-constant.
    ``cluster_size`` maps each degree-(k-1) vertex to the size of its cluster.
    """

    roles: dict[int, str]
    complete: bool
    catalog_size: int
    promoted: frozenset[int]
    cluster_size: dict[int, int]


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


def classify_degree_k1(g: Graph, k: int, ore_catalog_cap: int = 2) -> RoleReport:
    """Label each degree-(k-1) vertex structure, near, or lone.

    structure: a key vertex of an embedded gadget, or a member of some
    K_{k-3} subgraph. near: not structure, with a degree-(k-1) neighbor in a
    different cluster. lone: not structure, every degree-(k-1) neighbor in
    its own cluster. Other vertices get the placeholder role.

    Gadgets are drawn from the exhaustive catalog with at most
    ``ore_catalog_cap`` compositions; ``complete`` reports whether that cap
    already covers every gadget small enough to embed. Labels are made
    cluster-constant by promoting a mixed cluster to structure.
    """
    if k < 4:
        raise ValueError("classification needs k >= 4")
    low = {v for v in range(g.n) if g.degree(v) == k - 1}
    roles: dict[int, str] = {v: ROLE_OTHER for v in range(g.n)}
    cluster_list = clusters(g, k)
    cluster_of = {v: c.vertices for c in cluster_list for v in c.vertices}

    in_clique = {v for q in cliques_of_size(g, k - 3) for v in q}
    # every gadget comes from a host on k + steps*(k-1) vertices, one removed
    complete = ore_catalog_cap >= max(0, (g.n + 1 - k) // (k - 1))
    catalog = gadget_catalog(k, ore_catalog_cap)
    key_targets = {v for v in low if v not in in_clique}
    key_hits = _gadget_key_hits(g, catalog, key_targets) if key_targets else set()

    structure = {v for v in low if v in in_clique or v in key_hits}
    promoted: set[int] = set()
    for c in cluster_list:
        if c.vertices & structure and not c.vertices <= structure:
            promoted |= c.vertices - structure
            structure |= c.vertices

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
    cluster_size = {v: len(members) for v, members in cluster_of.items()}
    return RoleReport(roles, complete, len(catalog), frozenset(promoted), cluster_size)


LABEL_L = "L"
LABEL_M = "M"
LABEL_P = "P"
LABEL_Q = "Q"
LABEL_R = "R-other"


@dataclass(frozen=True)
class VertexCharge:
    vertex: int
    degree: int
    role: str
    label: str
    initial: Fraction
    final: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    params: PotentialParams
    rows: tuple[VertexCharge, ...]

    def total_initial(self) -> Fraction:
        return sum((r.initial for r in self.rows), Fraction(0))

    def total_final(self) -> Fraction:
        return sum((r.final for r in self.rows), Fraction(0))


def apply_rules(g: Graph, k: int, report: RoleReport) -> ChargeLedger:
    """Run both redistribution rules and return the per-vertex ledger.

    Every vertex v starts with (k-2)(k+1) + eps - d(v)(k-1). Rule one: each
    vertex of degree d >= k+2 keeps exactly -2+eps and sends (k-d)(k-1)/d
    along each edge. Rule two: each structure vertex sends a total of -(k-1)
    split equally over its near-vertex neighbors; with no near neighbor
    nothing moves, the only reading that conserves charge.
    """
    params = PotentialParams.for_k(k)
    roles = report.roles
    base = (k - 2) * (k + 1) + params.eps
    initial = {v: base - g.degree(v) * (k - 1) for v in range(g.n)}
    shift: dict[int, Fraction] = {v: Fraction(0) for v in range(g.n)}
    for v in range(g.n):
        d = g.degree(v)
        if d >= k + 2:
            sent_total = Fraction((k - d) * (k - 1))
            shift[v] -= sent_total
            per_edge = sent_total / d
            for u in g.neighbors(v):
                shift[u] += per_edge
            # the residue rule is about what the sender keeps, before any
            # charge it receives back from other senders
            if initial[v] - sent_total != -2 + params.eps:
                raise AssertionError("sender residue is off")
    for v in range(g.n):
        if roles[v] != ROLE_STRUCTURE:
            continue
        near = [u for u in g.neighbors(v) if roles[u] == ROLE_NEAR]
        if not near:
            continue
        sent_total = Fraction(-(k - 1))
        shift[v] -= sent_total
        for u in near:
            shift[u] += sent_total / len(near)

    rows = []
    for v in range(g.n):
        d = g.degree(v)
        role = roles[v]
        if role == ROLE_LONE and report.cluster_size[v] == 1:
            label = LABEL_L
        elif role == ROLE_LONE and report.cluster_size[v] == 2:
            label = LABEL_M
        elif d == k:
            label = LABEL_P
        elif d == k + 1:
            label = LABEL_Q
        else:
            label = LABEL_R
        rows.append(VertexCharge(v, d, role, label, initial[v], initial[v] + shift[v]))
    ledger = ChargeLedger(params, tuple(rows))
    if ledger.total_initial() != ledger.total_final():
        raise AssertionError("rules moved charge without conserving it")
    return ledger


@dataclass(frozen=True)
class ChargeReport:
    """Class sizes, the boundary-edge identity, and observational columns."""

    k: int
    ledger: ChargeLedger
    roles: RoleReport
    sizes: dict[str, int]
    lm_to_rest_edges: int
    lm_identity_value: int
    identity_hypothesis: bool
    m_p_edges: int
    total_charge: Fraction
    rho_plus_delta_t: Fraction
    heavy_class_over_residue: int
    lone_singleton_frontier: bool


def charge_report(g: Graph, k: int, ore_catalog_cap: int = 2) -> ChargeReport:
    """Classify, redistribute, and audit the arithmetic on one graph.

    The boundary-edge identity e(L+M, rest) = (k-1)|L| - e(L, P+Q)
    + (k-2)|M| - e(M, Q) is compared against direct counting whenever its
    hypothesis (no M vertex adjacent to a P vertex) holds; a violated
    hypothesis skips the comparison, it does not fail it. Observational
    columns record how many rest-class vertices exceed the -2+eps ceiling
    and whether |L|+|P| clears n(1 - eps/2); both are theorems only for
    minimal counterexamples.
    """
    roles = classify_degree_k1(g, k, ore_catalog_cap)
    ledger = apply_rules(g, k, roles)
    labels = (LABEL_L, LABEL_M, LABEL_P, LABEL_Q, LABEL_R)
    by_label: dict[str, set[int]] = {lab: set() for lab in labels}
    for r in ledger.rows:
        by_label[r.label].add(r.vertex)
    sizes = {lab: len(members) for lab, members in by_label.items()}
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
    m_p = edge_between(g, m_set, p_set)
    hypothesis = m_p == 0
    if hypothesis and direct != identity:
        raise AssertionError("edge identity failed with its hypothesis intact")
    eps, delta = ledger.params.eps, ledger.params.delta
    t_val = compute_T(g, k).value
    rho_plus = rho(g, k, t_val) + delta * t_val
    total = ledger.total_initial()
    if total != rho_plus:
        raise AssertionError("total charge disagrees with the potential")
    ceiling = Fraction(-2) + eps
    overs = sum(
        1
        for r in ledger.rows
        if r.label == LABEL_R and r.final > ceiling
    )
    frontier = len(l_set) + len(p_set) > g.n * (1 - eps / 2)
    return ChargeReport(
        k=k,
        ledger=ledger,
        roles=roles,
        sizes=sizes,
        lm_to_rest_edges=direct,
        lm_identity_value=identity,
        identity_hypothesis=hypothesis,
        m_p_edges=m_p,
        total_charge=total,
        rho_plus_delta_t=rho_plus,
        heavy_class_over_residue=overs,
        lone_singleton_frontier=frontier,
    )

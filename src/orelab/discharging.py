"""Charge bookkeeping on vertices: role classification for degree-(k-1)
vertices, the two redistribution rules, class sizes, and the exact edge and
charge identities that tie redistribution back to the potential.

Roles and rules are evaluated on any host graph; facts that hold only for
minimal counterexamples are never asserted. One report derives each
per-graph fact once: classification finds the clusters and the degree-(k-1)
vertices on some K_{k-3}, the rules read the role masks and lone clusters it
returns, and the report reads each label's vertex mask off the ledger and
audits the charges against the potential. Charges are integers over one
denominator; the report builds a Fraction only for the values it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import Graph, _cliques, bits_of, mask_of
from .potential import PotentialParams, rho
from .structure import clusters, edge_between


def classify_degree_k1(g: Graph, k: int) -> tuple[int, int, list[int]]:
    """Sort the degree-(k-1) vertices into structure, near and lone; return
    the structure mask, the near mask and the lone clusters as masks, in
    order of least member.

    structure: in a cluster that meets some K_{k-3} subgraph. near: not
    structure, with a degree-(k-1) neighbor in a different cluster. lone:
    not structure, every degree-(k-1) neighbor in its own cluster.

    The paper also counts a key vertex of an embedded Ore gadget as
    structure; for gadgets of at most two steps that adds no vertex. In a
    k-Ore graph a vertex whose leaf sits at depth d of the construction tree
    lies in a K_{k-d}, since each composition takes at most one vertex out
    of any clique through a vertex it keeps, and a gadget deletes one more
    vertex. So every key vertex of such a gadget lies in a K_{k-3}, and an
    embedding maps that clique into the host.
    """
    if k < 4:
        raise ValueError("classification needs k >= 4")
    low = mask_of(v for v, row in enumerate(g.adj) if row.bit_count() == k - 1)
    # v lies in a K_{k-3} exactly when its neighbourhood holds a K_{k-4};
    # every vertex of the first one found lies in that K_{k-3} as well
    in_clique = 0

    def cover(clique: int, later: int) -> bool:
        nonlocal in_clique
        in_clique |= clique
        return True

    for v in bits_of(low):
        if not in_clique >> v & 1 and _cliques(g.adj, g.adj[v], k - 4, cover):
            in_clique |= 1 << v
    structure = near = 0
    lone = []
    # members of a cluster are clones: one role serves the whole cluster, and
    # its least member's neighbours outside it are every member's
    for c in clusters(g, k):
        if c & in_clique:  # a cluster that meets a K_{k-3} is structure whole
            structure |= c
        elif g.adj[(c & -c).bit_length() - 1] & low & ~c:
            near |= c
        elif c.bit_count() > k - 4:
            raise AssertionError("a lone cluster this large is itself a clique witness")
        else:
            lone.append(c)
    return structure, near, lone


LABELS = ("L", "M", "P", "Q", "R-other")


@dataclass(frozen=True)
class ChargeLedger:
    """The rules' outcome: each entry of ``LABELS`` mapped to its vertex
    mask, and each vertex's charge before and after the rules, in vertex
    order, as integers over ``den``."""

    labels: dict[str, int]
    initial: tuple[int, ...]
    final: tuple[int, ...]
    den: int


def apply_rules(g: Graph, k: int, structure: int, near: int, lone: list[int]) -> ChargeLedger:
    """Run both redistribution rules on the roles ``classify_degree_k1``
    returns and label the vertices: ``initial[v]`` and ``final[v]`` are v's.

    Every vertex v starts with (k-2)(k+1) + eps - d(v)(k-1). Rule one: each
    vertex of degree d >= k+2 keeps exactly -2+eps and sends (k-d)(k-1)/d
    along each edge. Rule two: each structure vertex sends a total of -(k-1)
    split equally over its near-vertex neighbors; with no near neighbor
    nothing moves, the only reading that conserves charge.

    Charges are integers over one common denominator ``den``, eps's times
    the lcm of every count a rule divides by, so every transfer is exact and
    both audits run on integers; charge c stands for ``Fraction(c, den)``.
    """
    eps = PotentialParams.for_k(k).eps
    adj = g.adj
    degree = [row.bit_count() for row in adj]
    senders = [v for v, d in enumerate(degree) if d >= k + 2]
    # each structure vertex with a near neighbour, and the mask of those it pays
    payers = {v: adj[v] & near for v in bits_of(structure) if adj[v] & near}
    scale = lcm(*(degree[v] for v in senders), *(paid.bit_count() for paid in payers.values()))
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
        for u in bits_of(adj[v]):
            final[u] += per_edge
    for v, paid in payers.items():
        sent = -(k - 1) * den
        final[v] -= sent
        share = sent // paid.bit_count()
        for u in bits_of(paid):
            final[u] += share
    if sum(initial) != sum(final):
        raise AssertionError("rules moved charge without conserving it")
    # L and M are lone vertices in clusters of one and two; P and Q have
    # degree k and k+1 and are not in L or M; everything else is R
    l_mask = sum(c for c in lone if c.bit_count() == 1)  # disjoint: the sum is the union
    m_mask = sum(c for c in lone if c.bit_count() == 2)
    lm = l_mask | m_mask
    p_mask, q_mask = (mask_of(v for v, d in enumerate(degree) if d == want) & ~lm for want in (k, k + 1))
    rest = g.full_mask() ^ lm ^ p_mask ^ q_mask
    labels = dict(zip(LABELS, (l_mask, m_mask, p_mask, q_mask, rest)))
    return ChargeLedger(labels, tuple(initial), tuple(final), den)


@dataclass(frozen=True)
class ChargeReport:
    """Class sizes, whether the boundary-edge identity applied, and the total
    charge beside the potential it must equal."""

    sizes: dict[str, int]
    identity_hypothesis: bool
    total_charge: Fraction
    rho_plus_delta_t: Fraction


def charge_report(g: Graph, k: int) -> ChargeReport:
    """Classify, redistribute, and audit the arithmetic on one graph.

    The boundary-edge identity e(L+M, rest) = (k-1)|L| - e(L, P+Q)
    + (k-2)|M| - e(M, Q) is compared against direct counting whenever its
    hypothesis (no M vertex adjacent to a P vertex) holds; a violated
    hypothesis skips the comparison, it does not fail it. The total initial
    charge must equal rho + delta*T, which is ((k-2)(k+1) + eps)n - 2(k-1)m
    whatever T is, so no packing is computed.
    """
    ledger = apply_rules(g, k, *classify_degree_k1(g, k))
    l_mask, m_mask, p_mask, q_mask, rest = ledger.labels.values()
    direct = edge_between(g, l_mask | m_mask, rest)
    identity = (
        (k - 1) * l_mask.bit_count()
        - edge_between(g, l_mask, p_mask | q_mask)
        + (k - 2) * m_mask.bit_count()
        - edge_between(g, m_mask, q_mask)
    )
    hypothesis = edge_between(g, m_mask, p_mask) == 0
    if hypothesis and direct != identity:
        raise AssertionError("edge identity failed with its hypothesis intact")
    # rho + delta*T does not depend on T, so T = 0 gives it without a packing
    rho_plus = rho(g, k, 0)
    total = Fraction(sum(ledger.initial), ledger.den)
    if total != rho_plus:
        raise AssertionError("total charge disagrees with the potential")
    return ChargeReport(
        sizes={lab: mask.bit_count() for lab, mask in ledger.labels.items()},
        identity_hypothesis=hypothesis,
        total_charge=total,
        rho_plus_delta_t=rho_plus,
    )

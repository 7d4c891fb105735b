"""Reference versions of the per-graph measurements, kept as oracles.

Each function below is the straightforward form of a library routine that
now computes on machine integers and vertex masks: charge rows with one
``Fraction`` per distinct charge, added up as fractions; the packing
search on clique tuples with one cover pass per exclusion step; the graph6
codec bit by bit; the potentials as chains of ``Fraction`` operations; and
criticality with one colorability question per edge, where the library asks
one per edge orbit. The tests compare the library against them value for
value.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import ceil, lcm
from typing import Iterable

from orelab import (
    Graph,
    PackingWitness,
    PotentialParams,
    check_witness,
    cliques_of_size,
    clusters,
    embeddings,
    first_coloring,
    gadget_catalog,
)
from orelab.graphs import MAX_VERTICES, GraphFormatError, mask_of
from report_columns import ChargeRow

# -- criticality ---------------------------------------------------------------


def is_k_critical(g: Graph, k: int) -> bool:
    """Not (k-1)-colorable, minimum degree k-1 or more, and (k-1)-colorable
    less each edge, asked edge by edge."""
    if g.n == 0 or g.min_degree() < k - 1 or first_coloring(g.adj, k - 1) is not None:
        return False
    for u, v in g.edges():
        rows = list(g.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        if first_coloring(rows, k - 1) is None:
            return False
    return True


# -- discharging ---------------------------------------------------------------


def edge_between(g: Graph, a: set[int], b: set[int]) -> int:
    """Edges with one end in each set, each edge once, counted edge by edge."""
    return sum(1 for u, v in g.edges() if (u in a and v in b) or (u in b and v in a))


def gadget_key_hits(g: Graph, catalog, target: set[int]) -> set[int]:
    hits: set[int] = set()
    for gadget in catalog:
        if gadget.graph.n > g.n or not gadget.key_vertices:
            continue
        for image in embeddings(gadget.graph, g):
            hits.update(image[v] for v in gadget.key_vertices)
            if target <= hits:
                return hits
    return hits


def classify_degree_k1(g: Graph, k: int, ore_catalog_cap: int = 2) -> tuple[dict[int, str], dict[int, int]]:
    """Roles and cluster sizes on vertex sets and a list of small cliques."""
    if k < 4:
        raise ValueError("classification needs k >= 4")
    low = {v for v in range(g.n) if g.degree(v) == k - 1}
    roles: dict[int, str] = {v: "not-deg-(k-1)" for v in range(g.n)}
    cluster_list = clusters(g, k)
    cluster_of = {v: c for c in cluster_list for v in c}
    in_clique = {v for q in cliques_of_size(g, k - 3) for v in q}
    key_targets = {v for v in low if v not in in_clique}
    key_hits = gadget_key_hits(g, gadget_catalog(k, ore_catalog_cap), key_targets) if key_targets else set()
    structure = {v for v in low if v in in_clique or v in key_hits}
    for c in cluster_list:
        if c & structure:
            structure |= c
    for v in low:
        if v in structure:
            roles[v] = "structure"
            continue
        outside = [u for u in g.neighbors(v) if u in low and u not in cluster_of[v]]
        roles[v] = "near" if outside else "lone"
        if roles[v] == "lone" and len(cluster_of[v]) > k - 4:
            raise AssertionError("a lone cluster this large is itself a clique witness")
    return roles, {v: len(members) for v, members in cluster_of.items()}


def apply_rules(g: Graph, k: int, roles: dict[int, str], cluster_size: dict[int, int]) -> tuple[ChargeRow, ...]:
    """Both rules on integers over one denominator, turned into one row per
    vertex with one ``Fraction`` per distinct charge."""
    eps = PotentialParams.for_k(k).eps
    degree = [g.degree(v) for v in range(g.n)]
    senders = [v for v in range(g.n) if degree[v] >= k + 2]
    payers = {}
    for v in range(g.n):
        if roles[v] == "structure":
            near = [u for u in g.neighbors(v) if roles[u] == "near"]
            if near:
                payers[v] = near
    scale = lcm(*(degree[v] for v in senders), *(len(near) for near in payers.values()))
    den = eps.denominator * scale
    base = (k - 2) * (k + 1) * den + eps.numerator * scale
    initial = [base - d * (k - 1) * den for d in degree]
    final = initial[:]
    for v in senders:
        sent = (k - degree[v]) * (k - 1) * den
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
        if roles[v] == "lone" and cluster_size[v] == 1:
            label = "L"
        elif roles[v] == "lone" and cluster_size[v] == 2:
            label = "M"
        elif d == k:
            label = "P"
        elif d == k + 1:
            label = "Q"
        else:
            label = "R-other"
        rows.append(ChargeRow(label, charge[initial[v]], charge[final[v]]))
    return tuple(rows)


def total(charges: Iterable[Fraction]) -> Fraction:
    """The sum of ``charges``, one product per distinct value."""
    return sum((charge * count for charge, count in Counter(charges).items()), Fraction(0))


def charge_report(g: Graph, k: int, ore_catalog_cap: int = 2) -> dict:
    """``charge_report``'s fields, from the rows above."""
    rows = apply_rules(g, k, *classify_degree_k1(g, k, ore_catalog_cap))
    by_label: dict[str, set[int]] = {lab: set() for lab in ("L", "M", "P", "Q", "R-other")}
    for v, r in enumerate(rows):
        by_label[r.label].add(v)
    l_set, m_set, p_set, q_set, rest = by_label.values()
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
    rho_plus = rho_value(g.n, g.edge_count(), 0, k)
    charge = total(r.initial for r in rows)
    if charge != rho_plus:
        raise AssertionError("total charge disagrees with the potential")
    return {
        "sizes": {lab: len(members) for lab, members in by_label.items()},
        "identity_hypothesis": hypothesis,
        "total_charge": charge,
        "rho_plus_delta_t": rho_plus,
    }


# -- packing -------------------------------------------------------------------


def compute_T(g: Graph, k: int) -> PackingWitness:
    """The include/exclude search on clique tuples, recomputing the cover
    bound over the whole remaining list at every node."""
    if k < 4:
        raise ValueError("packing parameter requires k >= 4")
    big = cliques_of_size(g, k - 1)
    small = cliques_of_size(g, k - 2)
    cand = [(2, cl) for cl in big] + [(1, cl) for cl in small]
    weights = [w for w, _ in cand]
    masks = [mask_of(cl) for _, cl in cand]
    n_big = len(big)
    best_value = -1
    best_chosen: tuple[int, ...] = ()

    def dfs(indices: list[int], value: int, chosen: tuple[int, ...]):
        nonlocal best_value, best_chosen
        if value > best_value:
            best_value = value
            best_chosen = chosen
        if not indices:
            return
        big_cover = small_cover = 0
        for i in indices:
            if i < n_big:
                big_cover |= masks[i]
            else:
                small_cover |= masks[i]
        spread = 2 * (k - 2) * big_cover.bit_count() + (k - 1) * (small_cover & ~big_cover).bit_count()
        if value + spread // ((k - 1) * (k - 2)) <= best_value:
            return
        head, rest = indices[0], indices[1:]
        dfs([i for i in rest if not masks[i] & masks[head]], value + weights[head], chosen + (head,))
        dfs(rest, value, chosen)

    dfs(list(range(len(cand))), 0, ())
    witness = PackingWitness(tuple(cand[i][1] for i in best_chosen), best_value)
    check_witness(g, k, witness)
    return witness


# -- graph6 --------------------------------------------------------------------


def graph6_encode(g: Graph) -> str:
    """graph6 written one bit at a time."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    bits: list[int] = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for p in range(0, len(bits), 6):
        x = 0
        for b in bits[p:p + 6]:
            x = (x << 1) | b
        body.append(x + 63)
    return "".join(chr(c) for c in head + body)


def graph6_decode(text: str | bytes) -> Graph:
    """graph6 read one bit at a time, with the same errors and offsets."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphFormatError("non-ASCII byte", exc.start) from None
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise GraphFormatError("empty graph6 input", 0)
    data = [ord(c) for c in text]
    for i, c in enumerate(data):
        if not 63 <= c <= 126:
            raise GraphFormatError(f"byte {c!r} outside graph6 range 63..126", i)
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError("8-byte vertex-count form not supported", 1)
        if len(data) < 4:
            raise GraphFormatError("truncated vertex count", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds supported {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError("truncated adjacency data", len(data))
    if len(data) - pos > nbytes:
        raise GraphFormatError("trailing data after adjacency bits", pos + nbytes)
    bits: list[int] = []
    for c in data[pos:]:
        x = c - 63
        bits.extend((x >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise GraphFormatError("nonzero padding bit", pos + i // 6)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


# -- potentials ----------------------------------------------------------------


def rho_value(n: int, m: int, t_value: int, k: int) -> Fraction:
    """rho as a chain of ``Fraction`` operations."""
    p = PotentialParams.for_k(k)
    return ((k - 2) * (k + 1) + p.eps) * n - Fraction(2 * (k - 1) * m) - p.delta * t_value


def main_potential_bound(n: int, k: int) -> Fraction:
    """k(k-3) + n*eps - (2 + (n-1)/(k-1))*delta term by term."""
    p = PotentialParams.for_k(k)
    return k * (k - 3) + n * p.eps - (2 + Fraction(n - 1, k - 1)) * p.delta


def ky_edge_bound(n: int, k: int) -> int:
    return ceil((Fraction(k, 2) - Fraction(1, k - 1)) * n - Fraction(k * (k - 3), 2 * (k - 1)))


def eps_edge_bound(n: int, k: int, t_value: int) -> Fraction:
    p = PotentialParams.for_k(k)
    numer = ((k - 2) * (k + 1) + p.eps) * n - k * (k - 3) + 2 * p.delta - k * p.eps - p.delta * t_value
    return numer / (2 * (k - 1))

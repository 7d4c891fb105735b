"""Exact maximum packings of (k-1)- and (k-2)-cliques.

The packing value maximizes 2r + s over vertex-disjoint families of r cliques
of order k-1 and s cliques of order k-2. The main solver is a branch-and-bound
over the clique conflict structure; an independent brute-force oracle covers
small graphs for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeCapError
from .graphs import Graph, cliques_of_size, mask_of

# Most candidate cliques compute_T collects, and the most vertices
# compute_T_bruteforce scans subsets of; past either it raises SizeCapError.
CLIQUE_CAP = 10 ** 6
BRUTEFORCE_MAX_VERTICES = 12


@dataclass(frozen=True)
class PackingWitness:
    """A vertex-disjoint family of (k-1)- and (k-2)-cliques with its value."""

    k: int
    cliques: tuple[tuple[int, ...], ...]
    value: int


def check_witness(g: Graph, k: int, witness: PackingWitness) -> None:
    """Re-validate a packing witness independently of the solver."""
    used = 0
    total = 0
    for cl in witness.cliques:
        if len(cl) not in (k - 1, k - 2):
            raise ValueError(f"clique {cl} has order {len(cl)}, want {k - 1} or {k - 2}")
        if not g.is_clique(cl):
            raise ValueError(f"vertex set {cl} is not a clique")
        m = mask_of(cl)
        if m & used:
            raise ValueError(f"clique {cl} overlaps another packed clique")
        used |= m
        total += 2 if len(cl) == k - 1 else 1
    if total != witness.value:
        raise ValueError(f"declared value {witness.value} != recomputed {total}")


def compute_T(g: Graph, k: int) -> PackingWitness:
    """Exact packing value with a certifying witness.

    Candidates are sorted big-cliques-first then lexicographically, and the
    include/exclude search keeps the first optimum found, so the witness is
    deterministic. Pruning bound: spread each packed clique's weight evenly,
    2/(k-1) per vertex of a (k-1)-clique and 1/(k-2) <= 2/(k-1) per vertex of
    a (k-2)-clique. With BL the vertices of the remaining (k-1)-candidates and
    SL those of the remaining (k-2)-candidates, the rest of the search adds at
    most (2(k-2)|BL| + (k-1)|SL - BL|) // ((k-1)(k-2)), never more than the
    remaining candidate weight or 2/(k-1) per unused vertex. A subtree is cut
    only when it cannot beat the best value so far, so it cannot hold an
    earlier optimum: the bound decides how much is searched, never which
    witness is found.

    Note: cliques of order k-2 lying inside a packed (k-1)-clique are *not*
    globally prunable. Dropping them can lose optima: pack two triangles
    sharing one vertex at k = 4, where every optimal packing uses one triangle
    plus an edge inside the other. The solver therefore keeps all candidates.
    """
    if k < 4:
        raise ValueError("packing parameter requires k >= 4")
    big = cliques_of_size(g, k - 1, cap=CLIQUE_CAP)
    small = cliques_of_size(g, k - 2, cap=CLIQUE_CAP - len(big))
    if len(big) + len(small) > CLIQUE_CAP:
        raise SizeCapError("packing candidate cliques", len(big) + len(small), CLIQUE_CAP)
    cand = sorted(
        [(2, cl) for cl in big] + [(1, cl) for cl in small],
        key=lambda wc: (-wc[0], wc[1]),
    )
    weights = [w for w, _ in cand]
    masks = [mask_of(cl) for _, cl in cand]
    n_big = len(big)  # cand is big-first: indices below n_big are (k-1)-cliques

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
    witness = PackingWitness(k, tuple(cand[i][1] for i in best_chosen), best_value)
    check_witness(g, k, witness)
    return witness


def compute_T_bruteforce(g: Graph, k: int) -> int:
    """Independent exhaustive packing value for small graphs.

    Enumerates cliques by scanning all vertex subsets of the two orders, then
    searches families by always deciding the lowest unused vertex (use it in
    some clique, or retire it). Implementation shares nothing with compute_T.
    """
    if k < 4:
        raise ValueError("packing parameter requires k >= 4")
    if g.n > BRUTEFORCE_MAX_VERTICES:
        raise SizeCapError("brute-force packing", g.n, BRUTEFORCE_MAX_VERTICES)
    by_low: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for order, weight in ((k - 1, 2), (k - 2, 1)):
        if order < 1:
            continue
        for subset in combinations(range(g.n), order):
            if g.is_clique(subset):
                by_low[subset[0]].append((mask_of(subset), weight))
    memo: dict[int, int] = {}

    def search(avail: int) -> int:
        if avail == 0:
            return 0
        if avail in memo:
            return memo[avail]
        v = (avail & -avail).bit_length() - 1
        best = search(avail & ~(1 << v))
        for cmask, weight in by_low.get(v, ()):
            if cmask & avail == cmask:
                best = max(best, weight + search(avail & ~cmask))
        memo[avail] = best
        return best

    return search(g.full_mask())

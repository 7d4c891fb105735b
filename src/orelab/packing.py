"""Exact maximum packings of (k-1)- and (k-2)-cliques.

The packing value maximizes 2r + s over vertex-disjoint families of r cliques
of order k-1 and s cliques of order k-2. The main solver is a branch-and-bound
over the clique conflict structure; an independent brute-force oracle covers
small graphs for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import or_

from .errors import SizeCapError
from .graphs import Graph, _cliques, bits_of, mask_of

# Most candidate cliques compute_T collects, and the most vertices
# compute_T_bruteforce scans subsets of; past either it raises SizeCapError.
CLIQUE_CAP = 10 ** 6
BRUTEFORCE_MAX_VERTICES = 12


@dataclass(frozen=True)
class PackingWitness:
    """A vertex-disjoint family of (k-1)- and (k-2)-cliques, as vertex
    masks, with its value."""

    cliques: tuple[int, ...]
    value: int


def check_witness(g: Graph, k: int, witness: PackingWitness) -> None:
    """Re-validate a packing witness independently of the solver."""
    used = 0
    total = 0
    for cl in map(g._within, witness.cliques):
        order = cl.bit_count()
        if order not in (k - 1, k - 2):
            raise ValueError(f"clique {list(bits_of(cl))} has order {order}, want {k - 1} or {k - 2}")
        if not g.is_clique(cl):
            raise ValueError(f"vertex set {list(bits_of(cl))} is not a clique")
        if cl & used:
            raise ValueError(f"clique {list(bits_of(cl))} overlaps another packed clique")
        used |= cl
        total += 2 if order == k - 1 else 1
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
    big: list[int] = []
    small: list[int] = []

    def collect(clique: int, later: int) -> bool:
        # each (k-1)-clique is a (k-2)-clique and one later common neighbour,
        # so both lists come out of one search in lexicographic order
        small.append(clique)
        while later:
            low = later & -later
            big.append(clique | low)
            later ^= low
        if len(big) + len(small) > CLIQUE_CAP:
            raise SizeCapError("packing candidate cliques", len(big) + len(small), CLIQUE_CAP)
        return False

    _cliques(g.adj, g.full_mask(), k - 2, collect)
    best_value, best_chosen = _pack(k, big, small, 0, (), (-1, ()))
    witness = PackingWitness(best_chosen, best_value)
    check_witness(g, k, witness)
    return witness


def _pack(
    k: int, bigs: list[int], smalls: list[int], value: int, chosen: tuple[int, ...], best: tuple[int, tuple[int, ...]]
) -> tuple[int, tuple[int, ...]]:
    """``compute_T``'s search below the packed cliques ``chosen`` of weight
    ``value``: the first best (value, cliques) of it and of ``best``, the
    best before it. It packs each candidate in turn, big ones first; moving
    on excludes it, so the loops walk the exclusion chain, step j bounded by
    covers[-1 - j], the union of the candidates from j on, all from one
    backward pass; a step among the big ones keeps every small one."""
    if value > best[0]:
        best = (value, chosen)
    small_covers = list(accumulate(reversed(smalls), or_))
    small_union = small_covers[-1] if smalls else 0
    big_covers = list(accumulate(reversed(bigs), or_))
    for j, head in enumerate(bigs):
        cover = big_covers[-1 - j]
        spread = 2 * (k - 2) * cover.bit_count() + (k - 1) * (small_union & ~cover).bit_count()
        if value + spread // ((k - 1) * (k - 2)) <= best[0]:
            return best
        later_bigs = [m for m in bigs[j + 1:] if not m & head]
        best = _pack(k, later_bigs, [m for m in smalls if not m & head], value + 2, chosen + (head,), best)
    for j, head in enumerate(smalls):
        # (k-1)|SL| // ((k-1)(k-2)), with no big candidate left
        if value + small_covers[-1 - j].bit_count() // (k - 2) <= best[0]:
            return best
        best = _pack(k, [], [m for m in smalls[j + 1:] if not m & head], value + 1, chosen + (head,), best)
    return best


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
        for subset in combinations(range(g.n), order):
            m = mask_of(subset)
            if g.is_clique(m):
                by_low[subset[0]].append((m, weight))
    return _family(by_low, {}, g.full_mask())


def _family(by_low: dict[int, list[tuple[int, int]]], memo: dict[int, int], avail: int) -> int:
    """``compute_T_bruteforce``'s best packing value on the vertices
    ``avail``, deciding its lowest vertex first; ``memo`` holds the values
    of the masks already searched."""
    if avail == 0:
        return 0
    if avail in memo:
        return memo[avail]
    v = (avail & -avail).bit_length() - 1
    best = _family(by_low, memo, avail & ~(1 << v))
    for cmask, weight in by_low.get(v, ()):
        if cmask & avail == cmask:
            best = max(best, weight + _family(by_low, memo, avail & ~cmask))
    memo[avail] = best
    return best

"""Independent oracles for the benchmark's output checks.

Nothing here imports orelab: graph6 is decoded to neighbour sets by hand and
colorability is decided by plain backtracking in vertex order, so a fault in
``orelab.graphs`` or ``orelab.coloring`` cannot hide itself from the checks.
"""

from __future__ import annotations


def decode_graph6(text: str) -> list[set[int]]:
    """Neighbour sets of a short-form graph6 line (n <= 62)."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 header in {text!r}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte, offset = divmod(bit, 6)
            if data[1 + byte] >> (5 - offset) & 1:
                nbrs[i].add(j)
                nbrs[j].add(i)
            bit += 1
    return nbrs


def edges_of(nbrs: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(nbrs)) for v in sorted(nbrs[u]) if u < v]


def coloring(nbrs: list[set[int]], t: int) -> list[int] | None:
    """A proper coloring with colors 0..t-1 found by backtracking over the
    vertices in index order, or None when none exists."""
    n = len(nbrs)
    colors = [-1] * n

    def place(v: int, top: int) -> bool:
        if v == n:
            return True
        taken = {colors[u] for u in nbrs[v] if colors[u] >= 0}
        # a colour above every colour used so far is interchangeable with the
        # others, so only the first such colour is tried
        for c in range(min(t, top + 1)):
            if c not in taken:
                colors[v] = c
                if place(v + 1, max(top, c + 1)):
                    return True
        colors[v] = -1
        return False

    return colors if place(0, 0) else None


def is_proper(nbrs: list[set[int]], colors: list[int], t: int) -> bool:
    return all(0 <= colors[v] < t for v in range(len(nbrs))) and all(
        colors[u] != colors[v] for u, v in edges_of(nbrs)
    )


def is_k_critical(nbrs: list[set[int]], k: int) -> bool:
    """chi = k and every single-edge deletion is (k-1)-colorable, with no
    isolated vertex, so every proper subgraph is (k-1)-colorable."""
    if not nbrs or any(not s for s in nbrs):
        return False
    if coloring(nbrs, k - 1) is not None:
        return False
    for u, v in edges_of(nbrs):
        nbrs[u].discard(v)
        nbrs[v].discard(u)
        try:
            if coloring(nbrs, k - 1) is None:
                return False
        finally:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return True

"""Immutable bitmask graphs with canonical labeling and graph6 serialization.

Vertices are dense ints 0..n-1 and adjacency rows are int bitmasks, so set
algebra (intersection with a candidate pool, degree counts, component scans)
is single-instruction work. Every operation that renumbers vertices returns
the old->new map alongside the new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import SizeCapError

MAX_VERTICES = 256
# Entries memoised by canonical_form: the seeded benchmark stream keeps about
# 2,500 for 480 graphs and a verify sweep 600, so no workload evicts.
CANONICAL_CACHE_SIZE = 8192


class GraphFormatError(ValueError):
    """Malformed graph6 input; ``offset`` points at the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def components(adj: Sequence[int], sub: int) -> list[int]:
    """Connected components of the subgraph induced on the vertex mask
    ``sub``, as vertex bitmasks ordered by least vertex."""
    seen = 0
    out = []
    for v in bits_of(sub):
        if seen >> v & 1:
            continue
        comp = frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits_of(frontier):
                nxt |= adj[u]
            frontier = nxt & sub & ~comp
            comp |= frontier
        seen |= comp
        out.append(comp)
    return out


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertex ids 0..n-1, with n <= MAX_VERTICES.

    ``adj[v]`` is the neighbor set of v as a bitmask. Instances are immutable
    and hashable; edits return new graphs.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has a neighbor outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits_of(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """Wrap rows that are valid by construction, skipping validation."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", rows)
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._trusted(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        _check_order(n)
        return Graph._trusted(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        _check_order(n)
        full = (1 << n) - 1
        return Graph._trusted(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    # -- queries -----------------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits_of(self.adj[v]))

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for u in bits_of(row):
                out.append((v, v + 1 + u))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        m = mask_of(vs)
        return all((self.adj[v] & m) == m ^ (1 << v) for v in vs)

    def is_independent(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        m = mask_of(vs)
        return all(not (self.adj[v] & m) for v in vs)

    # -- edits (all return new graphs) -------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v or self.has_edge(u, v):
            raise ValueError(f"cannot add edge ({u},{v})")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._trusted(self.n, tuple(rows))

    def delete_vertex(self, v: int) -> tuple["Graph", dict[int, int]]:
        """Remove v; survivors are renumbered densely in increasing id order."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} not in graph")
        return self.induced(u for u in range(self.n) if u != v)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old->new renumbering map."""
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise ValueError("induced set outside vertex range")
        remap = {old: new for new, old in enumerate(keep)}
        keep_mask = mask_of(keep)
        rows = []
        for old in keep:
            row = 0
            for w in bits_of(self.adj[old] & keep_mask):
                row |= 1 << remap[w]
            rows.append(row)
        return Graph._trusted(len(keep), tuple(rows)), remap

    def relabelled(self, perm: dict[int, int] | list[int]) -> "Graph":
        """Apply a vertex bijection old->new and return the relabelled graph."""
        if isinstance(perm, dict):
            lookup = perm
        else:
            lookup = {old: new for old, new in enumerate(perm)}
        rows = [0] * self.n
        for old in range(self.n):
            row = 0
            for w in bits_of(self.adj[old]):
                row |= 1 << lookup[w]
            rows[lookup[old]] = row
        return Graph(self.n, tuple(rows))


def identify(g: Graph, x: int, y: int) -> tuple[Graph, dict[int, int]]:
    """Merge x and y into one vertex (neighbor union, parallels collapsed).

    Survivors keep their relative order with dense ids 0..n-3; the merged
    vertex takes the final id n-2. The returned map sends every original
    vertex (x and y included) to its new id.
    """
    if x == y:
        raise ValueError("identify needs two distinct vertices")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"cannot identify ({x},{y}) outside 0..{g.n - 1}")
    keep = [u for u in range(g.n) if u not in (x, y)]
    remap = {old: new for new, old in enumerate(keep)}
    merged = len(keep)
    remap[x] = merged
    remap[y] = merged
    drop = (1 << x) | (1 << y)
    rows = []
    for old in keep:
        row = 0
        for w in bits_of(g.adj[old] & ~drop):
            row |= 1 << remap[w]
        if g.adj[old] & drop:
            row |= 1 << merged
        rows.append(row)
    merged_row = 0
    for w in bits_of((g.adj[x] | g.adj[y]) & ~drop):
        row_bit = 1 << remap[w]
        merged_row |= row_bit
    rows.append(merged_row)
    return Graph._trusted(g.n - 1, tuple(rows)), remap


# -- clique and subgraph search ------------------------------------------


def _cliques(g: Graph, size: int, visit: Callable[[tuple[int, ...]], bool]) -> bool:
    """Hand every ``size``-vertex clique of g to ``visit``, as a sorted tuple
    in lexicographic order, and stop with True as soon as it returns True.

    Each level tries its candidates in increasing order and drops each one
    once tried, so a vertex extends only with its later neighbours. A vertex
    is tried only if it leaves enough candidates to finish the clique, and a
    level ends once fewer candidates are left than the clique still needs.
    """
    if size < 0:
        raise ValueError("clique size must be nonnegative")
    adj = g.adj

    def extend(prefix: tuple[int, ...], allowed: int, want: int) -> bool:
        if want == 0:
            return visit(prefix)
        while allowed.bit_count() >= want:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            nxt = allowed & adj[v]
            if nxt.bit_count() >= want - 1 and extend(prefix + (v,), nxt, want - 1):
                return True
        return False

    return extend((), g.full_mask(), size)


def cliques_of_size(g: Graph, size: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All vertex sets of the given size inducing a complete subgraph.

    Results are sorted tuples in lexicographic order. ``cap`` bounds how
    many cliques may be collected before the search aborts.
    """
    if size == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def collect(clique: tuple[int, ...]) -> bool:
        out.append(clique)
        if cap is not None and len(out) > cap:
            raise SizeCapError("clique enumeration", len(out), cap)
        return False

    _cliques(g, size, collect)
    return out


def has_clique(g: Graph, size: int) -> bool:
    """Early-exit test for a complete subgraph on ``size`` vertices."""
    return _cliques(g, size, lambda clique: True)


def embeddings(pattern: Graph, host: Graph) -> Iterator[tuple[int, ...]]:
    """Subgraph monomorphisms pattern -> host (edges preserved, injective).

    Yields tuples where position i holds the host image of pattern vertex i.
    Non-edges of the pattern are unconstrained.
    """
    pn = pattern.n
    if pn > host.n:
        return
    # order pattern vertices: highest degree first, then expand by adjacency
    order: list[int] = []
    placed = 0
    remaining = set(range(pn))
    while remaining:
        attached = [v for v in remaining if pattern.adj[v] & placed]
        pool = attached if attached else list(remaining)
        v = max(pool, key=lambda u: (pattern.degree(u), -u))
        order.append(v)
        placed |= 1 << v
        remaining.remove(v)
    image = [-1] * pn
    used = 0

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal used
        if i == pn:
            yield tuple(image)
            return
        pv = order[i]
        need = pattern.degree(pv)
        candidates = host.full_mask() & ~used
        for pu in bits_of(pattern.adj[pv]):
            if image[pu] >= 0:
                candidates &= host.adj[image[pu]]
        for hv in bits_of(candidates):
            if host.degree(hv) < need:
                continue
            image[pv] = hv
            used |= 1 << hv
            yield from rec(i + 1)
            used &= ~(1 << hv)
            image[pv] = -1

    yield from rec(0)


# -- canonical labeling ----------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical labeling certificate.

    Two graphs are isomorphic iff their (n, bits) keys agree. ``labeling[i]``
    is the original vertex placed at canonical position i, so composing the
    labelings of two graphs with equal keys yields an explicit isomorphism.
    """

    n: int
    bits: int
    labeling: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int]:
        return (self.n, self.bits)


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """1-WL refinement of an ordered partition until stable.

    Cells split by their members' neighbor counts into every current cell;
    sub-cells are ordered by sorted signature, which keeps the refinement
    label-invariant.
    """
    while True:
        masks = [mask_of(cell) for cell in cells]
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((adj[v] & m).bit_count() for m in masks)
                sig.setdefault(key, []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    new_cells.append(sig[key])
        cells = new_cells
        if not changed:
            return cells


def _twin_cell(adj: tuple[int, ...], cells: list[list[int]], idx: int) -> bool:
    """True if every pair inside cells[idx] is a (true or false) twin.

    Under a stable refinement it suffices to inspect one member: a cell whose
    member sees each other cell completely or not at all, and whose interior
    is complete or empty, consists of mutually interchangeable vertices.
    """
    cell = cells[idx]
    if len(cell) == 1:
        return True
    v0 = cell[0]
    for j, other in enumerate(cells):
        cnt = (adj[v0] & mask_of(other)).bit_count()
        if j == idx:
            if cnt not in (0, len(cell) - 1):
                return False
        elif cnt not in (0, len(other)):
            return False
    return True


def _adjacency_bits(adj: tuple[int, ...], order: list[int]) -> int:
    bits = 0
    n = len(order)
    for i in range(n):
        row = adj[order[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | (row >> order[j] & 1)
    return bits


def _canonical(adj: tuple[int, ...], cells: list[list[int]]) -> tuple[int, list[int]]:
    """Best (bits, order) over the leaves of the individualization tree
    below the ordered partition ``cells``.

    A leaf's order maximizes the upper-triangle adjacency bit string. Cells of
    mutual twins are never branched on (any internal order yields identical
    bits), which keeps complete and complete-multipartite graphs cheap.
    Refinement and individualization split cells in place, so every leaf
    lists the members of the starting cells contiguously and in cell order.
    """
    best_bits = -1
    best_order: list[int] = []

    def search(cells: list[list[int]]):
        nonlocal best_bits, best_order
        cells = _refine(adj, cells)
        branch = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and not _twin_cell(adj, cells, i):
                branch = i
                break
        if branch is None:
            order = [v for cell in cells for v in cell]
            bits = _adjacency_bits(adj, order)
            if bits > best_bits:
                best_bits = bits
                best_order = order
            return
        cell = cells[branch]
        for v in cell:
            rest = [u for u in cell if u != v]
            search(cells[:branch] + [[v], rest] + cells[branch + 1:])

    search(cells)
    return best_bits, best_order


def _canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form via refinement plus backtracking individualization,
    starting from the one-cell partition. Uncached: bulk enumeration keys
    each of its many graphs once, so a cache would only hold memory."""
    n = g.n
    if n == 0:
        return CanonicalForm(0, 0, ())
    bits, order = _canonical(g.adj, [list(range(n))])
    return CanonicalForm(n, bits, tuple(order))


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def canonical_form(g: Graph) -> CanonicalForm:
    """The memoised ``_canonical_form``, for graphs that are keyed again."""
    return _canonical_form(g)


def _graph_of_key(key: tuple[int, int]) -> Graph:
    """The graph with canonical key ``key`` whose vertex n-1-p sits at
    canonical position p. The bits list the upper triangle of the canonical
    order row by row, most significant first."""
    n, bits = key
    rows = [0] * n
    shift = n * (n - 1) // 2
    for i in range(n - 1, -1, -1):
        for j in range(i - 1, -1, -1):
            shift -= 1
            if bits >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._trusted(n, tuple(rows))


def _orbit_key(g: Graph, cells: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Canonical key of g under an ordered vertex partition (empty cells
    allowed): two partitions of g get equal keys iff some automorphism of g
    maps one onto the other cell by cell.

    Equal bits make the two best leaf orders an explicit automorphism, and
    since each leaf keeps the starting cells contiguous and in order, equal
    cell sizes make it map cell i onto cell i.
    """
    bits, _ = _canonical(g.adj, [list(cell) for cell in cells if cell])
    return tuple(len(cell) for cell in cells), bits


def canonical_key(g: Graph) -> tuple[int, int]:
    return canonical_form(g).key


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_key(g) == canonical_key(h)


def isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An explicit isomorphism g -> h obtained from canonical labelings."""
    cg, ch = canonical_form(g), canonical_form(h)
    if cg.key != ch.key:
        return None
    return {cg.labeling[i]: ch.labeling[i] for i in range(g.n)}


# -- graph6 ----------------------------------------------------------------


def graph6_encode(g: Graph) -> str:
    """Encode in graph6 (short form for n <= 62, 4-byte form above)."""
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
    """Decode one graph6 line; malformed input raises GraphFormatError with
    the byte offset of the fault."""
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
    pos = 0
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


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)

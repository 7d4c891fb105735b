"""Immutable bitmask graphs with canonical labeling and graph6 serialization.

Vertices are dense ints 0..n-1 and adjacency rows are int bitmasks, so set
algebra (intersection with a candidate pool, degree counts, component scans)
is single-instruction work. Every operation that renumbers vertices returns
the old->new map alongside the new graph.
"""

from __future__ import annotations

import re
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
    and hashable; induced and relabelled graphs are new instances.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "adj", tuple(self.adj))
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

    # -- derived graphs ----------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old->new renumbering map."""
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise ValueError("induced set outside vertex range")
        remap = {old: new for new, old in enumerate(keep)}
        return Graph._trusted(len(keep), _quotient(self.adj, remap, len(keep))), remap

    def relabelled(self, perm: list[int] | tuple[int, ...]) -> "Graph":
        """Apply a vertex bijection given as the list of images, ``perm[old]``
        the new id of old."""
        if not isinstance(perm, (list, tuple)) or sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabelling {perm!r} is not a bijection of 0..{self.n - 1} as a list")
        return Graph._trusted(self.n, _quotient(self.adj, dict(enumerate(perm)), self.n))


def _quotient(adj: Sequence[int], image: dict[int, int], n: int) -> tuple[int, ...]:
    """The rows on 0..n-1 of the graph in which each vertex v in ``image``
    becomes ``image[v]``. Vertices missing from ``image`` are dropped and
    vertices with one image merge; an edge inside a merged set leaves no loop.
    """
    keep = mask_of(image)
    rows = [0] * n
    for v, new in image.items():
        row = 0
        nbrs = adj[v] & keep
        while nbrs:
            low = nbrs & -nbrs
            row |= 1 << image[low.bit_length() - 1]
            nbrs ^= low
        rows[new] |= row & ~(1 << new)
    return tuple(rows)


# -- clique and subgraph search ------------------------------------------


def _cliques(
    adj: Sequence[int], within: int, size: int, visit: Callable[[int, int], bool]
) -> bool:
    """Hand every ``size``-vertex clique of the rows ``adj`` inside the
    vertex mask ``within`` to ``visit`` as a vertex mask, in lexicographic
    order of the sorted cliques, with the mask of its later common
    neighbours in ``within`` (the vertices there above its last one adjacent
    to all of it), and stop with True as soon as ``visit`` returns True.
    Every candidate set is ``within`` intersected with rows, so the search
    never leaves it.

    Each level tries its candidates in increasing order and drops each one
    once tried, so a vertex extends only with its later neighbours. A vertex
    is tried only if it leaves enough candidates to finish the clique, and a
    level ends once fewer candidates are left than the clique still needs.
    """
    if size < 0:
        raise ValueError("clique size must be nonnegative")

    def extend(prefix: int, allowed: int, want: int) -> bool:
        if want == 0:
            return visit(prefix, allowed)
        while allowed.bit_count() >= want:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            nxt = allowed & adj[v]
            if want == 1:  # the last vertex: hand the clique over without a call
                if visit(prefix | low, nxt):
                    return True
            elif nxt.bit_count() >= want - 1 and extend(prefix | low, nxt, want - 1):
                return True
        return False

    return extend(0, within, size)


def _partitions(
    items: Sequence[tuple[int, int]], t: int, visit: Callable[[list[int]], bool], classes: list[int], i: int
) -> bool:
    """Hand each partition of ``items[i:]``, added to the open ``classes``,
    into at most t independent classes to ``visit`` as the live list of
    class masks, once, in restricted-growth order (an item tries every open
    class in turn, then opens a new one), and stop with True as soon as
    ``visit`` returns True. An item is (its vertex bits, their neighbour
    row); a walk starts from [] and 0 and leaves the list as it found it."""
    if i == len(items):
        return visit(classes)
    bits, row = items[i]
    for c, cls in enumerate(classes):
        if not cls & row:
            classes[c] = cls | bits
            stop = _partitions(items, t, visit, classes, i + 1)
            classes[c] = cls
            if stop:
                return True
    if len(classes) < t:
        classes.append(bits)
        stop = _partitions(items, t, visit, classes, i + 1)
        classes.pop()
        return stop
    return False


def cliques_of_size(g: Graph, size: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All vertex sets of the given size inducing a complete subgraph.

    Results are sorted tuples in lexicographic order. ``cap`` bounds how
    many cliques may be collected before the search aborts.
    """
    if size == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def collect(clique: int, later: int) -> bool:
        out.append(tuple(bits_of(clique)))
        if cap is not None and len(out) > cap:
            raise SizeCapError("clique enumeration", len(out), cap)
        return False

    _cliques(g.adj, g.full_mask(), size, collect)
    return out


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


def _refine(adj: tuple[int, ...], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """1-WL refinement of an ordered partition until stable, counting only
    against the cells that just split (McKay, *Practical graph isomorphism*,
    1981).

    A round splits each cell by its members' tuple of neighbor counts into
    the round's splitters (vertex masks in partition order) and orders the
    sub-cells by that tuple, which keeps the refinement label-invariant. The
    next round's splitters are the pieces of every cell that split, less the
    last piece of each, each one's mask built as its cell splits; the
    refinement stops when a round splits nothing. An empty cell (the
    0-vertex graph's one cell) has no piece and is dropped.

    The tuple is keyed as one int, its counts in fixed 9-bit fields with the
    first splitter's most significant. A count is at most n - 1 < 2^9, and
    every key of a round has one field per splitter, so comparing two keys
    as ints compares their tuples lexicographically: the cells and their
    order are those the tuples give.

    Precondition: two members of one input cell that agree on their counts
    into every splitter agree on their count into every input cell. Then
    each round starts with every cell's members agreeing on their count into
    every cell of the round before, so counts into an unsplit cell, and into
    the last piece of a split one (the cell's count less its other pieces'),
    are equal within a cell and change neither a split nor the lexicographic
    order of the sub-cells. The result is the partition a rescan against
    every cell gives, in the same order, whenever the input splitters order
    each cell as its counts into all input cells do. Dropping the largest
    piece instead of the last, as Hopcroft does, would change that order.
    """
    while splitters:
        new_cells: list[list[int]] = []
        next_splitters: list[int] = []
        one = splitters[0] if len(splitters) == 1 else None
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                if one is None:
                    key = 0
                    for m in splitters:
                        key = key << 9 | (row & m).bit_count()
                else:
                    key = (row & one).bit_count()
                if key in sig:
                    sig[key].append(v)
                else:
                    sig[key] = [v]
            if len(sig) == 1:
                new_cells.append(cell)
                continue
            pieces = [sig[key] for key in sorted(sig)]
            new_cells += pieces
            for piece in pieces[:-1]:
                splitter = 0
                for v in piece:
                    splitter |= 1 << v
                next_splitters.append(splitter)
        cells, splitters = new_cells, next_splitters
    return cells


def _twin_cell(adj: tuple[int, ...], masks: list[int], idx: int) -> bool:
    """True if every pair inside the cell ``masks[idx]`` is a (true or false)
    twin; ``masks`` are the vertex masks of the partition's cells.

    Under a stable refinement it suffices to inspect one member: a cell whose
    member sees each other cell completely or not at all, and whose interior
    is complete or empty, consists of mutually interchangeable vertices.
    """
    cell = masks[idx]
    low = cell & -cell
    if cell == low:
        return True
    row = adj[low.bit_length() - 1]
    for m in masks:
        seen = row & m
        if seen and seen != m & ~low:
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


def _search(g: Graph) -> tuple[CanonicalForm, list[list[int]]]:
    """The canonical form of g and generators of Aut(g), as lists of vertex
    images, from one individualization-refinement search. A leaf lists its
    cells in order; its bits are the upper-triangle adjacency bit string of
    that order, and the canonical order is the first leaf with the most bits.
    Cells of mutual twins are never branched on (any order gives equal bits).
    The root refines against the whole vertex set (its counts are degrees)
    and a child against its individualized vertex alone: the parent's cells
    are stable, so a count into the rest of the split cell is the count into
    the whole cell less the adjacency to that vertex.

    The generators are the swaps of consecutive pairs in the first leaf's
    twin cells and the map from the first leaf onto each later leaf with its
    bits. Each fixes the first path down to where it was found and prunes
    there (McKay & Piperno, *Practical graph isomorphism, II*, 2014): such a
    later leaf ends the search below its first-path ancestor's child, and
    every node skips a child in the orbit of a child it tried under the
    generators that fix its path, the individualized vertices above it (on
    the first path, all of them). Every pruned leaf is the image of one met
    earlier, so the first best leaf and the first leaf with the first leaf's
    bits below each child are still met; every generator joins two orbits,
    so there are at most n - 1.
    """
    adj = g.adj
    first = best = []  # the orders of the first leaf and of the best leaf
    first_bits = best_bits = -1
    gens: list[list[int]] = []

    def search(cells: list[list[int]], path: list[int], on_first: bool) -> bool:
        """True once a leaf below ``cells``, off the first path, has the first leaf's bits."""
        nonlocal first, first_bits, best, best_bits
        cells = _refine(adj, cells, [1 << path[-1]] if path else [g.full_mask()])
        masks = [mask_of(cell) for cell in cells] if len(cells) < g.n else []
        for i, cell in enumerate(cells):
            if len(cell) > 1 and not _twin_cell(adj, masks, i):
                # gens grows below this node only on the first path, where
                # every generator fixes the path
                stab = gens if on_first else [p for p in gens if all(p[u] == u for u in path)]
                tried: list[int] = []
                for v in cell:
                    if tried and stab and _orbit_firsts(tried + [v], stab)[-1] != v:
                        continue
                    child = cells[:i] + [[v], [u for u in cell if u != v]] + cells[i + 1:]
                    if search(child, path + [v], on_first and not tried) and not on_first:
                        return True
                    tried.append(v)
                return False
        order = [v for cell in cells for v in cell]
        bits = _adjacency_bits(adj, order)
        if on_first:
            first, first_bits, best, best_bits = order, bits, order, bits
            for u, v in [(u, v) for cell in cells if len(cell) > 1 for u, v in zip(cell, cell[1:])]:
                perm = list(range(g.n))
                perm[u], perm[v] = v, u
                gens.append(perm)
            return False
        if bits > best_bits:
            best_bits, best = bits, order
        if bits == first_bits:
            gens.append([v for _, v in sorted(zip(first, order))])
        return bits == first_bits

    search([list(range(g.n))], [], True)
    return CanonicalForm(g.n, best_bits, tuple(best)), gens


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def canonical_form(g: Graph) -> CanonicalForm:
    """The memoised canonical form of ``_search``, for graphs that are keyed
    again; bulk enumeration calls ``_search`` and keys each graph once."""
    return _search(g)[0]


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


def _orbit_firsts(candidates: Iterable, generators: Sequence) -> list:
    """The first candidate of each orbit of the group the generators span,
    in input order. Each generator is an image map, ``generator[c]`` the
    image of c; its domain holds every candidate and is closed under all
    the generators, and may hold more than the candidates."""
    seen = set()
    firsts = []
    for c in candidates:
        if c in seen:
            continue
        firsts.append(c)
        seen.add(c)
        stack = [c]
        while stack:
            d = stack.pop()
            for generator in generators:
                e = generator[d]
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
    return firsts


def canonical_key(g: Graph) -> tuple[int, int]:
    return canonical_form(g).key


def isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An explicit isomorphism g -> h obtained from canonical labelings."""
    cg, ch = canonical_form(g), canonical_form(h)
    if cg.key != ch.key:
        return None
    return {cg.labeling[i]: ch.labeling[i] for i in range(g.n)}


# -- graph6 ----------------------------------------------------------------


def graph6_encode(g: Graph) -> str:
    """Encode in graph6 (short form for n <= 62, 4-byte form above): the
    bit string, folded into one int, is written six bits to a byte."""
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    stream = nbits = 0
    for j in range(1, n):
        # bit t of ``stream`` is bit t of the string: column j's bits i < j
        stream |= (g.adj[j] & ((1 << j) - 1)) << nbits
        nbits += j
    nbytes = (nbits + 5) // 6
    # reversed, the string reads first bit highest, and the zero fill pads it
    groups = int(format(stream, f"0{6 * nbytes}b")[::-1], 2) if nbytes else 0
    body = bytearray(nbytes)
    for p in range(nbytes - 1, -1, -1):
        body[p] = (groups & 63) + 63
        groups >>= 6
    return head + body.decode()


_OUTSIDE_GRAPH6 = re.compile("[^?-~]")  # bytes 63..126 are '?'..'~'
_SIX_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def graph6_decode(text: str | bytes) -> Graph:
    """Decode one graph6 line; malformed input raises GraphFormatError with
    the byte offset of the fault. The bit string is folded into one int,
    string bit t as bit t: the padding lies above the last column, and each
    column j is the next j bits, the vertices i < j adjacent to j."""
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
    bad = _OUTSIDE_GRAPH6.search(text)
    if bad:
        raise GraphFormatError(f"byte {ord(bad.group())!r} outside graph6 range 63..126", bad.start())
    if text[0] == "~":
        if text[1:2] == "~":
            raise GraphFormatError("8-byte vertex-count form not supported", 1)
        if len(text) < 4:
            raise GraphFormatError("truncated vertex count", len(text))
        n = int(text[1:4].translate(_SIX_BITS), 2)
        pos = 4
    else:
        n = ord(text[0]) - 63
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds supported {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) - pos < nbytes:
        raise GraphFormatError("truncated adjacency data", len(text))
    if len(text) - pos > nbytes:
        raise GraphFormatError("trailing data after adjacency bits", pos + nbytes)
    stream = int(text[pos:].translate(_SIX_BITS)[::-1] or "0", 2)
    if stream >> nbits:
        # fewer than six padding bits, so all of them sit in the last byte
        raise GraphFormatError("nonzero padding bit", len(text) - 1)
    rows = [0] * n
    for j in range(1, n):
        col = stream & ((1 << j) - 1)
        stream >>= j
        rows[j] = col
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    # symmetric and loop-free as built, with n checked above
    return Graph._trusted(n, tuple(rows))


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)

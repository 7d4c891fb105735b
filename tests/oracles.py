"""The tests' references: one independent oracle per library function, and
at most one parent copy.

The rule. Each library function is checked against one independent oracle:
brute force over permutations, subsets or assignments, ``networkx``, or
plain backtracking. Beside it stands at most one parent copy, the routine
as an earlier version of the library computed it. A parent copy stays only
where the independent oracle cannot reach the inputs that matter, such as
k = 33, whole census levels or the exact witness, order or labelling that a
faster routine must keep. Every named oracle lives in this module; a
brute-force loop written inline in one test stays in that test.

Index: library function -- independent oracle; kept parent copy.

- ``graph6_encode``/``graph6_decode`` -- networkx's codec
  (``test_graph6_agrees_with_networkx``); ``graph6_encode``/``graph6_decode``
  here, bit by bit, with the library's error messages and offsets.
- ``canonical_form``/``graphs._search`` -- ``class_id`` (permutations),
  ``search_leaves`` (the unpruned walk) and networkx's automorphism count;
  none.
- ``graphs._refine`` -- ``rescan_refine``, also on seeded G(n, 1/2) with
  n up to 40, where counts pass 15; none.
- ``first_coloring`` -- ``backtrack_coloring`` and ``colorings``;
  ``full_reduction``, the full pass that ``coloring._settle`` replaced.
- ``chromatic_number``, ``graphs._partitions`` and ``minimum_colorings``
  -- ``colorings``; none.
- ``is_k_critical`` -- ``colorings`` on the definition; ``is_k_critical``
  here, one question per edge, which reaches the census and the trees.
- ``find_critical_subgraphs`` -- the definition, by ``is_k_critical``;
  ``critical_subgraphs``, the search without witness stores.
- ``graph_classes`` -- ``burnside_count``; ``classes_by_all_masks``.
- ``census_critical``/``census._critical_on`` -- the ``is_k_critical``
  filter of the class lists; ``critical_on_by_filter``.
- ``census._colorable_masks``/``census._merged_masks`` -- ``solver_table``;
  none.
- ``compute_T`` -- ``compute_T_bruteforce`` (in ``orelab.packing``);
  ``compute_T`` here, on clique tuples with two clique searches.
- ``ore_compose`` -- ``compose_by_edges``; none.
- ``orekit._decompose`` -- ``sides_by_edge_lists`` and networkx; none.
- ``orekit._candidate_splits`` -- ``candidate_splits_by_pair_scan``; none.
- ``ore_catalog`` -- ``unreduced_catalog``; none.
- ``find_diamonds_emeralds`` -- none; ``near_cliques_avoiding``.
- ``color_reduce`` -- ``color_reduce_by_edges``; none.
- ``edge_between`` -- ``edge_between``, edge by edge; none.
- ``classify_degree_k1`` -- none; ``classify_degree_k1`` on vertex sets.
- ``apply_rules`` -- ``apply_rules``, one ``Fraction`` transfer at a time;
  none.
- ``charge_report`` -- ``charge_report``, from those rows; none.
- the t-superadd suite -- none; ``t_superadd_by_node``.
- ``rho_value`` and the edge and potential bounds -- their ``Fraction``
  chains; none.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from orelab import (
    Graph,
    Leaf,
    Node,
    PackingWitness,
    PotentialParams,
    canonical_key,
    check_witness,
    cliques_of_size,
    clusters,
    compute_T as library_compute_T,
    coloring,
    embeddings,
    first_coloring,
    gadget_catalog,
    graph6_encode as library_graph6_encode,
    graph_classes,
    is_k_critical as library_is_k_critical,
    ore_compose,
    realize,
    suites,
)
from orelab.census import _augment
from orelab.graphs import (
    MAX_VERTICES,
    GraphFormatError,
    _adjacency_bits,
    _cliques,
    _search,
    _twin_cell,
    bits_of,
    components,
    mask_of,
)
from report_columns import ChargeRow

# -- graphs: canonical labelling -------------------------------------------------


def class_id(g: Graph) -> frozenset:
    """Smallest edge set reachable by relabeling; a true isomorphism invariant."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
        key = tuple(sorted(edges))
        if best is None or key < best[0]:
            best = (key, edges)
    return best[1]


def rescan_refine(adj, cells):
    """The refinement ``_refine`` computes: each round splits every cell by
    its members' neighbor counts into every current cell, ordering the
    sub-cells by the tuple of counts, until a round splits nothing."""
    while True:
        masks = [mask_of(cell) for cell in cells]
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
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


def search_leaves(g: Graph):
    """The unpruned walk: every leaf of the individualization tree below the
    one-cell partition, as (bits, order, cells) in search order. It refines
    with the full rescan and uses the pruned search's branching cell and
    child order, so its first leaf with the most bits is the canonical one."""

    def search(cells):
        cells = rescan_refine(g.adj, cells)
        masks = [mask_of(cell) for cell in cells]
        for i, cell in enumerate(cells):
            if len(cell) > 1 and not _twin_cell(g.adj, masks, i):
                for v in cell:
                    rest = [u for u in cell if u != v]
                    yield from search(cells[:i] + [[v], rest] + cells[i + 1:])
                return
        order = [v for cell in cells for v in cell]
        yield _adjacency_bits(g.adj, order), order, cells

    return search([list(range(g.n))])


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


# -- coloring and criticality ----------------------------------------------------


def colorings(g: Graph, t: int, limit: int | None = None) -> int:
    """How many maps V -> {0..t-1} give the two ends of every edge different
    colors, tried one by one; the count stops at ``limit``."""
    edges = g.edges()
    found = 0
    for assign in itertools.product(range(t), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in edges):
            found += 1
            if found == limit:
                break
    return found


def chromatic_number(g: Graph) -> int:
    """The least t with a proper assignment, by ``colorings``."""
    return next(t for t in itertools.count() if colorings(g, t, limit=1))


def backtrack_coloring(adj, t: int) -> list[int] | None:
    """A color per vertex by saturation-first backtracking over each
    component, with no peeling and no merging; None if there is none."""
    n = len(adj)
    colors = [-1] * n
    if n == 0:
        return colors
    if t <= 0:
        return None
    for comp in components(adj, (1 << n) - 1):
        if not _backtrack_component(adj, comp, t, colors):
            return None
    return colors


def _backtrack_component(adj, comp: int, t: int, colors: list[int]) -> bool:
    verts = list(bits_of(comp))
    if t >= len(verts):
        for c, v in enumerate(verts):
            colors[v] = c
        return True
    forbid = [0] * len(adj)
    uncolored = set(verts)

    def rec(used: int) -> bool:
        if not uncolored:
            return True
        v = max(uncolored, key=lambda u: (forbid[u].bit_count(), (adj[u] & comp).bit_count(), -u))
        avail = ~forbid[v] & ((1 << min(t, used + 1)) - 1)
        if not avail:
            return False
        uncolored.remove(v)
        for c in bits_of(avail):
            bit = 1 << c
            colors[v] = c
            touched = []
            for u in bits_of(adj[v] & comp):
                if u in uncolored and not forbid[u] & bit:
                    forbid[u] |= bit
                    touched.append(u)
            if rec(max(used, c + 1)):
                return True
            for u in touched:
                forbid[u] ^= bit
        colors[v] = -1
        uncolored.add(v)
        return False

    return rec(0)


def full_reduction(rows, members, live: int, t: int, peeled) -> int:
    """Peel and make forced merges, testing every live pair in every pass,
    until neither applies; the live vertices that are left. The oracle for
    ``_settle``, which scans only from the vertices it is given."""
    merged = True
    while merged:
        live = coloring._peel(rows, live, t, peeled)
        merged = False
        for x in bits_of(live):
            if not live >> x & 1:
                continue
            for y in bits_of(live & ~rows[x] & ~((2 << x) - 1)):
                if not live >> y & 1 or rows[x] >> y & 1:
                    continue
                common = rows[x] & rows[y] & live
                if not _cliques(rows, common, t - 1, lambda clique, later: True):
                    continue
                coloring._merge(rows, members, x, y)
                live = coloring._peel(rows, live ^ 1 << y, t, peeled)
                merged = True
                if not live >> x & 1:
                    break
    return live


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


def _minimalize(rows: list[int], edges: list[tuple[int, int]], k: int) -> list[int]:
    for u, v in edges:
        if rows[u] >> v & 1:
            trial = coloring._uncolorable_without(rows, u, v, k - 1, [])
            if trial is not None:
                rows = trial
    return rows


def critical_subgraphs(g: Graph, k: int, limit: int = 6) -> list[Graph]:
    """``find_critical_subgraphs`` without witness stores: every "is rows - uv
    (k-1)-colorable?" question goes to the solver, looked up on
    ``orelab.coloring`` at call time, so a counter patched in there sees
    both searches."""
    if coloring.first_coloring(g.adj, k - 1) is not None:
        raise ValueError("graph is (k-1)-colorable; no k-critical subgraph exists")
    edges = g.edges()
    found: dict[tuple[int, ...], Graph] = {}
    trials = (coloring._uncolorable_without(g.adj, u, v, k - 1, []) for u, v in edges)
    for rows in itertools.chain([list(g.adj)], trials):
        if len(found) >= limit:
            break
        if rows is None:
            continue
        w = tuple(_minimalize(rows, edges, k))
        if w not in found:
            found[w] = Graph(g.n, w)
    return sorted(found.values(), key=lambda w: sorted(w.edges()))


# -- census ----------------------------------------------------------------------


def burnside_count(n: int) -> int:
    """Number of graphs on n unlabeled vertices via the permutation action
    on vertex pairs: average of 2^(pair cycles) over all of S_n."""
    total = 0
    for perm in itertools.permutations(range(n)):
        pairs = {}
        for u in range(n):
            for v in range(u + 1, n):
                pairs[(u, v)] = tuple(sorted((perm[u], perm[v])))
        seen = set()
        cycles = 0
        for start in pairs:
            if start in seen:
                continue
            cycles += 1
            cur = start
            while cur not in seen:
                seen.add(cur)
                cur = pairs[cur]
        total += 2 ** cycles
    return total // math.factorial(n)


def classes_by_all_masks(n: int) -> list[Graph]:
    """The level as built before the orbit reduction: every parent of
    ``graph_classes(n - 1)`` with every mask, each child labelled."""
    out: dict = {}
    for parent in graph_classes(n - 1):
        for mask in range(1 << parent.n):
            g = _augment(parent, mask)
            out.setdefault(_search(g)[0].key, g)
    return [out[key] for key in sorted(out)]


def critical_on_by_filter(n: int, k: int) -> list[Graph]:
    """The census level as computed before the sieve: every parent with
    every mask, each candidate built and tested on its own."""
    out: dict = {}
    for parent in graph_classes(n - 1):
        pn = parent.n
        degs = [parent.degree(v) for v in range(pn)]
        if any(d < k - 2 for d in degs):
            continue
        forced = mask_of(v for v in range(pn) if degs[v] == k - 2)
        base_m = parent.edge_count()
        for mask in range(1 << pn):
            if mask & forced != forced:
                continue
            pc = mask.bit_count()
            if pc < k - 1:
                continue
            m = base_m + pc
            if n > k and 2 * m * (k - 1) > (k - 2) * n * n:
                continue
            g = _augment(parent, mask)
            if len(components(g.adj, g.full_mask())) != 1:
                continue
            if n > k and cliques_of_size(g, k):
                continue
            if library_is_k_critical(g, k):
                out.setdefault(canonical_key(g), g)
    return [out[key] for key in sorted(out)]


def solver_table(g: Graph, k: int) -> int | None:
    """The colorable-mask table of g from the coloring solver, mask by mask:
    None if g is (k-2)-colorable."""
    if first_coloring(g.adj, k - 2) is not None:
        return None
    return sum(1 << mask for mask in range(1 << g.n) if first_coloring(_augment(g, mask).adj, k - 1) is not None)


# -- packing -------------------------------------------------------------------


def compute_T(g: Graph, k: int) -> PackingWitness:
    """The include/exclude search on clique tuples, listed by one clique
    search per order, recomputing the cover bound over the whole remaining
    list at every node."""
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


# -- composition ---------------------------------------------------------------


def compose_by_edges(g1: Graph, xy, g2: Graph, z: int, partition) -> Graph:
    """The composition built as an edge list, for valid arguments."""
    x, y = xy
    n1 = g1.n
    remap = {w: n1 + w - (1 if w > z else 0) for w in range(g2.n) if w != z}
    edges = [e for e in g1.edges() if set(e) != {x, y}]
    edges += [(remap[u], remap[v]) for u, v in g2.edges() if z not in (u, v)]
    edges += [(x, remap[w]) for w in partition[0]]
    edges += [(y, remap[w]) for w in partition[1]]
    return Graph.from_edges(n1 + g2.n - 1, edges)


def sides_by_edge_lists(g: Graph, a: int, b: int, split_mask: int):
    """Both sides of a split, built as an induced subgraph followed by adding
    the edge ab, and as an induced subgraph followed by merging a and b into
    its last id with the other vertices kept in order, from edge lists."""
    outside = [v for v in range(g.n) if not split_mask >> v & 1]
    map1 = {v: i for i, v in enumerate(outside)}
    edges1 = [(map1[u], map1[v]) for u, v in g.edges() if u in map1 and v in map1]
    g1 = Graph.from_edges(len(outside), edges1 + [(map1[a], map1[b])])
    inside = sorted(set(bits_of(split_mask)) | {a, b})
    sub_map = {v: i for i, v in enumerate(inside)}
    x, y = sub_map[a], sub_map[b]
    merged = {old: new for new, old in enumerate(u for u in range(len(inside)) if u not in (x, y))}
    merged[x] = merged[y] = len(inside) - 2
    map2 = {v: merged[i] for v, i in sub_map.items()}
    edges2 = {(map2[u], map2[v]) for u, v in g.edges() if u in map2 and v in map2 and map2[u] != map2[v]}
    return (g1, map1), (Graph.from_edges(len(inside) - 1, edges2), map2)


def candidate_splits_by_pair_scan(g: Graph):
    """The split enumeration before the cut-vertex filter: components of
    g - {a, b} scanned for every nonadjacent pair."""
    full = g.full_mask()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if g.has_edge(a, b):
                continue
            comps = components(g.adj, full & ~(1 << a) & ~(1 << b))
            if len(comps) < 2:
                continue
            for sel in range(1, (1 << len(comps)) - 1):
                split_mask = 0
                for i in range(len(comps)):
                    if sel >> i & 1:
                        split_mask |= comps[i]
                if not g.adj[a] & split_mask or not g.adj[b] & split_mask:
                    continue
                if g.adj[a] & g.adj[b] & split_mask:
                    continue
                yield a, b, split_mask


def unreduced_catalog(k: int, max_steps: int) -> tuple:
    """The catalog loop without orbit pruning: every sorted edge of the edge
    side with every split of every vertex of the split side."""
    levels = [{canonical_key(Graph.complete(k)): Leaf(k)}]
    for step in range(1, max_steps + 1):
        found = {}
        for l1 in range(step):
            for t1 in levels[l1].values():
                g1 = realize(t1)
                for t2 in levels[step - 1 - l1].values():
                    g2 = realize(t2)
                    for edge in sorted(g1.edges()):
                        for z in range(g2.n):
                            nbrs = sorted(v for v in range(g2.n) if g2.has_edge(z, v))
                            for sel in range(1, (1 << len(nbrs)) - 1):
                                halves = (
                                    tuple(v for i, v in enumerate(nbrs) if sel >> i & 1),
                                    tuple(v for i, v in enumerate(nbrs) if not sel >> i & 1),
                                )
                                key = canonical_key(ore_compose(g1, edge, g2, z, halves))
                                found.setdefault(key, Node(t1, t2, edge, z, halves))
        levels.append(found)
    return tuple(level[key] for level in levels for key in sorted(level))


def _walk_nodes(tree):
    if isinstance(tree, Node):
        yield tree
        yield from _walk_nodes(tree.edge_side)
        yield from _walk_nodes(tree.split_side)


def t_superadd_by_node(tree, params: dict) -> list:
    """The t-superadd suite body that realized and packed every node and
    both of its sides from the leaves, kept as the oracle for the one
    bottom-up pass."""
    k = params["k"]
    rows = []
    for node in _walk_nodes(tree):
        g = realize(node, k)
        t = library_compute_T(g, k).value
        t1 = library_compute_T(realize(node.edge_side, k), k).value
        t2 = library_compute_T(realize(node.split_side, k), k).value
        g6 = library_graph6_encode(g)
        left_leaf = isinstance(node.edge_side, Leaf)
        right_leaf = isinstance(node.split_side, Leaf)
        if left_leaf and right_leaf:
            rows.append(suites._row(g6, "double complete composition packs exactly 4", t == 4, t=t, t1=t1, t2=t2))
            continue
        drop = 1 if (left_leaf or right_leaf) else 2
        rows.append(
            suites._row(
                g6,
                "packing value is superadditive under composition",
                t >= t1 + t2 - drop,
                t=t,
                t1=t1,
                t2=t2,
                allowed_drop=drop,
            )
        )
    return rows


# -- structure -----------------------------------------------------------------


def near_cliques_avoiding(g: Graph, k: int, forbidden) -> list:
    """The search that took the forbidden set as a parameter, kept as the
    oracle for filtering the one full list: an emerald is dropped when it
    meets the set, a diamond when its interior or an endpoint does."""
    forb = mask_of(forbidden)
    out = []
    low = [v for v in range(g.n) if g.degree(v) == k - 1]
    low_mask = mask_of(low)
    for cl in cliques_of_size(g, k - 1):
        m = mask_of(cl)
        if m & forb or m & low_mask != m:
            continue
        out.append(frozenset(cl))
    for interior in cliques_of_size(g, k - 2):
        im = mask_of(interior)
        if im & forb or im & low_mask != im:
            continue
        common = g.full_mask() & ~im
        for q in interior:
            common &= g.adj[q]
        common &= ~forb
        for u in bits_of(common):
            for v in bits_of(common & ~((1 << (u + 1)) - 1)):
                if g.has_edge(u, v):
                    continue
                out.append(frozenset(interior) | {u, v})
    # diamonds (k vertices) first, then emeralds, each by sorted vertex list
    out.sort(key=lambda d: (-len(d), sorted(d)))
    return out


def color_reduce_by_edges(g: Graph, classes) -> Graph:
    """The reduction built as an edge list, for a valid minimum coloring."""
    color = {v: i for i, cls in enumerate(classes) for v in bits_of(cls)}
    outside = [v for v in range(g.n) if v not in color]
    vertex_map = {old: new for new, old in enumerate(outside)}
    class_vertex = [len(outside) + i for i in range(len(classes))]
    edges = set()
    for u, w in g.edges():
        iu, iw = u in color, w in color
        if iu and iw:
            continue
        if not iu and not iw:
            edges.add((vertex_map[u], vertex_map[w]))
        else:
            inside, out_v = (u, w) if iu else (w, u)
            a, b = class_vertex[color[inside]], vertex_map[out_v]
            edges.add((min(a, b), max(a, b)))
    for c1, c2 in itertools.combinations(class_vertex, 2):
        edges.add((c1, c2))
    return Graph.from_edges(len(outside) + len(classes), sorted(edges))


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
    """Both rules in Fraction arithmetic, one transfer at a time, with both
    audits."""
    eps = PotentialParams.for_k(k).eps
    base = (k - 2) * (k + 1) + eps
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
            assert initial[v] - sent_total == -2 + eps, "sender residue is off"
    for v in range(g.n):
        if roles[v] != "structure":
            continue
        near = [u for u in g.neighbors(v) if roles[u] == "near"]
        if not near:
            continue
        sent_total = Fraction(-(k - 1))
        shift[v] -= sent_total
        for u in near:
            shift[u] += sent_total / len(near)
    rows = []
    for v in range(g.n):
        d = g.degree(v)
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
        rows.append(ChargeRow(label, initial[v], initial[v] + shift[v]))
    assert sum(r.initial for r in rows) == sum(r.final for r in rows), "rules moved charge without conserving it"
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
    return math.ceil((Fraction(k, 2) - Fraction(1, k - 1)) * n - Fraction(k * (k - 3), 2 * (k - 1)))


def eps_edge_bound(n: int, k: int, t_value: int) -> Fraction:
    p = PotentialParams.for_k(k)
    numer = ((k - 2) * (k + 1) + p.eps) * n - k * (k - 3) + 2 * p.delta - k * p.eps - p.delta * t_value
    return numer / (2 * (k - 1))

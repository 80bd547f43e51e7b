"""Test-side references: labeled host-tree enumeration, the minimum
host degree over bijection trees, the scan's clique order rescanned at
every step, brute-force clique separators,
line-likeness checked on the clique graph itself, and the induced-gate
search and two-clique test without bitmask filtering, the orbits,
group and group order of a set of vertex permutations, and a
representation's maximal cliques and claws found by brute force, its
derived graph, edge cliques and verification read off every pair of
paths, the four multipie conditions re-derived from a witness's raw
paths, a side-test witness re-derived from the graph, the side test
and the separating cliques on a component search of g - K at every
maximal clique K, the set-based Bron-Kerbosch and MCS-M the
library ran before it moved to vertex masks and weight buckets, a
chordless-cycle search, and the generators of the tables eptkit
ships: the canonical searches for the gate catalog and the small-graph
corpus, and the host-tree shapes with their orbit masks.

All are independent of the library's routes. The labeled trees feed a
brute-force search that cross-checks the oracle's shape scan; the
bijection-tree minimum is the criterion-4 reference that
cheapest_representation is compared against; the separator search
tests every complete set, smallest first, against the MCS-M candidates
of the decomposition; the gate search looks up every subset of minimum
degree 2 in the catalog, and the two-clique test reads maximal cliques
from Bron-Kerbosch. The clique witnesses run Bron-Kerbosch on the
derived graph and try every claw at every node, the route the library
replaced by reading the candidates off the host tree; its claws come
from every triple of spoke ends, where the library lists the triangles
of the covered pairs. The clique order is a quadratic rescan, where
oracle._clique_order takes the lowest bit of a mask. The derived graph and
verification intersect every pair of paths, and each K_e scans every
path, where the library reads both off its index of the paths that use
each tree edge. The canonical search rebuilds every candidate's
adjacency row and tests twins pairwise at every node, and it keeps one
generator per maximal leaf, where the library extends the rows by one
bit per placed vertex, reads twin classes computed once per graph and
prunes subtrees by the orbits of the automorphisms it has found. The
side-test check recomputes the components of g - K, their attachments
and the cliques meeting them as vertex sets, where the library reads
them off bitmasks or a clique tree. The searched side test and
separating cliques are the route the library ran before its separator
table: one search of g - K per maximal clique K, where the library
reads every g - K off one search per clique minimal separator. The tree shapes hang a leaf from
every vertex of every smaller shape, are sorted by the cached canonical
forms and walk neighbour sets through an edge-index dict for their path
tables, where the library reads the shapes off the table and walks
(neighbour, edge bit) lists; their orbit masks come from AHU codes of
the centred subdivision. The set-based
Bron-Kerbosch sorts P + X and P - N(pivot) in every frame, where the
library walks the bits of masks, and the set-based MCS-M takes the
lowest vertex of maximum weight by a scan of every unnumbered vertex,
where the library pops any vertex of the top weight bucket. The
chordless-cycle search grows induced paths, the reference for the
library's chordality test by maximum-cardinality search. The catalog
and corpus searches (reference_catalog, reference_corpus) and the tree
shapes (reference_tree_shapes, ReferenceTreeShape.orbit_masks) are the
only code that produces src/eptkit/_tables.py: they print its text
(tables_module_text), which tests/test_tables.py compares byte for
byte, and `PYTHONPATH=src python tests/reference.py` rewrites the file.
The gate-search reference reads reference_catalog, not the table.
"""

import functools
import heapq
import itertools
import math
from collections import Counter, deque
from collections.abc import Iterator

from eptkit.decomposition import AtomLeaf, CliqueDecomposition, SeparatorNode
from eptkit.gates import (
    CATALOG_VERTEX_BOUND,
    ExtensionStep,
    GateRecipe,
    LabeledGate,
    _step,
    build_gate,
)
from eptkit.graphs import (
    CANONICAL_VERTEX_BOUND,
    BoundExceededError,
    Edge,
    Graph,
    VertexSet,
    _canonical_search,
    _components,
    _mask,
    _members,
    canonical_form,
    connected_components,
    enumerate_maximal_cliques,
    induced_subgraph,
    is_connected,
)
from eptkit.oracle import (
    CLIQUE_BOUND,
    CORPUS_VERTEX_BOUND,
    _check_deadline,
    oracle_membership,
)
from eptkit.recognition import SideWitness, _side_cycle
from eptkit.representation import ClawClique, EdgeClique, EptRepresentation, HostTree, TreePath


def _prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def enumerate_trees(m: int, max_degree: int | None = None) -> Iterator[HostTree]:
    """All labeled trees with m edges in Prüfer-sequence order,
    optionally filtered to maximum degree; (m+1)^(m-1) trees without
    the filter. Limited to the oracle's clique bound."""
    if m < 1:
        raise ValueError("need at least one edge")
    if m > CLIQUE_BOUND:
        raise BoundExceededError(f"tree enumeration limited to {CLIQUE_BOUND} edges, asked for {m}")
    n = m + 1
    cap = None if max_degree is None else max_degree - 1
    counts = [0] * n

    def emit(seq: list[int]) -> Iterator[HostTree]:
        if len(seq) == m - 1:
            tree = HostTree(n, _prufer_decode(tuple(seq), n))
            if max_degree is None or tree.max_degree() <= max_degree:
                yield tree
            return
        for v in range(n):
            if cap is not None and counts[v] >= cap:
                continue
            counts[v] += 1
            seq.append(v)
            yield from emit(seq)
            seq.pop()
            counts[v] -= 1

    return emit([])


def _centred_subdivision(
    n: int, edges: tuple[tuple[int, int], ...]
) -> tuple[list[list[int]], list[int], list[int]]:
    """The tree on n vertices with these edges, every edge j subdivided
    by a midpoint n + j, rooted at its centre: adjacency lists, parents
    (-1 at the root) and a breadth-first order from the root.
    Subdividing every edge gives a tree of even diameter, so it has one
    centre, which every automorphism fixes."""
    size = n + len(edges)
    adj: list[list[int]] = [[] for _ in range(size)]
    for j, (a, b) in enumerate(edges):
        adj[a].append(n + j)
        adj[b].append(n + j)
        adj[n + j] += (a, b)
    degree = [len(nb) for nb in adj]
    layer = [v for v in range(size) if degree[v] <= 1]
    left = size
    while left > len(layer):
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    parent = [-1] * size
    order = [layer[0]]
    for u in order:
        for w in adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    return adj, parent, order


def _ahu_codes(
    adj: list[list[int]], parent: list[int], order: list[int], intern: dict, mark: int = -1
) -> list[int]:
    """AHU codes (Aho, Hopcroft & Ullman) of the rooted subtrees, with
    vertex mark labelled. Codes drawn from one intern table are equal
    exactly when the labelled rooted subtrees are isomorphic."""
    code = [0] * len(adj)
    for u in reversed(order):
        children = sorted(code[w] for w in adj[u] if w != parent[u])
        code[u] = intern.setdefault((u == mark, *children), len(intern))
    return code


class ReferenceTreeShape:
    """The independent reference for oracle.TreeShape: path_mask[a][b],
    the edge mask of the tree path from a to b, and paths, from that
    mask to the path's vertices from a for a < b, come from a
    depth-first walk from every root over the graph's neighbour sets,
    where TreeShape xors root-path masks and walks up its parent array;
    the orbit masks take one AHU pass each."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.edges = tuple(sorted(graph.edges))
        self.m = len(self.edges)
        self.max_degree = max((graph.degree(v) for v in range(graph.n)), default=0)
        index = {e: i for i, e in enumerate(self.edges)}
        # path_mask[a][b]: edge-index mask of the tree path from a to b
        self.path_mask = [[0] * self.n for _ in range(self.n)]
        self.paths: dict[int, TreePath] = {}
        for root in range(self.n):
            seq = {root: (root,)}
            stack = [root]
            while stack:
                u = stack.pop()
                for w in graph.neighbors(u):
                    if w not in seq:
                        seq[w] = seq[u] + (w,)
                        e = index[(u, w) if u < w else (w, u)]
                        self.path_mask[root][w] = self.path_mask[root][u] | 1 << e
                        if root < w:
                            self.paths[self.path_mask[root][w]] = seq[w]
                        stack.append(w)

    def orbit_masks(self) -> tuple[int, dict[int, int]]:
        """The mask of the lowest-index edge of each orbit of Aut(T), and
        for each such edge r the mask of the lowest-index edge other than
        r of each orbit of the stabilizer of r: oracle.TreeShape's
        orbit_masks, which _tables.SHAPES ships.

        The automorphisms of the shape are those of its subdivision
        rooted at the centre (_centred_subdivision), and those fixing
        edge r are the ones that also fix r's midpoint when it is
        labelled. Every automorphism fixes the root, so two vertices of
        the subdivision lie in one orbit exactly when their AHU codes
        agree and their parents lie in one orbit."""
        n = self.n
        adj, parent, order = _centred_subdivision(n, self.edges)

        def representatives(mark: int) -> int:
            code = _ahu_codes(adj, parent, order, {}, mark)
            orbit = [0] * len(adj)
            orbit_ids: dict[tuple[int, int], int] = {}
            for u in order[1:]:
                orbit[u] = orbit_ids.setdefault((orbit[parent[u]], code[u]), len(orbit_ids) + 1)
            first: dict[int, int] = {}
            mask = 0
            for j in range(self.m):
                if first.setdefault(orbit[n + j], j) == j:
                    mask |= 1 << j
            return mask

        level0 = representatives(-1)
        level1 = {}
        rest = level0
        while rest:
            r = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            level1[r] = representatives(n + r) & ~(1 << r)
        return level0, level1


@functools.lru_cache(maxsize=16)
def reference_tree_shapes(m: int) -> tuple[ReferenceTreeShape, ...]:
    """All unlabeled trees with m edges, in oracle.tree_shapes's order
    and labelling, which _tables.SHAPES ships: hang a new leaf from
    every vertex of every shape with m - 1 edges, in order, keep the
    first tree of each class, and sort by (max degree, canonical form)
    so low-degree hosts come first. Every shape's edges are thus
    (parent[k], k) with parent[k] < k for k = 1..m.

    Classes are told apart by the AHU code of the edge-subdivided tree
    rooted at its centre, a complete invariant. Two trees with an edge
    are isomorphic exactly when their subdivisions are: an isomorphism
    of subdivisions maps leaves, which are original vertices, to leaves,
    so it keeps the side of the bipartition that holds the original
    vertices, and it keeps which of them share a midpoint. Subdivisions
    are isomorphic exactly when they are as trees rooted at their
    centres, since every isomorphism maps centre to centre, and AHU
    codes decide rooted isomorphism."""
    if m == 0:
        return (ReferenceTreeShape(Graph(1)),)
    intern: dict = {}
    grown: dict[int, ReferenceTreeShape] = {}
    for shape in reference_tree_shapes(m - 1):
        for v in range(shape.n):
            edges = shape.edges + ((v, shape.n),)
            adj, parent, order = _centred_subdivision(shape.n + 1, edges)
            code = _ahu_codes(adj, parent, order, intern)[order[0]]
            if code not in grown:
                grown[code] = ReferenceTreeShape(Graph(shape.n + 1, edges))
    return tuple(
        sorted(grown.values(), key=lambda s: (s.max_degree, canonical_form(s.graph)))
    )


def oracle_min_h(g: Graph, budget_secs: float | None = None) -> int | None:
    """Minimum host degree (at least 2) over the bijection trees of g;
    None when g admits no Helly representation. It can exceed the
    cheapest host degree, which may need a tree with more edges."""
    rep = oracle_membership(g, budget_secs=budget_secs)
    return None if rep is None else max(2, rep.tree.max_degree())


def reference_clique_order(cliques: list[VertexSet]) -> list[int]:
    """The scan's assignment order, rescanned at every step: the
    lowest-index clique left that shares a vertex with those placed,
    else the lowest-index clique left."""
    remaining = set(range(len(cliques)))
    placed: set[int] = set()
    order = []
    while remaining:
        linked = [i for i in sorted(remaining) if placed & set(cliques[i])]
        nxt = linked[0] if linked else min(remaining)
        order.append(nxt)
        remaining.remove(nxt)
        placed.update(cliques[nxt])
    return order


def _complete_subsets(g: Graph) -> list[VertexSet]:
    """Nonempty complete sets, each a subset of some maximal clique,
    ordered smallest first with lexicographic ties."""
    found: set[VertexSet] = set()
    for clique in enumerate_maximal_cliques(g):
        for size in range(1, len(clique) + 1):
            found.update(itertools.combinations(clique, size))
    return sorted(found, key=lambda s: (len(s), s))


def reference_clique_separator(g: Graph) -> tuple[VertexSet, list[VertexSet]] | None:
    """The first complete set, in (size, tuple) order, whose removal
    disconnects g, with the parts of the remainder; exponential in the
    clique size."""
    for cand in _complete_subsets(g):
        rest = [v for v in range(g.n) if v not in cand]
        if not rest:
            continue
        sub, mapping = induced_subgraph(g, rest)
        comps = connected_components(sub)
        if len(comps) >= 2:
            return cand, [tuple(mapping[i] for i in comp) for comp in comps]
    return None


def reference_decomposition_tree(g: Graph) -> CliqueDecomposition:
    """The decomposition tree built by splitting every node's induced
    subgraph with reference_clique_separator."""

    def build(vertices: VertexSet) -> SeparatorNode | AtomLeaf:
        sub, mapping = induced_subgraph(g, vertices)
        split = reference_clique_separator(sub)
        if split is None:
            return AtomLeaf(vertices, sub)
        sep, parts = split
        sep_orig = tuple(mapping[i] for i in sep)
        children = tuple(
            build(tuple(sorted(sep_orig + tuple(mapping[i] for i in part))))
            for part in parts
        )
        return SeparatorNode(sep_orig, children)

    return CliqueDecomposition(g, build(tuple(range(g.n))))


def neighbour_sets(g: Graph) -> list[set[int]]:
    """Each vertex's neighbours, read off g.edges rather than the
    adjacency views Graph builds, so a fault in those views cannot pass
    both sides of a comparison."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def find_chordless_cycle_ge(g: Graph, len_min: int = 4) -> VertexSet | None:
    """First chordless cycle with at least len_min vertices, in cycle order.

    Grows induced paths from each start vertex (the cycle minimum), so a
    returned cycle carries no chords by construction. The depth-first
    search runs on its own stack rather than Python's. Exponential in
    the worst case, fine at the intended scale.
    """
    if len_min < 4:
        raise ValueError("len_min must be at least 4")
    adj, nbrs = g._adj, g._nbrs
    for s in range(g.n):
        path = [s]
        # branches[i] walks the neighbours of path[i]
        branches = [iter(nbrs[s])]
        while branches:
            u = next(branches[-1], None)
            if u is None:
                branches.pop()
                path.pop()
                continue
            if u <= s or u in path:
                continue
            if any(adj[w] >> u & 1 for w in path[1:-1]):
                continue
            if len(path) >= 2 and adj[s] >> u & 1:
                if len(path) + 1 >= len_min:
                    return tuple(path + [u])
                # closing chord makes any longer cycle through u impossible
                continue
            path.append(u)
            branches.append(iter(nbrs[u]))
    return None


def reference_maximal_cliques(g: Graph) -> Iterator[VertexSet]:
    """Every maximal clique, sorted, as Bron-Kerbosch finds it, so a
    caller that needs only the first few can stop early.

    Bron-Kerbosch with pivoting, on its own stack rather than Python's;
    the pivot is the lowest-index vertex maximizing candidate coverage.
    """
    if g.n == 0:
        return
    adj = neighbour_sets(g)

    def frame(r: list[int], p: set[int], x: set[int]):
        # no vertex of p covers itself, so none covers more than cap
        cap = len(p) if x else len(p) - 1
        pivot = best = -1
        for u in sorted(p | x):
            c = len(p & adj[u])
            if c > best:
                best, pivot = c, u
                if c == cap:
                    break
        return r, p, x, iter(sorted(p - adj[pivot]))

    stack = [frame([], set(range(g.n)), set())]
    while stack:
        r, p, x, branch = stack[-1]
        v = next(branch, None)
        if v is None:
            stack.pop()
            continue
        child_p, child_x = p & adj[v], x & adj[v]
        p.remove(v)
        x.add(v)
        if child_p:
            stack.append(frame(r + [v], child_p, child_x))
        elif not child_x:
            yield tuple(sorted(r + [v]))


def reference_clique_minimal_separators(g: Graph) -> list[VertexSet]:
    """Clique minimal separators of a connected graph, each sorted,
    ordered by (size, tuple): the complete madj sets of MCS-M
    generators."""
    n = g.n
    adj = neighbour_sets(g)
    weight = [0] * n
    madj: list[list[int]] = [[] for _ in range(n)]
    unnumbered = list(range(n))
    numbered = [False] * n
    found: set[VertexSet] = set()
    previous = -1
    for _ in range(n):
        v = max(unnumbered, key=lambda u: (weight[u], -u))
        unnumbered.remove(v)
        numbered[v] = True
        if weight[v] <= previous:
            sep = frozenset(madj[v])
            if all(sep - {u} <= adj[u] for u in sep):
                found.add(tuple(sorted(sep)))
        previous = weight[v]
        # bucket j holds reached vertices whose paths from v have
        # interior weights at most j; they extend paths at level j.
        # No unnumbered vertex outweighs v.
        reached = [False] * n
        buckets: list[list[int]] = [[] for _ in range(weight[v] + 1)]
        raised = []
        for u in adj[v]:
            if not numbered[u]:
                reached[u] = True
                buckets[weight[u]].append(u)
                raised.append(u)
        for level, bucket in enumerate(buckets):
            while bucket:
                y = bucket.pop()
                for z in adj[y]:
                    if numbered[z] or reached[z]:
                        continue
                    reached[z] = True
                    if weight[z] > level:
                        buckets[weight[z]].append(z)
                        raised.append(z)
                    else:
                        bucket.append(z)
        for u in raised:
            weight[u] += 1
            madj[u].append(v)
    return sorted(found, key=lambda s: (len(s), s))


def reference_is_line_like(g: Graph) -> bool:
    """Every vertex lies in exactly two maximal cliques, and H is
    2-connected and triangle-free. H has one node per maximal clique
    and one edge per distinct clique pair held by a vertex."""
    cliques = enumerate_maximal_cliques(g)
    held = [[i for i, c in enumerate(cliques) if v in c] for v in range(g.n)]
    if any(len(pair) != 2 for pair in held):
        return False
    h = Graph(len(cliques), (tuple(pair) for pair in held))
    if any(h.neighbors(a) & h.neighbors(b) for a, b in h.edges):
        return False
    return h.n >= 3 and all(
        is_connected(induced_subgraph(h, [c for c in range(h.n) if c != cut])[0])
        for cut in range(h.n)
    )


def reference_contains_gate_ge(g: Graph, h: int) -> tuple[VertexSet, GateRecipe] | None:
    """First induced k-gate with k > h in (size, tuple) order: every
    connected subset of minimum degree 2 is looked up in the catalog
    that reference_catalog generates, not in the shipped table."""
    catalog = reference_catalog(CATALOG_VERTEX_BOUND)
    for size in range(max(4, h + 1), g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            sub, mapping = induced_subgraph(g, subset)
            if any(sub.degree(i) < 2 for i in range(sub.n)) or not is_connected(sub):
                continue
            recipe = catalog.get(canonical_form(sub))
            if recipe is not None and recipe.clique_count() > h:
                return mapping, recipe
    return None


def reference_two_clique_property(g: Graph) -> tuple[bool, int | None]:
    """Whether every vertex lies in exactly two maximal cliques meeting
    only in that vertex, else the first vertex that does not."""
    cliques = enumerate_maximal_cliques(g)
    for v in range(g.n):
        holding = [set(c) for c in cliques if v in c]
        if len(holding) != 2 or holding[0] & holding[1] != {v}:
            return False, v
    return True, None


def is_automorphism(g: Graph, image: VertexSet) -> bool:
    return sorted(image) == list(range(g.n)) and g.edges == frozenset(
        (image[u], image[v]) if image[u] < image[v] else (image[v], image[u])
        for u, v in g.edges
    )


def vertex_orbits(n: int, perms) -> list[frozenset[int]]:
    """The vertex orbits of the group the permutations generate, sorted."""
    orbit = [{v} for v in range(n)]
    for image in perms:
        for v, w in enumerate(image):
            if orbit[v] is not orbit[w]:
                orbit[v] |= orbit[w]
                for u in orbit[w]:
                    orbit[u] = orbit[v]
    return sorted({frozenset(o) for o in orbit}, key=min)


def generated_group(n: int, perms) -> set[VertexSet]:
    """Every product of the permutations, the identity included."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        x = todo.pop()
        for image in perms:
            y = tuple(image[v] for v in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def group_order(n: int, perms) -> int:
    """The order of the group the permutations of 0..n-1 generate, by
    Schreier-Sims in Knuth's incremental form, on the base 0, 1, .., n-1.

    Level k keeps the generators added there, all fixing 0..k-1, and a
    transversal: for each point j of k's orbit under them, the inverse
    of one element of the level's group mapping k to j. The order is
    the product of the orbit sizes. generated_group lists every
    element, which S_16 rules out.
    """
    identity = tuple(range(n))
    gens: list[list[VertexSet]] = [[] for _ in range(n)]
    inverses = [{k: identity} for k in range(n)]

    def mul(p, q):  # q first, then p
        return tuple(p[x] for x in q)

    def inverse(p):
        r = [0] * n
        for x, y in enumerate(p):
            r[y] = x
        return tuple(r)

    def member(k: int, p) -> bool:
        for level in range(k, n):
            u_inv = inverses[level].get(p[level])
            if u_inv is None:
                return False
            p = mul(u_inv, p)
        return True

    def add(k: int, p) -> None:
        if member(k, p):
            return
        gens[k].append(p)
        for u_inv in list(inverses[k].values()):
            extend(k, mul(p, inverse(u_inv)))

    def extend(k: int, t) -> None:
        u_inv = inverses[k].get(t[k])
        if u_inv is None:
            inverses[k][t[k]] = inverse(t)
            for s in gens[k]:
                extend(k, mul(s, t))
        else:
            # u^-1 t fixes 0..k
            add(k + 1, mul(u_inv, t))

    for p in perms:
        add(0, tuple(p))
    order = 1
    for level in inverses:
        order *= len(level)
    return order


def _reference_colors(g: Graph) -> list[int]:
    """graphs._wl_colors from the Graph's degrees and neighbour tuples
    rather than its masks: iterated neighbourhood refinement, ranks
    isomorphism-invariant."""
    ranks = {d: i for i, d in enumerate(sorted({g.degree(v) for v in range(g.n)}))}
    colors = [ranks[g.degree(v)] for v in range(g.n)]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in g._nbrs[v])))
            for v in range(g.n)
        ]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(g.n)]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def reference_canonical_search(
    g: Graph, automorphisms: list[VertexSet] | None
) -> tuple[bytes, VertexSet]:
    """graphs._canonical_search with O(n * depth) work per node: the
    same search tree walked in the same order, but every candidate's
    adjacency row to the placed prefix is rebuilt bit by bit at every
    node, the bits are a list, and each branch vertex is tested for
    twinship against every representative kept so far, and no subtree
    is pruned by orbit. Forms and orders must agree with the library's,
    and the generators must generate the same group.

    When automorphisms is a list, it also receives a generating set of
    Aut(g): the map best_order[i] -> order[i] for every leaf whose bits
    equal the maximal ones, which is one per automorphism, and the
    transposition of each pair of twins the search collapses.
    """
    n = g.n
    if n > CANONICAL_VERTEX_BOUND:
        raise BoundExceededError(
            f"canonical form limited to {CANONICAL_VERTEX_BOUND} vertices, got {n}"
        )
    if n == 0:
        return bytes([0]), ()
    colors = _reference_colors(g)
    adj_mask = [0] * n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u

    best_bits: list[int] | None = None
    best_order: list[int] | None = None
    # leaves with bits equal to the best, and collapsed twin pairs
    equal_leaves: list[list[int]] = []
    swaps: set[tuple[int, int]] = set()

    def pattern(mask: int, order: list[int]) -> int:
        pat = 0
        for w in order:
            pat = (pat << 1) | (mask >> w & 1)
        return pat

    def search(order: list[int], placed: int, bits: list[int]) -> None:
        nonlocal best_bits, best_order
        depth = len(order)
        if depth == n:
            if best_bits is None or bits > best_bits:
                best_bits = list(bits)
                best_order = list(order)
                equal_leaves.clear()
            elif automorphisms is not None and bits == best_bits:
                equal_leaves.append(list(order))
            return
        cands = []
        for v in range(n):
            if not placed >> v & 1:
                cands.append((pattern(adj_mask[v], order), -colors[v], v))
        top = max(c[:2] for c in cands)
        branch = [v for p, c, v in cands if (p, c) == top]
        # keep one representative per group of interchangeable twins
        reps: list[int] = []
        for v in branch:
            twin = next(
                (u for u in reps if adj_mask[v] & ~(1 << u) == adj_mask[u] & ~(1 << v)),
                None,
            )
            if twin is None:
                reps.append(v)
            elif automorphisms is not None:
                swaps.add((twin, v))
        seg = [top[0] >> (depth - 1 - i) & 1 for i in range(depth)]
        bits.extend(seg)
        # prune only when strictly below the current best prefix
        if best_bits is None or bits >= best_bits[: len(bits)]:
            for v in reps:
                order.append(v)
                search(order, placed | (1 << v), bits)
                order.pop()
        del bits[len(bits) - len(seg):]

    search([], 0, [])
    assert best_bits is not None and best_order is not None
    if automorphisms is not None:
        for leaf in equal_leaves:
            image = [0] * n
            for b, v in zip(best_order, leaf):
                image[b] = v
            automorphisms.append(tuple(image))
        for u, v in sorted(swaps):
            image = list(range(n))
            image[u], image[v] = v, u
            automorphisms.append(tuple(image))
    value = 0
    for b in best_bits:
        value = (value << 1) | b
    nbits = n * (n - 1) // 2
    form = bytes([n]) + value.to_bytes((nbits + 7) // 8 or 1, "big")
    return form, tuple(best_order)


def _spoke_sets(rep: EptRepresentation) -> list[set[frozenset[int]]]:
    return [{frozenset(step) for step in zip(p, p[1:])} for p in rep.paths]


def reference_derived_graph(rep: EptRepresentation) -> Graph:
    """The graph on the paths, adjacent iff two paths share a tree edge,
    by intersecting every pair."""
    sets = _spoke_sets(rep)
    return Graph(len(sets), [
        (u, v) for u, v in itertools.combinations(range(len(sets)), 2) if sets[u] & sets[v]
    ])


def reference_edge_cliques(rep: EptRepresentation) -> dict[Edge, VertexSet]:
    """K_e for every tree edge, in sorted edge order, by scanning every
    path for it."""
    sets = _spoke_sets(rep)
    return {
        (a, b): tuple(v for v in range(len(sets)) if frozenset((a, b)) in sets[v])
        for a, b in rep.tree.edges
    }


def reference_verify(rep: EptRepresentation, g: Graph) -> tuple[bool, str | None]:
    """Whether the representation derives exactly g; reports the first
    discrepancy in vertex order otherwise."""
    if len(rep.paths) != g.n:
        raise ValueError(
            f"representation has {len(rep.paths)} paths, graph has {g.n} vertices"
        )
    sets = rep.path_edge_sets
    for u in range(g.n):
        for v in range(u + 1, g.n):
            shared = sets[u] & sets[v]
            if g.has_edge(u, v) and not shared:
                return False, f"vertices {u} and {v}: adjacent but paths share no tree edge"
            if not g.has_edge(u, v) and shared:
                e = min(shared)
                return False, f"vertices {u} and {v}: non-adjacent but paths share tree edge {e}"
    return True, None


def reference_clique_witnesses(
    rep: EptRepresentation,
) -> list[tuple[VertexSet, EdgeClique | ClawClique | None]]:
    """Every maximal clique of the derived graph, by Bron-Kerbosch on
    it, with the first tree edge e whose K_e equals it, else the first
    claw (center ascending, ends lexicographic) of all claws at all
    nodes whose K_Y does, else None for {v} of a single-vertex path.
    K_e and K_Y are read off the paths' edge sets."""
    sets = _spoke_sets(rep)
    n = len(sets)
    edge_of: dict[VertexSet, EdgeClique] = {}
    for e, k_e in reference_edge_cliques(rep).items():
        edge_of.setdefault(k_e, EdgeClique(e))
    out = []
    for c in enumerate_maximal_cliques(reference_derived_graph(rep)):
        witness = edge_of.get(c)
        if witness is None and len(rep.paths[c[0]]) > 1:
            witness = next(
                claw for claw in _all_claws(rep)
                if tuple(
                    v for v in range(n)
                    if sum(frozenset((claw.center, q)) in sets[v] for q in claw.ends) >= 2
                ) == c
            )
        out.append((c, witness))
    return out


def _all_claws(rep: EptRepresentation) -> Iterator[ClawClique]:
    for center in range(rep.tree.n):
        for ends in itertools.combinations(sorted(rep.tree.neighbors(center)), 3):
            yield ClawClique(center, ends)


def reference_claw_violation(
    rep: EptRepresentation, subset: VertexSet | None = None
) -> tuple[ClawClique, tuple[int, int, int]] | None:
    """The first claw of all claws at all nodes each of whose three
    spoke pairs lies on a path of `subset`, with the first such path of
    each pair (x, y), (x, z), (y, z)."""
    sets = _spoke_sets(rep)
    vertices = range(len(sets)) if subset is None else subset
    for claw in _all_claws(rep):
        x, y, z = (frozenset((claw.center, q)) for q in claw.ends)
        covering = tuple(
            next((v for v in vertices if {s, t} <= sets[v]), None)
            for s, t in ((x, y), (x, z), (y, z))
        )
        if None not in covering:
            return claw, covering
    return None


def check_multipie_conditions(rep, witness, k):
    """Re-derive all four multipie conditions from the raw paths."""
    center = witness.center
    spoke_ends = witness.spoke_ends
    assert len(spoke_ends) == k
    assert set(spoke_ends) <= set(rep.tree.neighbors(center))
    pairs = []
    for v, pair in witness.members:
        on_path = set(rep.paths[v]) & set(spoke_ends)
        # condition 1: exactly two spoke ends per member path
        assert on_path == set(pair) and len(on_path) == 2
        pairs.append(tuple(sorted(pair)))
    # condition 2: all covered pairs distinct
    assert len(set(pairs)) == len(pairs)
    # condition 3: every spoke edge lies in at least two member paths
    for q in spoke_ends:
        assert sum(q in p for p in pairs) >= 2
    # condition 4: no three member paths form a claw, i.e. pairwise
    # intersecting with empty common intersection
    sets = {v: rep.path_edge_sets[v] for v, _ in witness.members}
    for a, b, c in itertools.combinations(sets, 3):
        pairwise = sets[a] & sets[b] and sets[a] & sets[c] and sets[b] & sets[c]
        if pairwise:
            assert sets[a] & sets[b] & sets[c]


def check_side_witness(g: Graph, witness) -> None:
    """Re-derive a SideWitness from g: K is a maximal clique, the
    components form an odd cycle of distinct components of g - K with
    the stated attachments, and each two consecutive ones, the last and
    the first included, have meeting attachments while neither lies
    beyond the other (A_j inside A_i and inside one maximal clique that
    meets C_i)."""
    cliques = [set(c) for c in enumerate_maximal_cliques(g)]
    k = set(witness.clique)
    assert k in cliques
    sub, mapping = induced_subgraph(g, [v for v in range(g.n) if v not in k])
    parts = {tuple(sorted(mapping[v] for v in comp)) for comp in connected_components(sub)}
    cycle = witness.components
    assert len(cycle) % 2 == 1 and len(cycle) >= 3
    assert len(set(cycle)) == len(cycle) and set(cycle) <= parts
    assert len(witness.attachments) == len(cycle)
    attach = []
    holders = []
    for comp, stated in zip(cycle, witness.attachments):
        a = {x for x in k if any(g.has_edge(x, v) for v in comp)}
        assert tuple(sorted(a)) == tuple(stated)
        attach.append(a)
        holders.append([c for c in cliques if c & set(comp)])

    def beyond(i: int, j: int) -> bool:
        return attach[j] <= attach[i] and any(attach[j] <= c for c in holders[i])

    for i in range(len(cycle)):
        j = (i + 1) % len(cycle)
        assert attach[i] & attach[j]
        assert not beyond(i, j) and not beyond(j, i)


def separating_splits(
    adj: list[int], masks: list[int], pieces: list[int], deadline: float = math.inf
) -> list[list[tuple[int, int]]]:
    """The components of g - C, with their attachments, for each maximal
    clique C, as a mask, of the connected g with adjacency masks adj
    whose atoms, as masks, are `pieces`; [] for a clique that cannot
    separate g. C separates g exactly when g - C has two components or
    more. Raises BudgetExhaustedError once the monotonic clock passes
    deadline.

    A clique C that separates g holds a vertex lying in two atoms. Take
    a and b in different components of g - C, and S a minimal subset of
    C separating them: it is complete, and not empty as g is connected.
    By minimality each s in S has a neighbour x in a's component of
    g - S and a neighbour y in b's. The atoms cover every edge, as each
    split keeps its separator in every part. An atom holding both sx
    and sy would be split by its part of S, a complete set separating x
    from y inside it, so s lies in two atoms. So only the cliques
    holding a vertex of two atoms get a search."""
    seen = shared = 0  # vertices in one atom or more, and in two or more
    for piece in pieces:
        shared |= seen & piece
        seen |= piece
    rest = (1 << len(adj)) - 1
    splits: list[list[tuple[int, int]]] = []
    for c in masks:
        if c & shared:
            _check_deadline(deadline)
            splits.append(_components(adj, rest & ~c))
        else:
            splits.append([])
    return splits


def capped_sides(masks: list[int], clique: int, split: list[tuple[int, int]]):
    """The components of g - K that the side test at the maximal clique
    K (clique) takes, from split, the components of g - K with their
    attachments: those with two attachments or more, each as (part,
    attachments, traces), the first three of each class of equal
    attachments and traces, in order of lowest vertex. masks are g's
    maximal cliques, and the traces of a component are the sets L & K
    of two vertices or more for the cliques L other than K meeting it."""
    split = [(part, attach) for part, attach in split if attach & (attach - 1)]
    traces: list[set[int]] = [set() for _ in split]
    for c in masks:
        trace = c & clique
        if trace & (trace - 1) and c != clique:
            for i, (part, _) in enumerate(split):
                if c & part:
                    traces[i].add(trace)
    seen: Counter = Counter()
    sides = []
    for (part, attach), found in zip(split, traces):
        key = (attach, frozenset(found))
        seen[key] += 1
        if seen[key] <= 3:
            sides.append((part, attach, frozenset(found)))
    return sides


def searched_side_test(g: Graph) -> SideWitness | None:
    """The side test (recognition._side_cycle) at every maximal clique K
    of a connected g, in enumerate_maximal_cliques order, on a component
    search of g - K at each, with at most three twins per class
    (capped_sides): the first odd cycle's witness, or None."""
    cliques = [_mask(c) for c in enumerate_maximal_cliques(g)]
    adj = g._adj
    for clique in cliques:
        sides = capped_sides(cliques, clique, _components(adj, (1 << g.n) - 1 & ~clique))
        cycle = _side_cycle([(attach, traces) for _, attach, traces in sides]) if len(sides) > 2 else None
        if cycle is not None:
            on_cycle = [sides[x] for x in cycle]
            return SideWitness(
                _members(clique),
                tuple(_members(part) for part, _, _ in on_cycle),
                tuple(_members(attach) for _, attach, _ in on_cycle),
            )
    return None


def _orbit_representatives(items, moves: list) -> list:
    """The first of the items in each orbit of the group that moves
    (permutations of one finite set) generate, in the items' order.
    An orbit is a closure under the moves, since in a finite group
    every inverse is a power."""
    seen = set()
    firsts = []
    for x in items:
        if x in seen:
            continue
        firsts.append(x)
        seen.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for move in moves:
                z = move(y)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return firsts


def _extend(
    graph: Graph, cliques: tuple[VertexSet, ...], step: ExtensionStep
) -> tuple[Graph, tuple[VertexSet, ...]]:
    """Apply one extension step; returns the new graph and the
    re-derived sorted clique list."""
    added, derived = _step(graph.n, cliques, step)
    return Graph._from_checked(graph.n + step.path_len, graph.edges.union(added)), derived


def _pair_orbit_representatives(
    gate: LabeledGate, generators: tuple[VertexSet, ...]
) -> list[tuple[int, int]]:
    """The first disjoint clique pair (a, b), a < b, of each orbit of
    Aut(gate.graph), which the generators generate, on such pairs, in
    lexicographic order."""
    cliques = gate.cliques
    k = len(cliques)
    index = {c: i for i, c in enumerate(cliques)}

    def move(image: VertexSet):
        to = [index[tuple(sorted(image[v] for v in c))] for c in cliques]

        def apply(pair: tuple[int, int]) -> tuple[int, int]:
            a, b = to[pair[0]], to[pair[1]]
            return (a, b) if a < b else (b, a)

        return apply

    pairs = [
        (a, b)
        for a in range(k)
        for b in range(a + 1, k)
        if not set(cliques[a]) & set(cliques[b])
    ]
    return _orbit_representatives(pairs, [move(p) for p in generators])


@functools.lru_cache(maxsize=None)
def reference_catalog(max_vertices: int) -> dict[bytes, GateRecipe]:
    """Every gate with at most max_vertices vertices, keyed by canonical
    form, breadth-first over recipes with canonical dedup: the generator
    of the shipped gate table (catalog_table_text).

    A queued gate is extended only on the first disjoint clique pair
    (a < b, lexicographic) of each orbit of its automorphism group on
    pairs, and the result is the one the search over every pair gives.
    An automorphism s maps maximal cliques to maximal cliques, so
    extending the pair {s(a), s(b)} by a path of length l gives a graph
    isomorphic to extending {a, b} by l (reversing the path covers the
    case s(a) > s(b)). A skipped pair is the image of an earlier pair,
    whose candidates were canonicalized first, length for length, so
    each of the skipped pair's candidates would find its form already
    cataloged and be dropped.

    One canonical search per candidate gives both its form and, for a
    gate that is queued, its automorphism generators. Callers must not
    change the dict, which is cached.
    """
    catalog: dict[bytes, GateRecipe] = {}
    queue: deque[tuple[LabeledGate, tuple[VertexSet, ...]]] = deque()
    for base in range(4, max_vertices + 1):
        gate = build_gate(GateRecipe(base))
        form, _, generators = _canonical_search(gate.graph._adj)
        if form not in catalog:
            catalog[form] = gate.recipe
            queue.append((gate, generators))
    while queue:
        gate, generators = queue.popleft()
        budget = max_vertices - gate.graph.n
        if budget < 2:
            continue
        for a, b in _pair_orbit_representatives(gate, generators):
            for length in range(2, budget + 1):
                step = ExtensionStep(a, b, length)
                graph, cliques = _extend(gate.graph, gate.cliques, step)
                form, _, graph_generators = _canonical_search(graph._adj)
                if form in catalog:
                    continue
                recipe = GateRecipe(gate.recipe.base, gate.recipe.steps + (step,))
                catalog[form] = recipe
                queue.append((LabeledGate(graph, cliques, recipe), graph_generators))
    return catalog


@functools.lru_cache(maxsize=None)
def reference_corpus(n: int) -> tuple[tuple[Graph, tuple[VertexSet, ...]], ...]:
    """All graphs on exactly n vertices up to isomorphism, in canonical
    order, each with generators of its automorphism group from the
    canonical search that also gave its form: the generator of the
    shipped corpus table (corpus_table_text).

    Each graph on n - 1 vertices grows a vertex n - 1 joined to the
    vertices of a neighbourhood mask, masks in ascending order; the
    first graph found of each isomorphism class is kept, and the classes
    come out in canonical-form order. Only the smallest mask of each
    orbit of the parent's automorphism group is tried. An automorphism
    s of the parent, extended by fixing n - 1, maps the graph grown from
    mask M onto the one grown from s(M), so a skipped mask grows a graph
    isomorphic to one grown from a smaller mask of the same parent,
    tried before it, whose form was then already kept.
    """
    if n == 0:
        return ()
    if n == 1:
        return ((Graph(1), ()),)

    def move(image: VertexSet):
        def apply(mask: int) -> int:
            return sum(1 << w for v, w in enumerate(image) if mask >> v & 1)

        return apply

    top = 1 << (n - 1)
    out: dict[bytes, tuple[Graph, tuple[VertexSet, ...]]] = {}
    for g, generators in reference_corpus(n - 1):
        moves = [move(image) for image in generators]
        for mask in _orbit_representatives(range(top), moves):
            # g's masks with vertex n - 1 joined to mask; a Graph is
            # built only for the first graph of a class
            adj = tuple(near | top if mask >> i & 1 else near for i, near in enumerate(g._adj))
            form, _, h_generators = _canonical_search(adj + (mask,))
            if form not in out:
                edges = list(g.edges) + [(i, n - 1) for i in range(n - 1) if mask >> i & 1]
                out[form] = (Graph(n, edges), h_generators)
    return tuple(entry for _, entry in sorted(out.items()))


def catalog_table_text() -> str:
    """The text of _tables.GATES: one line per gate of
    reference_catalog(12), in its order, with the canonical form in
    hex, the base, and each step as a,b,l."""
    lines = []
    for form, recipe in reference_catalog(CATALOG_VERTEX_BOUND).items():
        steps = (f"{s.clique_a},{s.clique_b},{s.path_len}" for s in recipe.steps)
        lines.append(" ".join((form.hex(), str(recipe.base), *steps)))
    return "\n".join(lines) + "\n"


def corpus_table_text() -> str:
    """The text of _tables.GRAPHS: one line per graph of
    reference_corpus(n) for n up to 7, in order, with n and the
    upper-triangle edge mask in hex (bit i for the i-th pair of
    itertools.combinations(range(n), 2))."""
    lines = []
    for n in range(CORPUS_VERTEX_BOUND + 1):
        bit = {pair: 1 << i for i, pair in enumerate(itertools.combinations(range(n), 2))}
        for g, _ in reference_corpus(n):
            lines.append(f"{n} {sum(bit[e] for e in g.edges):x}")
    return "\n".join(lines) + "\n"


def shape_table_text() -> str:
    """The text of _tables.SHAPES: one line per shape of
    reference_tree_shapes(m) for m up to 9, in order, with m, the parent
    of each vertex 1..m, the level-0 orbit mask and the level-1 mask of
    each of its bits in ascending order, masks in hex."""
    lines = []
    for m in range(CLIQUE_BOUND + 1):
        for shape in reference_tree_shapes(m):
            parent = {b: a for a, b in shape.edges}
            if sorted(parent) != list(range(1, m + 1)):
                raise ValueError(f"shape {shape.edges} is not (parent[k], k) for k = 1..{m}")
            level0, level1 = shape.orbit_masks()
            lines.append(" ".join((
                str(m),
                *(str(parent[k]) for k in range(1, m + 1)),
                f"{level0:x}",
                *(f"{level1[r]:x}" for r in sorted(level1)),
            )))
    return "\n".join(lines) + "\n"


TABLES_HEADER = '''"""The gate catalog, the small-graph corpus and the host-tree shapes
as shipped tables.

Generated by tests/reference.py from its generators (reference_catalog,
reference_corpus, reference_tree_shapes); do not edit by hand. To
regenerate, run `PYTHONPATH=src python tests/reference.py` from the
repository root, which rewrites this file.

GATES has one line per gate with at most 12 vertices, in the catalog's
insertion order: the canonical form in hex, the base cycle length, and
each extension step as `a,b,l`.

GRAPHS has one line per graph on at most 7 vertices up to isomorphism,
by vertex count and then in canonical-form order: the vertex count n
and the upper-triangle edge mask in hex, bit i for the i-th pair of
itertools.combinations(range(n), 2).

SHAPES has one line per unlabeled tree with at most 9 edges, by edge
count m and then in the oracle's scan order: m; the parent of each
vertex 1..m, so the shape's edges are (parent[k], k); the level-0 mask,
of the lowest-index edge of each edge orbit of the tree's automorphism
group; and for each bit r of it, in ascending order, the level-1 mask,
of the lowest-index edge other than r of each orbit of the stabilizer
of edge r. Masks are in hex, bit j for the j-th edge in sorted order.
"""
'''


def tables_module_text() -> str:
    """The source of eptkit/_tables.py, byte for byte."""
    return (
        f'{TABLES_HEADER}\nGATES = """\\\n{catalog_table_text()}"""\n'
        f'\nGRAPHS = """\\\n{corpus_table_text()}"""\n'
        f'\nSHAPES = """\\\n{shape_table_text()}"""\n'
    )


if __name__ == "__main__":
    import pathlib

    target = pathlib.Path(__file__).resolve().parents[1] / "src" / "eptkit" / "_tables.py"
    target.write_text(tables_module_text())
    print(f"wrote {target}")

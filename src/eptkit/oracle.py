"""Brute-force ground truth: host-tree enumeration, representation
search, and exhaustive small-graph corpora.

The membership search runs over "bijection trees": host trees whose
edges are in one-to-one correspondence with the maximal cliques of the
input graph. Soundness and completeness of that normal form: in any
Helly representation every maximal clique C equals K_e for some tree
edge e, distinct cliques get distinct edges, and contracting all
unchosen edges leaves each path being exactly the edges of its
vertex's cliques. The search therefore assigns cliques to tree edges
and accepts when every vertex's span (the minimal subtree covering its
cliques' edges) is a path and spans of non-adjacent vertices share no
edge; accepted assignments are Helly representations verbatim. A span
is a path exactly when its edge mask is a key of the shape's table of
tree paths (TreeShape.paths), whose value is the certificate's path.

Tree candidates are scanned as unlabeled shapes in ascending order of
maximum degree, so the first accepting shape realizes the minimum host
degree over all bijection trees. Contracting edges merges tree
vertices, so that minimum can exceed the cheapest host degree of the
graph: the scan's degree is not an answer to "is G in Helly [h,2,2]?",
which recognition.cheapest_representation answers.

Orbit pruning (after McKay & Piperno's orbit pruning in nauty): the
first clique in assignment order is tried only on the lowest-index edge
of each edge orbit of the shape's automorphism group, and the second
only on the lowest-index edge of each orbit of the stabilizer of the
first clique's edge. Deeper levels try every free edge. The scan still
returns the same first assignment: candidates are tried in ascending
edge order, and a skipped edge j has a lower-index image j' under an
automorphism fixing every placed edge. That automorphism maps the
assignments below j one-to-one onto those below j', keeping spans
paths and keeping non-adjacent spans disjoint, so the subtree under j'
was searched first and fails exactly when the one under j would.

The scan is _scan, on a graph's sorted maximal cliques, its neighbour
masks (Graph._adj) and a deadline. oracle_membership lists the
cliques, stopping past CLIQUE_BOUND;
recognition.cheapest_representation hands it the ones it has already
listed. Each tree shape validates its HostTree once, on its first
accept (TreeShape.host_tree), and every certificate on that shape
shares the tree, which is immutable.

The corpus of every graph on at most CORPUS_VERTEX_BOUND vertices up to
isomorphism is fixed, so it ships as a table, _tables.GRAPHS, and
small_graph_corpus builds each vertex count's graphs from it once per
process instead of searching for them. tests/reference.py holds the
search that generates it (reference_corpus, one canonical search per
candidate), and running `PYTHONPATH=src python tests/reference.py` from
the repository root rewrites the table; tests/test_tables.py compares the
two byte for byte.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import time
from collections.abc import Sequence

from . import _tables
from .graphs import (
    BoundExceededError,
    Edge,
    Graph,
    VertexSet,
    _canonical_search,
    _clique_masks,
    _members,
    is_connected,
)
from .representation import EptRepresentation, HostTree, TreePath

CLIQUE_BOUND = 9
CORPUS_VERTEX_BOUND = 7


class BudgetExhaustedError(RuntimeError):
    """The wall-clock budget ran out before the search space did."""


def resolve_budget_secs(budget_secs: float | None) -> float:
    """budget_secs, or 60 when None; a NaN or negative budget is a
    ValueError."""
    if budget_secs is None:
        budget_secs = 60.0
    # NaN compares false with everything, so it would switch the budget
    # off instead of being rejected
    if not budget_secs >= 0:
        raise ValueError(f"budget must be a non-negative number of seconds, got {budget_secs}")
    return budget_secs


def _check_deadline(deadline: float) -> None:
    """Raise BudgetExhaustedError once the monotonic clock has passed
    deadline; the steps before the scan call it as they go."""
    if time.monotonic() > deadline:
        raise BudgetExhaustedError("budget exhausted before the scan")


class TreeShape:
    """One unlabeled host-tree shape, pinned as a labeled representative
    with precomputed edge-index masks for the assignment search.

    paths maps the edge mask of the tree path between tree vertices
    a < b to its vertex sequence from a, one entry per pair. A connected
    edge set of a tree is a path exactly when it is the tree path
    between two of its vertices, so a connected span is a path exactly
    when it is a key, and its value lists the path from its
    lower-numbered end."""

    __slots__ = ("n", "m", "edges", "max_degree", "path_mask", "paths", "_orbit_masks", "_host")

    def __init__(self, n: int, edges: Sequence[Edge]):
        self.n = n
        self.edges = tuple(sorted(edges))
        self.m = len(self.edges)
        # links[u]: (w, bit of the edge uw) for each neighbour w of u
        links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, (a, b) in enumerate(self.edges):
            links[a].append((b, 1 << j))
            links[b].append((a, 1 << j))
        self.max_degree = max(map(len, links), default=0)
        # path_mask[a][b]: edge-index mask of the tree path from a to b
        self.path_mask: list[list[int]] = []
        self.paths: dict[int, TreePath] = {}
        for root in range(n):
            row = [0] * n
            seq = {root: (root,)}
            stack = [root]
            while stack:
                u = stack.pop()
                for w, bit in links[u]:
                    if w not in seq:
                        seq[w] = seq[u] + (w,)
                        row[w] = row[u] | bit
                        stack.append(w)
            self.path_mask.append(row)
            for w in range(root + 1, n):
                self.paths[row[w]] = seq[w]
        self._orbit_masks: tuple[int, dict[int, int]] | None = None
        self._host: HostTree | None = None

    def host_tree(self) -> HostTree:
        """The shape as a validated HostTree, built on the first accept
        and shared by every certificate on the shape; HostTree is
        immutable."""
        if self._host is None:
            self._host = HostTree(self.n, self.edges)
        return self._host

    def orbit_masks(self) -> tuple[int, dict[int, int]]:
        """Candidate edges for the first two cliques of the assignment
        search: the lowest-index edge of each orbit of Aut(T), and for
        each such edge r the lowest-index edge other than r of each
        orbit of the stabilizer of r. Built on first use; 1 + m entries
        at most."""
        if self._orbit_masks is None:
            self._orbit_masks = _edge_orbit_masks(self)
        return self._orbit_masks


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
    """AHU codes of the rooted subtrees, with vertex mark labelled.
    Codes drawn from one intern table are equal exactly when the
    labelled rooted subtrees are isomorphic."""
    code = [0] * len(adj)
    for u in reversed(order):
        children = sorted(code[w] for w in adj[u] if w != parent[u])
        code[u] = intern.setdefault((u == mark, *children), len(intern))
    return code


def _orbits(
    adj: list[list[int]], parent: list[int], order: list[int], mark: int = -1
) -> list[int]:
    """Orbit ids of the vertices of a centred subdivision
    (_centred_subdivision) under its automorphisms that fix vertex
    mark, from one AHU pass. Every automorphism fixes the root, so two
    vertices lie in one orbit exactly when their AHU codes agree and
    their parents lie in one orbit."""
    code = _ahu_codes(adj, parent, order, {}, mark)
    orbit = [0] * len(adj)
    orbit_ids: dict[tuple[int, int], int] = {}
    for u in order[1:]:
        orbit[u] = orbit_ids.setdefault((orbit[parent[u]], code[u]), len(orbit_ids) + 1)
    return orbit


def _edge_orbit_masks(shape: TreeShape) -> tuple[int, dict[int, int]]:
    """TreeShape.orbit_masks, computed.

    The automorphisms of the shape are those of its subdivision rooted
    at the centre (_centred_subdivision), and those fixing edge r are
    the ones that also fix r's midpoint when it is labelled (_orbits).
    """
    n = shape.n
    adj, parent, order = _centred_subdivision(n, shape.edges)

    def representatives(mark: int) -> int:
        orbit = _orbits(adj, parent, order, mark)
        first: dict[int, int] = {}
        mask = 0
        for j in range(shape.m):
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


@functools.lru_cache(maxsize=32)
def tree_shapes(m: int) -> tuple[TreeShape, ...]:
    """All unlabeled trees with m edges, sorted by (max degree,
    canonical form) so low-degree hosts come first.

    Each shape is the first tree of its isomorphism class met while
    hanging a new leaf from every vertex of every shape with m - 1
    edges, in order. Classes are told apart by the AHU code of the
    edge-subdivided tree rooted at its centre, and only the first tree
    of a class is canonicalized, for the sort. That code is a complete
    invariant. Two trees with an edge are isomorphic exactly when their
    subdivisions are: an isomorphism of subdivisions maps leaves, which
    are original vertices, to leaves, so it keeps the side of the
    bipartition that holds the original vertices, and it keeps which of
    them share a midpoint. Subdivisions are isomorphic exactly when they
    are as trees rooted at their centres, since every isomorphism maps
    centre to centre, and AHU codes decide rooted isomorphism.

    The leaf is hung only from the lowest vertex of each vertex orbit of
    the parent shape (_orbits). An automorphism of the parent mapping v
    to a lower u, extended by fixing the new leaf, maps the tree hung
    from v onto the one hung from u, which was met first, so a skipped
    hang is never the first of its class.

    The sort computes canonical forms with _canonical_search on
    adjacency masks built from the edges, so the shapes stay out of
    canonical_labeling's cache and no Graph is built for them.
    """
    if m < 0:
        raise ValueError("edge count must be non-negative")
    if m == 0:
        return (TreeShape(1, ()),)
    intern: dict = {}
    grown: dict[int, TreeShape] = {}
    for shape in tree_shapes(m - 1):
        orbit = _orbits(*_centred_subdivision(shape.n, shape.edges))
        first: dict[int, int] = {}
        for v in range(shape.n):
            if first.setdefault(orbit[v], v) != v:
                continue
            edges = shape.edges + ((v, shape.n),)
            adj, parent, order = _centred_subdivision(shape.n + 1, edges)
            code = _ahu_codes(adj, parent, order, intern)[order[0]]
            if code not in grown:
                grown[code] = TreeShape(shape.n + 1, edges)

    def form(shape: TreeShape) -> bytes:
        adj = [0] * shape.n
        for a, b in shape.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return _canonical_search(tuple(adj))[0]

    return tuple(sorted(grown.values(), key=lambda s: (s.max_degree, form(s))))


def _clique_order(cliques: Sequence[VertexSet]) -> list[int]:
    """Assignment order: grow a connected front over shared vertices so
    span pruning bites early; lexicographic tie-break. Each step takes
    the lowest-index clique left that shares a vertex with those
    placed, or the lowest-index clique left when none does.

    A clique joins the heap `linked` when one of its vertices is first
    placed and stays linked until it is taken, so the heap's lowest
    index not yet taken is the next clique. A clique is pushed at most
    once per vertex it holds, so the order costs O(s log s) for s the
    total size of the cliques."""
    holding: dict[int, list[int]] = {}
    for i, c in enumerate(cliques):
        for v in c:
            holding.setdefault(v, []).append(i)
    taken = [False] * len(cliques)
    placed: set[int] = set()
    linked: list[int] = []
    first_free = 0
    order = []
    while len(order) < len(cliques):
        while linked and taken[linked[0]]:
            heapq.heappop(linked)
        if linked:
            nxt = heapq.heappop(linked)
        else:
            while taken[first_free]:
                first_free += 1
            nxt = first_free
        taken[nxt] = True
        order.append(nxt)
        for v in cliques[nxt]:
            if v not in placed:
                placed.add(v)
                for j in holding[v]:
                    if not taken[j]:
                        heapq.heappush(linked, j)
    return order


def _assign_cliques(
    shape: TreeShape,
    cliques: list[VertexSet],
    order: list[int],
    adj_self: list[int],
    deadline: float,
) -> list[int] | None:
    """Backtracking bijection cliques -> tree edges; returns the span
    mask per graph vertex on success, each a key of shape.paths.

    Each level places its clique, for every candidate edge, on its own
    copies of spans (edge mask per graph vertex) and covered (graph-vertex
    mask per tree edge), and passes the used edges down as an argument,
    so a failed candidate is dropped with its copies and nothing is undone.

    A vertex's span grows from any tree vertex w it already holds, here
    the first end of its lowest edge: the span S is connected, so for
    the vertex p of S nearest a new end a, path(w, a) runs inside S up
    to p and then along path(p, a), and S | path(w, a) = S | path(p, a)
    whichever w is taken. Spans are thus connected, so a grown span is
    a path exactly when it is a key of shape.paths, the test place makes.
    """
    level0, level1 = shape.orbit_masks()
    full = (1 << shape.m) - 1

    def place(ci: int, j: int, spans: list[int], covered: list[int]) -> bool:
        a, b = shape.edges[j]
        for v in cliques[ci]:
            old = spans[v]
            # an empty span grows from a, to edge j alone
            w = shape.edges[(old & -old).bit_length() - 1][0] if old else a
            new = old | shape.path_mask[w][a] | shape.path_mask[w][b]
            if new == old:
                continue
            if new not in shape.paths:
                return False
            spans[v] = new
            delta = new & ~old
            while delta:
                e = (delta & -delta).bit_length() - 1
                if covered[e] & ~adj_self[v]:
                    return False
                covered[e] |= 1 << v
                delta &= delta - 1
        return True

    def search(i: int, used: int, spans: list[int], covered: list[int]) -> list[int] | None:
        if time.monotonic() > deadline:
            raise BudgetExhaustedError("representation search budget exhausted")
        if i == len(order):
            return spans
        if i == 0:
            free = level0
        elif i == 1:
            free = level1[used.bit_length() - 1]
        else:
            free = full & ~used
        while free:
            j = (free & -free).bit_length() - 1
            free &= free - 1
            next_spans, next_covered = spans[:], covered[:]
            if place(order[i], j, next_spans, next_covered):
                found = search(i + 1, used | 1 << j, next_spans, next_covered)
                if found is not None:
                    return found
        return None

    return search(0, 0, [0] * len(adj_self), [0] * shape.m)


def oracle_membership(g: Graph, *, budget_secs: float | None = None) -> EptRepresentation | None:
    """A verified Helly representation of g on the first accepting
    bijection tree, which has the minimum host degree over all of them,
    or None after exhausting all of them. Raises BudgetExhaustedError
    when time runs out first, BoundExceededError as soon as the listing
    finds a clique past CLIQUE_BOUND, and ValueError for a NaN or
    negative budget. Nothing about g is kept between calls. The scan
    itself is _scan, which recognition.cheapest_representation calls
    with the cliques, masks and deadline it already has."""
    budget_secs = resolve_budget_secs(budget_secs)
    # stop listing at the first clique past the bound: K_{3x12} alone
    # has 531 441
    cliques = sorted(map(_members, itertools.islice(_clique_masks(g._adj), CLIQUE_BOUND + 1)))
    return _scan(cliques, g._adj, time.monotonic() + budget_secs)


def _scan(cliques: list[VertexSet], adj: tuple[int, ...], deadline: float) -> EptRepresentation | None:
    """oracle_membership's answer for the graph with neighbour masks adj
    (Graph._adj) and these maximal cliques, each sorted,
    in lexicographic order. Raises BoundExceededError, with
    oracle_membership's text, when there are more than CLIQUE_BOUND
    cliques, and BudgetExhaustedError once the monotonic clock passes
    deadline."""
    m = len(cliques)
    if m > CLIQUE_BOUND:
        raise BoundExceededError(
            f"oracle limited to {CLIQUE_BOUND} cliques, graph has more than {CLIQUE_BOUND}"
        )
    order = _clique_order(cliques)
    adj_self = [mask | 1 << v for v, mask in enumerate(adj)]
    for shape in tree_shapes(m):
        spans = _assign_cliques(shape, cliques, order, adj_self, deadline)
        if spans is not None:
            return EptRepresentation(shape.host_tree(), tuple(shape.paths[mask] for mask in spans))
    return None


@functools.lru_cache(maxsize=CORPUS_VERTEX_BOUND + 1)
def _corpus(n: int) -> tuple[Graph, ...]:
    """The graphs on exactly n vertices in the shipped corpus table
    (_tables.GRAPHS), in its order."""
    pairs = list(itertools.combinations(range(n), 2))
    prefix = f"{n} "
    graphs = []
    for line in _tables.GRAPHS.splitlines():
        if line.startswith(prefix):
            mask = int(line[len(prefix):], 16)
            edges = frozenset(pair for i, pair in enumerate(pairs) if mask >> i & 1)
            graphs.append(Graph._from_checked(n, edges))
    return tuple(graphs)


def small_graph_corpus(n: int, connected_only: bool = False) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices up to isomorphism, in canonical
    order; optionally only the connected ones. They are read from the
    shipped corpus table, built once per n."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > CORPUS_VERTEX_BOUND:
        raise BoundExceededError(
            f"corpus limited to {CORPUS_VERTEX_BOUND} vertices, asked for {n}"
        )
    graphs = _corpus(n)
    if connected_only:
        graphs = tuple(g for g in graphs if is_connected(g))
    return graphs

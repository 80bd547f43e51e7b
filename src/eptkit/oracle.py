"""Brute-force ground truth: the host-tree shapes, representation
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
is a path exactly when its mask is a key of TreeShape.paths (the xor of
two tree vertices' root-path masks); TreeShape.path lists its vertices.

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

The tree shapes with at most CLIQUE_BOUND edges and their orbit masks
are fixed, so they ship as a table, _tables.SHAPES, and tree_shapes
builds each edge count's shapes from it once per process; the scan
computes no orbits and building shapes runs no canonical search. The
corpus of every graph on at most CORPUS_VERTEX_BOUND vertices up to
isomorphism ships likewise as _tables.GRAPHS, and small_graph_corpus
builds each vertex count's graphs from it once per process instead of
searching for them. tests/reference.py holds the generators of both
tables (reference_tree_shapes with ReferenceTreeShape.orbit_masks, and
reference_corpus, one canonical search per candidate), and running
`PYTHONPATH=src python tests/reference.py` from the repository root
rewrites them; tests/test_tables.py compares the text byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence

from . import _tables
from .graphs import (
    BoundExceededError,
    BudgetExhaustedError,  # re-exported: the scan raises it
    Graph,
    VertexSet,
    _check_deadline,
    _clique_masks,
    _deadline,
    _members,
    is_connected,
)
from .representation import EptRepresentation, HostTree, TreePath

CLIQUE_BOUND = 9
CORPUS_VERTEX_BOUND = 7


class TreeShape:
    """One unlabeled host-tree shape, pinned as a labeled representative
    rooted at vertex 0, with edge-index masks for the assignment search.

    parent[k] < k is the parent of vertex k (the root is its own), as
    the shape table ships it. lift[j] masks the root path from edge j's
    lower end, its child, j included. The tree path between a and b is
    the symmetric difference of their root paths, and paths maps each
    pair's mask to (a, b), a < b. A connected edge set of a tree is a
    path exactly when it is the tree path between two of its vertices,
    so a connected span is a path exactly when it is a key, and
    path(mask) lists its vertices.

    orbit_masks holds the candidate edges for the first two cliques of
    the assignment search: the mask of the lowest-index edge of each
    orbit of Aut(T), and for each such edge r the mask of the
    lowest-index edge other than r of each orbit of the stabilizer of r,
    as the shape table ships them."""

    __slots__ = ("n", "m", "parent", "edges", "lift", "paths", "orbit_masks", "_host")

    def __init__(self, parent: Sequence[int], orbit_masks: tuple[int, dict[int, int]]):
        self.parent = tuple(parent)
        self.n = len(self.parent)
        self.edges = tuple(sorted((p, k) for k, p in enumerate(self.parent) if k))
        self.m = len(self.edges)
        self.orbit_masks = orbit_masks
        # up[v]: mask of v's root path; an upper end's own edge sorts
        # before its edges down, since parent[a] < a
        up = [0] * self.n
        for j, (a, b) in enumerate(self.edges):
            up[b] = up[a] | 1 << j
        self.lift = tuple(up[b] for _, b in self.edges)
        self.paths = {up[a] ^ up[b]: (a, b) for a, b in itertools.combinations(range(self.n), 2)}
        self._host: HostTree | None = None

    def path(self, mask: int) -> TreePath:
        """The tree path with this edge mask, a key of paths, from its
        lower-numbered end: the higher-numbered of the two walks steps
        up until they meet, since ancestors have lower numbers."""
        a, b = self.paths[mask]
        head, tail = [a], [b]
        while head[-1] != tail[-1]:
            walk = head if head[-1] > tail[-1] else tail
            walk.append(self.parent[walk[-1]])
        return tuple(head + tail[-2::-1])

    def host_tree(self) -> HostTree:
        """The shape as a validated HostTree, built on the first accept
        and shared by every certificate on the shape; HostTree is
        immutable."""
        if self._host is None:
            self._host = HostTree(self.n, self.edges)
        return self._host


@functools.cache
def _table_rows(table: str) -> dict[int, list[list[str]]]:
    """A shipped table whose lines lead with a count (_tables.SHAPES,
    _tables.GRAPHS), split once per process: each line's other fields,
    grouped by that count in table order."""
    rows: dict[int, list[list[str]]] = {}
    for line in table.splitlines():
        count, *fields = line.split()
        rows.setdefault(int(count), []).append(fields)
    return rows


@functools.lru_cache(maxsize=CLIQUE_BOUND + 1)
def tree_shapes(m: int) -> tuple[TreeShape, ...]:
    """All unlabeled trees with m edges, sorted by (max degree,
    canonical form) so low-degree hosts come first, with their orbit
    masks. They are read from the shipped shape table (_tables.SHAPES),
    built once per m; m above CLIQUE_BOUND is a BoundExceededError and
    a non-integer m a TypeError."""
    m = operator.index(m)
    if m < 0:
        raise ValueError("edge count must be non-negative")
    if m > CLIQUE_BOUND:
        raise BoundExceededError(f"tree shapes limited to {CLIQUE_BOUND} edges, asked for {m}")
    shapes = []
    for fields in _table_rows(_tables.SHAPES)[m]:
        level0 = int(fields[m], 16)
        firsts = [j for j in range(m) if level0 >> j & 1]
        level1 = dict(zip(firsts, (int(mask, 16) for mask in fields[m + 1 :])))
        shapes.append(TreeShape([0, *map(int, fields[:m])], (level0, level1)))
    return tuple(shapes)


def _holders(n: int, cliques: Sequence[VertexSet]) -> list[int]:
    """Each of n vertices' mask of the indices of the cliques holding it."""
    holders = [0] * n
    for i, c in enumerate(cliques):
        for v in c:
            holders[v] |= 1 << i
    return holders


def _clique_order(cliques: Sequence[VertexSet], holders: list[int]) -> list[int]:
    """Assignment order: grow a connected front over shared vertices so
    span pruning bites early; lexicographic tie-break. Each step takes
    the lowest-index clique left that shares a vertex with those
    placed, or the lowest-index clique left when none does.

    Cliques are bits of masks: holders (_holders) gives each vertex the
    mask of the cliques that hold it, and placing a clique adds the
    holders of its vertices to linked."""
    left = (1 << len(cliques)) - 1
    linked = 0
    order = []
    while left:
        pick = linked & left or left
        nxt = (pick & -pick).bit_length() - 1
        left ^= 1 << nxt
        order.append(nxt)
        for v in cliques[nxt]:
            linked |= holders[v]
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

    A span S grows by edge j = (a, b) to S | lift[e] ^ lift[j] | 1 << j
    for e the lowest edge of S (an empty span to 1 << j). lift[e] ^
    lift[j] is the path from e's lower end w to b, and with j it makes
    path(w, a) | path(w, b), since w's paths to j's two ends together
    make w's path to j's lower end plus j. For the vertex p of the
    connected S nearest a, path(w, a) runs inside S up to p and then
    along path(p, a), so the grown span is the least connected edge set
    holding S and j, whichever w of S is taken. Spans are thus
    connected, and a grown span is a path exactly when it is a key of
    shape.paths, the test place makes.
    """
    level0, level1 = shape.orbit_masks
    lift = shape.lift
    full = (1 << shape.m) - 1

    def place(ci: int, j: int, spans: list[int], covered: list[int]) -> bool:
        for v in cliques[ci]:
            old = spans[v]
            new = old | lift[(old & -old).bit_length() - 1] ^ lift[j] | 1 << j if old else 1 << j
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
        _check_deadline(deadline)
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
    when time, counted from the call, runs out first, BoundExceededError
    as soon as the listing finds a clique past CLIQUE_BOUND, and
    ValueError for a NaN or negative budget. Nothing about g is kept
    between calls. The scan itself is _scan, which
    recognition.cheapest_representation calls with the cliques, masks
    and deadline it already has."""
    deadline = _deadline(budget_secs)
    # stop listing at the first clique past the bound: K_{3x12} alone
    # has 531 441
    cliques = sorted(map(_members, itertools.islice(_clique_masks(g._adj), CLIQUE_BOUND + 1)))
    return _scan(cliques, _holders(g.n, cliques), g._adj, deadline)


def _scan(
    cliques: list[VertexSet], holders: list[int], adj: tuple[int, ...], deadline: float
) -> EptRepresentation | None:
    """oracle_membership's answer for the graph with neighbour masks adj
    (Graph._adj), these maximal cliques, each sorted, in lexicographic
    order, and their holder masks (_holders). Raises BoundExceededError,
    with oracle_membership's text, when there are more than CLIQUE_BOUND
    cliques, and BudgetExhaustedError once the clock passes deadline."""
    m = len(cliques)
    if m > CLIQUE_BOUND:
        raise BoundExceededError(
            f"oracle limited to {CLIQUE_BOUND} cliques, graph has more than {CLIQUE_BOUND}"
        )
    order = _clique_order(cliques, holders)
    adj_self = [mask | 1 << v for v, mask in enumerate(adj)]
    for shape in tree_shapes(m):
        spans = _assign_cliques(shape, cliques, order, adj_self, deadline)
        if spans is not None:
            return EptRepresentation(shape.host_tree(), tuple(map(shape.path, spans)))
    return None


@functools.lru_cache(maxsize=CORPUS_VERTEX_BOUND + 1)
def _corpus(n: int) -> tuple[Graph, ...]:
    """The graphs on exactly n vertices in the shipped corpus table
    (_tables.GRAPHS), in its order."""
    n = operator.index(n)
    pairs = list(itertools.combinations(range(n), 2))
    graphs = []
    for (mask,) in _table_rows(_tables.GRAPHS).get(n, ()):
        bits = int(mask, 16)
        edges = frozenset(pair for i, pair in enumerate(pairs) if bits >> i & 1)
        graphs.append(Graph._from_checked(n, edges))
    return tuple(graphs)


def small_graph_corpus(n: int, connected_only: bool = False) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices up to isomorphism, in canonical
    order; optionally only the connected ones. They are read from the
    shipped corpus table, built once per n; a non-integer n is a
    TypeError."""
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

"""Gate construction, cataloging and detection.

A gate is built recursively: the base is a chordless cycle on at least
four vertices, and each extension step picks two disjoint maximal
cliques C and C' of the current gate, adds a fresh chordless path
v_1..v_l with l >= 2, and joins v_1 to all of C and v_l to all of C'.
The maximal cliques of the result are the old cliques other than C and
C', the path cliques {v_i, v_i+1}, and the enlarged ends C + {v_1} and
C' + {v_l}; recipes index cliques by position in that re-derived sorted
list, which makes them replayable. A gate with k maximal cliques is
called a k-gate; every vertex of a gate lies in exactly two maximal
cliques whose intersection is that vertex alone.

The catalog of every gate with at most CATALOG_VERTEX_BOUND vertices is
fixed, so it ships as a table, _tables.GATES, which _catalog parses once
per process instead of searching for it. tests/reference.py holds the
search that generates it (reference_catalog, a breadth-first search over
recipes with canonical dedup), and running
`PYTHONPATH=src python tests/reference.py` from the repository root
rewrites the table; tests/test_tables.py compares the two byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from . import _tables
from .graphs import (
    PARSE_VERTEX_BOUND,
    BoundExceededError,
    Edge,
    Graph,
    VertexSet,
    _clique_masks,
    _members,
    canonical_form,
    cycle_graph,
    enumerate_maximal_cliques,
    induced_subgraph,
)

CATALOG_VERTEX_BOUND = 12


class ExtensionStep(NamedTuple):
    """One extension: clique indices into the current clique list plus
    the length of the attached path."""

    clique_a: int
    clique_b: int
    path_len: int


class GateRecipe(NamedTuple):
    """Replayable construction record: base cycle length plus steps."""

    base: int
    steps: tuple[ExtensionStep, ...] = ()

    def clique_count(self) -> int:
        return self.base + sum(s.path_len - 1 for s in self.steps)

    def vertex_count(self) -> int:
        return self.base + sum(s.path_len for s in self.steps)


class LabeledGate(NamedTuple):
    """A gate graph together with its sorted maximal clique list and the
    recipe it was cataloged under. The recipe describes the construction
    of an isomorphic copy; for gates built by build_gate the labeling
    matches the replay exactly."""

    graph: Graph
    cliques: tuple[VertexSet, ...]
    recipe: GateRecipe


def _step(
    n: int, cliques: tuple[VertexSet, ...], step: ExtensionStep
) -> tuple[list[Edge], tuple[VertexSet, ...]]:
    """One extension step on a gate with n vertices and this sorted
    clique list: the edges it adds, each (u, v) with u < v, and the
    re-derived sorted clique list."""
    k = len(cliques)
    for idx in (step.clique_a, step.clique_b):
        if not 0 <= idx < k:
            raise ValueError(f"clique id {idx} out of range, gate has {k} cliques")
    if step.clique_a == step.clique_b:
        raise ValueError("extension needs two distinct cliques")
    a = set(cliques[step.clique_a])
    b = set(cliques[step.clique_b])
    if a & b:
        raise ValueError(
            f"cliques {cliques[step.clique_a]} and {cliques[step.clique_b]} are not disjoint"
        )
    fresh = list(range(n, n + step.path_len))
    added = [(fresh[i], fresh[i + 1]) for i in range(step.path_len - 1)]
    added.extend((u, fresh[0]) for u in a)
    added.extend((u, fresh[-1]) for u in b)
    derived = [c for i, c in enumerate(cliques) if i not in (step.clique_a, step.clique_b)]
    derived.extend((fresh[i], fresh[i + 1]) for i in range(step.path_len - 1))
    derived.append(tuple(sorted(a | {fresh[0]})))
    derived.append(tuple(sorted(b | {fresh[-1]})))
    return added, tuple(sorted(derived))


def build_gate(recipe: GateRecipe) -> LabeledGate:
    """Replay a recipe into a concrete labeled gate. Vertices are
    numbered in construction order: 0..base-1 around the cycle, then
    each step's path vertices in path order. A recipe for more than
    PARSE_VERTEX_BOUND vertices is refused before anything is built.
    The steps add edges and re-derive cliques, and the graph is built
    once, at the end."""
    if recipe.base < 4:
        raise ValueError("gate base cycle needs at least 4 vertices")
    # checked up front so that vertex_count() cannot be pulled under the
    # bound by a negative path length
    if any(step.path_len < 2 for step in recipe.steps):
        raise ValueError("extension path length must be at least 2")
    if recipe.vertex_count() > PARSE_VERTEX_BOUND:
        raise BoundExceededError(
            f"gate limited to {PARSE_VERTEX_BOUND} vertices, recipe has {recipe.vertex_count()}"
        )
    base = cycle_graph(recipe.base)
    cliques = tuple(enumerate_maximal_cliques(base))
    edges = set(base.edges)
    n = base.n
    for step in recipe.steps:
        added, cliques = _step(n, cliques, step)
        edges.update(added)
        n += step.path_len
    graph = Graph._from_checked(n, frozenset(edges))
    if tuple(enumerate_maximal_cliques(graph)) != cliques:
        raise RuntimeError("derived clique list disagrees with enumeration")
    return LabeledGate(graph, cliques, recipe)


def _two_clique_split(adj: tuple[int, ...], mask: int) -> tuple[bool, int]:
    """(True, number of maximal cliques) when every vertex of the
    subgraph induced by mask lies in exactly two maximal cliques meeting
    only in that vertex, else (False, first vertex that does not).

    Vertex v passes when its neighbourhood N inside mask splits into two
    non-empty cliques A and B with no edge between them, and that is
    exactly the two-clique condition:
    - if v passes, every clique holding v lies in N + v and cannot hold
      a vertex of A and one of B, so v's maximal cliques are A + v and
      B + v, and they meet only in v;
    - if v lies in exactly two maximal cliques C1 and C2 with
      C1 & C2 = {v}, then N is the disjoint union of C1 - v and C2 - v,
      as each neighbour lies in a maximal clique with v. Neither part is
      empty, since C1 = {v} would make v isolated and {v} its only
      maximal clique. An edge x-y with x in C1 - v and y in C2 - v would
      put the clique {v, x, y} inside a maximal clique holding v, that
      is inside C1 or C2, and then x or y would lie in C1 & C2 = {v}.
    With x the lowest vertex of N, N splits that way exactly when each u
    in N, together with its neighbours inside N, makes up its own part:
    x with its neighbours inside N, or the rest of N.
    When every vertex passes, each maximal clique is one of its lowest
    vertex's two, so counting the parts above their vertex counts the
    cliques.
    """
    count = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        nbrs = adj[v] & mask
        if not nbrs:
            return False, v
        x = nbrs & -nbrs
        side = (adj[x.bit_length() - 1] & nbrs) | x
        for part in (side, nbrs & ~side):
            if not part:
                return False, v
            todo = part
            while todo:
                u = todo & -todo
                todo ^= u
                if (adj[u.bit_length() - 1] & nbrs) | u != part:
                    return False, v
            if not part & (low - 1):
                count += 1
    return True, count


def check_two_clique_property(g: Graph) -> tuple[bool, int | None]:
    """Whether every vertex lies in exactly two maximal cliques meeting
    only in that vertex; returns the first violating vertex otherwise."""
    ok, found = _two_clique_split(g._adj, (1 << g.n) - 1)
    return (True, None) if ok else (False, found)


def _clique_links(adj: tuple[int, ...], mask: int) -> list[list[int]]:
    """H of the subgraph induced by mask, which passes
    _two_clique_split: a node per maximal clique, numbered as the
    vertices first meet them, and an edge per vertex joining its two
    cliques, as adjacency lists. A vertex's cliques are the two parts of
    its neighbourhood that the split found, and two cliques meet only in
    that vertex, so H has no parallel edges."""
    index: dict[int, int] = {}  # a clique, as a mask -> its node of H
    links: list[list[int]] = []
    for v in _members(mask):
        nbrs = adj[v] & mask
        x = nbrs & -nbrs
        side = adj[x.bit_length() - 1] & nbrs | x
        a, b = (index.setdefault(part | 1 << v, len(index)) for part in (side, nbrs & ~side))
        links += [[] for _ in range(len(index) - len(links))]
        links[a].append(b)
        links[b].append(a)
    return links


def _biconnected(links: list[list[int]]) -> bool:
    """Whether the simple graph with these adjacency lists is connected
    and has no cut node, on two nodes or more: one depth-first search
    from node 0 with low points (Hopcroft & Tarjan 1973). Node 0 is a
    cut node when the search leaves a node unreached after its first
    child, any other node when a child's subtree has no edge to above
    it."""
    depth = [-1] * len(links)
    low = [0] * len(links)
    depth[0] = 0
    stack = [(0, -1, iter(links[0]))]
    while stack:
        u, parent, branch = stack[-1]
        w = next(branch, None)
        if w is None:
            stack.pop()
            if parent == 0:
                return -1 not in depth
            if low[u] >= depth[parent]:
                return False
            low[parent] = min(low[parent], low[u])
        elif depth[w] < 0:
            depth[w] = low[w] = depth[u] + 1
            stack.append((w, u, iter(links[w])))
        elif w != parent:
            low[u] = min(low[u], depth[w])
    return False


def _gate_shaped(adj: tuple[int, ...], mask: int, h: int = 0) -> bool:
    """Whether the subgraph induced by mask passes the two tests every
    gate with more than h maximal cliques passes (see is_gate): the
    two-clique split, with more than h cliques, and a 2-connected H."""
    ok, count = _two_clique_split(adj, mask)
    return ok and count > h and _biconnected(_clique_links(adj, mask))


@functools.lru_cache(maxsize=1)
def _catalog() -> dict[bytes, GateRecipe]:
    """The shipped gate table (_tables.GATES) as enumerate_gates'
    catalog for CATALOG_VERTEX_BOUND, in insertion order. Callers must
    not change the dict, which is cached."""
    catalog: dict[bytes, GateRecipe] = {}
    for line in _tables.GATES.splitlines():
        form, base, *steps = line.split()
        catalog[bytes.fromhex(form)] = GateRecipe(
            int(base), tuple(ExtensionStep(*map(int, step.split(","))) for step in steps)
        )
    return catalog


def enumerate_gates(max_vertices: int = CATALOG_VERTEX_BOUND) -> dict[bytes, GateRecipe]:
    """Catalog of every gate with at most max_vertices vertices, keyed
    by canonical form, in a fixed order: the gates of the shipped table
    (_tables.GATES) that have at most max_vertices vertices. The table
    lists the gates in the order of a breadth-first search over recipes
    with canonical dedup; tests/reference.py holds that search and
    regenerates the table. A non-integer max_vertices is a TypeError."""
    max_vertices = operator.index(max_vertices)
    if max_vertices < 0:
        raise ValueError("vertex count must be non-negative")
    if max_vertices > CATALOG_VERTEX_BOUND:
        raise BoundExceededError(
            f"gate catalog limited to {CATALOG_VERTEX_BOUND} vertices, asked for {max_vertices}"
        )
    return {
        form: recipe
        for form, recipe in _catalog().items()
        if recipe.vertex_count() <= max_vertices
    }


def is_gate(g: Graph) -> GateRecipe | None:
    """The catalog recipe for g's isomorphism class, if g is a gate.

    g is looked up only when it is gate-shaped (_gate_shaped): every
    vertex lies in exactly two maximal cliques meeting only in it, and
    H, a node per maximal clique and an edge per vertex joining its two
    cliques, is 2-connected. Every gate is gate-shaped, so the graphs
    turned away before the lookup are graphs it would miss:
    - a gate's vertices lie in two cliques each (see the module);
    - the base cycle C_n, n >= 4, has H = C_n, which is 2-connected;
    - an extension step between disjoint cliques C and C' with a path
      of l >= 2 vertices turns C and C' into C + v_1 and C' + v_l and
      adds the l - 1 path cliques: in H, an ear of l edges from C to
      C' through l - 1 new nodes. Adding an ear to a 2-connected graph
      keeps it 2-connected (Whitney 1932), and the ear has an inner
      node, so H stays simple (C and C', disjoint, are not adjacent
      anyway).
    Two vertices of a gate-shaped g are adjacent exactly when they
    share a clique, that is when their H-edges share a node: g is the
    line graph of H, so a connected H makes g connected, and no
    connectivity search is needed."""
    if g.n > CATALOG_VERTEX_BOUND:
        raise BoundExceededError(
            f"gate lookup limited to {CATALOG_VERTEX_BOUND} vertices, got {g.n}"
        )
    if g.n < 4 or not _gate_shaped(g._adj, (1 << g.n) - 1):
        return None
    return _catalog().get(canonical_form(g))


def rewire_gate(gate: LabeledGate, v: int, t: int) -> LabeledGate:
    """Replace vertex v by a path w_1..w_t joined to v's two cliques.

    v's maximal cliques C1 and C2 (there are exactly two) lose v; w_1 is
    joined to all of C1 - v and w_t to all of C2 - v. The survivors keep
    their relative order and the path vertices come last. The result is
    again a gate, and is_gate attaches its recipe. A result above 12
    vertices is refused before anything is built.
    """
    g = gate.graph
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if t < 2:
        raise ValueError("replacement path needs at least 2 vertices")
    if g.n - 1 + t > CATALOG_VERTEX_BOUND:
        raise BoundExceededError(
            f"gate lookup limited to {CATALOG_VERTEX_BOUND} vertices, rewiring gives {g.n - 1 + t}"
        )
    holding = [c for c in gate.cliques if v in c]
    if len(holding) != 2:
        raise ValueError(f"vertex {v} is not in exactly two cliques")
    c1, c2 = holding
    keep = [u for u in range(g.n) if u != v]
    pos = {u: i for i, u in enumerate(keep)}
    first = len(keep)
    edges = [(pos[a], pos[b]) for a, b in g.edges if a != v and b != v]
    edges.extend((first + i, first + i + 1) for i in range(t - 1))
    edges.extend((pos[u], first) for u in c1 if u != v)
    edges.extend((pos[u], first + t - 1) for u in c2 if u != v)
    rewired = Graph(len(keep) + t, edges)
    recipe = is_gate(rewired)
    if recipe is None:
        raise RuntimeError("rewiring failed to produce a cataloged gate")
    return LabeledGate(rewired, tuple(enumerate_maximal_cliques(rewired)), recipe)


def _clique_count(adj: tuple[int, ...], limit: int) -> int:
    """The number of maximal cliques of the graph with adjacency masks
    adj, or limit when it has more (graphs._clique_masks, stopped at
    the limit)."""
    return sum(1 for _ in itertools.islice(_clique_masks(adj), limit))


def contains_gate_ge(g: Graph, h: int) -> tuple[VertexSet, GateRecipe] | None:
    """First induced k-gate with k > h, scanning vertex subsets by size
    then lexicographic order. None when no such gate is induced.

    A subset is looked up in the catalog only when it is gate-shaped
    with more than h cliques (_gate_shaped): every vertex lies in
    exactly two of its maximal cliques, meeting only in that vertex, it
    has more than h cliques, and its H is 2-connected. Every k-gate
    with k > h passes (see is_gate), so the subsets skipped hold no
    hit.

    g's maximal cliques bound the subsets worth testing. Let Q be a
    maximal clique of G[S] for a subset S. Q lies in a maximal clique C
    of g, and C & S is a clique of G[S] holding Q, so C & S = Q; thus
    distinct Qs come from distinct Cs. When S passes the two-clique
    test, no Q is a single vertex (that vertex would be isolated), so S
    has at most as many cliques as g has maximal cliques keeping two or
    more vertices in S. Hence:
    - when g has at most h maximal cliques, no subset is a hit;
    - when g has exactly h + 1, a hit keeps two vertices of every one
      of them, so it holds both ends of each 2-vertex maximal clique.
    The search counts g's maximal cliques up to h + 2 (_clique_count),
    then fixes those ends and combines the other vertices. Two
    sets of one size compare lexicographically by the least element of
    their symmetric difference, which the fixed vertices never join, so
    the (size, lex) order is kept. A non-integer h is a TypeError."""
    h = operator.index(h)
    if g.n > CATALOG_VERTEX_BOUND:
        raise BoundExceededError(
            f"gate search limited to {CATALOG_VERTEX_BOUND} vertices, got {g.n}"
        )
    low = max(4, h + 1)
    if low > g.n:
        return None
    adj = g._adj
    k = _clique_count(adj, max(0, h + 2))
    if k <= h:
        return None
    pinned = 0
    if k == h + 1:
        # the edges in no triangle are g's 2-vertex maximal cliques
        for u, w in g.edges:
            if not adj[u] & adj[w]:
                pinned |= 1 << u | 1 << w
    free = [1 << v for v in range(g.n) if not pinned >> v & 1]
    width = g.n - len(free)
    for size in range(max(low, width), g.n + 1):
        for combo in itertools.combinations(free, size - width):
            mask = sum(combo, pinned)
            if not _gate_shaped(adj, mask, h):
                continue
            sub, mapping = induced_subgraph(g, _members(mask))
            recipe = _catalog().get(canonical_form(sub))
            if recipe is not None:
                return mapping, recipe
    return None

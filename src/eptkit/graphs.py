"""Core graph type and small-graph algorithms.

Vertices are integers 0..n-1. Graphs are hashable and always simple
(no loops, no parallel edges), and immutable: assigning or deleting an
attribute raises AttributeError. Operations that return collections
return them in a fixed sorted order so repeated runs produce identical
output.

A Graph builds its adjacency once, as two views (see Graph): neighbour
masks for the readers that intersect neighbourhoods, here and in the
other modules, and sorted neighbour tuples for the readers that walk
neighbours one by one. No reader rebuilds either. A host tree
(representation.HostTree) is a Graph too, with both views.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Iterable, Iterator

VertexSet = tuple[int, ...]
Edge = tuple[int, int]

CANONICAL_VERTEX_BOUND = 16
PARSE_VERTEX_BOUND = 10_000


class GraphParseError(ValueError):
    """Malformed graph or representation text. `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BoundExceededError(ValueError):
    """An input is larger than the configured search bound."""


class BudgetExhaustedError(RuntimeError):
    """The wall-clock budget ran out before the search space did."""


def _check_deadline(deadline: float) -> None:
    """Raise BudgetExhaustedError once the monotonic clock has passed
    deadline; the steps before the scan call it as they go."""
    if time.monotonic() > deadline:
        raise BudgetExhaustedError("budget exhausted before the scan")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Assigning or deleting an attribute raises AttributeError, so a
    graph's hash, and its place in a set or dict, never go stale.
    _fill builds two views of the adjacency once, and no reader
    rebuilds adjacency from the edges:
    - `_adj`, each vertex's neighbours as a bit mask (bit w for
      neighbour w), for the readers that intersect neighbourhoods or
      test one pair: Bron-Kerbosch (_clique_masks), the component search
      (_components), the canonical search and its refinement, has_edge,
      MCS-M's completeness test, the chordality test of the
      maximum-cardinality search, the two-clique test, the atom tests,
      has_asteroidal_triple and the scan;
    - `_nbrs`, each vertex's neighbours as a sorted tuple, for the
      readers that walk them one at a time: the maximum-cardinality
      search, MCS-M's fill search, connected_components,
      induced_subgraph, neighbors and degree.

    neighbors, degree and has_edge refuse a vertex outside 0..n-1;
    the readers inside eptkit index the views directly. The subclass
    representation.HostTree keeps its edges as a sorted tuple, where a
    Graph keeps a frozenset; equality and the hash read n and `_adj`,
    so a HostTree equals, and hashes like, the Graph on its edges.
    """

    __slots__ = ("n", "edges", "_adj", "_nbrs")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        self._fill(n, frozenset(norm))

    @classmethod
    def _from_checked(cls, n: int, edges: frozenset[Edge]) -> Graph:
        """A graph from edges the caller has already range-checked and
        normalized to u < v, without checking them again."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, edges: frozenset[Edge]) -> None:
        adj = [0] * n
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            nbrs[u].append(v)
            nbrs[v].append(u)
        # __setattr__ refuses every assignment
        fill = object.__setattr__
        fill(self, "n", n)
        fill(self, "edges", edges)
        fill(self, "_adj", tuple(adj))
        fill(self, "_nbrs", tuple(tuple(sorted(near)) for near in nbrs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor rather than
        # set the frozen slots one by one
        return type(self), (self.n, self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        _check_vertex(self.n, v)
        return frozenset(self._nbrs[v])

    def degree(self, v: int) -> int:
        _check_vertex(self.n, v)
        return len(self._nbrs[v])

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self.n, u)
        _check_vertex(self.n, v)
        return self._adj[u] >> v & 1 == 1

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _check_vertex(n: int, v: int) -> None:
    """Raise ValueError unless v is a vertex of a graph on 0..n-1."""
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def _text_records(text: str) -> Iterator[tuple[int, str]]:
    """The 1-based line number and stripped text of every line that is
    neither blank nor a '#' comment: the records of the graph and
    representation formats."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_naturals(
    tokens: list[str], message: str, line: int, count: int | None = None
) -> tuple[int, ...]:
    """tokens as counts or vertices: exactly count of them (one or more
    when count is None), each non-empty ASCII decimal digits, so no sign,
    '_' or other script's digit that int() would take. Anything else is
    GraphParseError(message, line)."""
    wrong_count = not tokens if count is None else len(tokens) != count
    if wrong_count or not all(t.isascii() and t.isdigit() for t in tokens):
        raise GraphParseError(message, line)
    try:
        return tuple(map(int, tokens))
    except ValueError:  # more digits than int() converts
        raise GraphParseError(message, line) from None


def _read_edge(line: str, lineno: int, message: str, n: int, edges: set[Edge]) -> None:
    """Add the edge of an edge line "u v" to edges as (u, v) with u < v.
    Tokens that are not two vertices by _read_naturals' rule are
    GraphParseError(message, lineno); a self-loop, a vertex outside
    0..n-1 or an edge already in edges is a GraphParseError at lineno
    too."""
    u, v = _read_naturals(line.split(), message, lineno, 2)
    if u == v:
        raise GraphParseError(f"self-loop at vertex {u}", lineno)
    if not (u < n and v < n):
        raise GraphParseError(f"vertex {v if u < n else u} out of range for n={n}", lineno)
    key = (u, v) if u < v else (v, u)
    if key in edges:
        raise GraphParseError(f"duplicate edge {key[0]} {key[1]}", lineno)
    edges.add(key)


def _utf8_text(data: bytes) -> str:
    """data decoded as UTF-8, the encoding of the graph and
    representation formats. Bytes that are not UTF-8 are a
    GraphParseError naming the line they fall on, numbered as
    _text_records numbers lines."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; the bad one starts a new
        # line exactly when they end with a line break
        line = len((data[: exc.start].decode() + "_").splitlines())
        message = f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        raise GraphParseError(message, line) from None


def parse_graph(text: str | bytes) -> Graph:
    """Parse the line-oriented graph format.

    Line 1 is "n m", followed by m lines "u v" with 0 <= u,v < n and
    u != v. Tokens are whitespace-separated ASCII decimal digits;
    '#'-prefixed comment lines and blank lines are ignored. Bytes are
    read as UTF-8. Raises GraphParseError naming the 1-based line number
    of the first offending line; a header with more than
    PARSE_VERTEX_BOUND vertices is rejected before anything is allocated
    for them.
    """
    if isinstance(text, bytes):
        text = _utf8_text(text)
    header = None
    edges: set[Edge] = set()
    lineno = 1
    for lineno, line in _text_records(text):
        if header is None:
            header = n, m = _read_naturals(line.split(), "expected header 'n m'", lineno, 2)
            if n > PARSE_VERTEX_BOUND:
                raise GraphParseError(
                    f"graph input limited to {PARSE_VERTEX_BOUND} vertices, got {n}", lineno
                )
            continue
        if len(edges) >= m:
            raise GraphParseError(f"more than {m} edge lines", lineno)
        _read_edge(line, lineno, "expected edge line 'u v'", n, edges)
    if header is None:
        raise GraphParseError("empty input, expected header 'n m'", lineno)
    if len(edges) != m:
        raise GraphParseError(f"expected {m} edges, found {len(edges)}", lineno)
    return Graph._from_checked(n, frozenset(edges))


def graph_to_text(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize a graph; edges come out sorted so output is canonical."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {len(g.edges)}")
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def graph_to_dot(g: Graph, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.sorted_edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumerate_maximal_cliques(g: Graph) -> list[VertexSet]:
    """All maximal cliques, each sorted, listed in lexicographic order."""
    return sorted(map(_members, _clique_masks(g._adj)))


def _clique_masks(adj: tuple[int, ...]) -> Iterator[int]:
    """Every maximal clique of the graph with adjacency masks adj (a
    Graph's _adj), as a vertex mask, as Bron-Kerbosch finds it.

    Bron-Kerbosch with pivoting on vertex masks, on its own stack rather
    than Python's; the pivot is the lowest-index vertex of P + X
    maximizing its neighbours in P, and branches go lowest vertex first.
    """
    if not adj:
        return

    def frame(r: int, p: int, x: int) -> list[int]:
        # no vertex of p covers itself, so none covers more than cap
        cap = p.bit_count() - (not x)
        pivot = best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            c = (p & adj[u]).bit_count()
            if c > best:
                best, pivot = c, u
                if c == cap:
                    break
        return [r, p, x, p & ~adj[pivot]]

    stack = [frame(0, (1 << len(adj)) - 1, 0)]
    while stack:
        top = stack[-1]
        r, p, x, branch = top
        if not branch:
            stack.pop()
            continue
        v = branch & -branch
        near = adj[v.bit_length() - 1]
        top[1:] = p ^ v, x | v, branch ^ v
        if p & near:
            stack.append(frame(r | v, p & near, x & near))
        elif not x & near:
            yield r | v


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


def _members(mask: int) -> VertexSet:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _components(adj: tuple[int, ...], rest: int) -> list[tuple[int, int]]:
    """The components of the subgraph on the vertex mask `rest`, in
    order of their lowest vertices, each with the mask of its
    neighbours outside `rest`; adj holds a Graph's _adj."""
    split = []
    while rest:
        part = rest & -rest
        rest ^= part
        reach = adj[part.bit_length() - 1]
        frontier = reach & rest
        while frontier:
            rest ^= frontier
            part |= frontier
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & rest
        split.append((part, reach & ~part))
    return split


def connected_components(g: Graph) -> list[VertexSet]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g._nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, VertexSet]:
    """Induced subgraph plus the index map (new index -> old vertex),
    from the kept vertices' neighbours rather than all of g's edges.
    When every vertex is kept it is g itself, which is frozen, so the
    caller shares it rather than a copy."""
    vs = sorted(set(vertices))
    for v in vs:
        _check_vertex(g.n, v)
    if len(vs) == g.n:
        return g, tuple(vs)
    pos = {v: i for i, v in enumerate(vs)}
    # vs is sorted, so w > v keeps each edge once with its ends in order
    edges = frozenset((i, pos[w]) for i, v in enumerate(vs) for w in g._nbrs[v] if w > v and w in pos)
    return Graph._from_checked(len(vs), edges), tuple(vs)


def _wl_colors(adj: tuple[int, ...]) -> list[int]:
    """Iterated neighbourhood refinement of the graph with adjacency
    masks adj (a Graph's _adj); ranks are isomorphism-invariant."""
    nbrs = list(map(_members, adj))
    degrees = list(map(len, nbrs))
    ranks = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [ranks[d] for d in degrees]
    classes = len(ranks)
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in near]))) for c, near in zip(colors, nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(order) == classes:
            return [order[s] for s in sigs]
        classes = len(order)
        colors = [order[s] for s in sigs]


# canonical_labeling's cache, keyed on the graph's neighbour masks, so
# an entry keeps no Graph: only the masks, the form and the order. Its
# hits are lookups of the same labelled graph, such as find_multipie
# re-checking each gate that gates12 rebuilds from its recipe every
# pass. Measured by tracemalloc over 1 500 misses, an entry takes 768 B
# for a sparse 12-vertex graph and 1 106 B for a dense 16-vertex one,
# and a full cache of dense 16-vertex graphs holds 36 MB. An entry
# leaves the collector no object to walk, since the collector untracks
# a tuple that holds only ints, bytes and such tuples. With the cache
# at its tier-1 peak (21 413 entries) the process holds 84 500
# GC-tracked objects and a full collection takes 0.044 s, about what it
# holds and takes with the cache cleared (85 400, 0.047 s; 2 CPUs,
# Python 3.11.7).
@functools.lru_cache(maxsize=32768)
def _cached_labeling(adj: tuple[int, ...]) -> tuple[bytes, VertexSet]:
    form, order, _ = _canonical_search(adj)
    return form, order


def canonical_labeling(g: Graph) -> tuple[bytes, VertexSet]:
    """Canonical form plus one vertex order that realizes it.

    The form is the maximal adjacency bitstring over an
    isomorphism-invariant family of orders: refinement colors narrow the
    candidates, branch-and-bound keeps only orders whose next adjacency
    row is maximal, interchangeable twin vertices are collapsed, and
    automorphisms found on the way prune subtrees that are images of
    ones already searched. Two graphs get equal forms exactly when they
    are isomorphic.

    Each node of the search costs O(n), though the number of nodes is
    exponential in the worst case. Results are cached, at most 32 768
    of them (cache_info, cache_clear).
    """
    return _cached_labeling(g._adj)


canonical_labeling.cache_info = _cached_labeling.cache_info
canonical_labeling.cache_clear = _cached_labeling.cache_clear


def _canonical_search(adj: tuple[int, ...]) -> tuple[bytes, VertexSet, tuple[VertexSet, ...]]:
    """canonical_labeling's search on the graph g with adjacency masks
    adj (a Graph's _adj), plus a generating set of Aut(g):
    the map best_order[i] -> order[i] for each leaf order whose bits
    equal the best seen so far, and the transposition of each vertex
    with the first vertex of its twin class.

    Each of them is an automorphism: two orders with equal bits give
    equal adjacency matrices, and swapping twins u and v (adjacency
    equal apart from each other) keeps every edge. The transpositions
    of a class with its first vertex generate every transposition
    inside the class.

    Call T the tree of orders without the twin collapse. Its candidates
    at a node are chosen by adjacency to the placed vertices and by
    refinement colors, both invariant, so every automorphism maps T
    onto itself and keeps the bits of each leaf. The search walks T',
    the tree with the collapse, children in vertex order, so it meets
    leaves in the lexicographic order of their vertex sequences. Call L
    the first maximal leaf of T'. The search cuts T' in three ways:
    - bound: a prefix strictly below the best seen, never a prefix of
      a maximal leaf;
    - orbit: before its second or later child v, a node p takes the
      found automorphisms that fix p pointwise and the transpositions
      of unplaced twins, and skips v if the group they generate maps a
      lower vertex onto v. The orbits are recomputed by union-find only
      when an automorphism has turned up since p last did;
    - jump: a leaf M with the best bits, those of the leaf B, gives
      the map b with b(B) = M. If B and M part at node p, B through c
      and M through v, then c < v, as B was met first, and b fixes p;
      the search drops the rest of the subtree of v and goes on at p.

    Walk-down: take a maximal leaf N of T that the search did not
    reach, p the deepest node on its path that the search entered,
    and x the next vertex of N. Then p is not cut by the bound, x is a
    candidate of p, and one of these maps N to a lexicographically
    smaller maximal leaf of T by a product of the generators:
    - x was collapsed into a lower twin u: the transposition (u x);
    - x was skipped by orbit: s^-1, for a product s of generators that
      fixes p and maps a lower vertex onto x;
    - x was dropped by a jump to a node p' above p, from v' to c' < v':
      b^-1, which fixes p' and maps v' to c'.
    Repeated, the walk ends at a maximal leaf the search reached.

    So L is never below a skipped child or a dropped subtree, whose
    lower twin or earlier sibling holds an image of it: from L the walk
    would end at a reached maximal leaf of T' met before L. The search
    reaches L, every leaf met before L has smaller bits, and the form
    and order are those of the search without orbit pruning and jumps.
    The generators generate Aut(g): for an automorphism a, the walk
    turns a(L) by a product h into a reached maximal leaf R. R is L, or
    it came after L and gave the map b with b(L) = R. Both are orders
    of all n vertices, so h a = b and a = h^-1 b.

    Each node costs O(n), apart from the orbits. Every unplaced vertex
    carries its key: its adjacency row to the placed prefix, first
    placed vertex highest, above the inverted refinement color. Placing
    w appends each row's bit for w, and the node's next row is the
    maximal key's. The bits so far are one int, compared by a shift
    with the same-length prefix of the best leaf.

    Twins are collapsed by class, computed once per graph. Being twins,
    N(u) - v = N(v) - u, is an equivalence relation: it is reflexive
    and symmetric, and for u ~ v and v ~ w with u, v, w distinct, true
    and false twins cannot mix. If u is adjacent to v, then u is in
    N(v) - w = N(w) - v, and then w is in N(u) - v = N(v) - u, so all
    three are adjacent. If u is not adjacent to v, neither is w to u
    (else u would be in N(w) - v = N(v) - w), nor v to w (else w would
    be in N(v) - u = N(u) - v), so none are adjacent. Either way v is in
    N(u) exactly when it is in N(w), and every other vertex is in N(u),
    N(v) and N(w) alike, so N(u) - w = N(w) - u. Testing each branch
    vertex against the representatives kept so far therefore finds the
    first branch vertex of its class, which is what the class table
    gives at once.
    """
    n = len(adj)
    if n > CANONICAL_VERTEX_BOUND:
        raise BoundExceededError(
            f"canonical form limited to {CANONICAL_VERTEX_BOUND} vertices, got {n}"
        )
    if n == 0:
        return bytes([0]), (), ()
    colors = _wl_colors(adj)
    twin_class = list(range(n))
    for v in range(n):
        for u in range(v):
            if twin_class[u] == u and adj[v] & ~(1 << u) == adj[u] & ~(1 << v):
                twin_class[v] = u
                break
    # a key is row << shift | low: the larger of two keys has the larger
    # row, or the same row and the smaller color. Placing v turns u's
    # key k into (2 * row + bit) << shift | low = 2 * k + lift[v][u].
    shift = max(colors).bit_length()
    low = [(1 << shift) - 1 - c for c in colors]
    lift = [[((adj[v] >> u & 1) << shift) - low[u] for u in range(n)] for v in range(n)]
    total = n * (n - 1) // 2

    best = -1  # below every bit string
    best_order: list[int] = []
    # automorphisms from the leaves, each with the mask of the vertices
    # it fixes
    found: list[tuple[VertexSet, int]] = []

    def orbit_roots(order: list[int]) -> list[int]:
        """The lowest vertex of each vertex's orbit under the found
        automorphisms that fix every placed vertex and the
        transpositions of unplaced twins."""
        placed = 0
        for v in order:
            placed |= 1 << v
        root = list(range(n))
        firsts: dict[int, int] = {}
        for v in range(n):
            if not placed >> v & 1:
                root[v] = firsts.setdefault(twin_class[v], v)
        for image, fixed in found:
            if placed & ~fixed:
                continue
            for v, w in enumerate(image):
                while root[v] != v:
                    v = root[v]
                while root[w] != w:
                    w = root[w]
                if v != w:
                    root[max(v, w)] = min(v, w)
        # every root link points to a lower vertex, so one pass upwards
        # leaves each vertex linked to its root
        for v in range(n):
            root[v] = root[root[v]]
        return root

    def search(order: list[int], rest: list[int], keys: list[int], bits: int) -> int:
        """Search below the node order; returns the depth of the node
        whose loop goes on, n for the caller's own."""
        nonlocal best, best_order
        if not rest:
            if bits > best:
                best = bits
                best_order = list(order)
            elif bits == best:
                image = [0] * n
                fixed = 0
                for b, v in zip(best_order, order):
                    image[b] = v
                    if b == v:
                        fixed |= 1 << v
                found.append((tuple(image), fixed))
                # jump back to the node where the two leaves part
                d = 0
                while best_order[d] == order[d]:
                    d += 1
                return d
            return n
        top = max(keys)
        # positions in rest of the branch vertices kept: the first of
        # each twin class
        first = keys.index(top)
        reps = [first]
        if keys.count(top) > 1:
            firsts: dict[int, int] = {}
            reps.clear()
            for i in range(first, len(rest)):
                if keys[i] == top and firsts.setdefault(twin_class[rest[i]], i) == i:
                    reps.append(i)
        depth = len(order)
        bits = bits << depth | top >> shift
        # prune only when strictly below the current best prefix
        if bits < best >> (total - depth * (depth + 1) // 2):
            return n
        known = 0  # len(found) when root was last computed
        for i in reps:
            v = rest[i]
            if i != first and found:
                if known != len(found):
                    known = len(found)
                    root = orbit_roots(order)
                # a lower vertex's subtree holds an image of v's
                if root[v] < v:
                    continue
            step = lift[v]
            child_keys = [key + key + step[u] for u, key in zip(rest, keys)]
            del child_keys[i]
            order.append(v)
            resume = search(order, rest[:i] + rest[i + 1 :], child_keys, bits)
            order.pop()
            if resume < depth:
                return resume
        return n

    search([], list(range(n)), low, 0)
    form = bytes([n]) + best.to_bytes((total + 7) // 8 or 1, "big")
    generators = [image for image, _ in found]
    image = list(range(n))
    for v, u in enumerate(twin_class):
        if u != v:
            image[u], image[v] = v, u
            generators.append(tuple(image))
            image[u], image[v] = u, v
    return form, tuple(best_order), tuple(generators)


def canonical_form(g: Graph) -> bytes:
    """Bytes equal for two graphs exactly when they are isomorphic."""
    return canonical_labeling(g)[0]


def isomorphism(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """A vertex map g1 -> g2 if the graphs are isomorphic, else None."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    f1, o1 = canonical_labeling(g1)
    f2, o2 = canonical_labeling(g2)
    if f1 != f2:
        return None
    return {o1[p]: o2[p] for p in range(g1.n)}

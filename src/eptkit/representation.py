"""Host-tree representations of graphs by edge-intersecting paths.

A representation pairs a host tree with one path per graph vertex; two
vertices are adjacent exactly when their paths share a tree edge. For a
tree edge e, the edge set K_e collects the vertices whose paths contain
e; for a claw (three tree edges at one center) the set K_Y collects the
vertices whose paths contain two of its spokes. Every maximal clique of
the derived graph is one of these two kinds (Golumbic & Jamison 1985),
apart from {v} for a single-vertex path, and a representation is Helly
precisely when no maximal clique needs a claw witness. clique_witnesses
reads the candidates off the host tree and keeps the maximal ones.

Pies are the unique representation shape of chordless cycles: a star
with as many spokes as the cycle, each path covering two consecutive
spokes. Multipies generalize pies and are exactly the shape forced by
gates. Gates conversely always admit a star-host representation with
one spoke per maximal clique, which star_representation reads off the
gate's clique list: each vertex's path joins the spokes of its two.
clique_star builds that star for any graph whose vertices each lie in
one or two maximal cliques.

Every reader here works from two indexes a representation builds once:
K_e for each tree edge, and for each path the neighbour pair it covers
at each node it passes through.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from functools import cached_property
from typing import NamedTuple

from .gates import LabeledGate, is_gate
from .graphs import (
    Edge,
    Graph,
    GraphParseError,
    VertexSet,
    induced_subgraph,
    is_connected,
    _read_edge,
    _read_naturals,
    _text_records,
)


class HostTree(Graph):
    """Tree on vertices 0..n-1: a Graph validated at construction to be
    connected and acyclic, whose edges are a sorted tuple. Like every
    Graph it is frozen, so certificates may share one."""

    __slots__ = ()
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges) -> None:
        super().__init__(n, edges)
        if n > 0 and (len(self.edges) != n - 1 or not is_connected(self)):
            raise ValueError("host tree must be connected and acyclic")
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def max_degree(self) -> int:
        return max(map(len, self._nbrs), default=0)

    def __repr__(self) -> str:
        return f"HostTree({self.n}, {list(self.edges)})"


TreePath = tuple[int, ...]


def _path_edges(path: TreePath) -> frozenset[Edge]:
    return frozenset(
        (a, b) if a < b else (b, a) for a, b in zip(path, path[1:])
    )


def _check_path(tree: HostTree, v: int, path: TreePath) -> None:
    """EptRepresentation's rule for the path of vertex v: a non-empty
    walk along edges of tree that repeats no tree vertex. Raises
    ValueError naming v otherwise."""
    if not path:
        raise ValueError(f"path of vertex {v} is empty")
    if len(set(path)) != len(path):
        raise ValueError(f"path of vertex {v} repeats a tree vertex")
    for q in path:
        if not 0 <= q < tree.n:
            raise ValueError(f"path of vertex {v} leaves the tree: {q}")
    for a, b in zip(path, path[1:]):
        if not tree._adj[a] >> b & 1:
            raise ValueError(f"path of vertex {v} uses non-edge ({a}, {b})")


class EptRepresentation:
    """Paths in a host tree, indexed by graph vertex, validated at
    construction and immutable after it. Equal when tree and paths are.

    A path is a tree-vertex sequence; a single-vertex path has no edges
    and represents an isolated vertex.
    """

    tree: HostTree
    paths: tuple[TreePath, ...]

    def __init__(self, tree: HostTree, paths: tuple[TreePath, ...]) -> None:
        for v, path in enumerate(paths):
            _check_path(tree, v, path)
        # __setattr__ refuses every assignment; the cached properties
        # below write to __dict__ as well
        self.__dict__.update(tree=tree, paths=paths)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tree == other.tree and self.paths == other.paths

    def __hash__(self) -> int:
        return hash((self.tree, self.paths))

    def __repr__(self) -> str:
        return f"EptRepresentation(tree={self.tree!r}, paths={self.paths!r})"

    @cached_property
    def path_edge_sets(self) -> tuple[frozenset[Edge], ...]:
        return tuple(_path_edges(p) for p in self.paths)

    @cached_property
    def _edge_holders(self) -> dict[Edge, VertexSet]:
        """K_e for every tree edge, in sorted edge order."""
        holders: dict[Edge, list[int]] = {e: [] for e in self.tree.edges}
        for v, s in enumerate(self.path_edge_sets):
            for e in s:
                holders[e].append(v)
        return {e: tuple(held) for e, held in holders.items()}

    @cached_property
    def _turns(self) -> tuple[dict[int, tuple[int, int]], ...]:
        """For each vertex, every node its path passes through, with the
        two neighbours (lower first) the path covers there."""
        return tuple(
            {c: (a, b) if a < b else (b, a) for a, c, b in zip(p, p[1:], p[2:])}
            for p in self.paths
        )

    @cached_property
    def _graph(self) -> Graph:
        """The derived graph, on the path indices: the pairs inside each
        K_e. A Graph is frozen, so every reader may share it."""
        return Graph(len(self.paths), {
            pair
            for held in self._edge_holders.values()
            for pair in itertools.combinations(held, 2)
        })

    @cached_property
    def _claws(self) -> tuple[tuple[ClawClique, tuple[VertexSet, VertexSet, VertexSet]], ...]:
        """Every covered claw over all the paths, as _covered_claws
        lists them, with the vertices covering each of its pairs."""
        return tuple(
            (claw, tuple(map(tuple, held)))
            for claw, held in _covered_claws(self, range(len(self.paths)))
        )


class EdgeClique(NamedTuple):
    edge: Edge


class ClawClique(NamedTuple):
    center: int
    ends: tuple[int, int, int]


class PieWitness(NamedTuple):
    """Star at center with spoke ends q_1..q_k; the path of cycle[i]
    covers the spokes to spoke_ends[i] and spoke_ends[i+1], cyclically."""

    center: int
    spoke_ends: tuple[int, ...]
    cycle: tuple[int, ...]


class MultipieWitness(NamedTuple):
    """Star at center with k spoke ends; members pairs each graph vertex
    with the two spoke ends its path covers."""

    center: int
    spoke_ends: tuple[int, ...]
    members: tuple[tuple[int, tuple[int, int]], ...]


def edge_intersection_graph(rep: EptRepresentation) -> Graph:
    """Graph on the path indices, adjacent iff paths share a tree edge:
    the pairs inside each K_e. Built once per representation; the
    Graph is frozen, so every call returns the same one."""
    return rep._graph


def verify(rep: EptRepresentation, g: Graph) -> tuple[bool, str | None]:
    """Whether the representation derives exactly g; reports the first
    discrepancy in vertex order otherwise."""
    if len(rep.paths) != g.n:
        raise ValueError(
            f"representation has {len(rep.paths)} paths, graph has {g.n} vertices"
        )
    wrong = rep._graph.edges ^ g.edges
    if not wrong:
        return True, None
    u, v = min(wrong)
    if g.has_edge(u, v):
        return False, f"vertices {u} and {v}: adjacent but paths share no tree edge"
    e = min(rep.path_edge_sets[u] & rep.path_edge_sets[v])
    return False, f"vertices {u} and {v}: non-adjacent but paths share tree edge {e}"


def max_host_degree(rep: EptRepresentation) -> int:
    return rep.tree.max_degree()


def clique_of_edge(rep: EptRepresentation, e: Edge) -> VertexSet:
    """K_e: the vertices whose paths contain tree edge e."""
    a, b = e
    held = rep._edge_holders.get((a, b) if a < b else (b, a))
    if held is None:
        raise ValueError(f"edge {e} not in host tree")
    return held


def clique_of_claw(
    rep: EptRepresentation, center: int, spokes
) -> VertexSet:
    """K_Y: the vertices whose paths contain at least two of the three
    spoke edges of the claw at center."""
    spokes = tuple(spokes)
    if len(spokes) != 3:
        raise ValueError("a claw has exactly 3 spokes")
    norm = []
    for e in spokes:
        a, b = e
        if center not in (a, b):
            raise ValueError(f"spoke {e} does not touch center {center}")
        key = (a, b) if a < b else (b, a)
        if key not in rep._edge_holders:
            raise ValueError(f"spoke {e} not in host tree")
        norm.append(key)
    if len(set(norm)) != 3:
        raise ValueError("claw spokes must be distinct")
    return tuple(
        v
        for v, s in enumerate(rep.path_edge_sets)
        if sum(e in s for e in norm) >= 2
    )


def _covered_claws(
    rep: EptRepresentation, vertices
) -> Iterator[tuple[ClawClique, list[list[int]]]]:
    """Every claw whose three spoke pairs are each covered by a path of
    `vertices`, centers ascending and ends in lexicographic order, with
    the vertices covering its pairs (x, y), (x, z), (y, z), in the order
    of `vertices`. Together they are K_Y within `vertices`."""
    through: dict[int, dict[tuple[int, int], list[int]]] = {}
    for v in vertices:
        for center, pair in rep._turns[v].items():
            through.setdefault(center, {}).setdefault(pair, []).append(v)
    for center, covered in sorted(through.items()):
        # the claws are the triangles x < y < z of the graph of covered
        # pairs; each covered pair (x, y) meets its z in the common
        # neighbours of x and y, so a wide star costs no cubic scan
        near: dict[int, set[int]] = {}
        for x, y in covered:
            near.setdefault(x, set()).add(y)
            near.setdefault(y, set()).add(x)
        for x in sorted(near):
            for y in sorted(q for q in near[x] if q > x):
                for z in sorted(q for q in near[x] & near[y] if q > y):
                    held = [covered[(x, y)], covered[(x, z)], covered[(y, z)]]
                    yield ClawClique(center, (x, y, z)), held


def find_claw_violation(
    rep: EptRepresentation, subset: VertexSet | None = None
) -> tuple[ClawClique, tuple[int, int, int]] | None:
    """Three paths forming a claw: a degree-3 star of the tree whose
    three spoke pairs are each covered by one of the paths. Returns the
    claw and the covering vertices, or None. Scans centers ascending.
    Raises ValueError for a vertex of subset that has no path. Over
    every path in vertex order it reads the representation's claw list,
    which clique_witnesses shares."""
    n = len(rep.paths)
    vertices = range(n) if subset is None else tuple(subset)
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for {n} paths")
    if tuple(vertices) == tuple(range(n)):
        claws = rep._claws
    else:
        claws = _covered_claws(rep, vertices)
    for claw, held in claws:
        return claw, tuple(h[0] for h in held)
    return None


def classify_clique(
    rep: EptRepresentation, c: VertexSet
) -> EdgeClique | ClawClique:
    """Witness for a maximal clique c, as clique_witnesses pairs it: the
    first tree edge e, in sorted order, with K_e = c when one exists,
    else the first claw Y, by center and then ends in lexicographic
    order, with K_Y = c. Raises ValueError when c is not a maximal
    clique or is {v} for a single-vertex path."""
    target = tuple(sorted(c))
    for clique, witness in clique_witnesses(rep):
        if clique == target:
            if witness is None:
                raise ValueError(f"{c} is the clique of a single-vertex path, which has no edge")
            return witness
    raise ValueError(f"{c} is not a maximal clique of the derived graph")


def clique_witnesses(
    rep: EptRepresentation,
) -> list[tuple[VertexSet, EdgeClique | ClawClique | None]]:
    """Every maximal clique of the derived graph, sorted, in
    lexicographic order. Each is paired with the first tree edge e, in
    sorted order, with K_e equal to it; else with the first claw Y, by
    center and then ends in lexicographic order, with K_Y equal to it;
    else with None for the clique {v} of a single-vertex path, which no
    K_e or K_Y holds.

    The candidates are read off the host tree: the non-empty K_e, the
    K_Y of each claw whose three spoke pairs are covered, and {v} for
    each single-vertex path. Each is a clique, and every maximal clique
    is one of them (Golumbic & Jamison 1985), so the maximal candidates
    are the maximal cliques. The claw found for a maximal clique c that
    is no K_e is the first of all claws with K_Y = c: a claw with
    K_Y = c and an uncovered pair would leave every member of c on one
    spoke, the one the covered pairs share, and c, maximal, would equal
    that spoke's K_e.
    """
    candidates: dict[VertexSet, EdgeClique | ClawClique | None] = {}
    for e, held in rep._edge_holders.items():
        if held:
            candidates.setdefault(held, EdgeClique(e))
    for claw, held in rep._claws:
        candidates.setdefault(tuple(sorted(held[0] + held[1] + held[2])), claw)
    for v, path in enumerate(rep.paths):
        if len(path) == 1:
            candidates[(v,)] = None
    holding: list[list[VertexSet]] = [[] for _ in rep.paths]
    for c in candidates:
        for v in c:
            holding[v].append(c)
    return [
        (c, candidates[c])
        for c in sorted(candidates)
        if not any(len(d) > len(c) and set(c).issubset(d) for d in holding[c[0]])
    ]


def is_helly(rep: EptRepresentation) -> tuple[bool, VertexSet | None]:
    """Whether the paths' edge sets satisfy the Helly property; returns
    the first violating maximal clique otherwise.

    Criterion: every maximal clique of the derived graph is an
    edge-clique. Sound because a pairwise edge-intersecting subfamily is
    a complete set, so it lies inside some maximal clique C; when
    C = K_e all its paths share e. Conversely a claw-clique contains
    three paths forming a claw, which pairwise intersect with no common
    edge, and the clique {v} of a single-vertex path is the one-path
    subfamily whose edge set is empty.
    """
    for c, witness in clique_witnesses(rep):
        if not isinstance(witness, EdgeClique):
            return False, c
    return True, None


def find_pie(rep: EptRepresentation, cycle: VertexSet) -> PieWitness:
    """Pie witness for a chordless cycle, given in cyclic vertex order.

    Scans the centers cycle[0]'s path passes through, ascending; the
    spoke order is forced by the consecutive path intersections once a
    center is fixed.
    """
    k = len(cycle)
    if k < 4:
        raise ValueError("a pie needs a cycle of length at least 4")
    inside = set(cycle)
    ring = {(a, b) if a < b else (b, a) for a, b in zip(cycle, [*cycle[1:], cycle[0]])}
    among = {e for e in rep._graph.edges if inside.issuperset(e)}
    if len(inside) != k or among != ring:
        raise ValueError("cycle argument is not a chordless cycle in the derived graph")
    turns = rep._turns
    for center in sorted(turns[cycle[0]]):
        ends = [set(turns[v].get(center, ())) for v in cycle]
        if any(len(a) != 2 for a in ends):
            continue
        shared = [ends[i] & ends[(i + 1) % k] for i in range(k)]
        if any(len(s) != 1 for s in shared):
            continue
        # spoke_ends[i] is shared by the paths of cycle[i-1] and cycle[i]
        spokes = tuple(next(iter(shared[i - 1])) for i in range(k))
        if len(set(spokes)) != k:
            continue
        if all(ends[i] == {spokes[i], spokes[(i + 1) % k]} for i in range(k)):
            return PieWitness(center, spokes, tuple(cycle))
    raise RuntimeError("no pie found: broken representation or bad cycle")


def find_multipie(
    rep: EptRepresentation, gate_vertices: VertexSet, k: int
) -> MultipieWitness:
    """Multipie witness of size k over the paths of an induced k-gate.

    A valid witness satisfies: every member path covers exactly two of
    the k spoke ends; no two members cover the same pair; every spoke
    end is covered by at least two members; no three members form a
    claw. Scans the centers the first member's path passes through,
    ascending; the spoke set is forced to be the union of the members'
    covered neighbor pairs. is_gate checks the gate, so above 12
    vertices this raises BoundExceededError.
    """
    members = tuple(sorted(gate_vertices))
    for a, b in zip(members, members[1:]):
        if a == b:
            raise ValueError(f"vertex {a} appears twice in the gate vertices")
    g = rep._graph
    sub, _ = induced_subgraph(g, members)
    recipe = is_gate(sub)
    if recipe is None or recipe.clique_count() != k:
        raise ValueError(f"vertices {gate_vertices} do not induce a {k}-gate")
    if find_claw_violation(rep, members) is not None:
        raise RuntimeError("no multipie found: broken representation or bad gate")
    turns = rep._turns
    for center in sorted(turns[members[0]]):
        pairs = {v: turns[v].get(center) for v in members}
        if None in pairs.values():
            continue
        spoke_set = {q for pair in pairs.values() for q in pair}
        if len(spoke_set) != k:
            continue
        if len(set(pairs.values())) != len(members):
            continue
        if any(sum(q in pair for pair in pairs.values()) < 2 for q in spoke_set):
            continue
        return MultipieWitness(
            center,
            tuple(sorted(spoke_set)),
            tuple((v, pairs[v]) for v in members),
        )
    raise RuntimeError("no multipie found: broken representation or bad gate")


def parse_representation(text: str) -> EptRepresentation:
    """Parse the line format: "t_n t_m" header, t_m tree-edge lines
    "a b", then one line "v : p_0 p_1 ..." per graph vertex, every
    number ASCII decimal digits. Blank lines and '#' comments are
    skipped. Each record is checked as it is read, so an error names
    the line of its record; a tree that is not connected and acyclic
    names the header."""
    rows = list(_text_records(text))
    if not rows:
        raise GraphParseError("empty representation", line=1)
    line_no, header = rows[0]
    t_n, t_m = _read_naturals(header.split(), f"malformed header {header!r}", line_no, 2)
    if t_n >= 1 and t_m != t_n - 1:
        raise GraphParseError(
            f"a tree on {t_n} vertices has {t_n - 1} edges, not {t_m}", line=line_no
        )
    if len(rows) - 1 < t_m:
        raise GraphParseError(f"expected {t_m} tree edges", line=rows[-1][0])
    edges: set[Edge] = set()
    for line_no, row in rows[1 : 1 + t_m]:
        _read_edge(row, line_no, f"malformed edge line {row!r}", t_n, edges)
    try:
        tree = HostTree(t_n, edges)
    except ValueError as exc:  # the edge lines are checked: only the shape is left
        raise GraphParseError(str(exc), line=rows[0][0]) from exc
    seen: dict[int, TreePath] = {}
    for line_no, row in rows[1 + t_m :]:
        head, sep, rest = row.partition(":")
        message = f"malformed path line {row!r}"
        (v,) = _read_naturals(head.split() if sep else [], message, line_no, 1)
        if v in seen:
            raise GraphParseError(f"duplicate path for vertex {v}", line=line_no)
        seen[v] = path = _read_naturals(rest.split(), message, line_no)
        try:
            _check_path(tree, v, path)
        except ValueError as exc:
            raise GraphParseError(str(exc), line=line_no) from exc
    if sorted(seen) != list(range(len(seen))):
        missing = next(i for i in range(len(seen) + 1) if i not in seen)
        raise GraphParseError(f"missing path for vertex {missing}", line=rows[-1][0])
    return EptRepresentation(tree, tuple(seen[v] for v in range(len(seen))))


def representation_to_text(rep: EptRepresentation, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{rep.tree.n} {len(rep.tree.edges)}")
    lines.extend(f"{a} {b}" for a, b in rep.tree.edges)
    lines.extend(
        f"{v} : " + " ".join(str(q) for q in path)
        for v, path in enumerate(rep.paths)
    )
    return "\n".join(lines) + "\n"


def representation_to_dot(rep: EptRepresentation) -> str:
    """Host tree in DOT, each edge annotated with the graph vertices
    whose paths use it."""
    lines = ["graph host {"]
    for q in range(rep.tree.n):
        lines.append(f"  t{q} [label=\"{q}\"];")
    for (a, b), held in rep._edge_holders.items():
        users = ",".join(map(str, held))
        label = f" [label=\"{users}\"]" if users else ""
        lines.append(f"  t{a} -- t{b}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def clique_star(n: int, cliques: Sequence[VertexSet]) -> EptRepresentation:
    """The star on centre 0 whose spoke i + 1 stands for cliques[i].
    Vertex v of 0..n-1 gets the path (a, 0, b) when a < b are the spokes
    of its two cliques, and (0, a) when it lies in cliques[a - 1] alone.

    When `cliques` are the maximal cliques of a graph g, this is a Helly
    representation of g. Two vertices are adjacent when they share a
    clique, that is when their paths share a spoke, so the derived graph
    is g. No three cliques pairwise meet: the three shared vertices
    would form a clique, which would have to lie in a third clique of
    one of them. So no claw is covered, and every maximal clique of the
    derived graph is one spoke's K_e. Raises ValueError for the first
    clique vertex outside 0..n-1, then for the first vertex in no
    clique or in more than two.
    """
    spokes: list[list[int]] = [[] for _ in range(n)]
    for i, c in enumerate(cliques, start=1):
        for v in c:
            if not 0 <= v < n:
                raise ValueError(f"clique {tuple(c)} holds vertex {v}, out of range for n={n}")
            spokes[v].append(i)
    for v, ends in enumerate(spokes):
        if not 1 <= len(ends) <= 2:
            raise ValueError(f"vertex {v} lies in {len(ends)} maximal cliques, not 1 or 2")
    m = len(cliques)
    tree = HostTree(m + 1, [(0, i) for i in range(1, m + 1)])
    return EptRepresentation(
        tree, tuple((ends[0], 0, ends[1]) if len(ends) == 2 else (0, ends[0]) for ends in spokes)
    )


def star_representation(gate: LabeledGate) -> EptRepresentation:
    """Helly representation of a k-gate on a star host with k spokes:
    clique_star on gate.cliques, so vertex v gets the path (a, 0, b)
    through the spokes a < b of its two cliques. Raises ValueError for
    a vertex in other than two cliques."""
    rep = clique_star(gate.graph.n, gate.cliques)
    for v, path in enumerate(rep.paths):
        if len(path) != 3:
            raise ValueError(f"vertex {v} lies in 1 maximal cliques, not 2")
    return rep

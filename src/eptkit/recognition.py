"""The decision pipeline: Helly EPT membership and the minimum host
degree.

cheapest_representation decides membership in up to four steps.
First the atom test: a graph one of whose clique-separator atoms is
neither complete nor line-like is no member, and that atom is the
witness. A chordal graph passes without being decomposed: the
maximum-cardinality search that finds it chordal (_chordal_cliques)
also lists its maximal cliques and a clique tree, and all its atoms
are complete. Nor is a graph that the two-clique test and a 2-connected
clique graph show to be one atom (_one_atom_count); every other
non-chordal graph is decomposed on vertex masks (decomposition.
_atom_masks), with one component search of g - S per clique minimal
separator S (decomposition._separator_splits). Then, for a
non-chordal graph, the pendant filter and the star (_pendant_answer),
and for every graph the side test (_side_witness), which names its odd
cycle of components in a SideWitness. Both answer at any clique count,
and both read one table of what hangs off each maximal clique, built
from the split loop's components of each g - S, with no search of its
own (_separator_table), or from the clique tree (_clique_tree_table).
Every other graph goes to the oracle's exhaustive bijection-tree
search (oracle._scan), which also yields the certificate. The route
hands it the maximal cliques it has already listed, by the
maximum-cardinality search or by one Bron-Kerbosch on the graph's
neighbour masks, and its own deadline; connectivity is
settled by the route's own checks, not by a search of its own (see
cheapest_representation). is_helly_ept is that search alone, from a
connectivity search and a clique listing of its own: the reference the
tests compare with. For a member, h rests on the certificate and the
atoms (see cheapest_representation).
is_interval and has_asteroidal_triple are standalone tests off that
route; the tests use them as its independent reference. The
independent characterization says non-membership at degree h is
equivalent to an induced gate with more than h cliques
(gates.contains_gate_ge); the tests compare both routes.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import NamedTuple

from .decomposition import Splits, _atom_masks, _separator_splits
from .gates import _two_clique_split
from .graphs import (
    Graph,
    VertexSet,
    _check_deadline,
    _clique_masks,
    _components,
    _mask,
    _members,
    is_connected,
)
from .oracle import _clique_order, _scan, oracle_membership, resolve_budget_secs
from .representation import EptRepresentation, clique_star, max_host_degree


class SideWitness(NamedTuple):
    """An odd cycle of components of g - clique, each forced to the
    other side of the clique's host edge from the next, and the last
    from the first (_side_witness). attachments[i] is the set of the
    clique's vertices with a neighbour in components[i]."""

    clique: VertexSet
    components: tuple[VertexSet, ...]
    attachments: tuple[VertexSet, ...]


class RecognitionResult(NamedTuple):
    """Outcome of cheapest_representation. When helly_ept, h is the
    minimum host degree (at least 2) and certificate, when attached,
    is a verified Helly representation of that degree or lower. When
    not, obstruction, when attached, is the vertex set in g of an atom
    that is neither complete nor line-like, and side_witness, when
    attached, is an odd cycle of components at a separating maximal
    clique. Without either, a vertex lies in three maximal cliques that
    separate nothing (the pendant filter in _pendant_answer) or the
    exhaustive search ruled g out."""

    helly_ept: bool
    h: int | None
    certificate: EptRepresentation | None
    obstruction: VertexSet | None = None
    side_witness: SideWitness | None = None


def _chordal_cliques(g: Graph) -> tuple[list[VertexSet], list[int]] | None:
    """The maximal cliques of a chordal g, listed as
    enumerate_maximal_cliques lists them, and a clique forest on them,
    one tree per component of g: parent[i] is the index of clique i's
    parent, -1 at a root. None when g is not chordal. One
    maximum-cardinality search, in O(n + m) steps before the sort:
    unvisited vertices wait in buckets by weight, and each vertex's
    chordality test is one test on n-bit masks.

    The search visits v_1..v_n, and N_i is the set of v_i's neighbours
    visited before it, of size w_i. g is chordal exactly when, for u
    the latest visited vertex of N_i, N_i - u lies in N(u) for every i:
    the reversed visit order is then a perfect elimination ordering
    (Tarjan & Yannakakis 1984). For a chordal g, N_i + v_i is a maximal
    clique exactly when i = n or w_(i+1) <= w_i, and each of these
    i < n starts a new clique at v_(i+1). Its parent is the clique that
    was growing when the latest visited vertex of N_(i+1) was visited,
    and their intersection is N_(i+1), empty where a new component
    starts (Blair & Peyton 1993).
    """
    n = g.n
    adj, nbrs = g._adj, g._nbrs
    buckets: list[set[int]] = [set(range(n))] + [set() for _ in range(n)]
    weight = [0] * n
    visited_at = [-1] * n
    grown_in = [0] * n  # the clique that was growing when v was visited
    top = 0
    found: list[list[int]] = []
    parents: list[int] = []
    prev: list[int] = []  # N_(i-1) + v_(i-1)
    visited = 0  # mask of v_1..v_(i-1)
    for i in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        visited_at[v] = i
        earlier = []
        latest = last = -1
        for u in nbrs[v]:
            at = visited_at[u]
            if at < 0:
                w = weight[u]
                buckets[w].remove(u)
                buckets[w + 1].add(u)
                weight[u] = w + 1
            else:
                earlier.append(u)
                if at > latest:
                    latest, last = at, u
        # N_i - u lies in N(u) for u = last: u is all of N_i - N(u)
        if earlier and adj[v] & visited & ~adj[last] != 1 << last:
            return None
        visited |= 1 << v
        if not prev or len(earlier) < len(prev):
            if prev:
                found.append(prev)
            parents.append(grown_in[last] if earlier else -1)
        grown_in[v] = len(parents) - 1
        earlier.append(v)
        prev = earlier
        top += 1  # a step raises the maximum weight by at most one
    if prev:
        found.append(prev)
    cliques = [tuple(sorted(c)) for c in found]
    order = sorted(range(len(cliques)), key=cliques.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return [cliques[i] for i in order], [-1 if parents[i] < 0 else rank[parents[i]] for i in order]


def is_chordal(g: Graph) -> bool:
    """Whether g has no chordless cycle of length 4 or more
    (_chordal_cliques)."""
    return _chordal_cliques(g) is not None


def has_asteroidal_triple(g: Graph) -> bool:
    """Three pairwise non-adjacent vertices, each pair joined by a path
    avoiding the third's closed neighborhood: each two share a component
    of g - N[c] for the third vertex c, labelled once per vertex."""
    adj = g._adj
    label = []  # label[c][v]: v's component of g - N[c], -1 inside N[c]
    for c in range(g.n):
        where = [-1] * g.n
        for i, (part, _) in enumerate(_components(adj, (1 << g.n) - 1 & ~adj[c] & ~(1 << c))):
            for v in _members(part):
                where[v] = i
        label.append(where)
    return any(
        label[c][a] == label[c][b] != -1
        and label[b][a] == label[b][c] != -1
        and label[a][b] == label[a][c] != -1
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


def is_interval(g: Graph) -> bool:
    """Chordal and free of asteroidal triples (Lekkerkerker & Boland)."""
    return is_chordal(g) and not has_asteroidal_triple(g)


def is_helly_ept(g: Graph, budget_secs: float | None = None) -> EptRepresentation | None:
    """A verified Helly representation of g, or None when exhaustive
    bijection-tree search rules one out (oracle.oracle_membership, after
    a connectivity search). ValueError for a disconnected or empty g."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("input graph must be connected")
    return oracle_membership(g, budget_secs=budget_secs)


def _twin_representatives(adj: tuple[int, ...], vertices: int) -> int:
    """The lowest vertex of each class of true twins (equal closed
    neighbourhoods) of g[vertices], as a mask, for the graph g with
    adjacency masks adj. Twins of one class have the same neighbours in
    every other class, so the subgraph these induce is the twin
    quotient, with a vertex per class."""
    reps = 0
    seen: set[int] = set()  # closed neighbourhoods met so far
    rest = vertices
    while rest:
        low = rest & -rest
        rest ^= low
        closed = adj[low.bit_length() - 1] & vertices | low
        if closed not in seen:
            seen.add(closed)
            reps |= low
    return reps


def _atom_clique_count(adj: tuple[int, ...], atom: int) -> int | None:
    """1 for a complete atom, its clique count for a line-like one and
    None for any other, for the atom g[atom] of the graph g with
    adjacency masks adj, from gates._two_clique_split on the true-twin
    quotient (_twin_representatives).

    True twins lie in the same maximal cliques, so the quotient's
    maximal cliques match the atom's one to one; a complete atom is one
    class. In an atom A that is not complete, no vertex v lies in one
    maximal clique C only, or C - v would separate v from the rest of
    A. If every vertex lies in at most two, v in C1 and C2, any other u
    in C1 & C2 has N[u] = C1 + C2 = N[v] and is v's twin. So in the
    quotient v's two cliques meet only in v: the two-clique property.
    Conversely, that property lifts back to A with the same count.

    Line-like means every vertex lies in exactly two maximal cliques,
    and H is 2-connected and triangle-free, where H has one node per
    clique and one edge per distinct clique pair held by a vertex. In
    an atom A that is not complete it is enough that no vertex lies in
    three cliques, as A is connected and has no clique separator:
    - a triangle C1 C2 C3 in H: the vertices held by its three pairs
      form a clique, so they lie in one maximal clique, yet each lies
      in only two of C1, C2, C3 and in no other;
    - H is connected as A is. A cut node C of H: each edge of A - C
      lies in a clique other than C, so its ends' H-edges share a node
      of H - C. Each component of H - C holds a clique D, and a vertex
      of D - C (not empty, as D is maximal) has its H-edge there. So
      A - C has vertices in two components of H - C with no edge
      between them, and the clique C would separate A.
    """
    reps = _twin_representatives(adj, atom)
    if not reps & (reps - 1):
        return 1
    ok, count = _two_clique_split(adj, reps)
    return count if ok else None


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


def _one_atom_count(adj: tuple[int, ...], deadline: float = math.inf) -> int | None:
    """The clique count of the graph g with adjacency masks adj when g
    is one atom that passes the atom test, found without decomposing
    it; None when this test cannot tell. Raises BudgetExhaustedError
    once the monotonic clock passes deadline, checked after the twin
    quotient and after the two-clique test.

    Say the two-clique test passes on g's twin quotient
    (_atom_clique_count), and H, a node per maximal clique and an edge
    per vertex joining its two cliques, is 2-connected. Then g has no
    clique separator. True twins lie in the same maximal cliques, so
    every vertex of g lies in exactly two, and g has the same H. A
    complete set S lies in a maximal clique C0. Each other maximal
    clique C keeps C - C0, not empty, in g - S, and C - S is complete.
    An H-edge CD with C, D other than C0 is a vertex in C and D only,
    so outside S, and it joins C - S to D - S. H - C0 is connected, so
    the sets C - S for C other than C0 lie in one component of g - S.
    Every vertex outside S lies in one of them, being in two cliques,
    so g - S is connected. With S empty, g is connected. So g is its
    own only atom, and the atom test on it is the two-clique test that
    passed, with its clique count.

    H is read off the quotient: the cliques of a vertex are the two
    parts of its neighbourhood that the two-clique test found, and two
    of them meet only in that vertex, so H has no parallel edges."""
    reps = _twin_representatives(adj, (1 << len(adj)) - 1)
    _check_deadline(deadline)
    ok, count = _two_clique_split(adj, reps)
    if not ok:
        return None
    _check_deadline(deadline)
    index: dict[int, int] = {}  # a clique of the quotient -> its node of H
    links: list[list[int]] = []
    for v in _members(reps):
        nbrs = adj[v] & reps
        x = nbrs & -nbrs
        side = adj[x.bit_length() - 1] & nbrs | x
        a, b = (index.setdefault(part | 1 << v, len(index)) for part in (side, nbrs & ~side))
        links += [[] for _ in range(len(index) - len(links))]
        links[a].append(b)
        links[b].append(a)
    return count if _biconnected(links) else None


# A row of the separator table: a clique minimal separator S and the
# full components of g - S in classes of equal traces, with the first
# four of each by lowest vertex. A table lists at each maximal clique K
# the rows inside K, each with the component of g - S holding K - S (0
# when K = S), as vertex masks.
Row = tuple[int, list[tuple[frozenset[int], list[int]]]]


def _holding(n: int, masks: list[int]) -> list[list[int]]:
    """For each of n vertices, the indices of the cliques holding it."""
    holding: list[list[int]] = [[] for _ in range(n)]
    for k, c in enumerate(masks):
        for v in _members(c):
            holding[v].append(k)
    return holding


def _separator_table(
    n: int, masks: list[int], splits: Splits, deadline: float
) -> tuple[list[bool], list[list[tuple[Row, int]]]]:
    """Whether each maximal clique separates the connected g on n
    vertices, and the table, for maximal cliques `masks` and the clique
    minimal separators with the components of g - S that the split loop
    also reads (decomposition._separator_splits): the table searches no
    graph itself. The traces of a component D of g - S are the sets
    L & S of two vertices or more, L a maximal clique meeting D; a
    separator of one vertex has no classes. Raises BudgetExhaustedError
    once the clock passes deadline, checked once per separator.

    F1: the components of g - K come from the separators inside K. Let
    D be one with attachments A = N(D) other than K. K - A is not empty
    and complete to A, so it lies in a full component of g - A other
    than D, and two full components make A a clique minimal separator.
    Conversely a full component of g - S that misses K, for S inside K,
    is a component of g - K attached at S. So the components of g - K
    are the full components of g - S missing K, all but the one holding
    K - S, each listed once under its attachments, and at most one more,
    attached to all of K: two would make K a separator, listing them.
    The other components of g - S all miss K, so each is listed, under
    S or its own attachments. So the leftover is what the components
    holding K - S share outside K. It gets a row of its own at each K
    that separates g (F2); at any other K, g - K is one component at
    most, too few for the side test. A clique L meeting D lies in
    D + S, so L & K = L & S: D's traces, and so its twin class, are the
    same at every K holding S.

    F2: a maximal clique C separates g exactly when some separator S
    inside C leaves two components of g - S not inside C; only the one
    holding C - S can be, when it is C - S. If: the clique C - S lies in
    one of them at most, so the other, D, misses C; N(D) lies in C, so D
    is a component of g - C, cut from the first one's part outside C.
    Only if: take a and b in different components of g - C, and S a
    minimal subset of C separating them, a clique minimal separator; a
    and b lie outside C in different components of g - S.
    """
    separating = [False] * len(masks)
    table: list[list[tuple[Row, int]]] = [[] for _ in masks]
    if not splits:  # one atom: no clique separates g, and no row is read
        return separating, table
    everything = (1 << n) - 1
    holding = _holding(n, masks)
    for sep, split in splits:
        _check_deadline(deadline)
        row: Row = (sep, [])
        # a clique holding two vertices of sep holds one but the most held
        by_use = sorted(_members(sep), key=lambda v: len(holding[v]))
        outs = {k: masks[k] & ~sep for v in by_use[:-1] or by_use for k in holding[v]}
        wanted = sum({out & -out for out in outs.values()})
        where = {v: i for i, (part, _) in enumerate(split) for v in _members(part & wanted)}
        traces: list[set[int]] = [set() for _ in split]
        for k, out in outs.items():
            meet, i = masks[k] & sep, where.get((out & -out).bit_length() - 1)
            if meet == sep:
                home = 0 if i is None else split[i][0]
                table[k].append((row, home))
                separating[k] |= len(split) > 2 or home != out or not home
            if i is not None and meet & (meet - 1):
                traces[i].add(meet)
        classes: dict[frozenset[int], list[int]] = {}
        for i, (part, attach) in enumerate(split):
            if attach == sep and sep & (sep - 1):
                classes.setdefault(frozenset(traces[i]), []).append(part)
        row[1].extend((key, parts[:4]) for key, parts in classes.items())
    for k, clique in enumerate(masks):
        if not separating[k]:
            continue  # no leftover row: g - K is connected (F2)
        rest = everything & ~clique
        for _, home in table[k]:
            rest &= home
        if rest:
            by_use = sorted(_members(clique), key=lambda v: len(holding[v]))
            meets = {masks[j] & clique for v in by_use[:-1] for j in holding[v] if masks[j] & rest}
            traces_left = frozenset(t for t in meets if t & (t - 1))
            table[k].append(((clique, [(traces_left, [rest])]), 0))
    return separating, table


def _clique_tree_table(n: int, masks: list[int], parent: list[int]) -> list[list[tuple[Row, int]]]:
    """The table of a connected chordal g on n vertices for the side
    test, read off its clique tree T (parent, _chordal_cliques).

    Delete from T every edge whose separator, the intersection of its
    two cliques, lies in K; that isolates K. The cliques holding a
    vertex v outside K form a subtree of T whose edges all hold v, so
    they stay together, and an edge of g - K lies in a clique with both
    its ends. So the subtrees left other than K match the components
    C_i of g - K, each made of the cliques Q_i meeting its component.
    Each subtree hangs from one deleted edge, the first on its path to
    K, whose far clique R lies on the path from any clique L of Q_i to
    K. By the clique-intersection property L & K lies in R, and R & K
    lies in the separator S. So A_i is S, and R holds it: C_j lies
    beyond C_i exactly when A_j lies in A_i, and no component is
    attached to all of K. Equal separators never relate, nor do those
    of one vertex, so each distinct one of two vertices or more inside
    K is one class, traces {S}, with one component given as 0: the
    first component of g - K attached at S. No row holds a home (-1).
    An odd cycle needs three classes, so with fewer distinct separators
    the table is left empty.
    """
    edges = (masks[i] & masks[p] for i, p in enumerate(parent) if p >= 0)
    seps = dict.fromkeys(sep for sep in edges if sep & (sep - 1))  # in order, without repeats
    table: list[list[tuple[Row, int]]] = [[] for _ in masks]
    if len(seps) < 3:
        return table
    holding = _holding(n, masks)
    for sep in seps:
        row = (sep, [(frozenset((sep,)), [0])])
        for k in holding[min(_members(sep), key=lambda v: len(holding[v]))]:
            if not sep & ~masks[k]:
                table[k].append((row, -1))
    return table


def _odd_cycle(links: list[list[int]]) -> list[int] | None:
    """An odd cycle of the graph with these adjacency lists, its nodes
    in cycle order, or None when the graph is bipartite. Breadth-first
    2-colouring: an edge inside one colour joins two nodes at one depth,
    and their paths up to their first common ancestor close an odd
    cycle."""
    depth = [-1] * len(links)
    parent = [-1] * len(links)
    for root in range(len(links)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for u in queue:
            for w in links[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif depth[w] == depth[u]:
                    up, down = [u], [w]
                    while up[-1] != down[-1]:
                        up.append(parent[up[-1]])
                        down.append(parent[down[-1]])
                    return up + down[-2::-1]
    return None


def _side_cycle(sides: list[tuple[int, set[int]]]) -> list[int] | None:
    """The side test at a maximal clique K: an odd cycle, as indices in
    cycle order, of components of g - K that each lie on the other side
    of K's host edge from the next, and the last from the first; None
    when there is none. sides[i] describes the component C_i: A_i, the
    vertices of K with a neighbour in C_i, and the traces L & K of the
    maximal cliques L that meet C_i and K, as masks.

    Let Q_i be the set of maximal cliques meeting C_i. A clique L other
    than K has a vertex outside K, and those lie in one C_i, so L is in
    exactly one Q_i, and L & K lies in A_i. Say C_j lies beyond C_i
    when A_j lies in A_i and in one clique of Q_i.

    The lemma. Take a normal form (oracle.py) of a member g, and let e
    be K's edge. The paths of C_i's vertices avoid e and those of
    adjacent vertices share an edge, so Q_i, the edges they cover, is a
    subtree on one side of e. Suppose C_i and C_j lie on one side and v
    is in A_i and A_j. v's path P holds e, an edge of Q_i and one of
    Q_j. A path meets a subtree in a subpath, and Q_i and Q_j share no
    edge; say P meets Q_i first, going out from e, and f is P's first
    edge in Q_j, z its end nearer e. The edge of P before f ends at z
    and is not in Q_j, so the subtree Q_j lies beyond z, away from e.
    The path of any u in A_j holds e and an edge of Q_j, so it holds
    every edge of P from e to z, among them P's edges in Q_i. So u is
    in A_i, and any clique of Q_i on P holds all of A_j: C_j lies
    beyond C_i.

    So when A_i and A_j meet and neither of C_i and C_j lies beyond the
    other, they lie on opposite sides of e, and in a member this
    relation is 2-coloured by the two sides. An odd cycle rules g out.
    A component with one attachment x relates to none: if x is in A_j,
    a clique of Q_j holds x, so C_i lies beyond C_j. So callers may
    leave such components out, and traces of one vertex with them.
    """

    def beyond(i: int, j: int) -> bool:
        a = sides[j][0]
        return not a & ~sides[i][0] and any(not a & ~t for t in sides[i][1])

    links: list[list[int]] = [[] for _ in sides]
    for i in range(len(sides)):
        for j in range(i):
            if sides[i][0] & sides[j][0] and not beyond(i, j) and not beyond(j, i):
                links[i].append(j)
                links[j].append(i)
    return _odd_cycle(links)


def _side_witness(
    g: Graph, masks: list[int], table: list[list[tuple[Row, int]]], deadline: float
) -> SideWitness | None:
    """The first maximal clique K of the connected g, in the order of
    `masks`, at which the side test (_side_cycle) finds an odd cycle,
    with that cycle; None when there is none. The table gives the
    components of g - K (F1 in _separator_table): the full components
    of g - S but the one holding K - S, for each separator S of two
    vertices or more inside K, and the leftover. They go in order of
    lowest vertex, as a search of g - K lists them; fewer than three
    hold no cycle. Raises BudgetExhaustedError past deadline.

    Only the first three of each class of twins, equal in attachments
    and traces, go to _side_cycle. Twins relate alike to every other
    component, and to each other exactly when no trace holds their
    attachments: a class is a clique or an independent set of the
    relation. Dropping one of two members of an independent set with
    equal neighbours keeps a 2-colouring, and three members of a clique
    close a triangle, so the cap keeps every odd cycle's existence, and
    r twins cost O(1) at each of r cliques."""
    for k, clique in enumerate(masks):
        sides = []
        for (attach, twins), home in table[k]:
            for traces, parts in twins:
                sides += [(part, attach, traces) for part in parts if part != home][:3]
        if len(sides) < 3:
            continue
        _check_deadline(deadline)
        sides.sort(key=lambda side: side[0] & -side[0])
        cycle = _side_cycle([(attach, traces) for _, attach, traces in sides])
        if cycle is not None:
            on_cycle = [sides[x] for x in cycle]
            parts = [part for part, _, _ in on_cycle]
            if not all(parts):  # a clique-tree table names no component
                split = _components(g._adj, (1 << g.n) - 1 & ~clique)
                parts = [part or next(p for p, a in split if a == attach) for part, attach, _ in on_cycle]
            attached = tuple(_members(attach) for _, attach, _ in on_cycle)
            return SideWitness(_members(clique), tuple(map(_members, parts)), attached)
    return None


def _pendant_answer(
    g: Graph, cliques: list[VertexSet], masks: list[int], splits: Splits, k: int, deadline: float
) -> RecognitionResult | None:
    """The answer for a non-chordal g, with these maximal cliques in
    lexicographic order, each also as a vertex mask, and these
    decomposition._separator_splits, whose atoms passed the atom test
    with k the largest atom clique count, when its maximal cliques
    decide it; None when the scan must. Raises BudgetExhaustedError
    once the monotonic clock passes deadline.

    The internal-edge lemma. In a normal form (oracle.py: a host tree
    whose edges are g's maximal cliques, each vertex's path made of the
    edges of its cliques), the clique K_e of every internal edge e
    separates g. Each side of e holds another edge D. By maximality
    K_D has a vertex outside K_e, whose path holds D but not e and so
    stays on D's side. Adjacent vertices share an edge, so every path
    in g between the two such vertices, one per side, passes a vertex
    whose path crosses e, that is a vertex of K_e. Hence a maximal
    clique that separates nothing is a leaf edge of every normal form.
    The separator table tells which cliques separate g (F2).

    The pendant filter. A path in a tree holds at most two leaf edges,
    its end edges, so in a member no vertex lies in three maximal
    cliques that separate nothing. A g with such a vertex is answered
    no, without the scan and at any clique count.

    No separating clique means a star. Then every edge of a normal form
    is a leaf edge, and a tree with no internal edge is a star. A
    vertex's path in a star covers one or two spokes, so g is a member
    exactly when no vertex lies in three maximal cliques, which the
    filter has checked. The certificate is clique_star on the cliques
    in oracle._clique_order, the very star the scan would return: the
    star is the only bijection tree, with spoke i + 1 taken by the i-th
    clique of that order. h is k as always; the star, of degree m, the
    clique count, is attached only when m <= k.

    Otherwise an odd cycle of the side test (_side_witness), on the
    same table, answers no at any clique count.
    """
    separating, table = _separator_table(g.n, masks, splits, deadline)
    leaf_count = [0] * g.n
    for c, cuts in zip(cliques, separating):
        if not cuts:
            for v in c:
                leaf_count[v] += 1
    if max(leaf_count) > 2:
        return RecognitionResult(False, None, None)
    if any(separating):
        witness = _side_witness(g, masks, table, deadline)
        return None if witness is None else RecognitionResult(False, None, None, side_witness=witness)
    star = clique_star(g.n, [cliques[i] for i in _clique_order(cliques)])
    return RecognitionResult(True, k, star if len(cliques) <= k else None)


def cheapest_representation(g: Graph, budget_secs: float | None = None) -> RecognitionResult:
    """Minimum h with g in Helly [h,2,2], from the atom test, the
    pendant filter or the star (_pendant_answer), the scan and the
    atoms.

    The atom test. Every atom of a Helly EPT graph is complete or
    line-like (_atom_clique_count). An atom A is an induced subgraph,
    so it is Helly EPT, and it is connected with no clique separator.
    Take A's normal form from the oracle: a host tree whose edges are
    A's maximal cliques, each C = K_e for one edge e, with every
    vertex's path made of the edges of its cliques. Suppose A is not
    complete and a vertex's path has three or more edges. The clique
    K_e of a middle edge e separates the vertices whose paths lie
    wholly on either side of e, since paths on opposite sides share no
    edge. Both sides are non-empty: the neighbouring edges' cliques
    differ from K_e, so each holds a vertex whose path stops before e.
    So no vertex lies in three of A's cliques, and A is line-like.
    A chordal graph passes without being decomposed: every atom is an
    induced chordal graph with no clique separator, and a non-complete
    connected chordal graph has one (Dirac 1961), so every atom is
    complete. Nor is a non-chordal graph that _one_atom_count shows to
    be one atom, whose atom test is then the two-clique test it passed.
    The first failing atom, in decomposition order, is the
    obstruction.

    Disconnected inputs get ValueError("input graph must be connected")
    from checks the route makes anyway, with no search of its own. A
    chordal g is connected exactly when its clique forest
    (_chordal_cliques) is one tree, and Graph(0) has no clique. A
    non-chordal g is one atom, and so connected, when _one_atom_count
    answers (its docstring proves it); otherwise _separator_splits
    checks it.

    With k the maximum clique count over g's atoms (1 for a chordal
    g), k is 1 or at least 4, because a passing atom has one clique or
    at least four:
    - two maximal cliques C1, C2 would meet in a clique separator:
      every edge lies in C1 or C2, so C1 & C2 separates C1 - C2 from
      C2 - C1;
    - three would be a line-like clique graph H on 3 nodes, and the
      only 2-connected graph on 3 nodes is a triangle.
    A non-chordal g has an atom that is not complete, so it has k >= 4,
    and then h = k. A chordal g has h = 2 if it is interval and 3 if
    not. The certificate tells which:
    - the scan tries tree shapes in ascending maximum degree;
    - the path is the only shape with m edges and degree <= 2;
    - paths on a path host derive an interval graph, and an interval
      graph's clique path (Gilmore & Hoffman 1964) is a bijection tree;
    - so the certificate lies on a path exactly when g is interval.

    A non-chordal g that passes the atom test goes to _pendant_answer;
    only what it leaves reaches the scan and its clique bound. Chordal
    inputs skip the pendant filter, as a chordal graph with no
    separating maximal clique has at most two (every inner node of a
    clique tree separates), but not the side test, on the clique tree
    of the search that found them chordal (_clique_tree_table). It
    needs four cliques, K and one per component of an odd cycle, and a
    connected g, which the root count has checked.

    The certificate is omitted when its tree's degree exceeds h, as on
    a K8 with five cliques attached (h = 3, while every bijection tree
    needs degree 4).

    The budget is resolved and checked first, so a NaN or negative one
    is a ValueError on every route. It runs from the start of the call
    to one deadline, checked after the maximum-cardinality search and
    after the clique listing: _one_atom_count, MCS-M and the component
    search per separator, which run once for the split loop and the
    table, the split loop, the table, the side test and the scan raise
    BudgetExhaustedError once it has passed.

    The route reads g's neighbour masks (Graph._adj), which the scan
    (oracle._scan) gets with the cliques the route listed, sorted, and
    that deadline, so each call lists maximal cliques once at most.
    Above oracle.CLIQUE_BOUND cliques it raises oracle_membership's
    BoundExceededError. The pendant filter and the side test read one
    table (_separator_table) off the one search of g - S per clique
    minimal separator S that the split loop also reads, so C_5 with
    2 000 pendant vertices at one cycle vertex reaches that bound in
    about 0.05 s at the default budget (9 995 pendants: 0.4-0.6 s;
    2 CPUs, Python 3.11).
    """
    deadline = time.monotonic() + resolve_budget_secs(budget_secs)
    adj = g._adj
    k = 1
    chordal = _chordal_cliques(g)
    _check_deadline(deadline)
    if chordal is not None:
        cliques, parent = chordal
        if parent.count(-1) != 1:  # a clique forest of one tree; Graph(0) has none
            raise ValueError("input graph must be connected")
        if len(cliques) >= 4:
            masks = [_mask(c) for c in cliques]
            witness = _side_witness(g, masks, _clique_tree_table(g.n, masks, parent), deadline)
            if witness is not None:
                return RecognitionResult(False, None, None, side_witness=witness)
    else:
        k = _one_atom_count(adj, deadline)
        splits = []  # one atom has no clique separator
        if k is None:
            k, splits = 1, _separator_splits(g, deadline)
            for atom in _atom_masks(g.n, splits, deadline):
                if (count := _atom_clique_count(adj, atom)) is None:
                    return RecognitionResult(False, None, None, obstruction=_members(atom))
                k = max(k, count)
        listed = sorted((_members(c), c) for c in _clique_masks(adj))
        _check_deadline(deadline)
        cliques = [c for c, _ in listed]
        answer = _pendant_answer(g, cliques, [c for _, c in listed], splits, k, deadline)
        if answer is not None:
            return answer
    rep = _scan(cliques, adj, deadline)
    if rep is None:
        return RecognitionResult(False, None, None)
    degree = max_host_degree(rep)
    if k == 1:
        h = 2 if degree <= 2 else 3
    else:
        h = k
    cert = rep if degree <= h else None
    return RecognitionResult(True, h, cert)


def helly_h_membership(g: Graph, h: int, budget_secs: float | None = None) -> bool:
    """Whether g is Helly [h,2,2] for h >= 2, i.e. whether its cheapest
    host degree is at most h. Raises when g is not Helly EPT at all."""
    if h < 2:
        raise ValueError("membership test requires h >= 2")
    result = cheapest_representation(g, budget_secs)
    if not result.helly_ept:
        raise ValueError("graph is not Helly EPT")
    return result.h <= h

"""The decision pipeline: Helly EPT membership and the minimum host
degree.

cheapest_representation decides membership in up to three steps.
First the atom test: a graph one of whose clique-separator atoms is
neither complete nor line-like is no member, and that atom is the
witness. A chordal graph passes without being decomposed (is_chordal),
since all its atoms are complete. Then, for a non-chordal graph, the
internal-edge lemma (_pendant_answer): a maximal clique that separates
nothing is a leaf edge of every normal form, so a vertex in three such
cliques rules g out, and a graph with no separating maximal clique is
a member exactly when its star is, at any clique count. Every other
graph goes to the oracle's exhaustive bijection-tree search, which
also yields the certificate. is_helly_ept is that search alone, the
reference the tests compare with. For a member, h rests on the
certificate and the atoms (see cheapest_representation). is_interval
and has_asteroidal_triple are standalone tests off that route; the
tests use them as its independent reference. The independent
characterization says non-membership at degree h is equivalent to an
induced gate with more than h cliques (gates.contains_gate_ge); the
tests compare both routes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .decomposition import atoms
from .gates import _two_clique_split
from .graphs import (
    Graph,
    VertexSet,
    connected_components,
    enumerate_maximal_cliques,
    induced_subgraph,
    is_connected,
)
from .oracle import _clique_order, oracle_membership, resolve_budget_secs
from .representation import EptRepresentation, clique_star, max_host_degree


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of cheapest_representation. When helly_ept, h is the
    minimum host degree (at least 2) and certificate, when attached,
    is a verified Helly representation of that degree or lower. When
    not, obstruction, when attached, is the vertex set in g of an atom
    that is neither complete nor line-like. Without it, either a vertex
    lies in three maximal cliques that separate nothing (the pendant
    filter in _pendant_answer) or the exhaustive search ruled g out."""

    helly_ept: bool
    h: int | None
    certificate: EptRepresentation | None
    obstruction: VertexSet | None = None


def is_chordal(g: Graph) -> bool:
    """Maximum-cardinality search plus perfect-elimination check, in
    O(n + m): unvisited vertices wait in buckets by weight."""
    n = g.n
    weight = [0] * n
    buckets: list[set[int]] = [set(range(n))] + [set() for _ in range(n)]
    top = 0
    visited = [False] * n
    visit: list[int] = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        visited[v] = True
        visit.append(v)
        for u in g.neighbors(v):
            if not visited[u]:
                buckets[weight[u]].remove(u)
                weight[u] += 1
                buckets[weight[u]].add(u)
        top += 1  # a step raises the maximum weight by at most one
    peo = visit[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if later:
            u = min(later, key=lambda w: pos[w])
            if any(w != u and not g.has_edge(u, w) for w in later):
                return False
    return True


def has_asteroidal_triple(g: Graph) -> bool:
    """Three pairwise non-adjacent vertices, each pair joined by a path
    avoiding the third's closed neighborhood: each two share a component
    of g - N[c] for the third vertex c, labelled once per vertex."""
    label = []  # label[c][v]: v's component of g - N[c], -1 inside N[c]
    for c in range(g.n):
        closed = g.neighbors(c) | {c}
        sub, mapping = induced_subgraph(g, (v for v in range(g.n) if v not in closed))
        comps = enumerate(connected_components(sub))
        where = {mapping[v]: i for i, comp in comps for v in comp}
        label.append([where.get(v, -1) for v in range(g.n)])
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
    bijection-tree search rules one out."""
    if g.n == 0 or not is_connected(g):
        raise ValueError("input graph must be connected")
    return oracle_membership(g, budget_secs=budget_secs)


def _atom_clique_count(atom: Graph) -> int | None:
    """1 for a complete atom, its clique count for a line-like one and
    None for any other, from gates._two_clique_split on the true-twin
    quotient (a vertex per class of equal closed neighbourhoods).

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
    index: dict[frozenset[int], int] = {}
    label = [index.setdefault(near | {v}, len(index)) for v, near in enumerate(atom._adj)]
    if len(index) == 1:
        return 1
    # a set of classes, not a sum over vertices: two twins would carry a bit
    adj = [sum(1 << c for c in {label[u] for u in closed} - {i}) for i, closed in enumerate(index)]
    ok, count = _two_clique_split(adj, (1 << len(adj)) - 1)
    return count if ok else None


def _separating(
    g: Graph, cliques: list[VertexSet], pieces: list[tuple[Graph, VertexSet]]
) -> list[bool]:
    """Whether each maximal clique separates the connected graph g,
    whose atoms are `pieces`.

    A clique C that separates g holds a vertex lying in two atoms. Take
    a and b in different components of g - C, and S a minimal subset of
    C separating them: it is complete, and not empty as g is connected.
    By minimality each s in S has a neighbour x in a's component of
    g - S and a neighbour y in b's. The atoms cover every edge, as each
    split keeps its separator in every part. An atom holding both sx
    and sy would be split by its part of S, a complete set separating x
    from y inside it, so s lies in two atoms. A single atom therefore
    needs no test, and otherwise only the cliques holding a vertex of
    two atoms get one, in O(n + m) each.
    """
    atom_count = [0] * g.n
    for _, vertices in pieces:
        for v in vertices:
            atom_count[v] += 1
    return [
        any(atom_count[v] > 1 for v in c)
        and not is_connected(induced_subgraph(g, set(range(g.n)).difference(c))[0])
        for c in cliques
    ]


def _pendant_answer(
    g: Graph, pieces: list[tuple[Graph, VertexSet]], k: int
) -> RecognitionResult | None:
    """The answer for a non-chordal g whose atoms `pieces` passed the
    atom test with k the largest atom clique count, when the maximal
    cliques that separate nothing decide it; None when the scan must.

    The internal-edge lemma. In a normal form (oracle.py: a host tree
    whose edges are g's maximal cliques, each vertex's path made of the
    edges of its cliques), the clique K_e of every internal edge e
    separates g. Each side of e holds another edge D. By maximality
    K_D has a vertex outside K_e, whose path holds D but not e and so
    stays on D's side. Adjacent vertices share an edge, so every path
    in g between the two such vertices, one per side, passes a vertex
    whose path crosses e, that is a vertex of K_e. Hence a maximal
    clique that separates nothing is a leaf edge of every normal form.

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
    """
    cliques = enumerate_maximal_cliques(g)
    separating = _separating(g, cliques, pieces)
    leaf_count = [0] * g.n
    for c, sep in zip(cliques, separating):
        if not sep:
            for v in c:
                leaf_count[v] += 1
    if max(leaf_count) > 2:
        return RecognitionResult(False, None, None)
    if any(separating):
        return None
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
    complete. The first failing atom, in decomposition order, is the
    obstruction. Disconnected inputs are refused by atoms or, when
    chordal, by is_helly_ept, with the same ValueError.

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

    A non-chordal g that passes the atom test goes to _pendant_answer,
    which answers it without the scan when a vertex lies in three
    maximal cliques that separate nothing, or when no maximal clique
    separates g; only the rest reach the scan and its clique bound.
    Chordal inputs skip this step: their answers come from the scan,
    and a chordal graph with no separating maximal clique has at most
    two, as every inner node of a clique tree separates.

    The certificate is omitted when its tree's degree exceeds h, as on
    a K8 with five cliques attached (h = 3, while every bijection tree
    needs degree 4).

    The budget is resolved and checked first, so a NaN or negative one
    is a ValueError on every route. It runs from the start of the call:
    the scan gets what the atom test and the pendant filter left, none
    when they took it all.
    """
    budget_secs = resolve_budget_secs(budget_secs)
    start = time.monotonic()
    k = 1
    if not is_chordal(g):
        pieces = atoms(g)
        for atom, vertices in pieces:
            if (count := _atom_clique_count(atom)) is None:
                return RecognitionResult(False, None, None, obstruction=vertices)
            k = max(k, count)
        answer = _pendant_answer(g, pieces, k)
        if answer is not None:
            return answer
    rep = is_helly_ept(g, max(0.0, budget_secs - (time.monotonic() - start)))
    if rep is None:
        return RecognitionResult(False, None, None)
    if k == 1:
        h = 2 if max_host_degree(rep) <= 2 else 3
    else:
        h = k
    cert = rep if max_host_degree(rep) <= h else None
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
